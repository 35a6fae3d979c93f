"""Core data structures of the T-DAT delay analyzer."""

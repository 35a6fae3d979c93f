"""Discrete-event network simulation substrate."""

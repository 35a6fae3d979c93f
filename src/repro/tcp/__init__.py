"""TCP substrate: window-based congestion control on the simulator."""

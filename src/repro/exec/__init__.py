"""Parallel execution substrate: the work pool behind campaigns."""

"""Workload generation: synthetic tables, scenarios and campaigns."""

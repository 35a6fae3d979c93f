"""T-DAT analysis pipeline: profiles, series, factors, detectors."""

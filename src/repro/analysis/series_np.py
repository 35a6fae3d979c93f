"""An empty module where the numpy series backend used to live.

The series layer has one implementation: the python Outstanding walk
in :mod:`repro.analysis.series`.  This name stays importable only
because the analysis setup probe in ``bench/workloads.py`` imports it;
it goes once that probe stops naming it.
"""

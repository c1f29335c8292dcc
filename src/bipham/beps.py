"""Balanced exceptional path systems: none are built.  The paper lays them,
stacked into balanced exceptional factors, in an oriented scheme on the
refined clusters; here every 1-factorization packs its host around itself
(``pipeline.run_theorem_1factbip``), so neither the scheme nor its factors
exist.  The module stays, empty, because the benchmark's tracer
(``perfbench/tracing.py``, ``_patch``) imports it by name without a guard.
"""

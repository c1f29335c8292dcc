"""Fictive edges: none are built.  The paper replaces each balanced
exceptional system by a fictive matching between the two sides; here the
approximate decomposition prescribes each system's own paths instead.  The
module stays, empty, because the benchmark's tracer
(``perfbench/tracing.py``, ``_patch``) imports it by name without a guard.
"""

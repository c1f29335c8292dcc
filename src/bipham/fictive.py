"""Fictive edges: none are built.  The paper replaces each balanced
exceptional system by a fictive matching between the two sides; here the
robust front runs only on frameworks without exceptional vertices, so its
systems are empty and ``beps`` chains perfect matchings between rows
instead.  The module stays, empty, because the benchmark's tracer
(``perfbench/tracing.py``, ``_patch``) imports it by name without a guard.
"""

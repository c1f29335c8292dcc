"""The robust decomposition front: none is built.  The paper closes its
decomposition with the robust decomposition lemma of Kühn and Osthus,
around a chord absorber and a parity switcher; here every 1-factorization
packs its host around itself, and the split-and-switch engine that once
discharged the lemma's closure now closes the approximate decomposition
(``switches``).  The module stays, empty, because the benchmark's tracer
(``perfbench/tracing.py``, ``_patch``) imports it by name without a guard.
"""

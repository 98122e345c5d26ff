"""Retired: batch density routing.

The ``sparse`` backend used to route dense batches to the
``vectorized`` kernels from here.  Both names now select one engine,
:class:`~repro.core.engine.vectorized.VectorizedEngine`, which skips
silent images itself, so nothing is left to route.  The module stays
importable only because the benchmark harness (``perfbench/``) still
imports it; the next change to that harness removes it.
"""

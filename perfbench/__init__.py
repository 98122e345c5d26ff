"""End-to-end and per-layer benchmark of the repro system.

Run one workload with::

    python3 perfbench/run.py --workload sweep-vgg --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` times the
public calls into each layer from this package's own wrappers and prints
the per-layer metrics.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

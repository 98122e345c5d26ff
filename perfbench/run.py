"""Benchmark entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-vgg|sweep-events|serve-tcp \\
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it carries diagnostics (noise floor, sample counts, p99, per-span
self time, tracing overhead), also written to ``.perfbench_out/``.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The program runs one lane per core.  A BLAS pool of nproc threads in
# every lane oversubscribes the cores and spin-waits: on a 2-vCPU host
# the VGG sweep ran 3x slower and far noisier.  One thread per process,
# set before numpy loads, and inherited by every lane and child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    # Replace this script's own directory on the path, so the package's
    # modules are only importable as ``perfbench.<name>``.
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    if "--role" in argv:
        from perfbench import roles

        return roles.main(argv)
    from perfbench import bench

    return bench.run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

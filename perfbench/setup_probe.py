"""One cold set-up of a workload, timed in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Prints the seconds from before ``import tusolve`` to the point where the
first timed operation would start: the import of tusolve and of every module
it needs, input generation and, for ``family``, the game files written into
``<workdir>``.  tusolve is imported before any other module, so that it finds
none of its imports loaded already.  ``run.py`` starts this script several
times per run, one process after another, and reports the median.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402  (loaded by the interpreter at start-up)
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import tusolve  # noqa: E402
import tusolve.cli  # noqa: E402

from workloads import build  # noqa: E402


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    build(workload, seed, tusolve, tusolve.cli, workdir)
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point; see perfbench/README.md.

    python3 perfbench/run.py --workload profile-graphs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the program is imported from ``src/`` next to this directory.
The BLAS thread count is pinned here, before anything imports numpy.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    root = Path(__file__).resolve().parents[1]
    if not (root / "src" / "cvge" / "__init__.py").is_file():
        print(f"error: no cvge sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.bench import main as bench_main

    return bench_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

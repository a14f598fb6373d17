"""Benchmark entry point: python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1, from the root of a source checkout.

It imports splr from the checkout's src/ and nowhere else, and sets
BLAS to one thread before numpy loads: on a shared 2-CPU machine two
BLAS threads made a 1000x1000 SVD up to 20x slower whenever the other
CPU was busy, and only 10% faster when it was idle.
"""

import os
import sys
import time

T0 = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "splr", "__init__.py")):
        sys.exit(f"perfbench: no splr package under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [SRC, ROOT]
    from perfbench.bench import main  # noqa: E402 - after the BLAS limit

    sys.exit(main(import_s=time.perf_counter() - T0))

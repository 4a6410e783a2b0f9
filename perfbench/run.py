"""Run one workload of the polyres benchmark and print its result.

    python3 perfbench/run.py --workload offline|online-tq|online-relpose|bridge \
        --seed N --seconds S --trace 0|1 [--size full|smoke]
    python3 perfbench/run.py --write-golden

Run from the root of a checkout; polyres is imported from its ``src``.
This process becomes the workload process (``harness.py``) with
PYTHONHASHSEED and the BLAS/OpenMP thread counts pinned, which must be set
before the interpreter starts.  The last line printed is the result
object; the line before it is the full report with the environment.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def main() -> int:
    if not (ROOT / "src" / "polyres" / "__init__.py").is_file():
        print(f"run.py: no polyres sources under {ROOT / 'src'}; run from a polyres checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    os.execve(sys.executable, [sys.executable, str(BENCH / "harness.py"), *sys.argv[1:]], env)


if __name__ == "__main__":
    sys.exit(main())

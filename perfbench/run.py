#!/usr/bin/env python3
"""planloc benchmark entry point.

    python3 perfbench/run.py --workload room_matrix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The runner imports planloc from the
checkout's `src/`, generates the workload's inputs from the seed, measures
for `--seconds` seconds, checks the outputs, and prints one JSON object as
its last line: `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json; with
`--trace 1` they are the per-layer metrics, taken from spans recorded around
calls into the package (see METRICS.md). The exit code is 0 when every check
passed, 1 when one failed and 2 when the benchmark cannot run at all.

This file imports nothing that loads numpy: BLAS/OpenMP thread pools are
set to one thread first, which only works before numpy is loaded.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> dict:
    """Run every BLAS/OpenMP pool on one thread.

    The benchmark is one closed-loop client on a few cores of a shared host.
    A second pool thread waits whenever the host takes its core away, so it
    measures the host's scheduler: on 2 vCPUs with one other busy process,
    room_matrix slowed by 13 % with 2 BLAS threads and by 2 % with one, and
    ran as fast with one as with two on an idle machine.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="planloc benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "planloc" / "__init__.py").is_file():
        print(f"error: no planloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import runner

    return runner.main(args, threads, nproc)


if __name__ == "__main__":
    sys.exit(main())

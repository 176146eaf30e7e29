"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload, run at a tiny size with and without tracing, must pass its
checks and emit exactly the metrics BENCHMARK.json names.
The entry point must refuse to run where the planloc sources are missing.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import runner  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(name, trace):
    result, _ = runner.run(name, seed=3, seconds=0.01, trace=trace, size=workloads.TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_counts_do_not_depend_on_run_length():
    short, _ = runner.run("once_replay", seed=3, seconds=0.01, trace=False, size=workloads.TINY)
    long, timings = runner.run("once_replay", seed=3, seconds=1.0, trace=False,
                               size=workloads.TINY)
    assert len(timings["op_s"]) > workloads.OnceReplay.min_ops
    assert (short["attempted"], short["failed"]) == (long["attempted"], long["failed"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "room_matrix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_keeps_ten_samples_beyond():
    assert runner.tail([5.0, 1.0, 3.0]) == (3.0, 50.0, 1)
    value, pct, beyond = runner.tail([float(x) for x in range(40)])
    assert (value, pct, beyond) == (29.0, 75.0, 10)


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    with tracer.span("bench.op", op="op0"):
        with tracer.span("registration.localize"):
            with tracer.span("registration.icp"):
                pass
    root, mid, leaf = tracer.spans
    assert (root.parent, mid.parent, leaf.parent) == (None, 0, 1)
    assert {s.op for s in tracer.spans} == {"op0"}
    selfs = tracer.self_seconds()
    assert selfs[0] == pytest.approx(root.seconds - mid.seconds)
    assert selfs[1] == pytest.approx(mid.seconds - leaf.seconds)
    assert sum(selfs) == pytest.approx(root.seconds)

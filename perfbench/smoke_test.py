"""Smoke test of the benchmark itself.

Runs every workload in tiny mode for about a second, traced and untraced,
and checks the result line against BENCHMARK.json (every declared metric,
with its unit) and the named metrics against their unit and direction. A
synthetic span tree checks the self-time arithmetic. Run from the
repository root:

    python3 perfbench/smoke_test.py      (or: python3 -m pytest perfbench)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NAMED = {
    "pretrain_desk": {"train_episodes_per_s", "train_step_ms_p50", "train_step_ms_p90",
                      "train_final_nll"},
    "predict_shared_context": {"predict_ms_p50", "predict_ms_p90", "predict_auc"},
    "evaluate_suite": {"eval_splits_per_s", "eval_mean_auc", "eval_mean_mse"},
    "predict_bulk": {"bulk_test_rows_per_s", "bulk_mse"},
}
COMMON = {"setup_s", "failed_share", "peak_rss_mb"}


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_self_time_arithmetic():
    # root [0,10] has children A [1,4] and B [3,6], which overlap, and C
    # [8,12], which outlives the root; A has a child [2,3]
    start = np.array([0.0, 1.0, 3.0, 8.0, 2.0])
    end = np.array([10.0, 4.0, 6.0, 12.0, 3.0])
    parent = np.array([-1, 0, 0, 0, 1])
    got = self_times(start, end, parent)
    # root: 10 - |[1,6] u [8,10]| = 3; A: 3 - 1; B: 3; C: 4; leaf: 1
    assert np.allclose(got, [3.0, 2.0, 3.0, 4.0, 1.0]), got


def test_wrapped_calls_record_nested_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    wrapped_leaf = tracer.wrap(leaf, "leaf")

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_outer = tracer.wrap(outer, "outer")
    assert wrapped_outer() == 2 and not tracer.spans  # disabled: no spans
    tracer.enabled = True
    op = tracer.begin_op()
    wrapped_outer()
    tracer.close_span(op)
    a = tracer.arrays()
    names = [str(a["names"][i]) for i in a["name"]]
    assert names == ["op", "outer", "leaf", "leaf"]
    assert list(a["parent"]) == [-1, 0, 1, 1]
    # op [0,7], outer [1,6], leaves [2,3] and [4,5]
    assert list(self_times(a["start"], a["end"], a["parent"])) == [2.0, 3.0, 1.0, 1.0]


def _check_result(workload: str, trace: int) -> None:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result, info = json.loads(lines[-1]), json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]
        assert m["better"] in ("higher", "lower")
    assert info["environment"]["blas_thread_pin"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        assert info["outputs_identical"] is True
        assert result["metrics"]["trace.outputs_identical"]["value"] == 1.0
        return
    for name in SPEC["end_to_end"]:
        if name["name"] != "ok_share":
            assert result["metrics"][name["name"]]["value"] > 0, name
    named = info["named_metrics"]
    assert NAMED[workload] | COMMON <= set(named), set(named)
    for name, m in named.items():
        assert m["unit"] and m["better"] in ("higher", "lower"), name
    assert info["failed_share"]["attempted"] == result["attempted"]


def test_every_workload_reports_every_metric():
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            _check_result(w["name"], trace)


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    try:
        proc = _run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok  {name}")

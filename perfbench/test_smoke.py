"""Smoke test of the benchmark itself, outside the tier-1 testpaths:

    python3 -m pytest perfbench/test_smoke.py -q

It runs a tiny size of every workload, untraced and traced, each in its own
process, and shows that a corrupted expected value is counted as a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_tiny(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_prints_every_metric(workload, trace):
    result, summary = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert f"{workload} fail_ratio = 0 ratio" in summary.splitlines()


CORRUPTED_KIND = {"kacmoody": "kacmoody", "trace-files": "trace", "level3": "trace_n"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_expected_value_is_a_failure(workload, tmp_path):
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import run
    import workloads
    calls, _ = workloads.build(workload, run.load_api(), 1, tmp_path, tiny=True)
    assert all(ok for *_, ok, _ in run.run_pass(calls))
    target = next(c for c in calls if c.kind == CORRUPTED_KIND[workload])
    if isinstance(target.expected, list):
        target.expected = [target.expected[0] + "0"] + target.expected[1:]
    else:
        target.expected += "0"
    failures = [err for *_, ok, err in run.run_pass(calls) if not ok]
    assert failures == ["wrong output"]

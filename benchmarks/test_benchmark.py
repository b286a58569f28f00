"""Fast self-test of the benchmark: every workload once at tiny orders.

    python3 -m pytest benchmarks -q

Checks that each run reports every metric named in BENCHMARK.json with its
unit, that the fault gate holds (``failed == 0``) on a correct program, that
the counts of two traced runs repeat exactly, that the written spans nest,
and that the command refuses to run without the program.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_STATS = ("calls", "terms_in", "terms_out", "rational_share", "hit_ratio", "none_ratio")

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
from workloads import Call  # noqa: E402


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = _run(workload, seed=1, trace=0)
    result = _result(proc)
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert f"fail_ratio     0/{result['attempted']} = 0.0000 ratio" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_report_every_layer_and_repeat_their_counts(workload):
    first, second = (_result(_run(workload, seed, trace=1)) for seed in (2, 3))
    _assert_metrics(first, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["name"].rsplit(".", 1)[1] in COUNT_STATS]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name

    header, rows = tracer.read_spans(str(ROOT / ".bench_out" / f"spans-{workload}-seed3.bin"))
    assert header["count"] == len(rows) > 0
    for name, parent, start, end in rows:
        assert start <= end
        if parent >= 0:
            _, _, p_start, p_end = rows[parent]
            assert p_start <= start and end <= p_end, name


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("operators", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class _Report:
    def __init__(self, status, witness=None):
        self.status, self.witness = status, witness

    def ok(self):
        return self.status == "pass"


def test_a_fault_counts_only_when_detected_with_its_witness():
    key = ((1, 1, 1), -2, (0, 2))
    tampered = Call("tampered", run=None, expect_pass=False, witness_key=key)
    named = {"sector": [1, 1, 1], "z": -2, "degree": [0, 2]}
    assert tampered.verdict_ok(_Report("fail", named))
    assert not tampered.verdict_ok(_Report("fail", {**named, "z": -1}))
    assert not tampered.verdict_ok(_Report("pass"))
    structural = Call("structural", run=None, expect_pass=False)
    assert structural.verdict_ok(_Report("fail", {"kind": "rank"}))
    assert not structural.verdict_ok(_Report("fail", {}))
    assert not Call("clean", run=None).verdict_ok(_Report("fail", named))

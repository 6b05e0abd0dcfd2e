"""Tests of the benchmark itself: smoke runs of every workload and a checker self-test.

Run from the repository root: python3 -m pytest perfbench -q
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
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from fwaudit import cli  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    names = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in names]
    assert all(line["metrics"][m["name"]]["unit"] == m["unit"] for m in names)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", ["audit-sparse", "growth-nested"])
def test_flipped_output_decision_fails_the_op(tmp_path, workload):
    # audit-sparse is checked on probe packets, growth-nested at every packet
    inputs = prepare(WORKLOADS[workload], 11, tmp_path, smoke=True)
    out = tmp_path / "op0.out"
    argv = [a.replace("{out}", str(out)) for a in inputs[0].argv]
    ops = [{"op": 0, "input": 0, "traced": False, "output": str(out),
            "stdout": str(tmp_path / "op0.stdout"), "exit": cli.main(argv), "error": None}]
    judged = [{"argv": list(i.argv), "files": [str(f) for f in i.files]} for i in inputs]
    assert run.judge("audit", judged, ops, seed=11)[0] == {}

    doc = json.loads(out.read_text())
    rule = doc["rules"][len(doc["rules"]) // 2]
    rule["decision"] = "deny" if rule["decision"] == "accept" else "accept"
    out.write_text(json.dumps(doc, indent=2))
    failures, _ = run.judge("audit", judged, ops, seed=11)
    assert list(failures) == [0]
    assert any("outcome differs" in p for p in failures[0])


def test_tail_keeps_ten_ops_beyond_it():
    times = [float(t) for t in range(1, 41)]
    value, rank = run.tail(times)
    assert sum(t > value for t in times) == 10
    assert rank == 75.0
    assert run.tail(times[:10]) == (10.0, 100.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "audit-sparse", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""

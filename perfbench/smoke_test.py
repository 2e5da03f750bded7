"""Smoke test for the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/smoke_test.py

Checks that every metric BENCHMARK.json names is emitted with its unit, and
that a wrong outcome injected into one op is counted as a failure.
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
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _spec_units(key: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[key]}


# every workload run.py has, archive too, which BENCHMARK.json does not gate
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_have_names_and_units(workload):
    result = _run(workload, 0)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert _units(result) == _spec_units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    result = _run("crosscheck", 1)
    assert result["correct"] is True
    assert _units(result) == _spec_units("per_layer")


def test_injected_wrong_outcome_counts_as_failure(capsys):
    args = run.parse_args(
        ["--workload", "archive", "--seed", "3", "--seconds", "1", "--tiny"]
    )
    ops = run.setup(args.workload, args.seed, "tiny")
    write = ops[0]
    assert write.kind == "write"
    right = write.run
    write.run = lambda: right() + " "
    run.end_to_end(args, ops, 0.5)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2].removeprefix("REPORT "))
    batches = report["batches"]
    assert result["failed"] == batches
    assert report["fail_ratio"] == batches / result["attempted"]
    assert report["classes"][write.cls]["failed"] == batches
    assert result["correct"] is False


def test_known_defect_counts_only_within_its_baseline():
    from workloads import ILL_CONDITIONED

    ops = run.setup("crosscheck", 3, "tiny")
    failure = ("generic", ILL_CONDITIONED, "N=18 real generic", 18)
    # the baseline records this failure once for seed 4 and never for seed 1
    assert run.unknown_failures("crosscheck", 4, ops, [failure], 1, "full") == []
    assert run.unknown_failures("crosscheck", 1, ops, [failure], 1, "full") != []
    # a reason the baseline does not list is never known
    wrong = ("generic", "outcome FAIL, expected pass", "N=18 real generic", 18)
    assert run.unknown_failures("crosscheck", 4, ops, [wrong], 1, "full") != []

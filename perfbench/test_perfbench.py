"""Tests of the benchmark itself, at smoke sizes.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from spans import span_times
from workloads import (
    WORKLOADS,
    Outcome,
    Workload,
    consensus_cli_problems,
    estimate_problems,
    sweep_row_problems,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        assert f"{workload} {name} = " in proc.stdout
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_listed_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep-unimodular", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sweep_checks_catch_corrupted_rows():
    good = {"n": 8, "trials": 1, "failures": 0, "mean_var_optimized": 0.5,
            "mean_var_all_ones": 0.5, "mean_var_random": 0.5, "frac_improved": 1.0}
    assert sweep_row_problems(good, unimodular=True) == []
    for bad in (
        {"failures": 1},
        {"frac_improved": 0.5},
        {"mean_var_optimized": 0.6},
        {"mean_var_random": 0.5 * (1 + 1e-9)},
        {"mean_var_optimized": math.nan},
    ):
        assert sweep_row_problems({**good, **bad}, unimodular=True), bad
    assert sweep_row_problems({**good, "mean_var_random": 0.7}, unimodular=False) == []


def test_consensus_checks_catch_corrupted_outputs():
    summary = {"converged": True, "iterations": 2, "n": 3}
    trace = b"header\n" + b"row\n" * 9
    assert consensus_cli_problems(0, summary, trace) == []
    assert consensus_cli_problems(1, summary, trace)
    assert consensus_cli_problems(0, {**summary, "converged": False}, trace)
    assert consensus_cli_problems(0, summary, trace[:-4])


def test_estimate_checks_catch_corrupted_outputs():
    I0 = np.array([1.0, 2.0, 3.0])
    final = np.full(3, 10.0 + 1.0j)
    assert estimate_problems(I0, 6.0, True, final, 10.0 + 1.0j) == []
    assert estimate_problems(I0, 6.0 * (1 + 1e-9), True, final, 10.0 + 1.0j)
    assert estimate_problems(I0, 6.0, False, final, 10.0 + 1.0j)
    assert estimate_problems(I0, 6.0, True, final + np.array([0, 1e-3, 0]), 10.0 + 1.0j)
    assert estimate_problems(I0, 6.0, True, np.array([np.nan, 10 + 1j, 10 + 1j]), 10.0 + 1.0j)


def test_truncated_trace_file_fails_the_run(tmp_path):
    sys.path.insert(0, str(run.SRC))
    try:
        lib = run.import_lib()
        write = lib.experiment.write_convergence_trace

        def write_then_truncate(path, *args):
            write(path, *args)
            lines = Path(path).read_bytes().splitlines(keepends=True)
            Path(path).write_bytes(b"".join(lines[:-1]))

        lib.experiment.write_convergence_trace = write_then_truncate
        wl = WORKLOADS["consensus-cli"]
        runner = run.Runner(wl, wl.smoke, 3, tmp_path)
        _, outcome = runner.job(lib, 0)
    finally:
        sys.path.remove(str(run.SRC))
    assert outcome.failed == 1 and runner.failed == 1
    assert any("rows" in p for p in runner.problems)


def test_outputs_that_change_between_repeats_fail_the_run(tmp_path):
    digests = iter(["a", "b"])
    wl = Workload(
        name="flaky", default_seed=0, params={"inputs": 1}, smoke={"inputs": 1},
        run=lambda lib, params, seed, out: None,
        check=lambda lib, params, result, out: Outcome(scenarios=1, digest=next(digests)),
        reference="interpreter",
    )
    runner = run.Runner(wl, wl.params, 0, tmp_path)
    lib = type("Lib", (), {"errors": type("Errors", (), {"WsnMleError": RuntimeError})})
    runner.job(lib, 0)
    runner.job(lib, 0)
    assert runner.failed == 1
    assert runner.problems == ["input 0: outputs differ between repeats of this input"]


def test_self_time_excludes_child_spans():
    spans = [["a.f", 0.0, 10.0, -1, 0], ["b.g", 2.0, 5.0, 0, 0], ["b.g", 6.0, 7.0, 0, 0]]
    inclusive, own = span_times(spans)
    assert inclusive == {"a.f": 10.0, "b.g": 4.0}
    assert own == {"a.f": 6.0, "b.g": 4.0}

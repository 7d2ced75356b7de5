"""The benchmark's workloads and the checks on their outputs.

A workload turns the benchmark seed into a fixed set of job inputs (input
``i`` runs under master seed ``SeedSequence((seed, i))``) and runs jobs
on them through wsnmle's public API.  ``run`` is the timed part;
``check`` inspects what it returned and wrote, outside the timed region.

Each workload exists to make one layer dominate (see README.md for the
measured shares):

* ``sweep-fixed-energy`` -- the paper's headline experiment; the cyclic
  gain optimizer takes ~99% of the time and the n=64 trials often stop at
  ``max_outer`` without converging.
* ``sweep-unimodular`` -- the same sweep, where the optimizer exits after
  one cycle; scenario building, channels, ``node_information`` and
  ``select_retainers`` dominate.  The control for optimizer changes.
* ``consensus-cli`` -- ``wsnmle consensus`` in-process; writing the
  per-iteration trace CSV dominates, consensus comes second.
* ``estimate-sparse`` -- the estimation pipeline without optimizer or
  files; the ADMM consensus kernel dominates.

``sweep-fixed-energy`` and ``consensus-cli`` are not listed in
BENCHMARK.json: their throughput moved too much between runs (README.md
has the numbers).  They run by name, for their traces.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

# Unimodular gains all have |a_i| = 1, and the information depends on the
# gains only through |a_i|, so every feasible gain vector gives the same
# variance up to rounding.
UNIMODULAR_RTOL = 1e-12
# decompose_information and information_total sum the same per-row terms
# in different orders.
INFO_RTOL = 1e-12
# Consensus stops once each stream's disagreement, scaled by max(1, |mean|),
# is below tol = 1e-8; the ratio P_i / I_i then sits within about
# tol * (1 + |theta|) * max(1, mean_I) / mean_I of the centralized estimate.
# 1e-6 relative leaves two orders of margin over that at the sizes used.
ESTIMATE_RTOL = 1e-6


def input_seed(seed: int, index: int) -> int:
    """Master seed of job input ``index`` under benchmark seed ``seed``."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


@dataclass
class Outcome:
    """What one job produced, as far as the benchmark needs it."""

    scenarios: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    var_optimized: float = 0.0  # sweeps: summed variance under optimized gains
    var_ones: float = 0.0  # sweeps: summed variance under all-ones gains
    bytes_written: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    params: dict
    smoke: dict
    run: Callable[[Any, dict, int, Path], Any]
    check: Callable[[Any, dict, Any, Path], Outcome]
    # Reference kernel (reference.py) that gauges the machine's speed for
    # the kind of work that dominates this workload.
    reference: str

    def scenarios_per_job(self, params: dict) -> int:
        return len(params["n_list"]) if "n_list" in params else 1


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# Variance sweeps
# ---------------------------------------------------------------------------


def _run_cli(lib, args, config: dict, out_dir):
    """``wsnmle <args> --config <file> --out-dir <out_dir>`` in-process."""
    path = out_dir.with_suffix(".json")
    path.write_text(json.dumps(config), encoding="utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = lib.cli.main([*args, "--config", str(path), "--out-dir", str(out_dir)])
    return code, stdout.getvalue()


def run_sweep(lib, params, master_seed, out_dir):
    config = {"constraint": params["constraint"], "trials": 1, "master_seed": master_seed}
    n_list = ",".join(str(n) for n in params["n_list"])
    return _run_cli(lib, ["sweep", "--n-list", n_list], config, out_dir)


def sweep_row_problems(row: dict, unimodular: bool) -> list[str]:
    """Checks on one row of ``sweep.csv``."""
    n = int(row["n"])
    problems = []
    if row["failures"]:
        problems.append(f"n={n}: {int(row['failures'])} trials failed")
    if row["frac_improved"] != 1.0:
        problems.append(f"n={n}: frac_improved={row['frac_improved']!r}, expected 1.0")
    if not row["mean_var_optimized"] <= row["mean_var_all_ones"]:
        problems.append(
            f"n={n}: optimized variance {row['mean_var_optimized']!r} above all-ones "
            f"{row['mean_var_all_ones']!r}"
        )
    if unimodular:
        ones = row["mean_var_all_ones"]
        for key in ("mean_var_optimized", "mean_var_random"):
            if not abs(row[key] - ones) <= UNIMODULAR_RTOL * ones:
                problems.append(f"n={n}: {key}={row[key]!r} differs from all-ones {ones!r}")
    return problems


def check_sweep(lib, params, result, out_dir) -> Outcome:
    code, _ = result
    sweep_csv = (out_dir / "sweep.csv").read_bytes()
    with open(out_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    unimodular = params["constraint"] == "unimodular"
    out = Outcome(scenarios=len(params["n_list"]), digest=_sha256(sweep_csv), bytes_written=_dir_bytes(out_dir))
    if code != 0 or len(rows) != out.scenarios:
        out.problems.append(f"exit code {code}, {len(rows)} rows in sweep.csv")
        out.failed = out.scenarios
    for row in rows:
        problems = sweep_row_problems(row, unimodular)
        out.problems += problems
        out.failed = min(out.failed + bool(problems), out.scenarios)
        out.var_optimized += row["mean_var_optimized"]
        out.var_ones += row["mean_var_all_ones"]
    return out


# ---------------------------------------------------------------------------
# `wsnmle consensus` through the CLI
# ---------------------------------------------------------------------------


def _cli_config(params, master_seed) -> dict:
    return {
        "n": params["n"],
        "radius": params["radius"],
        "constraint": "unimodular",
        "master_seed": master_seed,
    }


def run_consensus_cli(lib, params, master_seed, out_dir):
    return _run_cli(lib, ["consensus"], _cli_config(params, master_seed), out_dir)


def consensus_cli_problems(code: int, summary: dict, trace_csv: bytes) -> list[str]:
    """Checks on one ``wsnmle consensus`` run."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if summary.get("converged") is not True:
        problems.append(f"consensus did not converge: {summary.get('converged')!r}")
    rows = trace_csv.count(b"\n") - 1
    expected = (summary["iterations"] + 1) * summary["n"]
    if rows != expected:
        problems.append(f"trace has {rows} rows, expected (iterations+1)*n = {expected}")
    return problems


def check_consensus_cli(lib, params, result, out_dir) -> Outcome:
    code, stdout = result
    summary = json.loads(stdout.strip().splitlines()[-1])
    trace_csv = (out_dir / "consensus_trace.csv").read_bytes()
    summary_json = (out_dir / "summary.json").read_bytes()
    problems = consensus_cli_problems(code, summary, trace_csv)
    return Outcome(
        scenarios=1,
        failed=int(bool(problems)),
        problems=problems,
        digest=_sha256(trace_csv, summary_json),
        bytes_written=_dir_bytes(out_dir),
    )


# ---------------------------------------------------------------------------
# The estimation pipeline, called directly
# ---------------------------------------------------------------------------


def run_estimate(lib, params, master_seed, out_dir):
    ex, nm, fu = lib.experiment, lib.network_model, lib.fusion
    cfg = ex.ExperimentConfig(n=params["n"], radius=params["radius"], master_seed=master_seed)
    g, model = ex.build_scenario(cfg)
    gains = nm.GainVector.ones(g.n, cfg.constraint)
    plan = fu.select_retainers(g, nm.node_information(model, gains))
    gm = fu.build_global_model(model, plan, gains)
    y = fu.sample_received(model, gm, gains, seed=ex.derive_seed(master_seed, "obs", g.n, 0))
    I0, P0 = fu.decompose_information(gm, gains, y)
    run = lib.consensus.decentralized_mle(g, cfg.admm, I0, P0)
    theta = fu.ml_estimate(y, gm, gains)
    return gm, gains, I0, P0, run, theta


def estimate_problems(I0, info_total: float, converged: bool, final: np.ndarray, theta: complex) -> list[str]:
    """Checks on one decentralized estimate against the centralized one."""
    problems = []
    if not abs(float(np.sum(I0)) - info_total) <= INFO_RTOL * info_total:
        problems.append(f"sum(I0)={float(np.sum(I0))!r} differs from information_total={info_total!r}")
    if not converged:
        problems.append("consensus did not converge")
    err = np.abs(final - theta)
    if not np.all(err <= ESTIMATE_RTOL * max(1.0, abs(theta))):
        worst = int(np.nanargmax(np.where(np.isfinite(err), err, np.inf)))
        problems.append(f"node {worst} estimate {final[worst]!r} is off the ML estimate {theta!r}")
    return problems


def check_estimate(lib, params, result, out_dir) -> Outcome:
    gm, gains, I0, P0, run, theta = result
    final = run.theta_final
    problems = estimate_problems(
        I0, lib.fusion.information_total(gm, gains), run.converged, final, theta
    )
    return Outcome(
        scenarios=1,
        failed=int(bool(problems)),
        problems=problems,
        digest=_sha256(
            I0.tobytes(), P0.tobytes(), run.I[-1].tobytes(), run.P[-1].tobytes(),
            final.tobytes(), np.complex128(theta).tobytes(), str(run.iterations).encode(),
        ),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-fixed-energy",
            default_seed=1234,
            params={"constraint": "fixed-energy", "n_list": [16, 64], "inputs": 4},
            smoke={"constraint": "fixed-energy", "n_list": [4, 8], "inputs": 2},
            run=run_sweep,
            check=check_sweep,
            reference="interpreter",
        ),
        Workload(
            name="sweep-unimodular",
            default_seed=1234,
            params={"constraint": "unimodular", "n_list": [64, 256], "inputs": 8},
            smoke={"constraint": "unimodular", "n_list": [8, 16], "inputs": 2},
            run=run_sweep,
            check=check_sweep,
            reference="interpreter",
        ),
        Workload(
            name="consensus-cli",
            default_seed=1234,
            params={"n": 128, "radius": 0.2, "inputs": 6},
            smoke={"n": 16, "radius": 0.5, "inputs": 2},
            run=run_consensus_cli,
            check=check_consensus_cli,
            reference="interpreter",
        ),
        Workload(
            name="estimate-sparse",
            default_seed=1234,
            params={"n": 512, "radius": 0.1, "inputs": 6},
            smoke={"n": 32, "radius": 0.5, "inputs": 2},
            run=run_estimate,
            check=check_estimate,
            reference="blas",
        ),
    )
}

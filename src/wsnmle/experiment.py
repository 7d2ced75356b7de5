"""Reproducible experiment drivers: scenario generation, CSV outputs.

Every random quantity is drawn from a stream derived from the master seed
and a purpose key, so identical configurations produce byte-identical
output files.  The derivation is ``SeedSequence((master_seed, crc32(tag),
index...))``; see the README for the tag table.
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .consensus import AdmmConfig, DecentralizedRun, decentralized_mle
from .errors import ConfigError, WsnMleError, integer_at_least
from .fusion import compress, decompose_information, ml_estimate, ml_variance, sample_received
from .gain_optimizer import OptTrace, gains_cannot_move, optimize
from .network_model import GainDomain, GainVector, NetworkModel, check_channels, check_noise, sample_channels
from .topology import Graph, check_graph_model, random_connected_graph, save_graph

__all__ = [
    "ExperimentConfig",
    "derive_seed",
    "build_scenario",
    "optimize_with_reselection",
    "recorded_run",
    "run_convergence",
    "run_optimize",
    "run_variance_sweep",
]


def derive_seed(master_seed: int, *key) -> int:
    """Derive an independent integer seed from the master seed and a key.

    String key parts are folded through CRC-32 so the scheme is stable
    across runs and platforms.
    """
    parts = [int(master_seed)]
    for part in key:
        parts.append(zlib.crc32(part.encode()) if isinstance(part, str) else int(part))
    ss = np.random.SeedSequence(tuple(parts))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    Every field is checked when the config is built, by the rule of the
    module that reads it; a value that breaks one raises :class:`ConfigError`.
    """

    n: int = 16
    topology_model: str = "geometric"   # "geometric" | "gnp"
    radius: float = 0.5
    p: float = 0.5
    channel_dist: str = "complex_gaussian"  # "complex_gaussian" | "unit"
    sigma_h: float = 1.0
    reciprocal: bool = False
    sigma_v_sq: float | list = 1.0
    sigma_n_sq: float = 0.1
    theta: complex = 10.0 + 0.0j
    constraint: GainDomain = GainDomain.FIXED_ENERGY
    noisy_self_link: bool = False
    admm: AdmmConfig = field(default_factory=AdmmConfig)
    trials: int = 300
    master_seed: int = 1234

    def __post_init__(self):
        for name, low in (("n", 1), ("trials", 1), ("master_seed", 0)):
            integer_at_least(name, getattr(self, name), low)
        check_graph_model(self.topology_model, self.radius, self.p)
        check_channels(self.channel_dist, self.sigma_h)
        object.__setattr__(self, "theta", check_noise(self.sigma_v_sq, self.sigma_n_sq, self.theta)[1])
        for name, value in (("reciprocal", self.reciprocal), ("noisy_self_link", self.noisy_self_link)):
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be true or false, got {value!r}")
        try:
            object.__setattr__(self, "constraint", GainDomain(self.constraint))
        except ValueError:
            raise ConfigError(f"constraint must be 'fixed-energy' or 'unimodular', got {self.constraint!r}") from None
        if not isinstance(self.admm, AdmmConfig):
            raise ConfigError(f"admm must be an object with keys rho, max_iter and tol, got {self.admm!r}")

    @classmethod
    def from_dict(cls, doc) -> "ExperimentConfig":
        """The config a JSON object describes (``admm`` a nested object); a key that names no field raises."""
        doc = dict(_known_keys(cls, doc, "config"))
        if "admm" in doc:
            doc["admm"] = AdmmConfig(**_known_keys(AdmmConfig, doc["admm"], "admm"))
        return cls(**doc)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"cannot read config file {str(path)!r}: {reason}") from None
        return cls.from_dict(doc)


def _known_keys(cls, doc, name: str) -> dict:
    """``doc``, if it is a dict whose keys all name fields of ``cls``; else :class:`ConfigError`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object, got {doc!r}")
    known = {f.name for f in fields(cls)}
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise ConfigError(f"unknown {name} key {', '.join(map(repr, unknown))}")
    return doc


def _trial_graph(cfg: ExperimentConfig, n: int, trial: int) -> tuple[Graph, int]:
    """The random graph of a trial and the seed it was drawn from."""
    seed = derive_seed(cfg.master_seed, "topology", n, trial)
    return random_connected_graph(n, cfg.topology_model, radius=cfg.radius, p=cfg.p, seed=seed), seed


def build_scenario(cfg: ExperimentConfig, n: int | None = None, trial: int = 0):
    """Sample one (graph, model) pair for a trial index."""
    n = cfg.n if n is None else n
    g, _ = _trial_graph(cfg, n, trial)
    h = sample_channels(
        g,
        cfg.channel_dist,
        sigma_h=cfg.sigma_h,
        reciprocal=cfg.reciprocal,
        seed=derive_seed(cfg.master_seed, "channels", n, trial),
    )
    model = NetworkModel(
        graph=g,
        h=h,
        sigma_v_sq=np.asarray(cfg.sigma_v_sq, dtype=float),
        sigma_n_sq=cfg.sigma_n_sq,
        theta=cfg.theta,
        noisy_self_link=cfg.noisy_self_link,
    )
    return g, model


def optimize_with_reselection(model: NetworkModel, a_init: GainVector):
    """The gain-design step: compress at ``a_init``, then optimize once.

    The retained rows are chosen at the initial gains (:func:`compress`)
    and stay frozen for the whole optimization run.  Returns
    ``(global_model, trace)``.
    """
    gm = compress(model, a_init)
    return gm, optimize(gm, a_init)


def _write_csv(path, header, rows) -> None:
    """Write a header row, then ``rows``, as ``\n``-terminated CSV; floats as ``repr(float(x))``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([repr(float(x)) if isinstance(x, float) else x for x in row] for row in rows)


def recorded_run(g: Graph, cfg: AdmmConfig, I0, P0) -> DecentralizedRun:
    """``decentralized_mle`` with every round kept: ``I`` and ``P`` hold rounds ``0 .. iterations``.

    The rows are collected through the ``record`` sink, so this holds the
    whole trajectory in memory; ``decentralized_mle`` alone keeps only the
    final state.
    """
    rows = []
    run = decentralized_mle(g, cfg, I0, P0, record=lambda I, P: rows.append((I, P)))
    I, P = zip(*rows)
    return replace(run, I=np.concatenate(I), P=np.concatenate(P))


def write_convergence_trace(path, run: DecentralizedRun, theta_central: complex) -> None:
    """Trace CSV: iter, node, I_re, P_re, P_im, theta_hat_re, theta_hat_im, disagreement.

    One row per node for every row the run holds (all rounds for a
    :func:`recorded_run`).  The disagreement column holds each node's
    distance to the centralized estimate; guarded entries (information
    still below threshold) are left empty.  Each round's rows are
    formatted from Python floats (``tolist``) with ``repr``; the distance
    is Python's ``abs`` of each complex difference, whose last digit can
    differ from a vectorized ``np.abs``.
    """
    theta_central = complex(theta_central)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("iter,node,I_re,P_re,P_im,theta_hat_re,theta_hat_im,disagreement\n")
        for k, (I, P, theta) in enumerate(zip(run.I, run.P, run.theta)):
            fh.writelines(
                f"{k},{i},{a!r},{p.real!r},{p.imag!r},"
                + (",," if math.isnan(t.real) else f"{t.real!r},{t.imag!r},{abs(t - theta_central)!r}")
                + "\n"
                for i, (a, p, t) in enumerate(zip(I.tolist(), P.tolist(), theta.tolist()))
            )


def run_optimize(cfg: ExperimentConfig, out_dir) -> OptTrace:
    """The gain design of the configured scenario, from all-ones gains.

    Writes ``opt_trace.csv`` (outer_iter, variance, inner_iters_used) and
    ``gains.csv`` (node, re, im) and returns the optimizer trace.
    """
    _, model = build_scenario(cfg)  # rejects a bad model before any output exists
    _, trace = optimize_with_reselection(model, GainVector.ones(cfg.n, cfg.constraint))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = zip(range(len(trace.variances)), trace.variances, trace.inner_iters_used)
    _write_csv(out / "opt_trace.csv", ("outer_iter", "variance", "inner_iters_used"), rows)
    _write_csv(out / "gains.csv", ("node", "re", "im"), ((i, z.real, z.imag) for i, z in enumerate(trace.gains.a.tolist())))
    return trace


def run_convergence(cfg: ExperimentConfig, out_dir) -> dict:
    """One full scenario: optimize gains, then estimate decentralizedly.

    Writes ``consensus_trace.csv`` plus ``summary.json`` (centralized
    reference estimate, its variance, final disagreement, the step
    constant consensus ran with) and returns the summary.
    """
    g, model = build_scenario(cfg)  # rejects a bad model before any output exists
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gm, trace = optimize_with_reselection(model, GainVector.ones(g.n, cfg.constraint))
    gains = trace.gains
    y = sample_received(model, gm, gains, seed=derive_seed(cfg.master_seed, "obs", g.n, 0))
    I0, P0 = decompose_information(gm, gains, y)
    run = recorded_run(g, cfg.admm, I0, P0)
    theta_central = ml_estimate(y, gm, gains)
    final = run.theta_final
    valid = final[~np.isnan(final.real)]
    final_disagreement = float(np.max(np.abs(valid - theta_central))) if valid.size else float("inf")
    write_convergence_trace(out / "consensus_trace.csv", run, theta_central)
    summary = {
        "n": g.n,
        "theta": [cfg.theta.real, cfg.theta.imag],
        "theta_central": [theta_central.real, theta_central.imag],
        "ml_variance": ml_variance(gm, gains),
        "iterations": run.iterations,
        "converged": run.converged,
        "final_disagreement": final_disagreement,
        "rho": run.rho,
    }
    (out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return summary


# Columns of sweep.csv and keys of run_variance_sweep's rows: three counts, then four floats.
SWEEP_COLUMNS = ("n", "trials", "failures", "mean_var_optimized", "mean_var_all_ones", "mean_var_random", "frac_improved")


def run_variance_sweep(cfg: ExperimentConfig, n_list, out_dir) -> list[dict]:
    """Mean estimator variance versus network size.

    For every network size and trial, samples a fresh scenario and
    reports the variance under optimized, all-ones, and random feasible
    gains, plus the fraction of trials the optimizer improved on the
    all-ones baseline.  Random gains are scored on the rows compression
    keeps at them.  A trial whose gains cannot move the variance
    (:func:`~wsnmle.gain_optimizer.gains_cannot_move` on the design
    step's rows) draws no random gains: all three columns get the
    variance at all-ones.  Trials run one after another in index order;
    failures are counted and skipped.  Every size must be an integer of
    at least 1 that a per-node ``sigma_v_sq`` fits; any other entry
    raises :class:`ConfigError` before the first trial, so no trial fails
    on a config value.  The output directory is made only to write
    ``sweep.csv``: a sweep that raises leaves none.
    """
    n_list = list(n_list)
    for i, n in enumerate(n_list):
        check_noise(cfg.sigma_v_sq, cfg.sigma_n_sq, cfg.theta, integer_at_least(f"n_list[{i}]", n, 1))
    rows = []
    for n in n_list:
        done: list[tuple[float, float, float]] = []
        failures = 0
        for trial in range(cfg.trials):
            try:
                _, model = build_scenario(cfg, n=n, trial=trial)
                gm, trace = optimize_with_reselection(model, GainVector.ones(n, cfg.constraint))
                var_ones, var_opt = trace.variances[0], trace.var_final
                if gains_cannot_move(gm, cfg.constraint):  # optimize ran no cycle: var_opt is var_ones
                    var_rand = var_ones
                else:
                    rng = np.random.default_rng(
                        np.random.SeedSequence((derive_seed(cfg.master_seed, "gains", n, trial),))
                    )
                    ar = GainVector.random(n, cfg.constraint, rng)
                    var_rand = ml_variance(compress(model, ar), ar)
            except WsnMleError:
                failures += 1
                continue
            done.append((var_opt, var_ones, var_rand))
        arr = np.array(done).reshape(-1, 3)
        means = arr.mean(axis=0) if done else np.full(3, np.nan)
        improved = float(np.mean(arr[:, 0] <= arr[:, 1])) if done else 0.0
        rows.append(dict(zip(SWEEP_COLUMNS, (n, len(done), failures, *means.tolist(), improved))))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "sweep.csv", SWEEP_COLUMNS, (row.values() for row in rows))
    return rows


def write_topology(cfg: ExperimentConfig, out_dir) -> Path:
    """Generate and save the configured random graph."""
    g, seed = _trial_graph(cfg, cfg.n, 0)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    key = "radius" if cfg.topology_model == "geometric" else "p"  # the model's one parameter
    path = out / "graph.json"
    save_graph(g, path, seed=seed, model={"name": cfg.topology_model, key: getattr(cfg, key)})
    return path

import ast
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wsnmle import experiment, gain_optimizer, selfcheck
from wsnmle.cli import main
from wsnmle.consensus import AdmmConfig, DecentralizedRun
from wsnmle.errors import ConfigError, ZeroInformation
from wsnmle.experiment import (
    ExperimentConfig,
    build_scenario,
    derive_seed,
    optimize_with_reselection,
    recorded_run,
    run_convergence,
    run_variance_sweep,
    write_convergence_trace,
)
from wsnmle.fusion import (
    build_global_model,
    compress,
    decompose_information,
    ml_estimate,
    ml_variance,
    sample_received,
    select_retainers,
)
from wsnmle.network_model import GainDomain, GainVector, node_information
from wsnmle.selfcheck import run_all
from wsnmle.topology import load_graph


def test_config_round_trip():
    # A config file holds theta as [re, im] and the ADMM settings as an object.
    doc = json.loads('{"n": 6, "theta": [3.0, 1.0], "constraint": "unimodular", '
                     '"admm": {"rho": 0.9}, "trials": 7, "master_seed": 77}')
    assert ExperimentConfig.from_dict(doc) == ExperimentConfig(
        n=6, theta=3.0 + 1.0j, constraint=GainDomain.UNIMODULAR, admm=AdmmConfig(rho=0.9), trials=7, master_seed=77)


def test_config_validation():
    for name in ("trials", "n"):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer of at least 1, got 0$"):
            ExperimentConfig(**{name: 0})
    for name, count in [("trials", 2.5), ("trials", True), ("n", 8.0), ("n", "8")]:
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            ExperimentConfig(**{name: count})
    # Every field is checked when the config is built, not where a run first reads it.
    for field, value in [("radius", 0), ("p", "x"), ("sigma_h", -1.0), ("sigma_v_sq", [1.0, 0.0]),
                         ("sigma_n_sq", -1.0), ("theta", [1.0]), ("reciprocal", 1), ("noisy_self_link", "no")]:
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            ExperimentConfig(topology_model="gnp" if field == "p" else "geometric", **{field: value})
    # A number is never a string or a bool, inside a list too.
    for field, value in [("sigma_v_sq", "2"), ("sigma_v_sq", True), ("sigma_v_sq", [True, 2]),
                         ("theta", "1+2j"), ("theta", True), ("theta", [True, 0])]:
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            ExperimentConfig(**{field: value})
    for field, value in [("topology_model", "tree"), ("channel_dist", "x"), ("constraint", "x"), ("admm", {})]:
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            ExperimentConfig(**{field: value})
    assert issubclass(ConfigError, ValueError)


@pytest.mark.parametrize("field, build", [
    ("sigma_n_sq", lambda big: ExperimentConfig(sigma_n_sq=big)),
    ("sigma_h", lambda big: ExperimentConfig(sigma_h=big)),
    ("rho", lambda big: AdmmConfig(rho=big)),
    ("tol", lambda big: AdmmConfig(tol=big)),
    ("sigma_v_sq", lambda big: ExperimentConfig(sigma_v_sq=big)),
    ("sigma_v_sq", lambda big: ExperimentConfig(sigma_v_sq=[1.0, big])),
    ("theta", lambda big: ExperimentConfig(theta=big)),
    ("theta", lambda big: ExperimentConfig(theta=[big, 0])),
    ("radius", lambda big: ExperimentConfig(radius=big)),
    ("p", lambda big: ExperimentConfig(topology_model="gnp", p=big)),
], ids=["sigma_n_sq", "sigma_h", "rho", "tol", "sigma_v_sq", "sigma_v_sq-entry", "theta", "theta-entry",
        "radius", "p"])
def test_config_rejects_integers_beyond_float_range(field, build):
    # A JSON integer of 400 digits: exact comparisons with inf once let it
    # through, and float conversions raised a bare OverflowError.
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        build(10**400)


def _usage_error(capsys, argv, field) -> str:
    """``main(argv)`` prints nothing on stdout and exits 2 with the subcommand's usage and,
    as the last stderr line, ``wsnmle <cmd>: error: ...`` naming ``field``; returns that line."""
    with pytest.raises(SystemExit) as stop:
        main(argv)
    out, err = capsys.readouterr()
    last = err.splitlines()[-1]
    assert stop.value.code == 2 and "Traceback" not in err and out == ""
    assert err.startswith(f"usage: wsnmle {argv[0]}") and last.startswith(f"wsnmle {argv[0]}: error: ")
    assert field in last, last
    return last


@pytest.mark.parametrize("value", [7.9, "7", True, -1], ids=["float", "str", "bool", "negative"])
def test_cli_rejects_bad_master_seed(tmp_path, capsys, value):
    # 7.9 would otherwise draw seed 7's graph, and -1 would fail inside numpy.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"master_seed": value}))
    out = tmp_path / "out"
    _usage_error(capsys, ["topology", "--config", str(cfg_path), "--out-dir", str(out)], "master_seed must be")
    assert not out.exists()


@pytest.mark.parametrize("key", ["xi", "lambda_margin", "inner_iters", "inner_tol", "max_outer"])
def test_config_rejects_optimizer_constants(key):
    # These are module constants of gain_optimizer, not settings: the config has no "opt" section.
    with pytest.raises(ConfigError, match="^unknown config key 'opt'$"):
        ExperimentConfig.from_dict({"opt": {"xi": 1e-8, key: 1}})
    with pytest.raises(ConfigError, match=f"^unknown admm key '{key}'$"):
        ExperimentConfig.from_dict({"admm": {"rho": 0.5, key: 1}})


# A bad config, read by every command: (document, or None for no file; what the error line names).
_CONFIG_PROBES = {
    "misspelt-key": ('{"radiuss": 0.3}', "unknown config key 'radiuss'"),
    "misspelt-admm-key": ('{"admm": {"rhoo": 1}}', "unknown admm key 'rhoo'"),
    "not-an-object": ("[1]", "config must be a JSON object, got [1]"),
    "bad-constraint": ('{"constraint": "x"}', "constraint must be"),
    "bad-json": ("{bad", "cannot read config file 'cfg.json'"),
    "missing-file": (None, "cannot read config file 'cfg.json'"),
    "sigma-v-string": ('{"sigma_v_sq": "2"}', "sigma_v_sq must be"),
    "sigma-v-bool": ('{"sigma_v_sq": true}', "sigma_v_sq must be"),
    "sigma-v-bool-entry": ('{"sigma_v_sq": [true, 2]}', "sigma_v_sq must be"),
    "theta-string": ('{"theta": "1+2j"}', "theta must be"),
    "theta-bool": ('{"theta": true}', "theta must be"),
    "theta-bool-entry": ('{"theta": [true, 0]}', "theta must be"),
}
# Each way a bad value once reached the user, by command: (argv, config document or None, what the error line names).
_BAD_INPUT = {
    **{f"{command}-{probe}": ([command, "--config", "cfg.json"], doc, field)
       for command in ("topology", "optimize", "consensus", "sweep", "selfcheck")
       for probe, (doc, field) in _CONFIG_PROBES.items()},
    "sweep-n-list-zero": (["sweep", "--n-list", "0,4"], None, "n_list[0]"),
    "selfcheck-cases-zero": (["selfcheck", "--cases", "0"], None, "cases"),
    "topology-seed-negative": (["topology", "--seed", "-1"], None, "master_seed"),
    "selfcheck-seed-negative": (["selfcheck", "--seed", "-1"], None, "master_seed"),
    "sweep-trials-zero": (["sweep", "--trials", "0"], None, "trials"),
    # A per-node sigma_v_sq of the wrong length: optimize and consensus once
    # raised DimensionMismatch, and sweep counted every trial of n=8 failed.
    **{f"{command}-sigma-v-length": ([command, *size, "--config", "cfg.json"], doc, field)
       for command, size, doc, field in [
           ("optimize", ["--n", "4"], '{"sigma_v_sq": [1, 1, 1]}', "sigma_v_sq has 3 entries for 4 nodes"),
           ("consensus", ["--n", "4"], '{"sigma_v_sq": [1, 1, 1]}', "sigma_v_sq has 3 entries for 4 nodes"),
           ("sweep", ["--n-list", "4,8"], '{"sigma_v_sq": [1, 1, 1, 1]}', "sigma_v_sq has 4 entries for 8 nodes"),
       ]},
}


@pytest.mark.parametrize("argv, doc, field", _BAD_INPUT.values(), ids=_BAD_INPUT.keys())
def test_cli_rejects_bad_input(tmp_path, monkeypatch, capsys, argv, doc, field):
    # One path for every bad value: exit 2, one error line that names it, no
    # traceback, and nothing written (no sweep row of failed trials either).
    monkeypatch.chdir(tmp_path)
    if doc is not None:
        (tmp_path / "cfg.json").write_text(doc)
    _usage_error(capsys, argv if argv[0] == "selfcheck" else [*argv, "--out-dir", "out"], field)
    assert [p.name for p in tmp_path.iterdir()] == ([] if doc is None else ["cfg.json"])


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "topology", 4, 0) == derive_seed(1, "topology", 4, 0)
    assert derive_seed(1, "topology", 4, 0) != derive_seed(1, "topology", 4, 1)
    assert derive_seed(1, "topology", 4, 0) != derive_seed(1, "channels", 4, 0)
    assert derive_seed(1, "topology", 4, 0) != derive_seed(2, "topology", 4, 0)


def test_build_scenario_deterministic():
    cfg = ExperimentConfig(n=6, master_seed=5)
    g1, m1 = build_scenario(cfg)
    g2, m2 = build_scenario(cfg)
    assert g1 == g2
    np.testing.assert_array_equal(m1.h, m2.h)


def test_run_convergence_deterministic_bytes(tmp_path):
    cfg = ExperimentConfig(n=6, master_seed=3, admm=AdmmConfig(tol=1e-9))
    run_convergence(cfg, tmp_path / "a")
    run_convergence(cfg, tmp_path / "b")
    for name in ("consensus_trace.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_convergence_single_node_flat_trace(tmp_path):
    cfg = ExperimentConfig(n=1, master_seed=4, sigma_n_sq=0.0)
    summary = run_convergence(cfg, tmp_path)
    assert summary["converged"]
    lines = (tmp_path / "consensus_trace.csv").read_text().strip().splitlines()[1:]
    estimates = set()
    for line in lines:
        cells = line.split(",")
        if cells[5]:
            estimates.add((cells[5], cells[6]))
    assert len(estimates) == 1  # the single node's estimate never moves


def test_run_convergence_reaches_central_estimate(tmp_path):
    cfg = ExperimentConfig(n=16, master_seed=6, admm=AdmmConfig(tol=1e-10, max_iter=30_000))
    summary = run_convergence(cfg, tmp_path)
    assert summary["converged"]
    assert summary["final_disagreement"] < 1e-4


def _per_row_trace_writer(path, run, theta_central):
    # The csv-module writer write_convergence_trace replaced: one row per
    # node per round, numpy scalars formatted one at a time.
    iters, n = run.I.shape
    theta = run.theta
    fmt = lambda x: repr(float(x))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["iter", "node", "I_re", "P_re", "P_im", "theta_hat_re", "theta_hat_im", "disagreement"])
        for k in range(iters):
            for i in range(n):
                th = theta[k, i]
                if np.isnan(th.real):
                    tail = ["", "", ""]
                else:
                    tail = [fmt(th.real), fmt(th.imag), fmt(abs(th - theta_central))]
                w.writerow([k, i, fmt(run.I[k, i]), fmt(run.P[k, i].real), fmt(run.P[k, i].imag)] + tail)


def _pipeline_run(n):
    cfg = ExperimentConfig(n=n, radius=0.3, master_seed=11)
    g, model = build_scenario(cfg)
    gains = GainVector.ones(n, cfg.constraint)
    gm = build_global_model(model, select_retainers(g, node_information(model, gains)), gains)
    y = sample_received(model, gm, gains, seed=derive_seed(cfg.master_seed, "obs", n, 0))
    I0, P0 = decompose_information(gm, gains, y)
    return recorded_run(g, cfg.admm, I0, P0), ml_estimate(y, gm, gains)


def _edge_case_run(n):
    # Guarded entries after round 0, signed zeros and extreme exponents.
    rng = np.random.default_rng(12)
    I = rng.standard_normal((6, n)) * 10.0 ** rng.integers(-150, 150, (6, n))
    P = rng.standard_normal((6, n)) * 10.0 ** rng.integers(-150, 150, (6, n))
    P = P + 1j * rng.standard_normal((6, n))
    I[0], P[0] = 0.0, 0.0
    I[1, ::3] = 1e-10
    I[2, ::5], P[2, ::5] = -0.0, complex(-0.0, -0.0)
    run = DecentralizedRun(I=I, P=P, converged=False, iterations=5, disagreement=1.0, rho=0.5)
    return run, 0.75 - 1.25j


@pytest.mark.parametrize("make_run", [_pipeline_run, _edge_case_run], ids=["pipeline", "edge-cases"])
def test_trace_writer_matches_per_row_csv(tmp_path, make_run):
    run, theta_central = make_run(64)
    assert np.isnan(run.theta[0].real).all()  # round 0 is guarded
    write_convergence_trace(tmp_path / "bulk.csv", run, theta_central)
    _per_row_trace_writer(tmp_path / "rows.csv", run, theta_central)
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_convergence_trace_on_160_nodes_matches_per_row_csv(tmp_path):
    # The trace run_convergence writes, every round of it, on a sparser and
    # larger graph than the goldens' (n = 160, radius 0.2); no transmission
    # noise keeps unit gains, so the run can be rebuilt here with every
    # round kept.
    cfg = ExperimentConfig(n=160, radius=0.2, sigma_n_sq=0.0, master_seed=13)
    summary = run_convergence(cfg, tmp_path)
    g, model = build_scenario(cfg)
    gains = GainVector.ones(g.n, cfg.constraint)
    gm = build_global_model(model, select_retainers(g, node_information(model, gains)), gains)
    y = sample_received(model, gm, gains, seed=derive_seed(cfg.master_seed, "obs", g.n, 0))
    I0, P0 = decompose_information(gm, gains, y)
    run = recorded_run(g, cfg.admm, I0, P0)
    assert summary["iterations"] == run.iterations and len(run.I) == run.iterations + 1
    _per_row_trace_writer(tmp_path / "rows.csv", run, ml_estimate(y, gm, gains))
    assert (tmp_path / "consensus_trace.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_failed_convergence_run_writes_no_trace(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise ZeroInformation("total initial information must be positive")

    monkeypatch.setattr(experiment, "decentralized_mle", fail)
    with pytest.raises(ZeroInformation):
        run_convergence(ExperimentConfig(n=8, master_seed=3), tmp_path)
    assert not (tmp_path / "consensus_trace.csv").exists()


def test_sweep_deterministic_and_improving(tmp_path):
    cfg = ExperimentConfig(trials=5, master_seed=11)
    rows1 = run_variance_sweep(cfg, [4, 6], tmp_path / "a")
    rows2 = run_variance_sweep(cfg, [4, 6], tmp_path / "b")
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()
    for row in rows1:
        assert row["failures"] == 0
        assert row["frac_improved"] == 1.0
        assert row["mean_var_optimized"] <= row["mean_var_all_ones"]
    assert rows1 == rows2


def test_optimize_with_reselection_selects_at_initial_gains():
    cfg = ExperimentConfig(n=6, master_seed=13)
    _, model = build_scenario(cfg)
    a0 = GainVector.ones(6, cfg.constraint)
    gm, trace = optimize_with_reselection(model, a0)
    ref = build_global_model(model, select_retainers(model.graph, node_information(model, a0)), a0)
    assert np.array_equal(gm.row_sender, ref.row_sender) and np.array_equal(gm.row_h, ref.row_h)
    # compress is that select-then-build, at any gains.
    a = GainVector.random(6, GainDomain.FIXED_ENERGY, np.random.default_rng(3))
    got = compress(model, a)
    want = build_global_model(model, select_retainers(model.graph, node_information(model, a)), a)
    for key in ("row_receiver", "row_sender", "row_h", "sigma_rows", "v_diag"):
        assert np.array_equal(getattr(got, key), getattr(want, key)), key
    assert trace.variances[0] == ml_variance(ref, a0)
    assert trace.var_final < trace.variances[0]


@pytest.mark.parametrize("n", [2, 16, 64, 200])
def test_unimodular_gains_keep_the_all_ones_rows(n):
    # A row depends on the gains only through |a_s|^2, 1 up to rounding for
    # every unimodular gain, so compression keeps the same rows at any of them.
    ones = GainVector.ones(n, GainDomain.UNIMODULAR)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for noisy_self_link in (False, True):
            for sigma_n_sq in (0.0, 0.1):
                cfg = ExperimentConfig(master_seed=seed, noisy_self_link=noisy_self_link, sigma_n_sq=sigma_n_sq)
                _, model = build_scenario(cfg, n=n)
                want = compress(model, ones)
                got = compress(model, GainVector.random(n, GainDomain.UNIMODULAR, rng))
                for key in ("row_receiver", "row_sender", "row_h", "sigma_rows"):
                    assert np.array_equal(getattr(got, key), getattr(want, key)), (seed, key)


@pytest.mark.parametrize(
    "constraint, sigma_n_sq",
    [(GainDomain.UNIMODULAR, 0.1), (GainDomain.UNIMODULAR, 0.0), (GainDomain.FIXED_ENERGY, 0.0)],
)
def test_sweep_scores_trials_the_gains_cannot_move_once(tmp_path, monkeypatch, constraint, sigma_n_sq):
    # No feasible gain vector changes these variances: the sweep draws no random gains.
    def no_draw(*args, **kwargs):
        raise AssertionError("random gains drawn")

    monkeypatch.setattr(GainVector, "random", no_draw)
    for seed in range(4):
        cfg = ExperimentConfig(constraint=constraint, sigma_n_sq=sigma_n_sq, sigma_v_sq=0.3, trials=3, master_seed=seed)
        rows = run_variance_sweep(cfg, [1, 2, 5, 16], tmp_path / str(seed))
        for row in rows:
            assert row["trials"] == 3 and row["failures"] == 0
            assert row["mean_var_random"] == row["mean_var_all_ones"] == row["mean_var_optimized"], (seed, row)
        lines = (tmp_path / str(seed) / "sweep.csv").read_text().splitlines()[1:]
        assert all(len(set(line.split(",")[3:6])) == 1 for line in lines)


def test_sweep_without_transmission_noise(tmp_path):
    # Noiseless rows each carry 1/sigma_v^2; compression keeps 2n of them, whatever the gains.
    cfg = ExperimentConfig(sigma_n_sq=0.0, trials=3, master_seed=5)
    rows = run_variance_sweep(cfg, [4, 8], tmp_path)
    for row in rows:
        assert row["trials"] == 3 and row["failures"] == 0
        expected = cfg.sigma_v_sq / (2 * row["n"])
        for key in ("mean_var_optimized", "mean_var_all_ones", "mean_var_random"):
            assert row[key] == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert row["frac_improved"] == 1.0


# --- CLI ---------------------------------------------------------------------


def test_cli_topology_and_graph_file(tmp_path):
    rc = main(["topology", "--n", "8", "--seed", "21", "--out-dir", str(tmp_path)])
    assert rc == 0
    g, seed, model = load_graph(tmp_path / "graph.json")
    assert g.n == 8 and model["name"] == "geometric"


def test_cli_optimize(tmp_path, capsys):
    rc = main(["optimize", "--n", "5", "--seed", "22", "--out-dir", str(tmp_path)])
    assert rc == 0
    header = (tmp_path / "opt_trace.csv").read_text().splitlines()[0]
    assert header == "outer_iter,variance,inner_iters_used"
    assert (tmp_path / "gains.csv").exists()
    # Unimodular gains cannot change the information: no cycle runs, and
    # the trace holds the initial gains alone.
    out = tmp_path / "unimodular"
    capsys.readouterr()
    assert main(["optimize", "--constraint", "unimodular", "--n", "8", "--seed", "7", "--out-dir", str(out)]) == 0
    assert (out / "opt_trace.csv").read_text().splitlines() == [header, "0,0.06808172409917895,0"]
    assert capsys.readouterr().out.startswith("n=8 cycles=0 converged=True ")


def test_optimize_reports_the_cycle_cap(tmp_path, monkeypatch, capsys):
    # The default fixed-energy scenario at n = 16 needs more than two cycles.
    monkeypatch.setattr(gain_optimizer, "MAX_OUTER", 2)
    _, model = build_scenario(ExperimentConfig(n=16))
    _, trace = optimize_with_reselection(model, GainVector.ones(16, GainDomain.FIXED_ENERGY))
    assert trace.converged is False and trace.outer_cycles == 2
    assert main(["optimize", "--n", "16", "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("n=16 cycles=2 converged=False ")


def test_cli_optimize_without_transmission_noise(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"sigma_n_sq": 0.0}')
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg_path), "--n", "6", "--seed", "7", "--out-dir", str(out)]) == 0
    rows = (out / "opt_trace.csv").read_text().splitlines()
    assert rows[0] == "outer_iter,variance,inner_iters_used"
    assert len(rows) == 2 and rows[1].startswith("0,")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, flag", [("consensus", "--rho")])
def test_cli_rejects_non_finite_setting(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    _usage_error(capsys, [command, "--n", "8", "--seed", "7", flag, value, "--out-dir", str(out)],
                 "rho must be positive and finite")
    assert not out.exists()  # rejected before any output or solver run


_NON_FINITE_MODEL = {
    "theta-nan": '{"theta": [NaN, 0.0]}',
    "theta-inf": '{"theta": [Infinity, 0.0]}',
    "sigma_n_sq-inf": '{"sigma_n_sq": Infinity}',
    "sigma_v_sq-inf": '{"sigma_v_sq": Infinity}',
    "sigma_h-nan": '{"sigma_h": NaN}',
    "radius-zero": '{"radius": 0}',
}  # each key names its field, then a dash


@pytest.mark.parametrize("command, key", [
    pytest.param(command, key, id=key if command == "consensus" else f"{command}-{key}")
    for command in ("consensus", "optimize", "sweep")
    for key in _NON_FINITE_MODEL
])
def test_cli_rejects_non_finite_model_config(tmp_path, capsys, command, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_NON_FINITE_MODEL[key])  # json reads NaN and Infinity
    out = tmp_path / "out"
    size = ["--n-list", "8"] if command == "sweep" else ["--n", "8"]
    field = key.rsplit("-", 1)[0]
    line = _usage_error(capsys, [command, "--config", str(cfg_path), *size, "--seed", "7", "--out-dir", str(out)],
                        f"error: {field} must be")
    assert "finite" in line or field == "radius"
    assert not out.exists()  # rejected when the config is built, before any trial


@pytest.mark.parametrize("command", ["topology", "optimize"])
def test_cli_rejects_zero_n(tmp_path, capsys, command):
    out = tmp_path / "out"
    _usage_error(capsys, [command, "--n", "0", "--out-dir", str(out)], "error: n must be an integer of at least 1, got 0")
    assert not out.exists()


@pytest.mark.parametrize("command, doc", [
    ("consensus", '{"admm": {"max_iter": 2.5}}'),
    ("sweep", '{"trials": 2.5}'),
    ("consensus", '{"n": 8.0}'),
], ids=["max_iter", "trials", "n"])
def test_cli_rejects_non_integer_count(tmp_path, capsys, request, command, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(doc)
    out = tmp_path / "out"
    field = request.node.callspec.id
    _usage_error(capsys, [command, "--config", str(cfg_path), "--out-dir", str(out)], f"error: {field} must be an integer")
    assert not out.exists()


@pytest.mark.parametrize("n_list", [[0, 4], [4, -1], [True], [4.0], ["4"]], ids=["zero", "negative", "bool", "float", "str"])
def test_sweep_rejects_bad_n_list(tmp_path, n_list):
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=r"^n_list\[\d\] must be an integer of at least 1"):
        run_variance_sweep(ExperimentConfig(trials=1), n_list, out)
    assert not out.exists()


def test_sweep_rejects_a_per_node_variance_list_that_does_not_fit_every_size(tmp_path):
    # It once ran every trial of the second size into a failure and wrote a NaN row.
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="^sigma_v_sq has 4 entries for 8 nodes$"):
        run_variance_sweep(ExperimentConfig(sigma_v_sq=[1.0] * 4, trials=1), [4, 8], out)
    assert not out.exists()
    rows = run_variance_sweep(ExperimentConfig(sigma_v_sq=[1.0] * 4, trials=1), [4], out)
    assert rows[0]["trials"] == 1 and rows[0]["failures"] == 0


def _cli_sweep_exit(tmp_path, capsys, n_list, field):
    out = tmp_path / "out"
    line = _usage_error(capsys, ["sweep", "--n-list", n_list, "--trials", "1", "--out-dir", str(out)], field)
    assert not out.exists()
    return line


def test_cli_sweep_rejects_zero_size(tmp_path, capsys):
    # argparse reads the integers; run_variance_sweep holds the range rule.
    line = _cli_sweep_exit(tmp_path, capsys, "0,4", "n_list[0]")
    assert line == "wsnmle sweep: error: n_list[0] must be an integer of at least 1, got 0"


@pytest.mark.parametrize("n_list", ["4,x", "4,-1", "4.0", "x", ","], ids=["word", "negative", "float", "only-word", "no-size"])
def test_cli_sweep_rejects_bad_n_list(tmp_path, capsys, n_list):
    if n_list == "4,-1":  # integers, one out of range
        _cli_sweep_exit(tmp_path, capsys, n_list, "n_list[1] must be an integer of at least 1, got -1")
    else:
        _cli_sweep_exit(tmp_path, capsys, n_list, f"argument --n-list: expected comma-separated integers, got {n_list!r}")


def test_cli_consensus_and_sweep(tmp_path):
    assert main(["consensus", "--n", "5", "--seed", "23", "--out-dir", str(tmp_path / "c")]) == 0
    assert main([
        "sweep", "--n-list", "4", "--trials", "3", "--seed", "24",
        "--out-dir", str(tmp_path / "s"),
    ]) == 0
    assert (tmp_path / "s" / "sweep.csv").exists()


def test_cli_config_file_and_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 4, "master_seed": 9, "trials": 2,
                                    "constraint": "unimodular"}))
    rc = main(["optimize", "--config", str(cfg_path), "--out-dir", str(tmp_path), "--constraint", "fixed-energy"])
    assert rc == 0


def test_cli_selfcheck(tmp_path, capsys):
    rc = main(["selfcheck", "--cases", "5", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == 7


@pytest.mark.parametrize("cases", ["0", "-3", "x"])
def test_cli_selfcheck_rejects_case_count(capsys, cases):
    # A run that checks no case must not report seven passes.
    if cases == "x":
        _usage_error(capsys, ["selfcheck", "--cases", cases], "argument --cases: invalid int value: 'x'")
    else:
        _usage_error(capsys, ["selfcheck", "--cases", cases], f"cases must be an integer of at least 1, got {cases}")


# The flags each subcommand takes, as its --help lists them.
_CLI_FLAGS = {
    "topology": {"--config", "--seed", "--out-dir", "--n"},
    "optimize": {"--config", "--seed", "--out-dir", "--n", "--constraint"},
    "consensus": {"--config", "--seed", "--out-dir", "--n", "--constraint", "--rho"},
    "sweep": {"--config", "--seed", "--out-dir", "--n-list", "--trials", "--constraint"},
    "selfcheck": {"--config", "--seed", "--cases"},
}
_FLAG_VALUES = {"--trials": "3", "--n": "8", "--constraint": "unimodular", "--rho": "0.7", "--out-dir": "x"}


@pytest.mark.parametrize("command", sorted(_CLI_FLAGS))
def test_cli_help_lists_the_flags_each_command_reads(capsys, command):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == _CLI_FLAGS[command] | {"--help"}


@pytest.mark.parametrize("argv", [
    *([command, flag, _FLAG_VALUES[flag]] for command, flags in _CLI_FLAGS.items()
      for flag in ("--trials", "--n", "--constraint", "--rho", "--out-dir") if flag not in flags),
    ["topology", "--se", "7"],
    ["sweep", "--n", "64"],
], ids="-".join)
def test_cli_rejects_flags_the_command_does_not_read(tmp_path, monkeypatch, capsys, argv):
    # An ignored or abbreviated flag exits 2 before any output: sweep --n 64 once swept 4,8,12,16.
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "rejected"
    with pytest.raises(SystemExit) as stop:
        main([*argv, "--out-dir", str(out)] if "--out-dir" in _CLI_FLAGS[argv[0]] else argv)
    assert stop.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_import_leaves_selfcheck_and_parser_unbuilt():
    # Only ``wsnmle selfcheck`` loads the property suite, and the parser is
    # built on the first main() call, not at import.
    probe = ("import sys, wsnmle.cli as cli; "
             "assert 'wsnmle.selfcheck' not in sys.modules, 'selfcheck imported'; "
             "assert cli._parser.cache_info().currsize == 0, 'parser built at import'")
    src = str(Path(experiment.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_package_has_no_assert_statement():
    # Checks in the package raise typed errors: python -O strips an assert.
    package = Path(experiment.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_has_no_unused_import():
    # The project runs no linter, and consolidations leave imports behind: every
    # imported name is read somewhere in its module or re-exported in __all__.
    package = Path(experiment.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported = set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read | exported]
    assert unused == []


# --- property suite and mutation sanity ---------------------------------------


def test_selfcheck_all_pass():
    results = run_all(seed=0, cases=15)
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_selfcheck_runs_at_the_smallest_size_cap():
    # Every random check draws at least two nodes, whatever n_max says.
    results = run_all(seed=0, cases=2, n_max=1)
    assert len(results) == 7 and all(r.passed for r in results), results


def test_selfcheck_catches_sign_error_in_multiplier_update(monkeypatch):
    def broken_rounds(g, rho, x, y, lam):
        A = np.zeros((g.n, g.n))
        for i, j in g.edges:
            A[i, j] = A[j, i] = 1.0
        d = A.sum(axis=1)
        while True:
            with np.errstate(all="ignore"):  # the broken update diverges
                y = (rho * d * y + rho * (A @ y) - lam + x) / (1.0 + 2.0 * rho * d)
                lam = lam - rho * (d * y - A @ y)  # sign flipped
            yield y, lam

    monkeypatch.setattr(selfcheck, "admm_rounds", broken_rounds)
    by_name = {r.name: r for r in run_all(seed=0, cases=5)}
    assert not by_name["consensus"].passed


def test_selfcheck_catches_underestimated_diagonal_load(monkeypatch):
    # check_optimizer tests the package's load rule, so a load of 0 must fail it.
    monkeypatch.setattr(selfcheck, "diagonal_load", lambda Q: 0.0)
    by_name = {r.name: r for r in run_all(seed=0, cases=5)}
    assert not by_name["gain_optimizer"].passed
    assert by_name["gain_optimizer"].detail.startswith("diagonal load leaves a negative eigenvalue")


def _border_conjugated(gm, ytilde):
    Q = gain_optimizer.build_Q(gm, ytilde)
    return Q._replace(border=np.conj(Q.border))


def _tail_weights_unsquared(gm, ytilde):
    top = gain_optimizer.build_Q(gm, np.sqrt(np.abs(ytilde))).top  # |ytilde| where |ytilde|^2 belongs
    return gain_optimizer.build_Q(gm, ytilde)._replace(top=top)


def _observation_variance_dropped(gm, ytilde):
    Q = gain_optimizer.build_Q(gm, ytilde)
    return Q._replace(top=Q.top / gm.v_diag)


@pytest.mark.parametrize("broken", [_border_conjugated, _tail_weights_unsquared, _observation_variance_dropped])
def test_selfcheck_catches_broken_build_q(monkeypatch, broken):
    # quadratic_recast checks the package's build_Q against dense forms.
    monkeypatch.setattr(selfcheck, "build_Q", broken)
    by_name = {r.name: r for r in run_all(seed=0, cases=5)}
    assert not by_name["quadratic_recast"].passed
    assert by_name["quadratic_recast"].detail.startswith("build_Q's ")


def test_selfcheck_catches_wrong_recast_orientation(monkeypatch):
    def conjugate_flipped(H, V, ytilde):
        # outer product taken the wrong way around
        return (np.conj(H.T) @ np.outer(np.conj(ytilde), ytilde) @ H) * V

    monkeypatch.setattr(selfcheck, "_rank_one_top_left", conjugate_flipped)
    by_name = {r.name: r for r in run_all(seed=0, cases=5)}
    assert not by_name["quadratic_recast"].passed
    assert by_name["quadratic_recast"].detail.startswith("quadratic recast violated")

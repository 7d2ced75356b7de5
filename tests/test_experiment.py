import ast
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wsnmle import experiment, gain_optimizer, selfcheck
from wsnmle.cli import main
from wsnmle.consensus import AdmmConfig, DecentralizedRun
from wsnmle.errors import ZeroInformation
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
    cfg = ExperimentConfig(n=6, theta=3.0 + 1.0j, constraint=GainDomain.UNIMODULAR,
                           admm=AdmmConfig(rho=0.9), trials=7, master_seed=77)
    doc = cfg.to_dict()
    back = ExperimentConfig.from_dict(doc)
    assert back == cfg
    assert json.loads(json.dumps(doc)) == doc


def test_config_validation():
    for name in ("trials", "n"):
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            ExperimentConfig(**{name: 0})
    for name, count in [("trials", 2.5), ("trials", True), ("n", 8.0), ("n", "8")]:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ExperimentConfig(**{name: count})


@pytest.mark.parametrize("key", ["xi", "lambda_margin", "inner_iters", "inner_tol", "max_outer"])
def test_config_rejects_optimizer_constants(key):
    # These are module constants of gain_optimizer, not settings: the config has no "opt" section.
    with pytest.raises(TypeError):
        ExperimentConfig.from_dict({"opt": {"xi": 1e-8, key: 1}})


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
    run = DecentralizedRun(I=I, P=P, converged=False, iterations=5, disagreement=1.0)
    return run, 0.75 - 1.25j


@pytest.mark.parametrize("make_run", [_pipeline_run, _edge_case_run], ids=["pipeline", "edge-cases"])
def test_trace_writer_matches_per_row_csv(tmp_path, make_run):
    run, theta_central = make_run(64)
    assert np.isnan(run.theta[0].real).all()  # round 0 is guarded
    write_convergence_trace(tmp_path / "bulk.csv", run, theta_central)
    _per_row_trace_writer(tmp_path / "rows.csv", run, theta_central)
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_convergence_trace_on_cell_graph_matches_per_row_csv(tmp_path):
    # The trace run_convergence writes, every round of it.  n = 160 at
    # radius 0.2 builds its graph from cells; no transmission noise keeps
    # unit gains, so the run can be rebuilt here with every round kept.
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
@pytest.mark.parametrize("command, flag", [("optimize", "--rho"), ("consensus", "--rho")])
def test_cli_rejects_non_finite_setting(tmp_path, command, flag, value):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="must be positive and finite"):
        main([command, "--n", "8", "--seed", "7", flag, value, "--out-dir", str(out)])
    assert not out.exists()  # rejected before any output or solver run


_NON_FINITE_MODEL = {
    "theta-nan": '{"theta": [NaN, 0.0]}',
    "theta-inf": '{"theta": [Infinity, 0.0]}',
    "sigma_n_sq-inf": '{"sigma_n_sq": Infinity}',
    "sigma_v_sq-inf": '{"sigma_v_sq": Infinity}',
    "sigma_h-nan": '{"sigma_h": NaN}',
}


@pytest.mark.parametrize("command, doc", [
    pytest.param(command, doc, id=key if command == "consensus" else f"{command}-{key}")
    for command in ("consensus", "optimize")
    for key, doc in _NON_FINITE_MODEL.items()
])
def test_cli_rejects_non_finite_model_config(tmp_path, command, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(doc)  # json reads NaN and Infinity
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="finite"):
        main([command, "--config", str(cfg_path), "--n", "8", "--seed", "7", "--out-dir", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command", ["topology", "optimize"])
def test_cli_rejects_zero_n(tmp_path, command):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="n must be at least 1"):
        main([command, "--n", "0", "--out-dir", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command, doc", [
    ("consensus", '{"admm": {"max_iter": 2.5}}'),
    ("sweep", '{"trials": 2.5}'),
    ("consensus", '{"n": 8.0}'),
], ids=["max_iter", "trials", "n"])
def test_cli_rejects_non_integer_count(tmp_path, command, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(doc)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="must be an integer"):
        main([command, "--config", str(cfg_path), "--out-dir", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("n_list", [[0, 4], [4, -1], [True], [4.0], ["4"]], ids=["zero", "negative", "bool", "float", "str"])
def test_sweep_rejects_bad_n_list(tmp_path, n_list):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="network sizes must be integers"):
        run_variance_sweep(ExperimentConfig(trials=1), n_list, out)
    assert not out.exists()


def _cli_sweep_exit(tmp_path, capsys, n_list):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as stop:
        main(["sweep", "--n-list", n_list, "--trials", "1", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert stop.value.code == 2
    assert not out.exists()
    return err


def test_cli_sweep_rejects_zero_size(tmp_path, capsys):
    err = _cli_sweep_exit(tmp_path, capsys, "0,4")
    assert err.startswith("usage: wsnmle sweep") and "integers of at least 1, got '0,4'" in err


@pytest.mark.parametrize("n_list", ["4,x", "4,-1", "4.0", "x", ","], ids=["word", "negative", "float", "only-word", "no-size"])
def test_cli_sweep_rejects_bad_n_list(tmp_path, capsys, n_list):
    err = _cli_sweep_exit(tmp_path, capsys, n_list)
    assert "usage: wsnmle sweep" in err and "Traceback" not in err
    assert f"argument --n-list: expected comma-separated integers of at least 1, got {n_list!r}" in err


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
    rc = main(["optimize", "--config", str(cfg_path), "--out-dir", str(tmp_path),
               "--rho", "0.7", "--constraint", "fixed-energy"])
    assert rc == 0


def test_cli_selfcheck(tmp_path, capsys):
    rc = main(["selfcheck", "--cases", "5", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == 7


@pytest.mark.parametrize("cases", ["0", "-3", "x"])
def test_cli_selfcheck_rejects_case_count(tmp_path, capsys, cases):
    # A run that checks no case must not report seven passes.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as stop:
        main(["selfcheck", "--cases", cases, "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert stop.value.code == 2 and not out.exists()
    assert "usage: wsnmle selfcheck" in err and f"expected an integer of at least 1, got {cases!r}" in err


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

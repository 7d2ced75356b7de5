"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them)."""

import numpy as np

from wsnmle.consensus import AdmmConfig, decentralized_mle
from wsnmle.experiment import ExperimentConfig, run_convergence, run_variance_sweep
from wsnmle.fusion import (
    build_global_model,
    decompose_information,
    information_total,
    ml_estimate,
    ml_variance,
    noise_cov_rows,
    sample_received,
    select_retainers,
)
from wsnmle.gain_optimizer import optimize
from wsnmle.network_model import (
    GainDomain,
    GainVector,
    NetworkModel,
    node_information,
    sample_channels,
)
from wsnmle.selfcheck import check_consensus, check_equivalence, check_hadamard, check_optimizer, check_partition
from wsnmle.topology import Graph, random_connected_graph


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def _scenario(n, seed, *, sigma_v=1.0, sigma_n=0.1, theta=2.0 + 1.0j,
              domain=GainDomain.FIXED_ENERGY, noisy_self=False):
    g = random_connected_graph(n, "gnp", p=0.6, seed=seed)
    h = sample_channels(g, "complex_gaussian", seed=seed + 1)
    model = NetworkModel(graph=g, h=h, sigma_v_sq=sigma_v, sigma_n_sq=sigma_n,
                         theta=theta, noisy_self_link=noisy_self)
    a = GainVector.ones(n, domain)
    plan = select_retainers(g, node_information(model, a))
    gm = build_global_model(model, plan, a)
    return g, model, a, gm


def test_criterion_1_consensus_correctness():
    # Every instance at every rho converges to the mean, and the converged
    # state is stationary.
    detail = check_consensus(np.random.default_rng(1001), 100, 20)
    _report(1, detail is None, detail or (
        "100 graphs G(n<=20, 0.5) x rho in {0.1, 0.5, 2}: within 1e-9 of the mean "
        "in <= 5000 rounds; one more round moves no copy by more than 1e-6"
    ))
    assert detail is None


def test_criterion_2_decentralized_equals_centralized(tmp_path):
    rng = np.random.default_rng(1002)
    cfg = AdmmConfig(rho=0.5, max_iter=30_000, tol=1e-10)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 17))
        g, model, a, gm = _scenario(n, 2000 + trial)
        y = sample_received(model, gm, a, seed=3000 + trial)
        I0, P0 = decompose_information(gm, a, y)
        run = decentralized_mle(g, cfg, I0, P0)
        assert run.converged
        central = ml_estimate(y, gm, a)
        worst = max(worst, float(np.max(np.abs(run.theta_final - central)) / abs(central)))
    # structure of the 16-node, theta = 10 experiment
    exp_cfg = ExperimentConfig(n=16, theta=10.0 + 0.0j, master_seed=97,
                               admm=AdmmConfig(rho=0.5, max_iter=30_000, tol=1e-10))
    summary = run_convergence(exp_cfg, tmp_path / "fig2")
    ok = worst <= 1e-6 and summary["converged"] and summary["final_disagreement"] <= 1e-6
    _report(2, ok, (
        f"50 scenarios worst relative disagreement {worst:.2e} <= 1e-6; "
        f"n=16, theta=10 run final disagreement {summary['final_disagreement']:.2e} <= 1e-6"
    ))
    assert ok


def test_criterion_3_variance_formula_validity():
    worst = 0.0
    for idx, (n, seed) in enumerate([(2, 51), (3, 52), (4, 53), (5, 54), (6, 55)]):
        g, model, a, gm = _scenario(n, seed, sigma_n=1.0)
        y = sample_received(model, gm, a, size=100_000, seed=900 + idx)
        cov = noise_cov_rows(gm, a)
        sig = gm.row_h * a.a[gm.row_sender]
        info = information_total(gm, a)
        ests = (y @ (np.conj(sig) / cov)) / info
        emp = float(np.mean(np.abs(ests - np.mean(ests)) ** 2))
        rel = abs(emp - ml_variance(gm, a)) / ml_variance(gm, a)
        worst = max(worst, rel)
    ok = worst <= 0.05
    _report(3, ok, f"5 scenarios x 1e5 draws, worst empirical-vs-formula gap {worst:.3%} <= 5%")
    assert ok


def test_criterion_4_optimizer_monotonicity_and_feasibility():
    # Information never drops by more than 1e-10 across a cycle, final gains
    # are feasible, the run improves on its start and the diagonal load
    # keeps the loaded matrix positive semidefinite.
    detail = check_optimizer(np.random.default_rng(1004), 200, 12)
    _report(4, detail is None, detail or (
        "200 instances (n<=12): information never drops by more than 1e-10; "
        "final gains feasible (energy to 1e-9 n, modulus to 1e-12); "
        "no loss against the initial gains; diagonal load PSD to 1e-9"
    ))
    assert detail is None


def test_criterion_5_equivalence_chain():
    # Inverse entry, quadratic form and Schur complement of the bordered
    # matrix agree, and the closed-form auxiliary vector is the dense solve.
    detail = check_equivalence(np.random.default_rng(1005), 200, 12)
    _report(5, detail is None, detail or (
        "200 instances (n<=12): objective evaluations agree to 1e-8; "
        "closed-form and dense-solve auxiliary vectors agree to 1e-8"
    ))
    assert detail is None


def test_criterion_6_hadamard_identity():
    detail = check_hadamard(np.random.default_rng(1006), 500, 9)
    _report(6, detail is None, detail or "500 random (gains, tail) pairs (n<=9), identity residual <= 1e-9")
    assert detail is None


def test_criterion_7_improvement_over_baseline():
    improved = 0
    total = 300
    for trial in range(total):
        domain = GainDomain.FIXED_ENERGY if trial % 2 == 0 else GainDomain.UNIMODULAR
        g, model, a, gm = _scenario(8, 7000 + trial, domain=domain)
        trace = optimize(gm, a)
        if trace.var_final <= ml_variance(gm, a):
            improved += 1
    ok = improved == total
    _report(7, ok, f"all-ones start improved the variance on {improved}/{total} channel draws (need 300/300)")
    assert ok


def test_criterion_8_two_sensor_grid_near_optimality():
    # Soft criterion: report the per-seed optimality gaps.
    phases = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False))
    hits = 0
    worst_gap = 0.0
    g = Graph(2, [(0, 1)])
    for seed in range(50):
        h = sample_channels(g, "complex_gaussian", seed=8000 + seed)
        model = NetworkModel(graph=g, h=h, sigma_v_sq=1.0, sigma_n_sq=0.2, theta=1.0)
        a0 = GainVector.ones(2, GainDomain.UNIMODULAR)
        plan = select_retainers(g, node_information(model, a0))
        gm = build_global_model(model, plan, a0)
        trace = optimize(gm, a0)
        best = -np.inf
        for p0 in phases:
            gains = np.stack(np.broadcast_arrays(np.full(720, p0), phases), axis=1)
            sig = np.abs(gm.row_h[None, :] * gains[:, gm.row_sender]) ** 2
            cov = sig * gm.row_sigma_v()[None, :] + gm.sigma_rows[None, :]
            best = max(best, float(np.max(np.sum(sig / cov, axis=1))))
        gap = (best - 1.0 / trace.var_final) / best
        worst_gap = max(worst_gap, gap)
        if gap <= 0.02:
            hits += 1
        else:
            print(f"  criterion 8 gap on seed {seed}: {gap:.4%}")
    ok = hits >= 45
    _report(8, ok, f"{hits}/50 seeds within 2% of the 720x720 phase-grid optimum "
                   f"(worst gap {worst_gap:.2e}); soft criterion, need >= 45")
    assert ok


def test_criterion_9_information_decomposition():
    detail = check_partition(np.random.default_rng(1009), 100, 12)
    _report(9, detail is None, detail or "100 compressed models (n<=12), partition residual <= 1e-12")
    assert detail is None


def test_criterion_10_sweep_determinism(tmp_path):
    cfg = ExperimentConfig(trials=10, master_seed=31)
    run_variance_sweep(cfg, [4, 6], tmp_path / "a")
    run_variance_sweep(cfg, [4, 6], tmp_path / "b")
    b1 = (tmp_path / "a" / "sweep.csv").read_bytes()
    b2 = (tmp_path / "b" / "sweep.csv").read_bytes()
    ok = b1 == b2
    _report(10, ok, f"sweep run twice with one config/seed: outputs byte-identical ({len(b1)} bytes)")
    assert ok

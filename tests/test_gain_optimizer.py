import numpy as np
import pytest
from dense import dense_H, water_filling_information

from wsnmle import gain_optimizer
from wsnmle.errors import MonotonicityViolation, SingularCovariance, WsnMleError, ZeroInformation
from wsnmle.experiment import ExperimentConfig, build_scenario
from wsnmle.fusion import GlobalModel, build_global_model, information_total, ml_variance, select_retainers
from wsnmle.gain_optimizer import (
    EPS_ABS,
    INNER_ITERS,
    INNER_TOL,
    LAMBDA_MARGIN,
    MAX_OUTER,
    MONOTONE_SLACK,
    XI,
    Arrow,
    build_Q,
    diagonal_load,
    lambda_max_estimate,
    optimize,
    power_iterate,
    project_gains,
    update_y,
)
from wsnmle.network_model import GainDomain, GainVector, NetworkModel, node_information, sample_channels
from wsnmle.selfcheck import build_R, dense_arrow, g_value
from wsnmle.topology import Graph, random_connected_graph


def _gm_rows(row_h, sigma_rows, v_diag, senders=None):
    # Hand-assembled stacked model for closed-form checks.
    row_h = np.asarray(row_h, dtype=complex)
    m = row_h.size
    senders = np.zeros(m, dtype=int) if senders is None else np.asarray(senders, dtype=int)
    n = int(senders.max()) + 1
    sigma_rows = np.asarray(sigma_rows, dtype=float)
    return GlobalModel(
        n=n,
        row_receiver=np.arange(m) % n,
        row_sender=senders,
        row_h=row_h,
        sigma_rows=sigma_rows,
        v_diag=np.asarray(v_diag, dtype=float),
    )


def _scenario(n, seed, domain=GainDomain.FIXED_ENERGY, sigma_n=0.1, noisy_self=False):
    g = random_connected_graph(n, "gnp", p=0.6, seed=seed)
    h = sample_channels(g, "complex_gaussian", seed=seed + 1)
    model = NetworkModel(graph=g, h=h, sigma_v_sq=1.0, sigma_n_sq=sigma_n,
                         theta=1.0 + 2.0j, noisy_self_link=noisy_self)
    a = GainVector.ones(n, domain)
    plan = select_retainers(g, node_information(model, a))
    gm = build_global_model(model, plan, a)
    return model, a, gm


def _eta0(gm):
    # An offset above any information: each row carries at most 1/sigma_v^2.
    return 2.0 * float(np.sum(1.0 / gm.row_sigma_v()))


def test_optimize_without_transmission_noise():
    # Every noiseless row carries 1/sigma_v^2 whatever the gains: the initial gains are optimal.
    gm = _gm_rows([1.0], [0.0], [1.0])
    a_init = GainVector.ones(1, GainDomain.FIXED_ENERGY)
    trace = optimize(gm, a_init)
    assert trace.gains is a_init
    assert trace.converged and trace.outer_cycles == 0
    assert trace.variances == [1.0] and trace.inner_iters_used == [0]
    assert trace.var_final == 1.0
    # A lone node keeps only its noiseless self row, whatever sigma_n_sq:
    # no retained row carries transmission noise, so no cycle runs either.
    model, a_init, gm = _scenario(1, 901, sigma_n=0.1)
    assert model.sigma_n_sq == 0.1 and not gm.sigma_rows.any()
    trace = optimize(gm, a_init)
    assert trace.gains is a_init
    assert trace.converged and trace.outer_cycles == 0 and trace.inner_iters_used == [0]
    # Unimodular gains put power 1 on every sender whatever their phases,
    # so noisy rows do not make the gains matter either.
    for noisy_self in (False, True):
        model, a_init, gm = _scenario(8, 902, domain=GainDomain.UNIMODULAR, sigma_n=0.1, noisy_self=noisy_self)
        assert gm.sigma_rows.any()
        trace = optimize(gm, a_init)
        assert trace.gains is a_init
        assert trace.converged and trace.outer_cycles == 0 and trace.inner_iters_used == [0]
        assert trace.variances == [ml_variance(gm, a_init)]


def test_optimize_zero_information_is_typed():
    # A row with a zero channel carries no information at any gains: the
    # variance is undefined, and the error is one the sweep counts as a failed trial.
    gm = _gm_rows([0.0], [0.1], [1.0])
    with pytest.raises(ZeroInformation) as err:
        optimize(gm, GainVector.ones(1, GainDomain.FIXED_ENERGY))
    assert isinstance(err.value, WsnMleError)


# --- bordered matrix ---------------------------------------------------------


def test_build_R_scalar_closed_form():
    h, a, sv, sn = 0.7 + 0.3j, 1.0, 1.0, 1.0
    gm = _gm_rows([h], [sn], [sv])
    R = build_R(gm, np.array([a]), eta0=5.0)
    c = abs(h * a) ** 2 * sv + sn
    np.testing.assert_allclose(R, [[5.0, np.conj(h * a)], [h * a, c]])


def test_build_R_zero_gains_block_diagonal():
    model, a, gm = _scenario(3, 20, noisy_self=True)
    eta0 = 7.0
    R = build_R(gm, np.zeros(3), eta0)
    assert np.all(R[0, 1:] == 0) and np.all(R[1:, 0] == 0)
    assert R[0, 0] == eta0
    # eta degenerates to the offset itself
    assert g_value(update_y(gm, np.zeros(3)), R) == pytest.approx(eta0)


def test_inverse_entry_identity():
    for seed in range(10):
        model, a, gm = _scenario(4, 30 + seed)
        eta0 = _eta0(gm)
        rng = np.random.default_rng(seed)
        ar = GainVector.random(4, GainDomain.FIXED_ENERGY, rng)
        R = build_R(gm, ar.a, eta0)
        eta = eta0 - information_total(gm, ar)
        e1 = np.zeros(gm.m + 1, dtype=complex)
        e1[0] = 1.0
        entry = float(np.real(np.linalg.solve(R, e1)[0]))
        assert entry * eta == pytest.approx(1.0, abs=1e-9)


# --- auxiliary vector updates --------------------------------------------------


def test_update_y_scalar_closed_form():
    # single row with h*a = 1 and combined noise 2, offset 2
    gm = _gm_rows([1.0], [1.0], [1.0])
    R = build_R(gm, np.array([1.0]), eta0=2.0)
    np.testing.assert_allclose(R, [[2.0, 1.0], [1.0, 2.0]])
    ytilde = update_y(gm, np.array([1.0]))
    np.testing.assert_allclose(ytilde, [-0.5], atol=1e-14)
    assert g_value(ytilde, R) == pytest.approx(1.5)


def test_update_y_zero_gains_returns_basis_vector():
    model, a, gm = _scenario(3, 40, noisy_self=True)
    R = build_R(gm, np.zeros(3), eta0=4.0)
    ytilde = update_y(gm, np.zeros(3))
    np.testing.assert_allclose(ytilde, np.zeros(gm.m), atol=1e-14)
    assert g_value(ytilde, R) == pytest.approx(4.0)


def test_update_y_residual_and_method_agreement():
    # The closed form against the normalized dense solve of R y = e1.
    for seed in range(10):
        model, a, gm = _scenario(5, 50 + seed)
        rng = np.random.default_rng(seed)
        ar = GainVector.random(5, GainDomain.FIXED_ENERGY, rng)
        R = build_R(gm, ar.a, _eta0(gm))
        e1 = np.eye(gm.m + 1)[0]
        col = np.linalg.solve(R, e1)
        ys = col / col[0]
        yc = np.concatenate(([1.0 + 0j], update_y(gm, ar)))
        # all rows but the first must be orthogonal to the result
        for y in (ys, yc):
            residual = R @ y
            assert float(np.max(np.abs(residual[1:]))) <= 1e-9 * max(1.0, abs(residual[0]))
        assert float(np.max(np.abs(ys - yc))) <= 1e-8


def test_update_y_is_the_minimizer():
    model, a, gm = _scenario(4, 60)
    rng = np.random.default_rng(61)
    ar = GainVector.random(4, GainDomain.FIXED_ENERGY, rng)
    R = build_R(gm, ar.a, _eta0(gm))
    g_star = g_value(update_y(gm, ar), R)
    for _ in range(1000):
        tail = rng.standard_normal(gm.m) + 1j * rng.standard_normal(gm.m)
        assert g_value(tail, R) >= g_star - 1e-10 * g_star


def test_update_y_singular_covariance():
    # A zeroed gain on a row without transmission noise (the noiseless
    # self row) leaves that row with zero combined noise.
    model, a, gm = _scenario(3, 45)
    zeroed = np.ones(3, dtype=complex)
    zeroed[1] = 0.0
    with pytest.raises(SingularCovariance):
        update_y(gm, zeroed)


# --- quadratic recast ----------------------------------------------------------


def test_build_Q_zero_tail():
    model, a, gm = _scenario(3, 70)
    Q = build_Q(gm, np.zeros(gm.m))
    assert np.all(Q.top == 0) and np.all(Q.border == 0)


def test_build_Q_scalar_arrow():
    gm = _gm_rows([1.0], [1.0], [1.0])
    t = 0.4 - 1.1j
    Q = build_Q(gm, np.array([t]))
    np.testing.assert_allclose(dense_arrow(Q), [[abs(t) ** 2, t], [np.conj(t), 0.0]])


def test_quadratic_recast_matches_bordered_form():
    for seed in range(10):
        model, a, gm = _scenario(5, 80 + seed)
        rng = np.random.default_rng(seed)
        eta0 = _eta0(gm)
        tail = rng.standard_normal(gm.m) + 1j * rng.standard_normal(gm.m)
        y = np.concatenate(([1.0 + 0j], tail))
        # the gain-independent part of the form
        c1 = eta0 + float(np.sum(gm.sigma_rows * np.abs(tail) ** 2))
        Qd = dense_arrow(build_Q(gm, tail))
        for _ in range(10):
            ar = GainVector.random(5, GainDomain.FIXED_ENERGY, rng).a
            R = build_R(gm, ar, eta0)
            lhs = float(np.real(np.conj(y) @ (R @ y)))
            w = np.append(ar, 1.0)
            rhs = c1 + float(np.real(np.conj(w) @ (Qd @ w)))
            assert lhs == pytest.approx(rhs, rel=1e-9)


def test_hadamard_identity_dense():
    rng = np.random.default_rng(90)
    for seed in range(20):
        model, a, gm = _scenario(4, 200 + seed)
        H = dense_H(gm)
        V = np.diag(gm.v_diag)
        ar = rng.standard_normal(gm.n) + 1j * rng.standard_normal(gm.n)
        yt = rng.standard_normal(gm.m) + 1j * rng.standard_normal(gm.m)
        D = np.diag(ar)
        lhs = complex(np.conj(yt) @ (H @ D @ V @ np.conj(D.T) @ np.conj(H.T) @ yt))
        rhs = complex(np.conj(ar) @ (((np.conj(H.T) @ np.outer(yt, np.conj(yt)) @ H) * V) @ ar))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


# --- power iterations -----------------------------------------------------------


def test_projection_fixed_energy():
    out = project_gains(np.array([3.0, 4.0]))
    np.testing.assert_allclose(out, np.sqrt(2.0) * np.array([3.0, 4.0]) / 5.0)
    assert project_gains(np.zeros(2)) is None


def _assert_exact_lambda_max(Q):
    true = float(np.max(np.linalg.eigvalsh(dense_arrow(Q))))
    assert abs(lambda_max_estimate(Q) - true) <= 1e-13 * abs(true)


def test_lambda_max_estimate_close_to_dense_eigensolver():
    rng = np.random.default_rng(100)
    for _ in range(40):
        k = int(rng.integers(2, 66))
        _assert_exact_lambda_max(
            Arrow(rng.standard_normal(k - 1), rng.standard_normal(k - 1) + 1j * rng.standard_normal(k - 1))
        )


_SPREAD = np.geomspace(1e-8, 1e8, 17)


@pytest.mark.parametrize(
    "top, border",
    [
        ([2.0], [1.0 + 1.0j]),
        ([2.0], [0.0]),
        ([-2.0], [0.5j]),
        ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
        ([1.0, 5.0, 3.0], [1.0, 0.0, 2.0j]),  # the deflated top entry is the largest eigenvalue
        ([1.0, 2.0, 3.0], [1.0, 0.0, 3.0]),  # the root beats the deflated entry
        ([-2.0, -2.0, -5.0, 0.5, 0.5], [1.0, 1.0j, 2.0, 0.3, -0.3]),
        ([-1.0, -3.0], [0.5, 0.2j]),  # every pole negative: the root is positive
        ([-1.0, -3.0], [0.0, 0.0]),  # the corner 0 is the largest eigenvalue
        (_SPREAD, np.ones(17) + 1j),
        (_SPREAD[::-1], np.linspace(-3.0, 3.0, 17)),
        ([1e8, 1.0, 3e7], [1e-6, 1e-7j, 1e-6]),  # the root hugs the pole at 1e8
        ([4.0, 4.0, 1.0], [1e-9, 1e-9, 1.0]),
        ([3.0, 3.0 + 1e-3], [1e-2, 1e-2j]),  # close poles: a shifted power method stalls here
        (np.linspace(1.0, 2.0, 64), np.full(64, 0.01)),
    ],
    ids=[
        "n1", "n1-zero-border", "n1-negative", "all-zero", "deflated-max", "zero-border",
        "negative-repeated", "negative-poles", "negative-deflated", "spread", "spread-reversed",
        "tiny-border", "tiny-border-repeated", "close-poles", "clustered-poles",
    ],
)
def test_lambda_max_estimate_edge_cases(top, border):
    _assert_exact_lambda_max(Arrow(np.asarray(top, dtype=float), np.asarray(border, dtype=complex)))


def test_power_iterate_monotone_loaded_form():
    for seed in range(5):
        model, a, gm = _scenario(5, 300 + seed)
        rng = np.random.default_rng(seed)
        tail = rng.standard_normal(gm.m) + 1j * rng.standard_normal(gm.m)
        Q = build_Q(gm, tail)
        Qd = dense_arrow(Q)
        # A feasible start from either domain lies on the fixed-energy sphere.
        for domain in GainDomain:
            start = GainVector.random(5, domain, rng)
            lam = diagonal_load(Q)
            w0 = np.append(start.a, 1.0)
            before = float(np.real(np.conj(w0) @ (lam * w0 - Qd @ w0)))
            out, used = power_iterate(start, Q)
            w1 = np.append(out.a, 1.0)
            after = float(np.real(np.conj(w1) @ (lam * w1 - Qd @ w1)))
            assert after >= before - 1e-10 * max(1.0, abs(before))
            assert used >= 1
            assert out.domain is GainDomain.FIXED_ENERGY
            GainVector(out.a, GainDomain.FIXED_ENERGY)  # raises off the sphere


def test_diagonal_load_keeps_matrix_psd():
    for seed in range(10):
        model, a, gm = _scenario(6, 400 + seed)
        rng = np.random.default_rng(seed)
        tail = rng.standard_normal(gm.m) + 1j * rng.standard_normal(gm.m)
        Q = build_Q(gm, tail)
        lam = diagonal_load(Q)
        assert lam == LAMBDA_MARGIN * lambda_max_estimate(Q) + EPS_ABS
        mineig = float(np.min(np.linalg.eigvalsh(lam * np.eye(gm.n + 1) - dense_arrow(Q))))
        assert mineig >= -1e-9



def test_underestimated_load_raises_monotonicity_violation(monkeypatch):
    # Without the diagonal load the power step can lower the loaded form.
    # A typed error, not an assert, so the check also runs under python -O.
    monkeypatch.setattr(gain_optimizer, "lambda_max_estimate", lambda Q: 0.0)
    model, a, gm = _scenario(6, 300)
    with pytest.raises(MonotonicityViolation, match="loaded quadratic form decreased"):
        optimize(gm, a)


def test_information_drop_across_cycle_raises_monotonicity_violation(monkeypatch):
    # A cycle that returns feasible gains carrying less information than
    # the all-ones start.  Every sensor keeps some power: with all of it on
    # one sensor the noiseless self rows of the others raise
    # SingularCovariance instead.
    def worse_gains(a, Q):
        gains = np.full(a.n, 0.1, dtype=complex)
        gains[0] = np.sqrt(a.n - 0.01 * (a.n - 1))
        return GainVector(gains, a.domain), 1

    monkeypatch.setattr(gain_optimizer, "power_iterate", worse_gains)
    model, a, gm = _scenario(6, 300)
    with pytest.raises(MonotonicityViolation, match="information decreased across outer cycle"):
        optimize(gm, a)


# --- full optimization -----------------------------------------------------------


def _dense_lambda_max(Q, iters=200):
    # Shifted power iteration on the dense matrix, same start and shift.
    shift = float(np.linalg.norm(Q))
    if shift == 0.0:
        return 0.0
    v = 1.0 + 1e-3 * np.arange(Q.shape[0])
    v = v.astype(complex) / np.linalg.norm(v)
    for _ in range(iters):
        w = Q @ v + shift * v
        v = w / np.linalg.norm(w)
    return max(float(np.real(np.conj(v) @ (Q @ v))), 0.0)


def _dense_optimize(gm, a_init):
    # The cyclic algorithm on dense matrices: y from solve(R, e1), a dense
    # (N+1)-square Q, and power steps with the loaded form re-evaluated.
    # With unimodular gains or without a noisy row every gain vector is
    # optimal, and no cycle runs.
    eta0 = _eta0(gm)
    n = gm.n
    e1 = np.eye(gm.m + 1)[0]

    def aux_tail(a):
        col = np.linalg.solve(build_R(gm, a, eta0), e1)
        return (col / col[0])[1:]

    def loaded(w, lam, Q):
        return float(np.real(np.conj(w) @ (lam * w - Q @ w)))

    a = a_init.a
    info = information_total(gm, a)
    infos, variances, used_list = [info], [1.0 / info], [0]
    best_info, best_a = info, a
    converged = a_init.domain is GainDomain.UNIMODULAR or bool(np.all(gm.sigma_rows == 0.0))
    for _ in range(0 if converged else MAX_OUTER):
        Q = dense_arrow(build_Q(gm, aux_tail(a)))
        lam = LAMBDA_MARGIN * _dense_lambda_max(Q) + EPS_ABS
        cur = a
        obj = loaded(np.append(cur, 1.0), lam, Q)
        used = 0
        for t in range(INNER_ITERS):
            w = np.append(cur, 1.0)
            new = project_gains((lam * w - Q @ w)[:n])
            used = t + 1
            if new is None:
                break
            obj_new = loaded(np.append(new, 1.0), lam, Q)
            assert obj_new >= obj - MONOTONE_SLACK * max(1.0, abs(obj))
            step = float(np.max(np.abs(new - cur)))
            cur, obj = new, obj_new
            if step <= INNER_TOL:
                break
        a = cur
        info = information_total(gm, a)
        infos.append(info)
        variances.append(1.0 / info)
        used_list.append(used)
        if info > best_info:
            best_info, best_a = info, a
        if abs(info - infos[-2]) <= XI:
            converged = True
            break
    return variances, used_list, converged, best_a


@pytest.mark.parametrize("noisy_self", [False, True], ids=["noiseless-self", "noisy-self"])
@pytest.mark.parametrize("domain", list(GainDomain), ids=lambda d: d.value)
@pytest.mark.parametrize("n", [1, 2, 8, 16, 64])
def test_optimize_matches_dense_oracle(n, domain, noisy_self):
    model, a, gm = _scenario(n, 900 + n, domain=domain, noisy_self=noisy_self)
    trace = optimize(gm, a)
    variances, used, converged, best = _dense_optimize(gm, a)
    assert trace.outer_cycles == len(used) - 1
    assert trace.inner_iters_used == used
    assert trace.converged == converged
    np.testing.assert_allclose(trace.variances, variances, rtol=1e-12, atol=0.0)
    assert float(np.max(np.abs(trace.gains.a - best))) <= 1e-12 * float(np.max(np.abs(best)))


@pytest.mark.parametrize("n", [8, 16])
def test_optimize_reaches_water_filling_optimum(n):
    # The default config with fixed energy: the cyclic result against the
    # exact optimum over per-sender powers.
    cfg = ExperimentConfig(n=n, master_seed=7, constraint=GainDomain.FIXED_ENERGY)
    g, model = build_scenario(cfg)
    a = GainVector.ones(n, GainDomain.FIXED_ENERGY)
    gm = build_global_model(model, select_retainers(g, node_information(model, a)), a)
    best = water_filling_information(gm)
    trace = optimize(gm, a)
    assert abs(best - 1.0 / trace.var_final) <= 1e-8 * best


def test_optimize_single_unimodular_gain_converges_immediately():
    model, a, gm = _scenario(1, 500, domain=GainDomain.UNIMODULAR, noisy_self=True)
    trace = optimize(gm, a)
    assert trace.converged
    assert trace.outer_cycles == 0 and trace.gains is a
    assert len(trace.variances) == 1


def test_optimize_improves_on_all_ones():
    for seed in range(8):
        for domain in GainDomain:
            model, a, gm = _scenario(5, 600 + seed, domain=domain)
            trace = optimize(gm, a)
            assert trace.var_final <= ml_variance(gm, a)
            info = 1.0 / np.asarray(trace.variances)
            assert np.all(np.diff(info) >= -1e-10)
            assert trace.var_final == min(trace.variances)


def test_optimize_eta_phase_invariant():
    model, a, gm = _scenario(4, 700)
    rng = np.random.default_rng(701)
    ar = GainVector.random(4, GainDomain.FIXED_ENERGY, rng)
    base = information_total(gm, ar)
    for phi in (0.1, 2.1, np.pi / 3.0):
        spun = np.exp(1j * phi) * ar.a
        assert information_total(gm, spun) == pytest.approx(base, abs=1e-10)


def test_optimize_two_sensor_unimodular_matches_phase_grid():
    rng = np.random.default_rng(800)
    g = Graph(2, [(0, 1)])
    h = sample_channels(g, "complex_gaussian", seed=801)
    model = NetworkModel(graph=g, h=h, sigma_v_sq=1.0, sigma_n_sq=0.2, theta=1.0)
    a0 = GainVector.ones(2, GainDomain.UNIMODULAR)
    plan = select_retainers(g, node_information(model, a0))
    gm = build_global_model(model, plan, a0)
    trace = optimize(gm, a0)
    # exhaustive oracle over a 720x720 phase grid
    phases = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False))
    best = -np.inf
    for p0 in phases:
        gains = np.stack(np.broadcast_arrays(np.full(720, p0), phases), axis=1)
        sig = np.abs(gm.row_h[None, :] * gains[:, gm.row_sender]) ** 2
        cov = sig * gm.row_sigma_v()[None, :] + gm.sigma_rows[None, :]
        best = max(best, float(np.max(np.sum(sig / cov, axis=1))))
    achieved = 1.0 / trace.var_final
    assert achieved >= best * (1.0 - 0.02)


@pytest.mark.parametrize("noisy_self", [False, True], ids=["noiseless-self", "noisy-self"])
@pytest.mark.parametrize("domain", list(GainDomain), ids=lambda d: d.value)
@pytest.mark.parametrize("n", [8, 16])
def test_optimize_keeps_gain_phases(n, domain, noisy_self):
    # build_Q's border is b_s = -a_s sum_r |h_r|^2 / cov_r, so every power
    # step rescales each gain by a positive real factor: the phases never
    # move.  Unimodular gains run no cycle and come back unchanged.
    model, a, gm = _scenario(n, 1000 + n, domain=domain, noisy_self=noisy_self)
    rng = np.random.default_rng(n)
    for _ in range(5):
        start = GainVector.random(n, domain, rng)
        final = optimize(gm, start).gains.a
        assert float(np.max(np.abs(np.angle(final / start.a)))) <= 1e-12
        if domain is GainDomain.UNIMODULAR:
            assert float(np.max(np.abs(final - start.a))) <= 1e-12

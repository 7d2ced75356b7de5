import numpy as np
import pytest
from dense import dense_H

from wsnmle.errors import DimensionMismatch, ZeroInformation
from wsnmle.fusion import (
    SelectionPlan,
    build_global_model,
    decompose_information,
    information_total,
    ml_estimate,
    ml_variance,
    noise_cov_rows,
    sample_received,
    select_retainers,
)
from wsnmle.network_model import (
    GainDomain,
    GainVector,
    NetworkModel,
    node_information,
    sample_channels,
)
from wsnmle.topology import build_graph, random_connected_graph


def _path3():
    return build_graph(3, [(0, 1), (1, 2)])


def _scenario(n, seed, sigma_v=1.0, sigma_n=0.5, theta=2.0 + 1.0j, noisy_self=False,
              domain=GainDomain.FIXED_ENERGY, unit=False):
    g = random_connected_graph(n, "gnp", p=0.6, seed=seed)
    h = sample_channels(g, "unit" if unit else "complex_gaussian", seed=seed + 1)
    model = NetworkModel(graph=g, h=h, sigma_v_sq=sigma_v, sigma_n_sq=sigma_n,
                         theta=theta, noisy_self_link=noisy_self)
    a = GainVector.ones(n, domain)
    plan = select_retainers(g, node_information(model, a))
    gm = build_global_model(model, plan, a)
    return g, model, a, plan, gm


def _pairs(g, plan):
    # The (receiver, sender) pairs of a plan's retained link indices.
    return list(zip(g.links.receiver[plan.retained].tolist(), g.links.sender[plan.retained].tolist()))


# --- row selection -----------------------------------------------------------


def test_select_retainers_path_trace():
    g = _path3()
    plan = select_retainers(g, np.array([1.0, 5.0, 2.0]))
    assert _pairs(g, plan) == [(0, 0), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)]
    assert plan.r == 1  # 2|E| = 4 directed links, 3 retained


def test_select_retainers_tie_breaks_to_smallest_id():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    plan = select_retainers(g, np.ones(4))
    pairs = _pairs(g, plan)
    # Sender 0's neighbors all tie; the smallest id retains.
    assert (1, 0) in pairs
    assert (2, 0) not in pairs and (3, 0) not in pairs
    # Leaves have a single neighbor, the hub.
    for leaf in (1, 2, 3):
        assert (0, leaf) in pairs


def test_select_retainers_single_node():
    g = build_graph(1, [])
    plan = select_retainers(g, np.array([3.0]))
    assert plan.retained.tolist() == [0] and _pairs(g, plan) == [(0, 0)]
    assert plan.r == 0


def test_select_retainers_validates_info():
    g = _path3()
    with pytest.raises(ValueError):
        select_retainers(g, np.array([1.0, -2.0, 0.0]))
    with pytest.raises(ValueError):
        select_retainers(g, np.array([1.0, np.inf, 0.0]))


# --- global model assembly ---------------------------------------------------


def test_global_model_row_count_and_order():
    g, model, a, plan, gm = _scenario(3, 0)
    # 3 self rows plus one retained external row per sender.
    assert gm.m == 6
    rows = list(zip(gm.row_receiver.tolist(), gm.row_sender.tolist()))
    assert rows == sorted(rows)
    assert rows == _pairs(g, plan)


def test_global_model_unit_rows_are_basis_rows():
    g, model, a, plan, gm = _scenario(4, 1, unit=True)
    H = dense_H(gm)
    for r in range(gm.m):
        assert np.count_nonzero(H[r]) == 1
        assert H[r, gm.row_sender[r]] == 1.0


def test_global_model_self_row_noise_flag():
    for noisy_self, expected_self in ((False, 0.0), (True, 0.5)):
        g, model, a, plan, gm = _scenario(3, 2, sigma_n=0.5, noisy_self=noisy_self)
        self_rows = gm.row_receiver == gm.row_sender
        np.testing.assert_allclose(gm.sigma_rows[self_rows], expected_self)
        np.testing.assert_allclose(gm.sigma_rows[~self_rows], 0.5)


def test_global_model_single_node_covariance():
    g, model, a, plan, gm = _scenario(1, 3, sigma_v=2.0, sigma_n=0.7, noisy_self=True)
    np.testing.assert_allclose(noise_cov_rows(gm, a), [2.0 + 0.7])
    g, model, a, plan, gm = _scenario(1, 3, sigma_v=2.0, sigma_n=0.7, noisy_self=False)
    np.testing.assert_allclose(noise_cov_rows(gm, a), [2.0])


def test_retained_row_count_invariant():
    for seed in range(10):
        n = 2 + seed
        g, model, a, plan, gm = _scenario(n, 40 + seed)
        senders_with_neighbors = len(set(g.edges.ravel().tolist()))
        assert gm.m == n + senders_with_neighbors


# --- ML estimate and variance -----------------------------------------------


def test_ml_estimate_noiseless_recovers_parameter():
    g, model, a, plan, gm = _scenario(4, 4, sigma_v=1e-12, sigma_n=1e-12, theta=2.0 - 1.0j)
    y = sample_received(model, gm, a, seed=5)
    est = ml_estimate(y, gm, a)
    assert abs(est - model.theta) / abs(model.theta) < 1e-4


def test_ml_estimate_single_node_returns_observation():
    g, model, a, plan, gm = _scenario(1, 5, sigma_v=1.0, sigma_n=0.0)
    y = sample_received(model, gm, a, seed=6)
    est = ml_estimate(y, gm, a)
    assert est == pytest.approx(complex(y[0]), rel=1e-12)


def test_ml_estimate_unbiased_monte_carlo():
    g, model, a, plan, gm = _scenario(3, 6, sigma_n=1.0)
    y = sample_received(model, gm, a, size=100_000, seed=7)
    cov = noise_cov_rows(gm, a)
    sig = gm.row_h * a.a[gm.row_sender]
    info = information_total(gm, a)
    ests = (y @ (np.conj(sig) / cov)) / info
    std_err = np.sqrt(ml_variance(gm, a) / ests.size)
    assert abs(np.mean(ests) - model.theta) < 3.0 * std_err


def test_ml_variance_single_row():
    g, model, a, plan, gm = _scenario(1, 7, sigma_v=1.0, sigma_n=1.0, noisy_self=True)
    assert ml_variance(gm, a) == pytest.approx(2.0)


def test_ml_variance_channel_scale_invariant_without_tx_noise():
    g = _path3()
    h = sample_channels(g, "complex_gaussian", seed=8)
    a = GainVector.ones(3, GainDomain.FIXED_ENERGY)
    models = []
    for scale in (1.0, 2.0):
        hs = np.where(g.links.receiver == g.links.sender, h, scale * h)
        m = NetworkModel(graph=g, h=hs, sigma_v_sq=1.0, sigma_n_sq=0.0, theta=1.0)
        plan = select_retainers(g, node_information(m, a))
        models.append(ml_variance(build_global_model(m, plan, a), a))
    # Self rows keep unit channels either way; external rows cancel the scale.
    assert models[0] == pytest.approx(models[1], rel=1e-12)


def test_ml_variance_matches_monte_carlo():
    g, model, a, plan, gm = _scenario(4, 9, sigma_n=1.0)
    y = sample_received(model, gm, a, size=100_000, seed=10)
    cov = noise_cov_rows(gm, a)
    sig = gm.row_h * a.a[gm.row_sender]
    info = information_total(gm, a)
    ests = (y @ (np.conj(sig) / cov)) / info
    emp = float(np.mean(np.abs(ests - np.mean(ests)) ** 2))
    assert emp == pytest.approx(ml_variance(gm, a), rel=0.05)


def test_sample_received_checks_gain_count():
    g, model, a, plan, gm = _scenario(4, 12)
    for gains in (np.ones(1), np.ones(7)):
        with pytest.raises(DimensionMismatch):
            sample_received(model, gm, gains, seed=1)


def test_zero_information_raises():
    g, model, _, plan, gm = _scenario(2, 11, sigma_n=1.0, noisy_self=True)
    # A zero gain vector is infeasible for both domains; pass the raw array.
    with pytest.raises(ZeroInformation):
        ml_estimate(np.zeros(gm.m), gm, np.zeros(2))
    with pytest.raises(ZeroInformation):
        ml_variance(gm, np.zeros(2))


# --- information decomposition ----------------------------------------------


def test_partition_identity_against_dense_solve():
    for seed in range(20):
        n = 2 + seed % 8
        g, model, a, plan, gm = _scenario(n, 100 + seed)
        I0 = decompose_information(gm, a)
        total = information_total(gm, a)
        # independent oracle: dense covariance assembly and a generic solve
        C = np.diag(noise_cov_rows(gm, a))
        Ha = dense_H(gm) @ a.a
        dense = float(np.real(np.conj(Ha) @ np.linalg.solve(C, Ha)))
        assert abs(np.sum(I0) - total) <= 1e-12 * total
        assert abs(dense - total) <= 1e-12 * total
        assert ml_variance(gm, a) == pytest.approx(1.0 / np.sum(I0), rel=1e-12)


def test_partition_identity_with_projections():
    g, model, a, plan, gm = _scenario(5, 31)
    y = sample_received(model, gm, a, seed=32)
    I0, P0 = decompose_information(gm, a, y)
    cov = noise_cov_rows(gm, a)
    sig = gm.row_h * a.a[gm.row_sender]
    global_proj = complex(np.sum(np.conj(sig) * y / cov))
    assert complex(np.sum(P0)) == pytest.approx(global_proj, rel=1e-12)
    assert ml_estimate(y, gm, a) == pytest.approx(global_proj / np.sum(I0), rel=1e-12)


def test_single_node_holds_all_information():
    g, model, a, plan, gm = _scenario(1, 33)
    I0 = decompose_information(gm, a)
    assert I0[0] == pytest.approx(information_total(gm, a), rel=1e-15)


def test_node_with_no_rows_contributes_zero():
    g = build_graph(2, [(0, 1)])
    h = sample_channels(g, "unit", seed=0)
    model = NetworkModel(graph=g, h=h, sigma_v_sq=1.0, sigma_n_sq=1.0, theta=1.0)
    a = GainVector.ones(2, GainDomain.FIXED_ENERGY)
    # Hypothetical plan where node 1 retains nothing at all.
    plan = SelectionPlan(retained=np.flatnonzero(g.links.receiver == 0), r=3)  # links (0, 0) and (0, 1)
    gm = build_global_model(model, plan, a)
    I0 = decompose_information(gm, a)
    assert I0[1] == 0.0
    assert np.sum(I0) == pytest.approx(information_total(gm, a), rel=1e-15)


def test_variance_phase_invariant():
    g, model, a, plan, gm = _scenario(5, 34)
    rng = np.random.default_rng(35)
    base = GainVector.random(5, GainDomain.FIXED_ENERGY, rng)
    ref = ml_variance(gm, base)
    rotated = GainVector(np.exp(1j * 0.9) * base.a, GainDomain.FIXED_ENERGY)
    assert ml_variance(gm, rotated) == pytest.approx(ref, rel=1e-12)
    # per-component phases leave the variance unchanged as well
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
    spun = GainVector(phases * base.a, GainDomain.FIXED_ENERGY)
    assert ml_variance(gm, spun) == pytest.approx(ref, rel=1e-12)


def test_build_global_model_rejects_malformed_plan():
    g, model, a, plan, gm = _scenario(3, 36)
    size = g.links.sender.size
    for retained in (
        [0, size],            # out of range
        [-1, 0],              # negative
        [2, 0, 3],            # unsorted
        [0, 0, 3],            # duplicate
        [[0, 1], [2, 3]],     # 2-d
        [0.0, 1.0],           # not integers
    ):
        with pytest.raises(DimensionMismatch, match="strictly ascending link indices"):
            build_global_model(model, SelectionPlan(retained=np.array(retained), r=plan.r), a)
    # The plan select_retainers made, passed as a list, is accepted.
    rebuilt = build_global_model(model, SelectionPlan(retained=plan.retained.tolist(), r=plan.r), a)
    np.testing.assert_array_equal(rebuilt.row_h, gm.row_h)

import math
import tracemalloc

import numpy as np
import pytest

from dense import dense_laplacian, round_map
from wsnmle.consensus import (
    AdmmConfig,
    admm_rounds,
    algebraic_connectivity,
    decentralized_mle,
    fitted_rho,
)
from wsnmle.errors import DimensionMismatch, Disconnected, ZeroInformation
from wsnmle.experiment import recorded_run
from wsnmle.fusion import (
    build_global_model,
    decompose_information,
    ml_estimate,
    sample_received,
    select_retainers,
)
from wsnmle.network_model import GainDomain, GainVector, NetworkModel, node_information, sample_channels
from wsnmle.topology import Graph, random_connected_graph


def _path3():
    return Graph(3, [(0, 1), (1, 2)])


def _zeros(n):
    return np.zeros(n, dtype=complex)


def _neighbour_lists(g):
    # Each node's neighbours in ascending order, straight from the edge array.
    nbrs = [[] for _ in range(g.n)]
    for i, j in g.edges.tolist():
        nbrs[i].append(j)
        nbrs[j].append(i)
    return [sorted(s) for s in nbrs]


def _oracle_step(g, rho, y, lam, x):
    # Straight-line evaluation of the two update formulas, node by node.
    n = g.n
    adjacency = _neighbour_lists(g)
    y_new = np.empty(n, dtype=complex)
    for i in range(n):
        nbrs = adjacency[i]
        d = len(nbrs)
        acc = rho * d * y[i]
        for j in nbrs:
            acc += rho * y[j]
        y_new[i] = (acc - lam[i] + x[i]) / (1.0 + 2.0 * rho * d)
    lam_new = np.empty(n, dtype=complex)
    for i in range(n):
        nbrs = adjacency[i]
        s = sum(y_new[j] for j in nbrs)
        lam_new[i] = lam[i] + rho * (len(nbrs) * y_new[i] - s)
    return y_new, lam_new


def _dense_decentralized_mle(g, cfg, I0, P0):
    # The update formulas on a dense adjacency, both streams advanced
    # separately with two products each; returns (I, P, iterations, converged).
    A = np.zeros((g.n, g.n))
    A[g.edges[:, 0], g.edges[:, 1]] = A[g.edges[:, 1], g.edges[:, 0]] = 1.0
    d = A.sum(axis=1)
    rho = cfg.rho
    denom = 1.0 + 2.0 * rho * d
    means = [np.mean(I0), np.mean(P0)]
    scales = [max(1.0, abs(m)) for m in means]
    ys = [np.zeros(g.n), np.zeros(g.n, dtype=complex)]
    lams = [np.zeros(g.n), np.zeros(g.n, dtype=complex)]
    trajs = [[ys[0]], [ys[1]]]
    for k in range(cfg.max_iter):
        for s, x in enumerate((I0, P0)):
            ys[s] = (rho * d * ys[s] + rho * (A @ ys[s]) - lams[s] + x) / denom
            lams[s] = lams[s] + rho * (d * ys[s] - A @ ys[s])
            trajs[s].append(ys[s])
        dev = max(np.max(np.abs(ys[s] - means[s])) / scales[s] for s in range(2))
        if dev <= cfg.tol:
            return np.array(trajs[0]), np.array(trajs[1]), k + 1, True
    return np.array(trajs[0]), np.array(trajs[1]), cfg.max_iter, False


def _per_round_decentralized_mle(g, cfg, I0, P0):
    # The loop decentralized_mle replaced, kernel included: integer degrees
    # cast and broadcast in every round, the stop rule checked after every
    # round, one row list per stream.  Returns (I, P, iterations, converged,
    # disagreement).
    links = g.links
    send = np.delete(links.sender, links.own)
    starts = links.starts - np.arange(g.n)
    d = np.diff(starts, append=send.size)

    def neighbour_sum(v):
        if send.size == 0:
            return np.zeros_like(v)
        return np.add.reduceat(np.take(v, send, axis=-1), starts, axis=-1)

    I0 = np.asarray(I0, dtype=float)
    P0 = np.asarray(P0, dtype=complex)
    mean_I, mean_P = float(np.mean(I0)), complex(np.mean(P0))
    scale_I, scale_P = max(1.0, abs(mean_I)), max(1.0, abs(mean_P))
    x = np.stack((I0, P0.real, P0.imag))
    y, lam = np.zeros_like(x), np.zeros_like(x)
    rho = cfg.rho
    denom = 1.0 + 2.0 * rho * d
    s = neighbour_sum(y)
    traj_I = [np.zeros(g.n)]
    traj_P = [np.zeros(g.n, dtype=complex)]
    for _ in range(cfg.max_iter):
        y = (rho * d * y + rho * s - lam + x) / denom
        s = neighbour_sum(y)
        lam = lam + rho * (d * y - s)
        traj_I.append(y[0].copy())
        traj_P.append(y[1] + 1j * y[2])
        dev_I = float(np.max(np.abs(traj_I[-1] - mean_I))) / scale_I
        dev_P = float(np.max(np.abs(traj_P[-1] - mean_P))) / scale_P
        disagreement = max(dev_I, dev_P)
        if disagreement <= cfg.tol:
            break
    return np.array(traj_I), np.array(traj_P), len(traj_I) - 1, disagreement <= cfg.tol, disagreement


def test_config_validation():
    assert AdmmConfig().rho is None  # fitted to each graph
    with pytest.raises(ValueError):
        AdmmConfig(rho=0.0)
    with pytest.raises(ValueError):
        AdmmConfig(tol=0.0)
    with pytest.raises(ValueError):
        AdmmConfig(max_iter=0)
    for count in (2.5, 8.0, True, "3"):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            AdmmConfig(max_iter=count)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["rho", "tol"])
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        AdmmConfig(**{name: value})


def test_constant_input_is_fixed_point():
    g = _path3()
    c = 0.75 + 0.5j
    x = np.full(3, c)
    y, lam = next(admm_rounds(g, 0.5, x, np.full(3, c), _zeros(3)))
    assert np.max(np.abs(y - c)) <= 1e-14
    assert np.max(np.abs(lam)) <= 1e-14


def test_first_iterate_against_straight_line_oracle():
    g = _path3()
    x = np.array([0.0, 3.0, 6.0], dtype=complex)
    y, lam = next(admm_rounds(g, 0.5, x, _zeros(3), _zeros(3)))
    y_ref, lam_ref = _oracle_step(g, 0.5, _zeros(3), _zeros(3), x)
    np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-15)
    np.testing.assert_allclose(lam, lam_ref, rtol=0, atol=1e-15)
    # frozen values computed from the update formulas by hand
    np.testing.assert_allclose(y, [0.0, 1.0, 3.0], atol=1e-15)
    np.testing.assert_allclose(lam, [-0.5, -0.5, 1.0], atol=1e-15)


def test_multi_step_against_oracle():
    g = random_connected_graph(7, "gnp", p=0.5, seed=1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    y_ref = lam_ref = _zeros(7)
    for _, (y, lam) in zip(range(5), admm_rounds(g, 0.8, x, _zeros(7), _zeros(7))):
        y_ref, lam_ref = _oracle_step(g, 0.8, y_ref, lam_ref, x)
    np.testing.assert_allclose(y, y_ref, atol=1e-13)
    np.testing.assert_allclose(lam, lam_ref, atol=1e-13)


def test_single_node_is_immediate():
    g = Graph(1, [])
    x = np.array([4.0 - 2.0j])
    y, _ = next(admm_rounds(g, 0.5, x, _zeros(1), _zeros(1)))
    assert y[0] == x[0]  # y+ = x - lambda with zero state
    run = decentralized_mle(g, AdmmConfig(rho=0.5, tol=1e-12), np.ones(1), x)
    assert (run.iterations, run.converged) == (1, True)


def test_path_converges_to_mean():
    g = _path3()
    run = decentralized_mle(g, AdmmConfig(rho=0.5, tol=1e-9), np.ones(3), np.array([0.0, 3.0, 6.0]))
    assert run.converged
    np.testing.assert_allclose(run.P[-1], 3.0, atol=1e-8)


def test_random_graphs_converge_for_rho_range():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = int(rng.integers(2, 21))
        g = random_connected_graph(n, "gnp", p=0.5, seed=trial)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rho = float(rng.uniform(0.1, 2.0))
        for _, (y, _lam) in zip(range(10_000), admm_rounds(g, rho, x, _zeros(n), _zeros(n))):
            dev = np.max(np.abs(y - np.mean(x)))
            if dev <= 1e-8:
                break
        assert dev <= 1e-8


def test_linearity_of_trajectories():
    g = random_connected_graph(6, "gnp", p=0.6, seed=4)
    rng = np.random.default_rng(5)
    x1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x2 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    alpha, beta = 2.0, -0.5
    # compare iterate-by-iterate across three separate runs
    runs = [admm_rounds(g, 0.7, x, _zeros(6), _zeros(6)) for x in (x1, x2, alpha * x1 + beta * x2)]
    for _, ((y1, _), (y2, _), (y12, _)) in zip(range(30), zip(*runs)):
        np.testing.assert_allclose(y12, alpha * y1 + beta * y2, atol=1e-13)


def test_analytic_fixed_point_is_stationary():
    g = random_connected_graph(8, "gnp", p=0.5, seed=6)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    xbar = np.mean(x)
    y0, lam0 = np.full(8, xbar), x - xbar
    y, lam = next(admm_rounds(g, 0.9, x, y0, lam0))
    assert np.max(np.abs(y - y0)) <= 1e-12
    assert np.max(np.abs(lam - lam0)) <= 1e-12


@pytest.mark.parametrize("edge", [(0, 2), (0, 1)], ids=["middle", "last"])
def test_isolated_node_rejected(edge):
    # Graph checks connectivity itself, so no consensus round can start.
    with pytest.raises(Disconnected):
        g = Graph(n=3, edges=(edge,))
        next(admm_rounds(g, 0.5, np.ones(3), _zeros(3), _zeros(3)))


@pytest.mark.parametrize("arg", ["x", "y", "lam"])
def test_admm_rounds_rejects_wrong_length(arg):
    g = _path3()
    vectors = {"x": np.ones(3), "y": _zeros(3), "lam": _zeros(3)}
    vectors[arg] = _zeros(4)
    rounds = admm_rounds(g, 0.5, **vectors)
    with pytest.raises(DimensionMismatch):
        next(rounds)


# --- decentralized estimation -------------------------------------------------


def test_identical_nodes_keep_constant_ratio():
    g = random_connected_graph(5, "gnp", p=0.7, seed=8)
    c, p = 2.0, 3.0 - 1.5j
    run = recorded_run(g, AdmmConfig(rho=0.5, tol=1e-10), np.full(5, c), np.full(5, p))
    ratios = run.theta[1:]  # skip the guarded all-zero initial row
    valid = ~np.isnan(ratios.real)
    assert np.all(valid)
    np.testing.assert_allclose(ratios, p / c, rtol=1e-12)


def test_limit_matches_centralized_estimate():
    g = random_connected_graph(9, "geometric", radius=0.6, seed=9)
    h = sample_channels(g, seed=10)
    model = NetworkModel(graph=g, h=h, sigma_v_sq=1.0, sigma_n_sq=0.2, theta=1.5 + 0.5j)
    a = GainVector.ones(9, GainDomain.FIXED_ENERGY)
    plan = select_retainers(g, node_information(model, a))
    gm = build_global_model(model, plan, a)
    y = sample_received(model, gm, a, seed=11)
    I0, P0 = decompose_information(gm, a, y)
    run = decentralized_mle(g, AdmmConfig(rho=0.5, max_iter=20_000, tol=1e-10), I0, P0)
    assert run.converged
    central = ml_estimate(y, gm, a)
    oracle = complex(np.sum(P0) / np.sum(I0))
    assert central == pytest.approx(oracle, rel=1e-12)
    assert np.max(np.abs(run.theta_final - central)) / abs(central) < 1e-7


def test_sixteen_node_network_reaches_global_estimate():
    g = random_connected_graph(16, "geometric", radius=0.5, seed=12)
    h = sample_channels(g, seed=13)
    model = NetworkModel(graph=g, h=h, sigma_v_sq=1.0, sigma_n_sq=0.1, theta=10.0 + 0.0j)
    a = GainVector.ones(16, GainDomain.FIXED_ENERGY)
    plan = select_retainers(g, node_information(model, a))
    gm = build_global_model(model, plan, a)
    y = sample_received(model, gm, a, seed=14)
    I0, P0 = decompose_information(gm, a, y)
    run = decentralized_mle(g, AdmmConfig(rho=0.5, max_iter=20_000, tol=1e-9), I0, P0)
    central = ml_estimate(y, gm, a)
    assert run.converged
    assert np.max(np.abs(run.theta_final - central)) < 1e-4


def test_decentralized_mle_reports_iteration_cap():
    g = _path3()
    cfg = AdmmConfig(rho=0.5, max_iter=2, tol=1e-12)
    run = decentralized_mle(g, cfg, np.ones(3), np.array([0.0, 3.0, 6.0]))
    assert not run.converged
    assert run.iterations == 2
    assert run.I.shape == run.P.shape == (1, 3)  # the final state only
    assert run.disagreement > cfg.tol
    full = recorded_run(g, cfg, np.ones(3), np.array([0.0, 3.0, 6.0]))
    assert full.I.shape == full.P.shape == (3, 3)
    assert full.I[-1].tobytes() == run.I[-1].tobytes() and full.P[-1].tobytes() == run.P[-1].tobytes()


def test_zero_information_rejected():
    g = _path3()
    with pytest.raises(ZeroInformation):
        decentralized_mle(g, AdmmConfig(), np.zeros(3), np.zeros(3, dtype=complex))


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("stream", ["I0", "P0"])
def test_decentralized_mle_rejects_non_finite_streams(stream, value):
    streams = {"I0": np.ones(3), "P0": np.array([0.0, 3.0, 6.0], dtype=complex)}
    streams[stream][1] = value
    with pytest.raises(ValueError, match="must be finite"):
        decentralized_mle(_path3(), AdmmConfig(), **streams)


@pytest.mark.parametrize(
    "g",
    [
        Graph(1, []),
        Graph(9, [(0, j) for j in range(1, 9)]),  # star: degrees 1 and n-1
        random_connected_graph(40, "gnp", p=0.15, seed=15),
        random_connected_graph(300, "gnp", p=0.03, seed=16),
        random_connected_graph(120, "geometric", radius=0.2, seed=17),
        random_connected_graph(300, "geometric", radius=0.13, seed=18),
    ],
    ids=["single", "star9", "gnp40", "gnp300", "geo120", "geo300"],
)
def test_decentralized_mle_matches_dense_oracle(g):
    rng = np.random.default_rng(g.n)
    I0 = rng.uniform(0.5, 2.0, g.n)
    P0 = I0 * (1.5 - 0.5j) + rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    cfg = AdmmConfig(rho=0.5, max_iter=5000, tol=1e-9)
    run = recorded_run(g, cfg, I0, P0)
    I_ref, P_ref, iterations, converged = _dense_decentralized_mle(g, cfg, I0, P0)
    assert (run.iterations, run.converged) == (iterations, converged)
    assert converged
    # Summation order differs from the dense products: agree to rounding.
    assert np.max(np.abs(run.I - I_ref)) <= 1e-12 * np.max(np.abs(I_ref))
    assert np.max(np.abs(run.P - P_ref)) <= 1e-12 * np.max(np.abs(P_ref))
    central = np.sum(P0) / np.sum(I0)
    assert np.max(np.abs(run.theta_final - central)) <= 1e-6 * abs(central)
    assert np.array_equal(run.theta_final, run.theta[-1], equal_nan=True)


_LOOP_GRAPHS = {
    "single": lambda: Graph(1, []),
    "path3": _path3,
    "star9": lambda: Graph(9, [(0, j) for j in range(1, 9)]),
    "gnp40": lambda: random_connected_graph(40, "gnp", p=0.15, seed=15),
    "gnp300": lambda: random_connected_graph(300, "gnp", p=0.03, seed=16),
    "geo120": lambda: random_connected_graph(120, "geometric", radius=0.2, seed=17),
    "geo300": lambda: random_connected_graph(300, "geometric", radius=0.13, seed=18),
}


def _assert_same_run(g, cfg, I0, P0, ref):
    # The sink's rows are the reference's whole trajectory, and a default
    # call keeps its last row.
    I_ref, P_ref, iterations, converged, disagreement = ref
    full = recorded_run(g, cfg, I0, P0)
    run = decentralized_mle(g, cfg, I0, P0)
    assert full.I.shape == I_ref.shape and full.P.shape == P_ref.shape
    assert full.I.tobytes() == I_ref.tobytes()
    assert full.P.tobytes() == P_ref.tobytes()
    assert run.I.tobytes() == I_ref[-1:].tobytes() and run.P.tobytes() == P_ref[-1:].tobytes()
    for r in (full, run):
        assert (r.iterations, r.converged, r.disagreement) == (iterations, converged, disagreement)
        assert type(r.iterations) is int and type(r.disagreement) is float


# Caps from one round up (a run that reaches its cap reads the projection
# there), and None for a run that converges before its cap.
@pytest.mark.parametrize("max_iter", [1, 15, 16, 17, 37, None])
@pytest.mark.parametrize("graph", list(_LOOP_GRAPHS))
def test_decentralized_mle_matches_per_round_loop(graph, max_iter):
    g = _LOOP_GRAPHS[graph]()
    rng = np.random.default_rng(g.n + 1)
    I0 = rng.uniform(0.5, 2.0, g.n)
    P0 = I0 * (1.5 - 0.5j) + rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    cfg = AdmmConfig(rho=0.7, max_iter=max_iter or 5000, tol=1e-9)
    ref = _per_round_decentralized_mle(g, cfg, I0, P0)
    _assert_same_run(g, cfg, I0, P0, ref)
    if max_iter is None:
        assert ref[3]  # converged: stopped by the rule, not at the cap


@pytest.mark.parametrize("graph", ["single", "path3", "star9"])
def test_decentralized_mle_matches_per_round_loop_at_round_one(graph):
    # Constant streams are within a loose tol after one round.
    g = _LOOP_GRAPHS[graph]()
    cfg = AdmmConfig(rho=0.5, max_iter=100, tol=0.9)
    I0, P0 = np.ones(g.n), np.full(g.n, 0.5 - 0.25j)
    ref = _per_round_decentralized_mle(g, cfg, I0, P0)
    assert (ref[2], ref[3]) == (1, True)
    _assert_same_run(g, cfg, I0, P0, ref)


def test_record_sink_receives_rounds_in_order():
    # Round 0 first, then one round per call up to the stop, as fresh arrays.
    g = _LOOP_GRAPHS["geo120"]()
    cfg = AdmmConfig(rho=0.7, max_iter=40, tol=1e-12)
    calls = []
    run = decentralized_mle(
        g, cfg, np.ones(g.n), np.arange(g.n, dtype=complex),
        record=lambda I, P: calls.append((I, P, I.tobytes() + P.tobytes())),
    )
    assert len(calls) == 41 and run.iterations == 40
    assert not calls[0][0].any() and not calls[0][1].any()
    for I, P, seen in calls:
        assert I.dtype == float and P.dtype == complex and I.shape == P.shape == (1, g.n)
        assert I.tobytes() + P.tobytes() == seen  # later rounds did not overwrite it
    assert calls[-1][0][-1].tobytes() == run.I[-1].tobytes()


@pytest.mark.parametrize("graph", ["path3", "star9", "geo120", "geo300"])
def test_decentralized_mle_matches_per_round_loop_when_information_settles_first(graph):
    # Nearly constant information meets tol rounds before the widely spread,
    # zero-mean projection does, so the rule reads the projection and keeps
    # going.
    g = _LOOP_GRAPHS[graph]()
    rng = np.random.default_rng(g.n + 2)
    I0 = 1.0 + 1e-12 * rng.standard_normal(g.n)
    P0 = 50.0 * (rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
    P0 -= np.mean(P0)
    cfg = AdmmConfig(rho=0.7, max_iter=5000, tol=1e-9)
    ref = _per_round_decentralized_mle(g, cfg, I0, P0)
    assert ref[3]
    dev_I = np.max(np.abs(ref[0] - np.mean(I0)), axis=1) / max(1.0, abs(np.mean(I0)))
    assert np.flatnonzero(dev_I <= cfg.tol)[0] < ref[2] - 2  # rounds before the stop
    _assert_same_run(g, cfg, I0, P0, ref)


def test_default_run_keeps_no_history():
    # n = 512, radius 0.1: the benchmark's estimation input size.  With
    # every round stored the call peaked at 9.9 MB.
    g = random_connected_graph(512, "geometric", radius=0.1, seed=19)
    rng = np.random.default_rng(20)
    I0 = rng.uniform(0.5, 2.0, g.n)
    P0 = I0 * (1.5 - 0.5j) + rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    tracemalloc.start()
    try:
        run = decentralized_mle(g, AdmmConfig(), I0, P0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.converged and run.iterations > 100
    assert run.I.shape == run.P.shape == (1, g.n)
    assert peak < 2 * 2**20


# --- the step constant fitted to the graph --------------------------------------


def _lattice(k):
    ids = np.arange(k * k).reshape(k, k)
    across = np.stack((ids[:, :-1].ravel(), ids[:, 1:].ravel()), axis=1)
    down = np.stack((ids[:-1].ravel(), ids[1:].ravel()), axis=1)
    return Graph(k * k, np.concatenate((across, down)))


_FIT_GRAPHS = {
    "geo16": lambda: random_connected_graph(16, "geometric", radius=0.5, seed=21),
    "geo128": lambda: random_connected_graph(128, "geometric", radius=0.2, seed=22),
    "geo512": lambda: random_connected_graph(512, "geometric", radius=0.1, seed=23),
    "lattice32x32": lambda: _lattice(32),
    "path64": lambda: Graph(64, [(i, i + 1) for i in range(63)]),
    "star64": lambda: Graph(64, [(0, j) for j in range(1, 64)]),
    "complete32": lambda: Graph(32, [(i, j) for i in range(32) for j in range(i + 1, 32)]),
    "pair": lambda: Graph(2, [(0, 1)]),
    "gnp300": lambda: random_connected_graph(300, "gnp", p=0.03, seed=0),
}


def _dense_fitted_rho(g):
    # The same formula and rounding on the dense Laplacian's exact lambda_2.
    L = dense_laplacian(g)
    lam2 = np.linalg.eigvalsh(L)[1]
    harmonic = g.n / np.sum(1.0 / np.diag(L))
    return lam2, float(f"{0.6 / math.sqrt(2.0 * harmonic * lam2):.3g}")


@pytest.mark.parametrize("graph", list(_FIT_GRAPHS))
def test_fitted_rho_matches_dense_reference(graph):
    g = _FIT_GRAPHS[graph]()
    lam2, rho = _dense_fitted_rho(g)
    estimate = algebraic_connectivity(g)
    # Ritz values interlace: an early Lanczos stop may only overestimate
    # lambda_2 (beyond rounding, which is relative to the norm of L), and
    # so only shrink rho.
    assert estimate >= lam2 - 1e-12 * np.abs(dense_laplacian(g)).sum(axis=1).max()
    fitted = fitted_rho(g)
    assert fitted <= rho
    assert fitted >= 0.99 * rho, (fitted, rho)
    if graph in ("star64", "complete32", "pair"):  # Krylov spaces that close after two steps or one
        assert fitted == rho


# The fitted values to the digit, so a change to the Lanczos steps or to its
# stop test that moves any of them shows (no golden reaches the stop test:
# the n = 8 golden's Krylov space closes at step 7, before the first test).
_FIT_RHO = {"geo16": 0.15, "geo128": 0.197, "geo512": 0.31, "lattice32x32": 2.2, "path64": 6.21,
            "star64": 0.421, "complete32": 0.0135, "pair": 0.3, "gnp300": 0.0964}


@pytest.mark.parametrize("graph", list(_FIT_RHO))
def test_fitted_rho_is_pinned(graph):
    assert fitted_rho(_FIT_GRAPHS[graph]()) == _FIT_RHO[graph]


def test_fitted_rho_on_a_single_node_is_defined():
    g = Graph(1, [])
    assert algebraic_connectivity(g) == 0.0
    assert fitted_rho(g) == 1.0
    run = decentralized_mle(g, AdmmConfig(), np.ones(1), np.array([2.0 - 1.0j]))
    assert (run.rho, run.iterations, run.converged) == (1.0, 1, True)


def test_decentralized_mle_runs_and_reports_the_fitted_rho():
    g = _LOOP_GRAPHS["geo120"]()
    rng = np.random.default_rng(24)
    I0 = rng.uniform(0.5, 2.0, g.n)
    P0 = I0 * (1.5 - 0.5j) + rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    fitted = decentralized_mle(g, AdmmConfig(), I0, P0)
    given = decentralized_mle(g, AdmmConfig(rho=fitted_rho(g)), I0, P0)
    assert fitted.rho == given.rho == fitted_rho(g)
    assert fitted.I.tobytes() == given.I.tobytes() and fitted.P.tobytes() == given.P.tobytes()
    assert fitted.iterations == given.iterations
    assert decentralized_mle(g, AdmmConfig(rho=0.5), I0, P0).rho == 0.5


def _predicted_rounds(g, rho, x, tol):
    # Rounds until the spectral bound on a stream's distance to its mean is
    # within tol * max(1, |mean|).  The state's error from the fixed point
    # (y, lam) = (mean, x - mean) evolves by the round map M; on the span of
    # the eigenvectors whose eigenvalue is not 1 (the start's error lies
    # there, as lam's sum never moves) it is sum_j c_j mu_j^k v_j, so every
    # y-entry's distance is at most r^k sum_j |c_j v_j|, with r the largest
    # modulus among those eigenvalues.
    n = g.n
    mu, V = np.linalg.eig(round_map(g, rho))
    mean = np.mean(x)
    error = np.concatenate((np.full(n, -mean), mean - x)).astype(complex)
    c = np.linalg.solve(V, error)
    moving = np.abs(mu - 1.0) > 1e-9
    r = float(np.max(np.abs(mu[moving])))
    bound = float(np.max(np.abs(V[:n, moving]) @ np.abs(c[moving])))
    return max(0, math.ceil(math.log(tol * max(1.0, abs(mean)) / bound) / math.log(r))), r


@pytest.mark.parametrize(
    "graph",
    [
        lambda: random_connected_graph(16, "geometric", radius=0.5, seed=1),
        lambda: random_connected_graph(64, "geometric", radius=0.3, seed=2),
        lambda: random_connected_graph(100, "geometric", radius=0.2, seed=3),
        lambda: random_connected_graph(40, "gnp", p=0.15, seed=4),
        lambda: random_connected_graph(100, "gnp", p=0.08, seed=5),
    ],
    ids=["geo16", "geo64", "geo100", "gnp40", "gnp100"],
)
def test_rounds_are_within_the_spectral_prediction(graph):
    g = graph()
    rng = np.random.default_rng(g.n)
    I0 = rng.uniform(0.5, 2.0, g.n)
    P0 = I0 * (1.5 - 0.5j) + rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    moduli = {}
    for rho in (0.5, fitted_rho(g)):
        run = decentralized_mle(g, AdmmConfig(rho=rho, tol=1e-8), I0, P0)
        (rounds_I, r), (rounds_P, _) = (_predicted_rounds(g, rho, x, 1e-8) for x in (I0, P0))
        assert run.converged and run.iterations <= max(rounds_I, rounds_P) + 1, (rho, run.iterations)
        moduli[rho] = r
    # The fit lowers the rate the round map contracts at.
    assert moduli[fitted_rho(g)] < moduli[0.5]

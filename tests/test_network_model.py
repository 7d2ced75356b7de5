import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from wsnmle.errors import DimensionMismatch, SingularCovariance
from wsnmle.fusion import build_global_model, information_total, noise_cov_rows, sample_received, select_retainers
from wsnmle.network_model import (
    GainDomain,
    GainVector,
    NetworkModel,
    node_information,
    sample_channels,
)
from wsnmle.topology import _geometric_edges, _grid_side, build_graph, random_connected_graph


def _path3():
    return build_graph(3, [(0, 1), (1, 2)])


def _link(g, receiver, sender):
    return (g.links.receiver == receiver) & (g.links.sender == sender)


def _at(g, h, receiver, sender):
    return h[_link(g, receiver, sender)][0]


def _pair(h01=2.0, sigma_v=1.0, sigma_n=1.0, noisy_self=True):
    # Two nodes; node 0 receives node 1 over channel h01, every other link is 1.
    g = build_graph(2, [(0, 1)])
    h = np.ones(4, dtype=complex)
    h[_link(g, 0, 1)] = h01
    return _model(g, h, sigma_v=sigma_v, sigma_n=sigma_n, noisy_self=noisy_self)


def _global(model, gains):
    return build_global_model(model, select_retainers(model.graph, node_information(model, gains)), gains)


def _model(graph, h, sigma_v=1.0, sigma_n=1.0, theta=2.0 + 0.5j, noisy_self=False):
    return NetworkModel(
        graph=graph, h=h, sigma_v_sq=sigma_v, sigma_n_sq=sigma_n, theta=theta,
        noisy_self_link=noisy_self,
    )


# --- channel sampling -------------------------------------------------------


def test_unit_channels():
    g = _path3()
    h = sample_channels(g, "unit", seed=0)
    assert h.shape == (2 * g.num_edges + g.n,)
    assert np.all(h == 1.0)


def test_reciprocal_channels():
    g = _path3()
    h = sample_channels(g, "complex_gaussian", reciprocal=True, seed=1)
    assert _at(g, h, 0, 1) == _at(g, h, 1, 0)
    assert _at(g, h, 1, 2) == _at(g, h, 2, 1)


def test_directional_channels_differ():
    g = _path3()
    h = sample_channels(g, "complex_gaussian", reciprocal=False, seed=1)
    assert _at(g, h, 0, 1) != _at(g, h, 1, 0)
    assert _at(g, h, 0, 0) == 1.0 and _at(g, h, 1, 1) == 1.0


def test_channel_sampling_deterministic():
    g = random_connected_graph(8, "gnp", p=0.6, seed=9)
    np.testing.assert_array_equal(sample_channels(g, seed=4), sample_channels(g, seed=4))


def test_channel_second_moment():
    # Complete graph gives >= 1e5 off-diagonal draws in one call.
    n = 317
    g = build_graph(n, list(combinations(range(n), 2)))
    h = sample_channels(g, "complex_gaussian", sigma_h=1.0, seed=11)
    draws = h[g.links.receiver != g.links.sender]
    assert draws.size >= 100_000
    mean_sq = float(np.mean(np.abs(draws) ** 2))
    assert 0.97 <= mean_sq <= 1.03


@pytest.mark.parametrize("reciprocal", [False, True])
def test_channel_stream_spans_draw_blocks(reciprocal):
    # Drawn a block of edges at a time, the channels are still one call's
    # stream: row k of the draws goes to edge k's links.
    g = random_connected_graph(256, radius=0.5, seed=3)
    m, seed = g.num_edges, 21
    assert m > 4096
    rng = np.random.default_rng(np.random.SeedSequence((seed,)))
    draws = rng.normal(0.0, 0.7 / np.sqrt(2.0), size=(m, 2 if reciprocal else 4)).view(complex)
    want = np.ones(g.links.sender.size, dtype=complex)
    want[g.links.forward] = draws[:, 0]
    want[g.links.reverse[g.links.forward]] = draws[:, -1]
    got = sample_channels(g, sigma_h=0.7, reciprocal=reciprocal, seed=seed)
    assert got.tobytes() == want.tobytes()


# --- model validation -------------------------------------------------------


def test_model_rejects_bad_channel_keys():
    g = _path3()
    h = sample_channels(g, "unit", seed=0)
    with pytest.raises(DimensionMismatch):
        _model(g, h[1:])  # one link short
    with pytest.raises(DimensionMismatch):
        _model(g, np.ones(h.size + 1))


def test_model_rejects_nonunit_self_channel():
    g = _path3()
    h = sample_channels(g, "unit", seed=0)
    h[_link(g, 1, 1)] = 2.0
    with pytest.raises(ValueError):
        _model(g, h)


def test_model_rejects_bad_variances():
    g = _path3()
    h = sample_channels(g, "unit", seed=0)
    with pytest.raises(ValueError):
        _model(g, h, sigma_v=0.0)
    with pytest.raises(ValueError):
        _model(g, h, sigma_n=-1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["sigma_v", "sigma_n", "theta_re", "theta_im"])
def test_model_rejects_non_finite(field, value):
    g = _path3()
    h = sample_channels(g, "unit", seed=0)
    kwargs = {
        "sigma_v": {"sigma_v": value},
        "sigma_n": {"sigma_n": value},
        "theta_re": {"theta": complex(value, 0.0)},
        "theta_im": {"theta": complex(1.0, value)},
    }[field]
    with pytest.raises(ValueError, match="finite"):
        _model(g, h, **kwargs)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_channels_reject_non_finite_sigma_h(value):
    with pytest.raises(ValueError, match="sigma_h must be positive and finite"):
        sample_channels(_path3(), "complex_gaussian", sigma_h=value, seed=0)


# --- gain vectors -----------------------------------------------------------


def test_gain_vector_ones_feasible_in_both_domains():
    for domain in GainDomain:
        gv = GainVector.ones(4, domain)
        assert np.all(gv.a == 1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(1.0, np.nan)], ids=["nan", "inf", "nan-imag"])
@pytest.mark.parametrize("domain", list(GainDomain), ids=[d.value for d in GainDomain])
def test_gain_vector_rejects_non_finite(domain, value):
    # NaN fails both constraint comparisons, so only a finiteness check stops it.
    with pytest.raises(ValueError, match="gains must be finite"):
        GainVector(np.array([value, 1.0, 1.0]), domain)


def test_gain_vector_constraint_enforced():
    with pytest.raises(ValueError):
        GainVector(np.array([2.0, 0.0]), GainDomain.UNIMODULAR)
    with pytest.raises(ValueError):
        GainVector(np.array([2.0, 2.0]), GainDomain.FIXED_ENERGY)


def test_random_gain_vectors_feasible():
    rng = np.random.default_rng(3)
    for _ in range(20):
        fe = GainVector.random(5, GainDomain.FIXED_ENERGY, rng)
        assert abs(np.sum(np.abs(fe.a) ** 2) - 5) < 1e-9 * 5
        um = GainVector.random(5, GainDomain.UNIMODULAR, rng)
        assert np.max(np.abs(np.abs(um.a) - 1.0)) < 1e-12


# --- per-link noise and node information ------------------------------------


def test_noise_cov_rows_single_row():
    model = _model(build_graph(1, []), np.ones(1), sigma_v=1.0, sigma_n=1.0, noisy_self=True)
    gains = GainVector.ones(1, GainDomain.FIXED_ENERGY)
    np.testing.assert_allclose(noise_cov_rows(_global(model, gains), gains), [2.0])
    assert node_information(model, gains) == pytest.approx([0.5])


def test_noise_cov_rows_zero_gains():
    # Zero gains leave only the transmission noise on every row.
    gm = _global(_pair(), GainVector.ones(2, GainDomain.FIXED_ENERGY))
    np.testing.assert_allclose(noise_cov_rows(gm, np.zeros(2)), np.ones(gm.m))


def test_noise_cov_rows_two_rows():
    gm = _global(_pair(h01=2.0), GainVector.ones(2, GainDomain.FIXED_ENERGY))
    at_0 = gm.row_receiver == 0
    np.testing.assert_array_equal(gm.row_sender[at_0], [0, 1])
    np.testing.assert_allclose(noise_cov_rows(gm, np.ones(2))[at_0], [2.0, 5.0])


def test_node_information_singular_covariance():
    # Node 0 has a zero gain and reads itself without transmission noise.
    model = _pair(noisy_self=False)
    with pytest.raises(SingularCovariance):
        node_information(model, GainVector(np.array([0.0, np.sqrt(2.0)]), GainDomain.FIXED_ENERGY))


def test_node_information_examples():
    ones = GainVector.ones(2, GainDomain.FIXED_ENERGY)
    single = _model(build_graph(1, []), np.ones(1), sigma_v=1.0, sigma_n=1.0, noisy_self=True)
    assert node_information(single, GainVector.ones(1, GainDomain.FIXED_ENERGY)) == pytest.approx([0.5])
    gm = _global(_pair(h01=2.0), ones)
    assert information_total(gm, np.zeros(2)) == 0.0
    # Node 0 holds its own row (1/2) and node 1's over h = 2 (4/5).
    assert node_information(_pair(h01=2.0), ones)[0] == pytest.approx(1.3)


def test_noisy_links_mask_self_links():
    g = _path3()
    model = _model(g, sample_channels(g, "unit", seed=0), sigma_n=1.0, noisy_self=False)
    at_1 = slice(g.links.starts[1], g.links.starts[2])
    np.testing.assert_array_equal(g.links.sender[at_1], [0, 1, 2])
    np.testing.assert_array_equal(model.noisy_links()[at_1], [True, False, True])
    assert not _link(g, 0, 2).any()  # 2 is not adjacent to 0


def test_information_phase_invariant():
    g = random_connected_graph(6, "gnp", p=0.7, seed=2)
    model = _model(g, sample_channels(g, seed=3), sigma_n=0.5)
    rng = np.random.default_rng(0)
    base = GainVector.random(6, GainDomain.FIXED_ENERGY, rng)
    info = node_information(model, base)
    for phi in (0.3, 1.7, np.pi):
        rotated = GainVector(np.exp(1j * phi) * base.a, GainDomain.FIXED_ENERGY)
        np.testing.assert_allclose(node_information(model, rotated), info, rtol=1e-12)


def test_information_decreases_with_transmission_noise():
    g = _path3()
    h = sample_channels(g, seed=5)
    gains = GainVector.ones(3, GainDomain.FIXED_ENERGY)
    lo = _model(g, h, sigma_n=0.5)
    hi = _model(g, h, sigma_n=1.0)
    assert np.all(node_information(hi, gains) < node_information(lo, gains))


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_setup_passes_memory():
    # Peaks at the benchmark's dense size, in per-link float arrays of 8
    # bytes a link.  Built from fresh per-link temporaries, the passes
    # peaked at 7.0 (node information), 7.0 (all pairs), 8.2 (whole graph)
    # and 4.5 (channels).
    n, radius, seed = 256, 0.5, 8
    pos = np.random.default_rng(seed).random((n, 2))
    assert _grid_side(n, radius) < 3  # every pair is tested
    assert _peak(lambda: _geometric_edges(pos, radius)) <= 5.5 * 8 * (2 * len(_geometric_edges(pos, radius)) + n)
    g = random_connected_graph(n, radius=radius, seed=seed)
    unit = 8 * g.links.sender.size
    assert _peak(lambda: random_connected_graph(n, radius=radius, seed=seed)) <= 8.2 * unit
    assert _peak(lambda: sample_channels(g, seed=seed)) <= 4.5 * unit
    model = _model(g, sample_channels(g, seed=seed))
    assert _peak(lambda: node_information(model, GainVector.ones(n, GainDomain.UNIMODULAR))) <= 3.5 * unit


# --- received observations -------------------------------------------------


def test_observations_deterministic():
    g = _path3()
    model = _model(g, sample_channels(g, seed=0))
    gains = GainVector.ones(3, GainDomain.FIXED_ENERGY)
    gm = _global(model, gains)
    y1 = sample_received(model, gm, gains, seed=21)
    np.testing.assert_array_equal(y1, sample_received(model, gm, gains, seed=21))
    assert not np.array_equal(y1, sample_received(model, gm, gains, seed=22))


def test_observations_vanishing_noise():
    g = _path3()
    model = _model(g, sample_channels(g, seed=0), sigma_v=1e-12, sigma_n=0.0, theta=3.0 - 1.0j)
    gains = GainVector.ones(3, GainDomain.FIXED_ENERGY)
    gm = _global(model, gains)
    y = sample_received(model, gm, gains, seed=8)
    assert np.max(np.abs(y / gm.row_h - model.theta)) < 1e-5


def test_observation_mean_matches_parameter():
    model = _model(build_graph(1, []), np.ones(1), sigma_v=1.0, theta=2.0 + 0.5j)
    gains = GainVector.ones(1, GainDomain.FIXED_ENERGY)
    gm = _global(model, gains)
    draws = np.array([sample_received(model, gm, gains, seed=s)[0] for s in range(20_000)])
    err = abs(np.mean(draws) - model.theta)
    assert err < 3.0 / np.sqrt(20_000)

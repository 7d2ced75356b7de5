"""The directed-link table against straight-line per-link oracles and a dense one.

The oracles restate, one link or one node at a time, what channel
sampling, node information and retainer selection compute over the link
table: the scalar draw loop over the edges, the per-node dict lookups, and
a per-sender ``max``.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import assert_same_table, dense_links, edge_mask
from wsnmle.fusion import (
    SelectionPlan,
    build_global_model,
    decompose_information,
    information_total,
    select_retainers,
)
from wsnmle.network_model import GainDomain, GainVector, NetworkModel, node_information, sample_channels
from wsnmle.topology import Graph, random_connected_graph


def _scalar_channels(g, dist, sigma_h, reciprocal, seed):
    # One rng.normal call per scalar, edge by edge; a dict keyed by
    # (receiver, sender).
    rng = np.random.default_rng(np.random.SeedSequence((seed,)))
    scale = sigma_h / np.sqrt(2.0)
    h = {(i, i): complex(1.0) for i in range(g.n)}
    for i, j in g.edges.tolist():
        if dist == "unit":
            h[(i, j)] = h[(j, i)] = complex(1.0)
            continue
        forward = complex(rng.normal(0.0, scale), rng.normal(0.0, scale))
        h[(i, j)] = forward
        h[(j, i)] = forward if reciprocal else complex(rng.normal(0.0, scale), rng.normal(0.0, scale))
    return h


def _neighbour_sets(g):
    # Neighbour sets straight from the edge array, not the link table.
    nbrs = [set() for _ in range(g.n)]
    for i, j in g.edges.tolist():
        nbrs[i].add(j)
        nbrs[j].add(i)
    return nbrs


def _dict_information(g, h, model, gains):
    # Each node's stack of receptions, built from dict lookups.
    out = np.empty(g.n)
    nbrs = _neighbour_sets(g)
    for i in range(g.n):
        senders = sorted(nbrs[i] | {i})
        row_h = np.array([h[(i, s)] for s in senders])
        a = gains.a[senders]
        mask = np.array([1.0 if (s != i or model.noisy_self_link) else 0.0 for s in senders])
        cov = np.abs(row_h * a) ** 2 * model.sigma_v_sq[senders] + mask * model.sigma_n_sq
        out[i] = np.sum(np.abs(row_h * a) ** 2 / cov)
    return out


def _max_selection(g, info):
    # Per sender, the neighbour with the largest information; ties to the
    # smallest id.  Returns the sorted (receiver, sender) pairs and r.
    retained = [(i, i) for i in range(g.n)]
    for sender, nbrs in enumerate(_neighbour_sets(g)):
        if nbrs:
            retained.append((max(nbrs, key=lambda j: (info[j], -j)), sender))
    return sorted(retained), 2 * g.num_edges - (len(retained) - g.n)


def _plan_pairs(g, plan):
    # A plan's link indices as (receiver, sender) pairs, in plan order, and r.
    links = g.links
    return list(zip(links.receiver[plan.retained].tolist(), links.sender[plan.retained].tolist())), plan.r


GRAPHS = {
    "single": lambda: Graph(1, []),
    "pair": lambda: Graph(2, [(0, 1)]),
    "path7": lambda: Graph(7, [(i, i + 1) for i in range(6)]),
    "star9": lambda: Graph(9, [(4, j) for j in range(9) if j != 4]),
    "complete8": lambda: Graph(8, list(combinations(range(8), 2))),
    "gnp40": lambda: random_connected_graph(40, "gnp", p=0.2, seed=3),
    "geo120": lambda: random_connected_graph(120, "geometric", radius=0.25, seed=4),
    "gnp300": lambda: random_connected_graph(300, "gnp", p=0.05, seed=5),
    "geo300": lambda: random_connected_graph(300, "geometric", radius=0.15, seed=6),
    # The benchmark's dense sizes: every pair tested, ~130 neighbours a node at n = 256.
    "geo64-dense": lambda: random_connected_graph(64, "geometric", radius=0.5, seed=7),
    "geo256-dense": lambda: random_connected_graph(256, "geometric", radius=0.5, seed=8),
}
CHANNELS = {
    "unit": ("unit", False),
    "gaussian": ("complex_gaussian", False),
    "reciprocal": ("complex_gaussian", True),
}


@pytest.mark.parametrize("noisy_self", [False, True], ids=["quiet-self", "noisy-self"])
@pytest.mark.parametrize("channel", list(CHANNELS))
@pytest.mark.parametrize("graph", list(GRAPHS))
def test_link_table_matches_per_link_oracles(graph, channel, noisy_self):
    g = GRAPHS[graph]()
    dist, reciprocal = CHANNELS[channel]
    seed = 17 + g.n
    h = sample_channels(g, dist, sigma_h=1.3, reciprocal=reciprocal, seed=seed)
    h_dict = _scalar_channels(g, dist, 1.3, reciprocal, seed)
    oracle_h = np.array([h_dict[k] for k in zip(g.links.receiver.tolist(), g.links.sender.tolist())])
    assert len(h_dict) == h.size
    assert h.tobytes() == oracle_h.tobytes()

    rng = np.random.default_rng(seed)
    model = NetworkModel(
        graph=g, h=h, sigma_v_sq=rng.uniform(0.5, 2.0, g.n), sigma_n_sq=0.3, theta=1.0,
        noisy_self_link=noisy_self,
    )
    for gains in (GainVector.ones(g.n, GainDomain.FIXED_ENERGY), GainVector.random(g.n, GainDomain.FIXED_ENERGY, rng)):
        info = node_information(model, gains)
        oracle_info = _dict_information(g, h_dict, model, gains)
        np.testing.assert_allclose(info, oracle_info, rtol=1e-14, atol=0.0)
        plan = select_retainers(g, info)
        assert _plan_pairs(g, plan) == _max_selection(g, info) == _max_selection(g, oracle_info)
        np.testing.assert_array_equal(select_retainers(g, oracle_info).retained, plan.retained)
        gm = build_global_model(model, plan, gains)
        assert list(zip(gm.row_receiver.tolist(), gm.row_sender.tolist())) == _plan_pairs(g, plan)[0]


# --- properties of the link table on random graphs ---------------------------


@st.composite
def graphs(draw):
    """A random spanning tree plus random chords, edges listed shuffled."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    chords = rng.integers(0, n, size=(draw(st.integers(0, 3 * n)), 2))
    pairs |= {(min(i, j), max(i, j)) for i, j in chords.tolist() if i != j}
    edges = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in sorted(pairs)]
    return Graph(n, [edges[k] for k in rng.permutation(len(edges))])


PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)


@pytest.mark.parametrize("graph", list(GRAPHS))
def test_link_table_matches_dense_oracle(graph):
    g = GRAPHS[graph]()
    assert_same_table((g.edges, g.links), dense_links(edge_mask(g.n, g.edges)))


@PROPERTY_SETTINGS
@given(graphs())
def test_links_sorted_with_one_self_link_per_segment(g):
    assert_same_table((g.edges, g.links), dense_links(edge_mask(g.n, g.edges)))
    links = g.links
    keys = links.receiver * g.n + links.sender
    assert keys.size == 2 * g.num_edges + g.n
    assert np.all(np.diff(keys) > 0)
    np.testing.assert_array_equal(links.starts, np.searchsorted(links.receiver, np.arange(g.n)))
    np.testing.assert_array_equal(links.receiver[links.starts], np.arange(g.n))
    np.testing.assert_array_equal(np.bincount(links.receiver[links.receiver == links.sender], minlength=g.n), 1)
    np.testing.assert_array_equal(links.own, np.flatnonzero(links.receiver == links.sender))
    np.testing.assert_array_equal(links.sender[links.own], np.arange(g.n))
    np.testing.assert_array_equal(links.reverse[links.reverse], np.arange(keys.size))
    np.testing.assert_array_equal(links.receiver[links.reverse], links.sender)
    np.testing.assert_array_equal(links.receiver[links.forward], g.edges[:, 0])
    np.testing.assert_array_equal(links.sender[links.forward], g.edges[:, 1])
    for i, nbrs in enumerate(_neighbour_sets(g)):
        assert g.neighbors(i) == tuple(sorted(nbrs))
        assert len(g.neighbors(i)) == len(nbrs)


@PROPERTY_SETTINGS
@given(graphs(), st.integers(0, 2**31 - 1))
def test_channels_unit_self_links_and_reciprocal_symmetry(g, seed):
    links = g.links
    own = links.receiver == links.sender
    for reciprocal in (False, True):
        h = sample_channels(g, reciprocal=reciprocal, seed=seed)
        assert np.all(h[own] == 1.0)
        if reciprocal:
            np.testing.assert_array_equal(h, h[links.reverse])
        elif g.num_edges:
            assert not np.any(h[~own] == h[links.reverse][~own])


@PROPERTY_SETTINGS
@given(graphs(), st.integers(0, 2**31 - 1), st.booleans())
def test_information_partitions_and_matches_uncompressed_stack(g, seed, noisy_self):
    rng = np.random.default_rng(seed)
    model = NetworkModel(
        graph=g, h=sample_channels(g, seed=seed), sigma_v_sq=rng.uniform(0.5, 2.0, g.n),
        sigma_n_sq=0.2, theta=1.0, noisy_self_link=noisy_self,
    )
    gains = GainVector.random(g.n, GainDomain.FIXED_ENERGY, rng)
    info = node_information(model, gains)
    plan = select_retainers(g, info)
    assert _plan_pairs(g, plan) == _max_selection(g, info)
    gm = build_global_model(model, plan, gains)
    total = information_total(gm, gains)
    assert abs(float(np.sum(decompose_information(gm, gains))) - total) <= 1e-12 * total
    # Node information is the partition of the uncompressed link table.
    every = np.arange(g.links.sender.size)
    full = build_global_model(model, SelectionPlan(retained=every, r=0), gains)
    np.testing.assert_allclose(decompose_information(full, gains), info, rtol=1e-13)

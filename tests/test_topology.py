import tracemalloc
from collections import deque

import numpy as np
import pytest

from dense import assert_same_table, dense_links, edge_mask, geometric_mask
from wsnmle import topology
from wsnmle.errors import (
    Disconnected,
    DuplicateEdge,
    MalformedGraph,
    OutOfRange,
    RetriesExhausted,
    SelfLoop,
)
from wsnmle.topology import (
    Graph,
    _geometric_links,
    load_graph,
    random_connected_graph,
    save_graph,
)


def _neighbour_sets(g):
    # Neighbour sets straight from the edge array, not the link table.
    nbrs = [set() for _ in range(g.n)]
    for i, j in g.edges.tolist():
        nbrs[i].add(j)
        nbrs[j].add(i)
    return nbrs


def _bfs_reached(g):
    nbrs = _neighbour_sets(g)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in nbrs[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen)


def test_path_graph_neighbor_order():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.neighbors(1) == (0, 2)
    assert g.neighbors(0) == (1,)
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdge):
        Graph(2, [(0, 1), (0, 1)])
    # reversed orientation is the same undirected edge
    with pytest.raises(DuplicateEdge):
        Graph(2, [(0, 1), (1, 0)])


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        Graph(2, [(0, 0), (0, 1)])


def test_out_of_range_rejected():
    with pytest.raises(OutOfRange):
        Graph(2, [(0, 2)])
    with pytest.raises(OutOfRange):
        Graph(0, [])


def test_disconnected_rejected():
    with pytest.raises(Disconnected):
        Graph(4, [(0, 1), (2, 3)])


def test_degree():
    g = Graph(3, [(0, 1), (1, 2)])
    assert len(g.neighbors(1)) == 2
    assert len(g.neighbors(0)) == 1
    complete = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert all(len(complete.neighbors(i)) == 3 for i in range(4))
    with pytest.raises(OutOfRange):
        g.neighbors(3)


def test_single_node():
    g = random_connected_graph(1, "geometric", radius=0.5, seed=7)
    assert g.n == 1 and g.edges.shape == (0, 2)
    assert Graph(n=1, edges=()) == g
    assert Graph(1, []) == g


def test_gnp_full_probability_forces_edge():
    g = random_connected_graph(2, "gnp", p=1.0, seed=3)
    assert g.edges.tolist() == [[0, 1]]


def test_generation_deterministic():
    g1 = random_connected_graph(16, "geometric", radius=0.5, seed=42)
    g2 = random_connected_graph(16, "geometric", radius=0.5, seed=42)
    assert g1 == g2
    assert _bfs_reached(g1) == 16


def test_generated_graphs_connected_and_symmetric():
    for seed in range(25):
        n = 2 + seed % 15
        model = "gnp" if seed % 2 else "geometric"
        g = random_connected_graph(n, model, radius=0.6, p=0.5, seed=seed)
        assert _bfs_reached(g) == n
        for i in range(n):
            assert i not in g.neighbors(i)
            for j in g.neighbors(i):
                assert i in g.neighbors(j)


def test_retries_exhausted(monkeypatch):
    monkeypatch.setattr(topology, "MAX_RETRIES", 50)
    with pytest.raises(RetriesExhausted, match="in 50 attempts"):
        random_connected_graph(2, "gnp", p=1e-9, seed=0)


@pytest.mark.parametrize("n", [2.5, "3", None, True])
def test_random_graph_rejects_non_integer_count(n):
    with pytest.raises(MalformedGraph):
        random_connected_graph(n)


def test_numpy_count_saves_as_python_int(tmp_path):
    plain, numpy = tmp_path / "plain.json", tmp_path / "numpy.json"
    save_graph(Graph(n=2, edges=[(0, 1)]), plain)
    save_graph(Graph(n=np.int64(2), edges=[(0, 1)]), numpy)
    assert numpy.read_bytes() == plain.read_bytes()
    assert type(Graph(np.int64(2), [(1, 0)]).n) is int


def test_parameter_validation():
    with pytest.raises(ValueError):
        random_connected_graph(3, "gnp", p=0.0, seed=0)
    with pytest.raises(ValueError):
        random_connected_graph(3, "geometric", radius=2.0, seed=0)
    with pytest.raises(ValueError):
        random_connected_graph(3, "smallworld", seed=0)


def _graph_file(tmp_path, text):
    path = tmp_path / "graph.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    return path


def test_json_round_trip_bit_exact(tmp_path):
    g = random_connected_graph(9, "geometric", radius=0.6, seed=5)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_graph(g, first, seed=5, model={"name": "geometric", "radius": 0.6})
    g2, seed, model = load_graph(first)
    assert g2 == g
    save_graph(g2, second, seed=seed, model=model)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("text", [
    '{"n":2,"edges":[[0,1.5]]}',
    '{"n":2,"edges":[["0","1"]]}',
    '{"n":2,"edges":[[false,true]]}',
    '{"n":2,"edges":[[0,true]]}',
    '{"edges":[[0,1]]}',
    '{"n":2}',
    '[2,[[0,1]]]',
    '{"n":2.5,"edges":[[0,1]]}',
    '{"n":3.0,"edges":[[0,1],[1,2]]}',
    '{"n":true,"edges":[]}',
    '{"n":"2","edges":[[0,1]]}',
    "{",          # not JSON
    b"\xff\xfe",  # not UTF-8
])
def test_load_graph_rejects_malformed_file(tmp_path, text):
    with pytest.raises(MalformedGraph):
        load_graph(_graph_file(tmp_path, text))


# --- Graph checks its own invariants ------------------------------------------


def test_graph_validates_connectivity():
    with pytest.raises(Disconnected):
        Graph(n=3, edges=((0, 2),))
    with pytest.raises(Disconnected):  # n - 1 pairs, but node 3 is isolated
        Graph(n=4, edges=((0, 1), (1, 2), (2, 0)))


def test_graph_takes_pairs_in_any_order_and_orientation():
    g = random_connected_graph(64, "gnp", p=0.2, seed=3)
    rng = np.random.default_rng(0)
    pairs = g.edges[rng.permutation(g.num_edges)]
    flip = rng.random(g.num_edges) < 0.5
    pairs[flip] = pairs[flip, ::-1]
    shuffled = Graph(n=64, edges=pairs)
    assert shuffled == g
    assert_same_table((shuffled.edges, shuffled.links), dense_links(edge_mask(64, pairs)))


def test_graph_beyond_16_bit_ids_takes_pairs_in_any_order_and_orientation():
    # 90,000 nodes: ids beyond 16 bits, where the links sort by one key each.
    k = 300
    ids = np.arange(k * k).reshape(k, k)
    pairs = np.concatenate((np.stack((ids[:, :-1].ravel(), ids[:, 1:].ravel()), axis=1),
                            np.stack((ids[:-1].ravel(), ids[1:].ravel()), axis=1)))
    canonical = Graph(k * k, pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))])
    rng = np.random.default_rng(1)
    shuffled = pairs[rng.permutation(len(pairs))]
    flip = rng.random(len(pairs)) < 0.5
    shuffled[flip] = shuffled[flip, ::-1]
    g = Graph(k * k, shuffled)
    assert_same_table((g.edges, g.links), (canonical.edges, canonical.links))
    # Both directions of each pair and the self links, in (receiver, sender) order.
    receiver = np.concatenate((pairs[:, 0], pairs[:, 1], ids.ravel()))
    sender = np.concatenate((pairs[:, 1], pairs[:, 0], ids.ravel()))
    order = np.lexsort((sender, receiver))
    assert np.array_equal(canonical.links.receiver, receiver[order])
    assert np.array_equal(canonical.links.sender, sender[order])


@pytest.mark.parametrize("n", [10**12, 10**19])
def test_graph_file_with_too_few_edges_is_disconnected(tmp_path, n):
    # Rejected before anything of size n is allocated.
    with pytest.raises(Disconnected):
        load_graph(_graph_file(tmp_path, f'{{"n":{n},"edges":[[0,1]]}}'))


def test_graph_rejects_malformed_shape(tmp_path):
    # Rows of width 3 must not be re-paired: flattened, these two are the
    # path 0-1-2-3.
    with pytest.raises(MalformedGraph):
        load_graph(_graph_file(tmp_path, '{"n":4,"edges":[[0,1,2],[1,2,3]]}'))
    with pytest.raises(MalformedGraph):
        Graph(n=4, edges=np.array([[0, 1, 2], [1, 2, 3]]))
    with pytest.raises(MalformedGraph):
        Graph(2, [0, 1])
    with pytest.raises(MalformedGraph):
        load_graph(_graph_file(tmp_path, '{"n":3,"edges":[[0,1],[1]]}'))
    # Non-integer node counts and ids are not truncated.
    with pytest.raises(MalformedGraph):
        Graph(n=2.5, edges=((0, 1),))
    with pytest.raises(MalformedGraph):
        Graph(n=2, edges=((0, 1.0),))
    with pytest.raises(MalformedGraph):
        Graph(n=3, edges=[(0, 1), (1, True)])


def test_graph_validates_edge_ids():
    with pytest.raises(SelfLoop):
        Graph(n=2, edges=((0, 0), (0, 1)))
    with pytest.raises(DuplicateEdge):
        Graph(n=2, edges=((0, 1), (0, 1)))
    with pytest.raises(OutOfRange):
        Graph(n=2, edges=((0, 2),))
    with pytest.raises(OutOfRange):
        Graph(n=0, edges=())


def test_hand_built_graph_equals_built_graph():
    g = Graph(n=3, edges=((0, 1), (1, 2)))
    assert g == Graph(3, [(2, 1), (1, 0)])
    assert g.links.sender.tolist() == [0, 1, 0, 1, 2, 1, 2]


def test_graph_is_read_only_and_input_agnostic():
    g = Graph(n=3, edges=((0, 1), (1, 2)))
    assert g.links.own.tolist() == [0, 3, 6]
    for a in (g.edges, *g.links):  # links.own included
        with pytest.raises(ValueError):
            a[0] = 0
    array = np.array([[0, 1], [1, 2]])
    from_array = Graph(n=3, edges=array)
    assert g == Graph(n=3, edges=[(0, 1), (1, 2)]) == from_array
    array[0, 0] = 2  # the graph holds its own copy
    assert from_array == g
    assert g != Graph(n=3, edges=((0, 1), (0, 2)))


# --- geometric sampler against the dense link-table oracle --------------------


_SIZES = [1, 2, 64, 512, 1000]
_RADII = [0.05, 0.1, 1 / 7, 0.2, 0.25, 1 / 3, 0.5]


@pytest.mark.parametrize("radius", _RADII, ids=lambda r: f"r{r:.3f}")
@pytest.mark.parametrize("n", _SIZES)
def test_sampler_matches_all_pairs(n, radius):
    # Byte-identical edges and link arrays from the same positions, whether
    # or not they are connected; at n = 1000 the row block does not divide n.
    for seed in range(20):
        pos = np.random.default_rng(seed).random((n, 2))
        assert_same_table(_geometric_links(pos, radius), dense_links(geometric_mask(pos, radius)))


@pytest.mark.parametrize(("n", "radius"), [(1, 0.5), (64, 0.5), (256, 0.5), (512, 0.1)])
def test_random_geometric_graph_keeps_the_sampled_table(n, radius):
    # The first attempt's positions draw, kept as drawn and read-only.
    for seed in range(3):
        g = random_connected_graph(n, radius=radius, seed=seed)
        pos = np.random.default_rng(np.random.SeedSequence((seed, 0))).random((n, 2))
        assert_same_table((g.edges, g.links), dense_links(geometric_mask(pos, radius)))
        assert type(g.n) is int and g == Graph(n, g.edges.tolist())
        for a in (g.edges, *g.links):
            assert not a.flags.writeable


def test_geometric_edges_find_pairs_exactly_radius_apart():
    # Dyadic lattice: differences and squares are exact, so the 3-4-5
    # triples and the axis pairs lie at exactly radius.
    radius = 5 / 32
    lattice = np.arange(32) / 32
    pos = np.stack(np.meshgrid(lattice, lattice, indexing="ij"), axis=-1).reshape(-1, 2)
    ref = dense_links(geometric_mask(pos, radius))
    assert_same_table(_geometric_links(pos, radius), ref)
    d2 = ((pos[ref[0][:, 0]] - pos[ref[0][:, 1]]) ** 2).sum(axis=1)
    assert (d2 == radius * radius).sum() > 1000


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("radius", [1e-6, 1e-300, 5e-324])
def test_tiny_radius_exhausts_retries(monkeypatch, n, radius):
    monkeypatch.setattr(topology, "MAX_RETRIES", 3)
    with pytest.raises(RetriesExhausted):
        random_connected_graph(n, radius=radius)


def test_geometric_graph_memory():
    # The blocked all-rows test peaks near 5.6 MiB here.
    tracemalloc.start()
    try:
        g = random_connected_graph(4096, radius=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.num_edges > 50_000
    assert peak < 32 * 2**20

import tracemalloc
from collections import deque

import numpy as np
import pytest

from dense import all_pairs_edges
from wsnmle.errors import (
    Disconnected,
    DuplicateEdge,
    MalformedGraph,
    OutOfRange,
    RetriesExhausted,
    SelfLoop,
)
from wsnmle.topology import (
    _CELL_MIN_NODES,
    _CELL_MIN_SIDE,
    Graph,
    _geometric_edges,
    _grid_side,
    _near_pairs,
    _sample_edges,
    build_graph,
    graph_from_json,
    graph_to_json,
    random_connected_graph,
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
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.neighbors(1) == (0, 2)
    assert g.neighbors(0) == (1,)
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdge):
        build_graph(2, [(0, 1), (0, 1)])
    # reversed orientation is the same undirected edge
    with pytest.raises(DuplicateEdge):
        build_graph(2, [(0, 1), (1, 0)])


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        build_graph(2, [(0, 0), (0, 1)])


def test_out_of_range_rejected():
    with pytest.raises(OutOfRange):
        build_graph(2, [(0, 2)])
    with pytest.raises(OutOfRange):
        build_graph(0, [])


def test_disconnected_rejected():
    with pytest.raises(Disconnected):
        build_graph(4, [(0, 1), (2, 3)])


def test_degree():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert len(g.neighbors(1)) == 2
    assert len(g.neighbors(0)) == 1
    complete = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert all(len(complete.neighbors(i)) == 3 for i in range(4))
    with pytest.raises(OutOfRange):
        g.neighbors(3)


def test_single_node():
    g = random_connected_graph(1, "geometric", radius=0.5, seed=7)
    assert g.n == 1 and g.edges.shape == (0, 2)
    assert Graph(n=1, edges=()) == g
    assert build_graph(1, []) == g


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


def test_retries_exhausted():
    with pytest.raises(RetriesExhausted):
        random_connected_graph(2, "gnp", p=1e-9, seed=0, max_retries=50)


def test_parameter_validation():
    with pytest.raises(ValueError):
        random_connected_graph(3, "gnp", p=0.0, seed=0)
    with pytest.raises(ValueError):
        random_connected_graph(3, "geometric", radius=2.0, seed=0)
    with pytest.raises(ValueError):
        random_connected_graph(3, "smallworld", seed=0)


def test_json_round_trip_bit_exact():
    g = random_connected_graph(9, "geometric", radius=0.6, seed=5)
    text = graph_to_json(g, seed=5, model={"name": "geometric", "radius": 0.6})
    g2, seed, model = graph_from_json(text)
    assert g2 == g
    assert graph_to_json(g2, seed=seed, model=model) == text


# --- Graph checks its own invariants ------------------------------------------


def test_graph_validates_connectivity():
    with pytest.raises(Disconnected):
        Graph(n=3, edges=((0, 2),))


def test_graph_validates_canonical_edges():
    with pytest.raises(MalformedGraph):
        Graph(n=2, edges=((1, 0),))
    with pytest.raises(MalformedGraph):
        Graph(n=3, edges=((1, 2), (0, 1)))


def test_graph_rejects_malformed_shape():
    # Rows of width 3 must not be re-paired: flattened, these two are the
    # path 0-1-2-3.
    with pytest.raises(MalformedGraph):
        graph_from_json('{"n":4,"edges":[[0,1,2],[1,2,3]]}')
    with pytest.raises(MalformedGraph):
        Graph(n=4, edges=np.array([[0, 1, 2], [1, 2, 3]]))
    with pytest.raises(MalformedGraph):
        build_graph(2, [0, 1])
    with pytest.raises(MalformedGraph):
        graph_from_json('{"n":3,"edges":[[0,1],[1]]}')


def test_links_index_rejects_malformed_shape():
    g = build_graph(3, [(0, 1), (1, 2)])
    idx = g.links.index([[1, 0], [2, 1]])
    assert g.links.receiver[idx].tolist() == [1, 2] and g.links.sender[idx].tolist() == [0, 1]
    assert g.links.index([]).size == 0
    with pytest.raises(OutOfRange):
        g.links.index([[1, 0, 2, 1]])
    with pytest.raises(OutOfRange):
        g.links.index((1, 0))


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
    assert g == build_graph(3, [(2, 1), (1, 0)])
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


# --- geometric sampler: cells against all pairs ------------------------------


def _assert_same_edges(edges, ref):
    assert edges.dtype == ref.dtype and edges.shape == ref.shape
    assert edges.tobytes() == ref.tobytes()


_SIZES = [1, 2, 64, 512, 1000]
_RADII = [0.05, 0.1, 1 / 7, 0.2, 0.25, 1 / 3, 0.5]


@pytest.mark.parametrize("radius", _RADII, ids=lambda r: f"r{r:.3f}")
@pytest.mark.parametrize("n", _SIZES)
def test_sampler_matches_all_pairs(n, radius):
    # Byte-identical edge arrays from the same positions draw, whichever
    # enumeration the grid selects.
    for seed in range(20):
        edges = _sample_edges(n, "geometric", radius, 0.5, np.random.default_rng(seed))
        ref = all_pairs_edges(np.random.default_rng(seed).random((n, 2)), radius)
        _assert_same_edges(edges, ref)


def test_sampler_covers_both_enumerations():
    # Cells from 128 nodes with at least seven cells a side (radius <= 1/8);
    # coarser grids (1/7 gives six a side) test all pairs.
    assert _CELL_MIN_SIDE == 7
    assert _grid_side(512, 0.1) == 9 and _grid_side(1000, 1 / 7) == 6 and _grid_side(1000, 0.25) == 3
    cells = {(n, r) for n in _SIZES for r in _RADII if n >= _CELL_MIN_NODES and _grid_side(n, r) >= _CELL_MIN_SIDE}
    assert cells == {(n, r) for n in (512, 1000) for r in _RADII if r <= 0.1}


def _check_hand_placed(pos, radius):
    ref = all_pairs_edges(pos, radius)
    assert len(pos) >= _CELL_MIN_NODES and _grid_side(len(pos), radius) >= 3
    _assert_same_edges(_geometric_edges(pos, radius), ref)
    for side in range(3, _grid_side(len(pos), radius) + 1):  # every grid wider than radius
        _assert_same_edges(_near_pairs(pos, radius, side), ref)
    return ref


def test_cells_find_pairs_exactly_radius_apart():
    # Dyadic lattice: differences and squares are exact, so the 3-4-5
    # triples and the axis pairs lie at exactly radius.
    radius = 5 / 32
    lattice = np.arange(32) / 32
    pos = np.stack(np.meshgrid(lattice, lattice, indexing="ij"), axis=-1).reshape(-1, 2)
    ref = _check_hand_placed(pos, radius)
    d2 = ((pos[ref[:, 0]] - pos[ref[:, 1]]) ** 2).sum(axis=1)
    assert (d2 == radius * radius).sum() > 1000


def test_cells_at_cell_boundaries():
    # Clusters of points one ulp either side of every cell boundary of the
    # widest grid, including 0 and the largest float below 1.
    radius = 5 / 64
    side = _grid_side(1296, radius)
    edges = np.arange(side + 1) / side
    coords = np.unique(np.clip(np.concatenate((np.nextafter(edges, -1), edges, np.nextafter(edges, 2))),
                               0.0, np.nextafter(1.0, 0.0)))
    pos = np.stack(np.meshgrid(coords, coords, indexing="ij"), axis=-1).reshape(-1, 2)
    ref = _check_hand_placed(pos, radius)
    assert ref.size


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("radius", [1e-6, 1e-300, 5e-324])
def test_tiny_radius_exhausts_retries(n, radius):
    # The grid is capped at ceil(sqrt(n)) cells a side, so no attempt
    # allocates per-cell arrays of 1/radius**2 entries.
    assert _grid_side(n, radius) == int(np.ceil(np.sqrt(n)))
    with pytest.raises(RetriesExhausted):
        random_connected_graph(n, radius=radius, max_retries=3)


def test_geometric_graph_memory():
    # All pairs at n = 4096 peaked at 385 MB.
    tracemalloc.start()
    try:
        g = random_connected_graph(4096, radius=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.num_edges > 50_000
    assert peak < 32 * 2**20

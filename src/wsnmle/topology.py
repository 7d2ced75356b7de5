"""Undirected connected communication graphs.

A :class:`Graph` stores the network topology as one read-only ``(m, 2)``
array of canonical edges.  Graphs are immutable after construction and
safe to share across parallel trials.

Every graph also carries its directed-link table (:class:`Links`): one
entry per directed edge plus a self link ``(i, i)`` per node, sorted by
receiver and, within a receiver, by ascending sender.  Every per-link
array in the package (channels, compression rows, consensus neighbour
sums) uses this order, and a node's neighbours (``Graph.neighbors``) are
its segment of the table minus the self link.

Random generation supports two models:

* ``geometric(radius)`` -- nodes placed uniformly in the unit square, an
  edge whenever the Euclidean distance is at most ``radius``;
* ``gnp(p)`` -- each pair connected independently with probability ``p``.

Generation is a pure function of ``(n, model parameters, seed)``: a
disconnected sample is retried with an incremented sub-seed, so re-running
with the same arguments always yields the identical edge set.

A geometric sample buckets the nodes into square cells wider than
``radius`` and tests only pairs in the same or adjacent cells (fixed-radius
cell bucketing; Bentley, Stanat & Williams, IPL 1977), so time and memory
grow with n and the edge count rather than with n(n-1)/2.  Each test is
the all-pairs arithmetic in the same operand order and the survivors are
sorted into canonical order, so the edges are byte-identical to testing
every pair.  Small graphs, and radii that leave fewer than seven cells a
side, still test all pairs, as ``gnp`` does.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import Disconnected, DuplicateEdge, MalformedGraph, OutOfRange, RetriesExhausted, SelfLoop

__all__ = ["Graph", "Links", "build_graph", "random_connected_graph", "save_graph", "load_graph"]


class Links(NamedTuple):
    """Directed-link table: ``2|E| + n`` links sorted by (receiver, sender).

    Link ``l`` carries node ``sender[l]``'s broadcast to ``receiver[l]``;
    ``starts[i]`` is the first link received by node ``i`` (its segment
    runs to ``starts[i + 1]``), ``reverse[l]`` is the link in the opposite
    direction (a self link is its own reverse), ``forward[k]`` is the
    link ``(i, j)`` of edge ``k = (i, j)``, ``i < j``, and ``own[i]`` is
    node ``i``'s self link ``(i, i)``.
    """

    receiver: np.ndarray
    sender: np.ndarray
    starts: np.ndarray
    reverse: np.ndarray
    forward: np.ndarray
    own: np.ndarray


def _pair_array(pairs) -> np.ndarray:
    # A fresh (m, 2) intp array; ragged input, non-integer ids, or nonempty
    # input of any other shape raises MalformedGraph rather than being
    # truncated, parsed or re-paired.
    try:
        arr = np.array(pairs)
    except ValueError:
        raise MalformedGraph("node pairs must form an (m, 2) integer array") from None
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.intp)
    if arr.dtype.kind not in "iu":
        raise MalformedGraph(f"node ids must be integers, got dtype {arr.dtype}")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise MalformedGraph(f"expected (m, 2) node pairs, got an array of shape {arr.shape}")
    return arr.astype(np.intp, copy=False)


def _check_count(n) -> None:
    # bool is an int subclass, and floats such as 3.0 pass ``n < 1``.
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise MalformedGraph(f"node count must be an integer, got {n!r}")


def _links(n: int, edges: np.ndarray) -> Links:
    # Validate an (m, 2) array of canonical edges and lay out its links
    # unsorted: receiver r's segment holds its edges (i, r), grouped by a
    # stable radix sort of the second column, its self link, then its
    # edges (r, j), a run of the edge array.
    if n < 1:
        raise OutOfRange(f"node count must be positive, got {n}")
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        bad = edges[((edges < 0) | (edges >= n)).any(axis=1)][0]
        raise OutOfRange(f"edge {tuple(bad.tolist())} references a node outside [0, {n})")
    first, second = edges[:, 0], edges[:, 1]
    loops = first == second
    if loops.any():
        raise SelfLoop(f"self-loop at node {int(first[np.argmax(loops)])}")
    keys = first * n + second
    rises = np.diff(keys)
    if not (first < second).all() or (rises < 0).any():
        raise MalformedGraph("edges must be pairs (i, j) with i < j in ascending order")
    if not rises.all():
        raise DuplicateEdge(f"edge {divmod(int(keys[np.argmin(rises)]), n)} listed more than once")
    del keys, rises
    nodes = np.arange(n)
    later, earlier = np.bincount(first, minlength=n), np.bincount(second, minlength=n)
    sizes = later + earlier + 1
    starts = np.cumsum(sizes) - sizes
    own = starts + earlier
    below = np.cumsum(earlier)  # links (r, i), i < r, of the nodes up to r
    forward = np.arange(len(edges)) + (below + nodes + 1)[first]
    by_second = np.argsort(second.astype(np.uint16) if n <= 1 << 16 else second, kind="stable")
    backward = np.empty_like(forward)
    backward[by_second] = np.arange(len(edges)) + (own - below)[second[by_second]]
    sender = np.empty(2 * len(edges) + n, dtype=np.intp)
    reverse = np.empty_like(sender)
    for link, other_end, back in ((forward, second, backward), (backward, first, forward), (own, nodes, own)):
        sender[link] = other_end
        reverse[link] = back
    return Links(np.repeat(nodes, sizes), sender, starts, reverse, forward, own)


def _connected(links: Links) -> bool:
    # Min-label propagation over the links with pointer jumping: label[v]
    # stays a node of v's component no larger than v, so the labels reach
    # all 0 on a connected graph and stop at a fixed point otherwise.
    label = np.arange(links.starts.size)
    while label.any():
        new = np.minimum.reduceat(label[links.sender], links.starts)
        new = new[new]
        if np.array_equal(new, label):
            return False
        label = new
    return True


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected connected graph.

    Attributes
    ----------
    n : int
        Node count; node ids are ``0 .. n-1``.
    edges : (m, 2) intp array, read-only
        Canonical edge set: rows ``(i, j)`` with ``i < j`` in ascending
        order.  Tuples, lists and arrays are all accepted and copied.
    links : Links
        The directed-link table, derived from ``edges``; its arrays are
        read-only too.

    Construction checks every invariant above and raises
    :class:`OutOfRange`, :class:`SelfLoop`, :class:`DuplicateEdge`,
    :class:`MalformedGraph` (``n`` not an integer, or edges not an
    ``(m, 2)`` integer array of canonical pairs) or :class:`Disconnected`.
    Two graphs are equal when their ``n`` and ``edges`` are.
    """

    n: int
    edges: np.ndarray
    links: Links = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n
        _check_count(n)
        edges = _pair_array(self.edges)
        links = _links(n, edges)
        if not _connected(links):
            raise Disconnected(f"graph on {n} nodes with {len(edges)} edges is not connected")
        for a in (edges, *links):
            a.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "links", links)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges.tobytes()))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Node ``i``'s neighbours in ascending order: its link-table segment minus the self link."""
        if not 0 <= i < self.n:
            raise OutOfRange(f"node {i} not in [0, {self.n})")
        starts = self.links.starts
        end = starts[i + 1] if i + 1 < self.n else self.links.sender.size
        senders = self.links.sender[starts[i] : end].tolist()
        senders.remove(i)
        return tuple(senders)


def build_graph(n: int, edge_list) -> Graph:
    """Canonicalize an edge list and build a :class:`Graph`.

    Parameters
    ----------
    n : int
        Number of nodes, a positive integer.
    edge_list : sequence of (int, int) or (m, 2) integer array
        Unordered node pairs.  A non-integer ``n`` or id, and input that is
        neither empty nor of shape ``(m, 2)``, raise :class:`MalformedGraph`.
        Duplicates (in either orientation), self-loops, out-of-range ids,
        and disconnected results are rejected by :class:`Graph`.
    """
    _check_count(n)
    pairs = np.sort(_pair_array(edge_list), axis=1)
    order = np.argsort(pairs[:, 0] * n + pairs[:, 1])  # any order will do for ids that Graph rejects
    return Graph(n=n, edges=pairs[order])


#: Below about this many nodes cell bookkeeping costs as much as testing
#: all pairs, or more (timeit minima of the two enumerations, cells first:
#: at n = 64, seven cells a side, 0.057 against 0.044 ms; at n = 96, 0.064
#: against 0.075 ms; at n = 128, 0.081 against 0.123 ms).
_CELL_MIN_NODES = 128

#: With fewer cells a side the candidate pairs of neighbouring cells cost
#: more than the blocked all-pairs test, which also holds less memory
#: (timeit minima on a 2-vCPU Xeon VM, same positions, radius
#: 1/(side+1), cells against all pairs, ms): six a side 1.06/1.07 at
#: n = 512, 3.6/4.3 at n = 1024 and 80/60 at n = 4096; seven a side
#: 0.71/1.02, 2.3/4.2 and 51/61; five and fewer lose from n = 512 (five:
#: 1.5/1.1, three: 3.6/1.3).
_CELL_MIN_SIDE = 7


def _grid_side(n: int, radius: float) -> int:
    """Cells per side of the square grid that buckets ``n`` nodes for ``radius``.

    ``floor(1/radius) - 1`` cells are wider than ``radius`` by a factor of
    at least ``1/(1 - radius)``, far beyond rounding, so two nodes that
    pass the distance test sit in the same or adjacent cells.  At most
    ``ceil(sqrt(n))`` a side keeps the cell arrays O(n) for tiny radii.
    """
    cap = math.isqrt(n - 1) + 1
    return cap if 1.0 / radius >= cap + 2 else int(1.0 / radius) - 1


def _near_pairs(pos: np.ndarray, radius: float, side: int) -> np.ndarray:
    # Pairs (i, j), i < j, within ``radius``, in canonical order, testing
    # only nodes in the same or adjacent cells.  Nodes are sorted by cell
    # key ``cx*side + cy``; for each node the candidates are the rest of
    # its own cell with the cell above it, and the three cells of the next
    # column, each a contiguous run of the sorted order.  Every unordered
    # pair of neighbouring cells is visited once.
    n = len(pos)
    cell = np.minimum((pos * side).astype(np.intp), side - 1)
    key = cell[:, 0] * side + cell[:, 1]
    order = np.argsort(key, kind="stable")
    key = key[order]
    counts = np.bincount(key, minlength=side * side)
    ends = np.cumsum(counts)
    cx, cy = np.divmod(key, side)
    rank = np.arange(n)
    up = cy + 1 < side
    lo_own = rank + 1
    hi_own = ends[key + up]
    right = cx + 1 < side
    first = np.where(right, key + side - (cy > 0), 0)
    last = np.where(right, key + side + up, 0)
    lo_next = np.where(right, ends[first] - counts[first], 0)
    hi_next = np.where(right, ends[last], 0)
    lo = np.concatenate((lo_own, lo_next))
    lens = np.concatenate((hi_own - lo_own, hi_next - lo_next))
    src = np.repeat(np.concatenate((rank, rank)), lens)
    dst = np.arange(src.size) - np.repeat(np.cumsum(lens) - lens - lo, lens)
    i, j = order[src], order[dst]
    del src, dst  # candidate arrays go as soon as read: the peak holds a few of them
    a, b = np.minimum(i, j), np.maximum(i, j)
    del i, j
    dx = pos[a, 0] - pos[b, 0]
    dy = pos[a, 1] - pos[b, 1]
    mask = dx**2 + dy**2 <= radius * radius
    keys = np.sort(a[mask] * n + b[mask])
    return np.stack(np.divmod(keys, n), axis=1)


def _geometric_edges(pos: np.ndarray, radius: float) -> np.ndarray:
    # Canonical edges of the nodes at ``pos`` (n, 2) in the unit square: a
    # pair (i, j), i < j, whenever ``dx**2 + dy**2 <= radius**2`` with
    # ``dx = pos[i, 0] - pos[j, 0]``.  Small n and coarse grids test all
    # pairs (``_CELL_MIN_NODES``, ``_CELL_MIN_SIDE``).
    n = len(pos)
    side = _grid_side(n, radius)
    if side >= _CELL_MIN_SIDE and n >= _CELL_MIN_NODES:
        return _near_pairs(pos, radius, side)
    # All pairs, a block of rows i (about 16k pairs) at a time against the
    # columns after its first row, in two reused 128 KiB buffers; ``below``
    # drops the pairs j <= i.
    x, y = np.ascontiguousarray(pos.T)
    rows = max(1, min(n - 1, (1 << 14) // n))
    below = np.tri(rows, rows, -1, dtype=bool)
    bx, by = np.empty((2, rows * n))
    parts = [np.empty((0, 2), np.intp)]
    for i in range(0, n - 1, rows):
        b, w = min(rows, n - 1 - i), n - 1 - i
        dx = np.subtract.outer(x[i : i + b], x[i + 1 :], out=bx[: b * w].reshape(b, w))
        dy = np.subtract.outer(y[i : i + b], y[i + 1 :], out=by[: b * w].reshape(b, w))
        near = np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx) <= radius * radius
        near[:, :b][below[:b, :b]] = False
        # Row ids from per-row counts: cheaper than argwhere's 2-D nonzero.
        flat = np.flatnonzero(near)
        r = np.repeat(np.arange(i, i + b), np.count_nonzero(near, axis=1))
        parts.append(np.stack((r, flat - (r - i) * w + (i + 1)), axis=1))
    return np.concatenate(parts)


def _sample_edges(n: int, model: str, radius: float, p: float, rng: np.random.Generator) -> np.ndarray:
    if model == "geometric":
        return _geometric_edges(rng.random((n, 2)), radius)
    if model == "gnp":
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(iu.size) < p
        return np.stack((iu[mask], ju[mask]), axis=1)
    raise ValueError(f"unknown random graph model {model!r}")


#: Disconnected samples :func:`random_connected_graph` draws before it gives up.
MAX_RETRIES = 1000


def random_connected_graph(
    n: int,
    model: str = "geometric",
    *,
    radius: float = 0.5,
    p: float = 0.5,
    seed: int = 0,
) -> Graph:
    """Generate a random connected graph, deterministically per seed.

    Attempt ``k`` uses the RNG stream ``SeedSequence((seed, k))``; the first
    connected sample is returned.  Raises :class:`RetriesExhausted` after
    ``MAX_RETRIES`` disconnected samples.
    """
    if n < 1:
        raise OutOfRange(f"node count must be positive, got {n}")
    if model == "geometric" and not 0.0 < radius <= np.sqrt(2.0):
        raise ValueError(f"radius must lie in (0, sqrt(2)], got {radius}")
    if model == "gnp" and not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    for attempt in range(MAX_RETRIES):
        rng = np.random.default_rng(np.random.SeedSequence((seed, attempt)))
        try:
            return Graph(n=n, edges=_sample_edges(n, model, radius, p, rng))
        except Disconnected:
            continue
    raise RetriesExhausted(
        f"no connected sample in {MAX_RETRIES} attempts (n={n}, model={model})"
    )


# ---------------------------------------------------------------------------
# Serialization: canonical JSON with a bit-exact round trip.
# ---------------------------------------------------------------------------


def save_graph(g: Graph, path, *, seed=None, model=None) -> None:
    """Write ``graph.json``: ``n``, ``edges``, ``seed`` and ``model`` as canonical JSON."""
    doc = {"n": g.n, "edges": g.edges.tolist(), "seed": seed, "model": model}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_graph(path):
    """Read a file :func:`save_graph` wrote: ``(graph, seed, model)``, or
    :class:`MalformedGraph` unless it is a JSON object with ``n`` and ``edges``."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or not {"n", "edges"} <= doc.keys():
        raise MalformedGraph("a graph file holds a JSON object with keys 'n' and 'edges'")
    return build_graph(doc["n"], doc["edges"]), doc.get("seed"), doc.get("model")

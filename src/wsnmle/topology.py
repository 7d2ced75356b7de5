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

A geometric sample tests every ordered pair of nodes, a block of rows at
a time in two reused scratch buffers.  The test is symmetric and passes on
the diagonal, so its row-major hits are the link table itself.
"""

from __future__ import annotations

import json
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
        Node count, kept as a Python ``int``; node ids are ``0 .. n-1``.
    edges : (m, 2) intp array, read-only
        Canonical edge set: rows ``(i, j)`` with ``i < j`` in ascending
        order.  Tuples, lists and arrays are all accepted and copied.
    links : Links
        The directed-link table of ``edges``; its arrays are read-only
        too.

    Construction checks every invariant above and raises
    :class:`OutOfRange`, :class:`SelfLoop`, :class:`DuplicateEdge`,
    :class:`MalformedGraph` (``n`` not an integer, or edges not an
    ``(m, 2)`` integer array of canonical pairs) or :class:`Disconnected`.
    A geometric sample's table and edges are kept as drawn, checked for
    connectivity only.  Two graphs are equal when their ``n`` and ``edges`` are.
    """

    n: int
    edges: np.ndarray
    links: Links = field(init=False, repr=False)

    def __post_init__(self):
        _check_count(self.n)
        n = int(self.n)  # save_graph writes it to JSON, which takes no numpy int
        edges = _pair_array(self.edges)
        self._adopt(n, edges, _links(n, edges))

    def _adopt(self, n: int, edges: np.ndarray, links: Links) -> Graph:
        # Check connectivity, then freeze and keep the arrays.  On
        # ``object.__new__(Graph)``, it builds a graph from a sampled table.
        if not _connected(links):
            raise Disconnected(f"graph on {n} nodes with {len(edges)} edges is not connected")
        for a in (edges, *links):
            a.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "links", links)
        return self

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


def _geometric_links(pos: np.ndarray, radius: float) -> tuple[np.ndarray, Links]:
    # Edges and link table of the nodes at ``pos`` (n, 2): link (r, s) when
    # ``dx**2 + dy**2 <= radius**2``, ``dx = pos[r, 0] - pos[s, 0]``.  The test
    # is exactly symmetric and passes at r == s, so the row-major hits of each
    # row block (~16k pairs, two reused 128 KiB buffers) are the links in order.
    n = len(pos)
    x, y = np.ascontiguousarray(pos.T)
    rows = max(1, min(n, (1 << 14) // n))
    bx, by = np.empty((2, rows * n))
    counts = np.empty(n, dtype=np.intp)
    parts = []
    for i in range(0, n, rows):
        b = min(rows, n - i)
        dx = np.subtract.outer(x[i : i + b], x, out=bx[: b * n].reshape(b, n))
        dy = np.subtract.outer(y[i : i + b], y, out=by[: b * n].reshape(b, n))
        near = np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx) <= radius * radius
        # Row counts and senders from the flat hits: cheaper than 2-D nonzero.
        flat = np.flatnonzero(near)
        counts[i : i + b] = np.diff(np.searchsorted(flat, np.arange(0, (b + 1) * n, n)))
        parts.append(flat - np.repeat(np.arange(0, b * n, n), counts[i : i + b]))
    sender = np.concatenate(parts)
    del parts, flat, bx, by, dx, dy  # before the table: the blocks and scratch buffers (dx, dy are views)
    # Sorted by sender, a symmetric table lists each link's reverse in link order.
    reverse = np.argsort(sender.astype(np.uint16) if n <= 1 << 16 else sender, kind="stable")
    receiver = np.repeat(np.arange(n), counts)
    forward = np.flatnonzero(receiver < sender)
    edges = np.empty((forward.size, 2), dtype=np.intp)
    edges[:, 0] = receiver[forward]
    edges[:, 1] = sender[forward]
    return edges, Links(receiver, sender, np.cumsum(counts) - counts, reverse, forward, np.flatnonzero(receiver == sender))


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
    ``MAX_RETRIES`` disconnected samples, :class:`MalformedGraph` for a
    node count that is not an integer.
    """
    _check_count(n)
    if n < 1:
        raise OutOfRange(f"node count must be positive, got {n}")
    if model == "geometric" and not 0.0 < radius <= np.sqrt(2.0):
        raise ValueError(f"radius must lie in (0, sqrt(2)], got {radius}")
    if model == "gnp" and not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if model not in ("geometric", "gnp"):
        raise ValueError(f"unknown random graph model {model!r}")
    for attempt in range(MAX_RETRIES):
        rng = np.random.default_rng(np.random.SeedSequence((seed, attempt)))
        try:
            if model == "geometric":
                return object.__new__(Graph)._adopt(int(n), *_geometric_links(rng.random((n, 2)), radius))
            iu, ju = np.triu_indices(n, k=1)
            mask = rng.random(iu.size) < p
            return Graph(n=n, edges=np.stack((iu[mask], ju[mask]), axis=1))
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

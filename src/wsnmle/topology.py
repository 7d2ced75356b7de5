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

One builder derives the table from its links in (receiver, sender) order.
An edge list is sorted into that order; a geometric sample tests every
ordered pair of nodes, a block of rows at a time in two reused scratch
buffers, and its row-major hits are already in it (the test is symmetric
and passes on the diagonal).
"""

from __future__ import annotations

import itertools
import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, Disconnected, DuplicateEdge, MalformedGraph, OutOfRange, RetriesExhausted, SelfLoop,
                     real_number)

__all__ = ["Graph", "Links", "check_graph_model", "random_connected_graph", "save_graph", "load_graph"]


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
    # The pairs as an (m, 2) intp array, which Graph only reads: an intp
    # array is not copied.  Ragged input, non-integer ids (a bool too, which
    # numpy turns into 0 or 1 in a list of ints), or nonempty input of any
    # other shape raises MalformedGraph rather than being truncated, parsed
    # or re-paired.
    try:
        arr = np.asarray(pairs)
    except ValueError:
        raise MalformedGraph("node pairs must form an (m, 2) integer array") from None
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.intp)
    if arr.dtype.kind not in "iu":
        raise MalformedGraph(f"node ids must be integers, got dtype {arr.dtype}")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise MalformedGraph(f"expected (m, 2) node pairs, got an array of shape {arr.shape}")
    if not isinstance(pairs, np.ndarray) and bool in map(type, itertools.chain.from_iterable(pairs)):
        raise MalformedGraph("node ids must be integers, got a bool")
    return arr.astype(np.intp, copy=False)


def _check_count(n) -> None:
    # bool is an int subclass, and floats such as 3.0 pass ``n < 1``.
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise MalformedGraph(f"node count must be an integer, got {n!r}")


def _table(receiver: np.ndarray, sender: np.ndarray, n: int) -> tuple[np.ndarray, Links]:
    # Edges and link table from the links of a symmetric graph with a self
    # link at every node, sorted by (receiver, sender).  Sorted by sender,
    # such a table lists each link's reverse in link order.
    reverse = np.argsort(sender.astype(np.uint16) if n <= 1 << 16 else sender, kind="stable")
    forward = np.flatnonzero(receiver < sender)
    edges = np.empty((forward.size, 2), dtype=np.intp)
    edges[:, 0] = receiver[forward]
    edges[:, 1] = sender[forward]
    starts = np.searchsorted(receiver, np.arange(n))
    return edges, Links(receiver, sender, starts, reverse, forward, np.flatnonzero(receiver == sender))


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
        order, built from unordered pairs in any order and orientation
        (tuples, lists or an array).
    links : Links
        The directed-link table of ``edges``; its arrays are read-only
        too.

    Construction raises, checking in this order: :class:`MalformedGraph`
    (``n`` or an id not an integer, or pairs not ``(m, 2)``),
    :class:`OutOfRange` (``n < 1`` or an id outside ``[0, n)``),
    :class:`SelfLoop`, :class:`Disconnected` (fewer than ``n - 1`` pairs,
    before any allocation of size ``n``), :class:`DuplicateEdge` (a pair
    repeated in either orientation) and :class:`Disconnected`.  A
    geometric sample's table and edges are kept as drawn, checked for
    connectivity only.  Two graphs are equal when their ``n`` and ``edges`` are.
    """

    n: int
    edges: np.ndarray
    links: Links = field(init=False, repr=False)

    def __post_init__(self):
        _check_count(self.n)
        n = int(self.n)  # save_graph writes it to JSON, which takes no numpy int
        pairs = _pair_array(self.edges)
        if n < 1:
            raise OutOfRange(f"node count must be positive, got {n}")
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            bad = pairs[((pairs < 0) | (pairs >= n)).any(axis=1)][0]
            raise OutOfRange(f"edge {tuple(bad.tolist())} references a node outside [0, {n})")
        loops = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
        if loops.size:
            raise SelfLoop(f"self-loop at node {int(pairs[loops[0], 0])}")
        m = len(pairs)
        if m < n - 1:  # before any O(n) allocation: n may be far beyond memory
            raise Disconnected(f"graph on {n} nodes with {m} edges is not connected")
        # Both directions of each pair and a self link per node, ordered by
        # (receiver, sender): while ids fit in 16 bits, with stable sorts (radix
        # passes) by sender and then by receiver; beyond, with one stable sort
        # (fast on the canonical order save_graph writes) of the keys
        # receiver * n + sender, where equal keys are equal links.
        receiver, sender = np.empty((2, 2 * m + n), dtype=np.uint16 if n <= 1 << 16 else np.int64)
        receiver[:m] = sender[m : 2 * m] = pairs[:, 0]
        sender[:m] = receiver[m : 2 * m] = pairs[:, 1]
        receiver[2 * m :] = sender[2 * m :] = np.arange(n)
        if n <= 1 << 16:
            order = np.argsort(sender, kind="stable")
            order = order[np.argsort(receiver[order], kind="stable")]
        else:
            order = np.argsort(receiver * n + sender, kind="stable")
        receiver, sender = receiver[order].astype(np.intp), sender[order].astype(np.intp)
        del order  # before the table
        twice = np.flatnonzero((receiver[1:] == receiver[:-1]) & (sender[1:] == sender[:-1]))
        if twice.size:  # the first repeated link has receiver < sender
            raise DuplicateEdge(f"edge {(int(receiver[twice[0]]), int(sender[twice[0]]))} listed more than once")
        self._adopt(n, *_table(receiver, sender, n))

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
    return _table(np.repeat(np.arange(n), counts), sender, n)


#: Disconnected samples :func:`random_connected_graph` draws before it gives up.
MAX_RETRIES = 1000


def check_graph_model(model, radius, p) -> None:
    """Raise :class:`ConfigError` unless ``model`` is ``geometric`` with ``radius``
    in (0, sqrt(2)], or ``gnp`` with ``p`` in (0, 1]; each reads only its own parameter."""
    if model == "geometric":
        real_number("radius", radius, "in (0, sqrt(2)]", lambda v: 0.0 < v <= np.sqrt(2.0))
    elif model == "gnp":
        real_number("p", p, "in (0, 1]", lambda v: 0.0 < v <= 1.0)
    else:
        raise ConfigError(f"topology_model must be 'geometric' or 'gnp', got {model!r}")


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
    node count that is not an integer, :class:`ConfigError` for a model
    :func:`check_graph_model` rejects.
    """
    _check_count(n)
    if n < 1:
        raise OutOfRange(f"node count must be positive, got {n}")
    check_graph_model(model, radius, p)
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
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise MalformedGraph(f"a graph file holds JSON text: {exc}") from None
    if not isinstance(doc, dict) or not {"n", "edges"} <= doc.keys():
        raise MalformedGraph("a graph file holds a JSON object with keys 'n' and 'edges'")
    return Graph(doc["n"], doc["edges"]), doc.get("seed"), doc.get("model")

"""Information-driven compression and the centralized ML estimate.

Every node broadcasts its amplified observation to all neighbors, which
would leave each broadcast duplicated across the network.  The
compression step keeps exactly one external copy per sender -- at the
neighbor holding the highest information value -- and discards the rest.
Every node additionally keeps its own raw observation as a self row.

The surviving rows are stacked into a :class:`GlobalModel` whose sensing
matrix has exactly one nonzero per row and whose combined noise
covariance is diagonal (each retained reception carries an independent
noise draw).  All estimator algebra therefore reduces to per-row scalar
operations; no dense inverse appears anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroInformation
from .network_model import GainVector, NetworkModel, gain_array, link_information, node_information
from .topology import Graph

__all__ = [
    "SelectionPlan",
    "GlobalModel",
    "select_retainers",
    "build_global_model",
    "compress",
    "noise_cov_rows",
    "information_total",
    "ml_estimate",
    "ml_variance",
    "decompose_information",
    "sample_received",
]


@dataclass(frozen=True, eq=False)
class SelectionPlan:
    """Which directed links survive compression.

    ``retained`` is the ascending intp array of surviving link indices
    into ``Graph.links``, self links included.  ``r`` counts the
    discarded external links: ``r = 2|E| - (retained external links)``.
    """

    retained: np.ndarray
    r: int


def select_retainers(g: Graph, info: np.ndarray) -> SelectionPlan:
    """Assign each broadcast to the neighbor with the highest information.

    For every sender ``i``, the external neighbor ``j`` maximizing
    ``info[j]`` retains the reception ``(j, i)``; ties break to the
    smallest node id.  All other copies of the broadcast are discarded.
    Self links ``(i, i)`` are always retained.
    """
    info = np.asarray(info, dtype=float)
    if info.size != g.n:
        raise DimensionMismatch(f"{info.size} information values for {g.n} nodes")
    if not np.all(np.isfinite(info)) or np.any(info < 0.0):
        raise ValueError("information values must be finite and nonnegative")
    links = g.links
    # Node i's segment lists its neighbours j, the candidate retainers of
    # its broadcast; the first maximum of each segment is the smallest id.
    value = info[links.sender]
    value[links.own] = -1.0
    best = np.flatnonzero(value == np.maximum.reduceat(value, links.starts)[links.receiver])
    first = best[np.searchsorted(best, links.starts)]  # every segment holds its maximum
    picked = links.reverse[first[value[first] >= 0.0]]
    kept = np.sort(np.concatenate((links.own, picked)))
    return SelectionPlan(retained=kept, r=2 * g.num_edges - picked.size)


@dataclass(frozen=True, eq=False)
class GlobalModel:
    """Compressed stacked observation model.

    Rows are ordered by ``(receiver, sender)``.  Row ``r`` observes
    ``h[r] * a[sender[r]] * (theta + fresh observation noise)`` plus
    transmission noise of variance ``sigma_rows[r]``.  The sensing matrix
    has one nonzero per row, ``row_h[r]`` in column ``row_sender[r]``.
    """

    n: int
    row_receiver: np.ndarray
    row_sender: np.ndarray
    row_h: np.ndarray
    sigma_rows: np.ndarray   # transmission-noise variance per row (diag of Sigma)
    v_diag: np.ndarray       # per-node observation-noise variances (diag of V)

    @property
    def m(self) -> int:
        return self.row_h.size

    def row_sigma_v(self) -> np.ndarray:
        """Observation-noise variance of each row's sender."""
        return self.v_diag[self.row_sender]


def build_global_model(model: NetworkModel, plan: SelectionPlan, gains: GainVector) -> GlobalModel:
    """Stack the retained rows of every node into one global model.

    ``gains`` only has its length checked.  Raises
    :class:`DimensionMismatch` unless ``plan.retained`` is a 1-d integer
    array of link indices, in range and strictly ascending.
    """
    if gains.n != model.n:
        raise DimensionMismatch(f"{gains.n} gains for {model.n} nodes")
    links = model.graph.links
    idx, size = np.asarray(plan.retained), links.sender.size
    ok = idx.ndim == 1 and idx.dtype.kind in "iu" and not np.any(idx[1:] <= idx[:-1])
    if not ok or (idx.size and (idx[0] < 0 or idx[-1] >= size)):
        raise DimensionMismatch(f"retained rows must be strictly ascending link indices in [0, {size})")
    return GlobalModel(
        n=model.n,
        row_receiver=links.receiver[idx],
        row_sender=links.sender[idx],
        row_h=model.h[idx],
        sigma_rows=float(model.sigma_n_sq) * model.noisy_links()[idx],
        v_diag=model.sigma_v_sq.copy(),
    )


def compress(model: NetworkModel, gains: GainVector) -> GlobalModel:
    """Information-driven compression at ``gains``: the global model of the rows it keeps.

    Each node's information value under ``gains`` picks the retainers
    (:func:`select_retainers`), whose rows are then stacked
    (:func:`build_global_model`).
    """
    plan = select_retainers(model.graph, node_information(model, gains))
    return build_global_model(model, plan, gains)


def _row_terms(gm: GlobalModel, a):
    # Signal h a, information and combined noise variance of every row.
    a = gain_array(a)
    if a.size != gm.n:
        raise DimensionMismatch(f"{a.size} gains for {gm.n} nodes")
    signal = gm.row_h * a[gm.row_sender]
    return (signal, *link_information(np.abs(signal), gm.row_sigma_v(), gm.sigma_rows))


def noise_cov_rows(gm: GlobalModel, a) -> np.ndarray:
    """Diagonal of the combined noise covariance under gains ``a``."""
    return _row_terms(gm, a)[2]


def information_total(gm: GlobalModel, a) -> float:
    """Global Fisher information: sum over rows of |h a|^2 / cov."""
    return float(np.sum(_row_terms(gm, a)[1]))


def ml_estimate(y: np.ndarray, gm: GlobalModel, gains) -> complex:
    """Centralized ML estimate of the parameter from the received vector."""
    y = np.asarray(y, dtype=complex)
    if y.size != gm.m:
        raise DimensionMismatch(f"received vector has {y.size} entries for {gm.m} rows")
    signal, info_rows, cov = _row_terms(gm, gains)
    info = float(np.sum(info_rows))
    if info <= 0.0:
        raise ZeroInformation("total information is zero")
    return complex(np.sum(np.conj(signal) * y / cov) / info)


def ml_variance(gm: GlobalModel, gains) -> float:
    """Variance of the centralized ML estimate: reciprocal information."""
    info = information_total(gm, gains)
    if info <= 0.0:
        raise ZeroInformation("total information is zero")
    return 1.0 / info


def decompose_information(gm: GlobalModel, gains, y=None):
    """Split the global information across receivers.

    Returns the per-node information values ``I_i(0)`` (each node's share
    over its retained rows) and, when a received vector ``y`` is given,
    the per-node projections ``P_i(0)``.  Because the rows partition by
    receiver, the sums reproduce the global quantities exactly:
    ``sum(I) == information_total`` and ``sum(P)`` equals the global
    matched-filter projection.
    """
    signal, info_rows, cov = _row_terms(gm, gains)
    I0 = np.zeros(gm.n)
    np.add.at(I0, gm.row_receiver, info_rows)
    if y is None:
        return I0
    y = np.asarray(y, dtype=complex)
    if y.size != gm.m:
        raise DimensionMismatch(f"received vector has {y.size} entries for {gm.m} rows")
    proj_rows = np.conj(signal) * y / cov
    P0 = np.zeros(gm.n, dtype=complex)
    np.add.at(P0, gm.row_receiver, proj_rows)
    return I0, P0


def sample_received(
    model: NetworkModel,
    gm: GlobalModel,
    gains,
    *,
    size: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Draw received vectors for the retained rows.

    Each row gets an independent observation-noise draw (variance of the
    sender's sensor) and, on noisy rows, an independent transmission-noise
    draw.  Returns shape ``(M,)`` or ``(size, M)``; deterministic per
    seed.
    """
    a = gain_array(gains)
    if a.size != gm.n:
        raise DimensionMismatch(f"{a.size} gains for {gm.n} nodes")
    rng = np.random.default_rng(np.random.SeedSequence((seed,)))
    shape = (1 if size is None else size, gm.m)
    sv = np.sqrt(gm.row_sigma_v() / 2.0)
    v = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * sv
    sn = np.sqrt(gm.sigma_rows / 2.0)
    w = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * sn
    signal = gm.row_h * a[gm.row_sender]
    y = signal * (model.theta + v) + w
    return y[0] if size is None else y

"""ADMM-based distributed average consensus and decentralized estimation.

Every node holds a local copy ``y_i`` of the network average and a
multiplier ``lambda_i``.  One synchronous round updates, with ``d_i`` the
number of neighbours and ``x_i`` the node's initial value,

    y_i  <-  (rho d_i y_i + rho sum_nbrs y_j - lambda_i + x_i) / (1 + 2 rho d_i)
    lambda_i  <-  lambda_i + rho (d_i y_i_new - sum_nbrs y_j_new)

where the y-update reads the neighbors' previous iterates and the
multiplier update reads their new ones (two synchronization barriers per
round).  The local copies converge to the mean of the initial values for
any rho > 0 on a connected graph.

How fast they converge depends on rho.  Unless a config gives it,
``decentralized_mle`` runs :func:`fitted_rho`, which fits rho to the
graph's Laplacian spectrum after Erseghe et al., "Fast consensus by the
alternating direction multipliers method" (IEEE TSP 2011), and Ghadimi et
al., "Optimal parameter selection for the ADMM: quadratic problems" (IEEE
TAC 2015): ``rho = 0.6 / sqrt(2 d_h lambda_2)``, with ``d_h`` the harmonic
mean degree and ``lambda_2`` the second-smallest Laplacian eigenvalue,
which :func:`algebraic_connectivity` finds by Lanczos over the link table.

The decentralized ML estimator runs two such instances in lockstep -- one
on the per-node information values, one on the per-node projections --
and forms the running ratio at every node.  The update coefficients are
real, so the complex projection runs as two real streams and one round
advances three real rows (I, Re P, Im P) with a single neighbour sum.
:func:`admm_rounds` builds its buffers once per call, O(|E|) memory, and
no round allocates: a round is one gather of node rows over the links, one
segmented sum and ten in-place elementwise passes.  It yields its own
buffers, which the next round overwrites (copy to keep).
``decentralized_mle`` keeps only the final state, and hands each round to
an optional ``record`` sink (``experiment.recorded_run`` keeps every round
through one, for the trace CSV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroInformation, integer_at_least, positive_finite
from .topology import Graph

__all__ = [
    "AdmmConfig",
    "admm_rounds",
    "algebraic_connectivity",
    "fitted_rho",
    "decentralized_mle",
    "DecentralizedRun",
    "local_estimates",
]

#: Nodes whose information copy is below this in magnitude emit no estimate.
EPS_GUARD = 1e-9

#: ``c`` of the fitted step constant ``c / sqrt(2 d_h lambda_2)``.
FIT_CONSTANT = 0.6
#: Lanczos steps :func:`algebraic_connectivity` takes at most, and the steps between its stop tests.
LANCZOS_STEPS = 100
LANCZOS_CHECK = 8
#: It stops once the smallest Ritz value moved by less than this fraction since the last test.
LANCZOS_RTOL = 0.01


@dataclass(frozen=True)
class AdmmConfig:
    """Step constant, iteration cap, and stopping tolerance.

    ``rho=None`` (the default) runs each graph at :func:`fitted_rho`; a
    number is used as given.
    """

    rho: float | None = None
    max_iter: int = 10000
    tol: float = 1e-8

    def __post_init__(self):
        if self.rho is not None:
            positive_finite("rho", self.rho)
        positive_finite("tol", self.tol)
        integer_at_least("max_iter", self.max_iter, 1)


def algebraic_connectivity(g: Graph) -> float:
    """The second-smallest eigenvalue ``lambda_2`` of the graph Laplacian, from above, by Lanczos.

    Lanczos runs on ``L = (D + I) - (A + I)``, one ``reduceat`` over the
    link table with its self links per step, from a fixed-seed start
    vector, and projects the mean (``L``'s null vector) out at every step,
    so its Ritz values are those of ``L`` on the vectors of mean zero,
    whose smallest eigenvalue is ``lambda_2``.  Every
    :data:`LANCZOS_CHECK` steps it takes the smallest Ritz value, the
    smallest eigenvalue of the Lanczos tridiagonal by ``np.linalg.eigvalsh``,
    and it stops once that value moved by less than :data:`LANCZOS_RTOL`
    since the last test, at an invariant subspace, or after
    :data:`LANCZOS_STEPS` steps.  By interlacing the Ritz value only falls
    towards ``lambda_2`` as steps are added, so an early stop
    overestimates.  A single node has no ``lambda_2``: 0.
    """
    n = g.n
    if n == 1:
        return 0.0
    links = g.links
    d1 = np.diff(links.starts, append=links.sender.size).astype(float)  # degree + 1, the self link
    tiny = 1e-12 * 2.0 * float(d1.max() - 1.0)  # 2 max(d) bounds the norm of L
    v = np.random.default_rng(0).standard_normal(n)
    v -= v.mean()
    v /= math.sqrt(float(v @ v))
    prev = np.zeros(n)
    T = np.zeros((LANCZOS_STEPS, LANCZOS_STEPS))  # the tridiagonal's lower triangle
    beta = 0.0
    k = 0
    while True:
        w = d1 * v - np.add.reduceat(v[links.sender], links.starts)
        w -= beta * prev
        alpha = float(w @ v)
        w -= alpha * v
        w -= w.mean()
        T[k, k] = alpha
        k += 1
        beta = math.sqrt(float(w @ w))
        if k == 1:
            ritz = alpha  # the one eigenvalue of T_1
        stop = beta <= tiny or k == LANCZOS_STEPS
        if stop or k % LANCZOS_CHECK == 0:
            last, ritz = ritz, float(np.linalg.eigvalsh(T[:k, :k])[0])
            if stop or ritz > (1.0 - LANCZOS_RTOL) * last:
                return ritz
        T[k, k - 1] = beta
        prev, v = v, w / beta


def fitted_rho(g: Graph) -> float:
    """The step constant fitted to ``g``: ``0.6 / sqrt(2 d_h lambda_2)``, to 3 significant digits.

    ``d_h = n / sum(1 / d_i)`` is the harmonic mean degree and
    ``lambda_2`` is :func:`algebraic_connectivity`.  The rounding keeps
    last-bit differences in sums from moving the value.  A single node's
    round reads no rho; it gets 1.
    """
    if g.n == 1:
        return 1.0
    degrees = np.diff(g.links.starts, append=g.links.sender.size) - 1  # less the self link
    harmonic = g.n / float(np.sum(1.0 / degrees))
    return float(f"{FIT_CONSTANT / math.sqrt(2.0 * harmonic * algebraic_connectivity(g)):.3g}")


def admm_rounds(g: Graph, rho: float, x: np.ndarray, y: np.ndarray, lam: np.ndarray):
    """Consensus rounds from ``(y, lam)``; yields ``(y, lam)`` after each.

    ``x``, ``y`` and ``lam`` hold one entry per node along the last axis,
    so a (k, n) array runs k independent streams in lockstep; any other
    length raises :class:`DimensionMismatch` on the first ``next``.
    Neighbour sums gather over the graph's link table without its self
    links; the multiplier update's sum over the new iterates is kept for
    the next round's y-update, so a round costs one sum.  The rounds run
    in place in the generator's own buffers (no caller's array is
    written), and every round yields the same two views of them, which
    the next round overwrites: copy them to keep them.
    """
    if any(np.shape(v)[-1:] != (g.n,) for v in (x, y, lam)):
        raise DimensionMismatch(f"x, y and lam must have one entry per node ({g.n}) on the last axis")
    links = g.links
    send = np.delete(links.sender, links.own)
    starts = links.starts - np.arange(g.n)  # each earlier segment holds one self link
    degrees = np.diff(starts, append=send.size)  # Graph is connected: none is 0 for n > 1
    shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(lam))
    k = math.prod(shape[:-1])
    # The k streams sit side by side in one row per node, three of them
    # zero-padded to four: take copies rows of 8, 16 or 32 bytes whole, and
    # others by memmove, which is slower than a gather one double at a time.
    width = 4 if k == 3 else k
    dtype = np.result_type(*map(np.asarray, (x, y, lam)), np.float64)

    def node_rows(v):  # no round moves the padding off zero
        rows = np.zeros((g.n, width), dtype)
        rows[:, :k] = np.broadcast_to(v, shape).reshape(k, g.n).T
        return rows

    x, y, lam, s, tmp, d = map(node_rows, (x, y, lam, 0.0, 0.0, degrees))  # d: no round casts it
    rho_d, denom = rho * d, 1.0 + 2.0 * rho * d
    gathered = np.empty((send.size, width), dtype)
    streams, sums = gathered[:, :k], s[:, :k]
    yielded = y[:, :k].T.reshape(shape), lam[:, :k].T.reshape(shape)

    def neighbour_sum():  # of y, into s; a single node has no links and a zero sum
        if send.size:  # mode="raise" would copy through a buffer
            y.take(send, axis=0, out=gathered, mode="wrap")
            np.add.reduceat(streams, starts, axis=0, out=sums)
    neighbour_sum()
    while True:
        np.multiply(rho_d, y, out=y)  # each update in its order of operations
        y += np.multiply(rho, s, out=tmp)
        y -= lam
        y += x
        y /= denom
        neighbour_sum()
        np.multiply(d, y, out=tmp)
        tmp -= s
        lam += np.multiply(rho, tmp, out=tmp)
        yield yielded


@dataclass(frozen=True)
class DecentralizedRun:
    """The final state of the two consensus streams, and the local estimates.

    ``I`` and ``P`` hold trajectory rows, one per round, ending with the
    final state: ``decentralized_mle`` returns that row alone, and passes
    every round to its ``record`` sink instead of storing it.  ``theta``
    is computed from the rows on each access; entries are NaN while the
    node's information copy is below the guard threshold.
    """

    I: np.ndarray        # (rows, n) real, rows[-1] the final state
    P: np.ndarray        # (rows, n) complex
    converged: bool
    iterations: int
    disagreement: float  # final scaled disagreement, max over the two streams
    rho: float           # the step constant the rounds ran with

    @property
    def theta(self) -> np.ndarray:
        """(rows, n) complex estimates, NaN where guarded."""
        return local_estimates(self.I, self.P)

    @property
    def theta_final(self) -> np.ndarray:
        return local_estimates(self.I[-1], self.P[-1])


def local_estimates(I: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Each node's estimate ``P / I``, NaN where ``|I|`` is below :data:`EPS_GUARD`."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(I) < EPS_GUARD, np.nan + 1j * np.nan, P / I)


def decentralized_mle(
    g: Graph, cfg: AdmmConfig, I0: np.ndarray, P0: np.ndarray, record=None
) -> DecentralizedRun:
    """Drive every node's (information, projection) pair to the averages.

    The ratio ``P_i(k) / I_i(k)`` converges at every node to the
    centralized ML estimate ``sum(P0) / sum(I0)``.  Both streams share
    the iteration counter; the run stops after the first round in which
    each stream's distance to its true network mean, scaled by
    ``max(1, |stream mean|)``, is within ``cfg.tol``, or at
    ``cfg.max_iter`` (reported via ``converged``, not an exception).  The
    network mean is known to the simulator, not to any node: this is an
    oracle stop rule, not one the nodes could run themselves.

    The rounds run at ``cfg.rho``, or at :func:`fitted_rho` when that is
    ``None``; the run reports the value as ``rho``.  The rule is checked
    after every round, information first: the projection is measured only
    in rounds where the information is within ``cfg.tol``, and at the cap.

    Only the final state is kept.  A ``record(I, P)`` callable, if given,
    receives the trajectory one round per call, in fresh ``(1, n)``
    arrays: round 0 (the all-zero start) first, then rounds ``1 ..
    iterations`` in order.
    """
    I0 = np.asarray(I0, dtype=float)
    P0 = np.asarray(P0, dtype=complex)
    if I0.size != g.n or P0.size != g.n:
        raise DimensionMismatch(f"streams must have one entry per node ({g.n})")
    if not (np.all(np.isfinite(I0)) and np.all(np.isfinite(P0))):
        raise ValueError("initial information and projections must be finite")
    if float(np.sum(I0)) <= 0.0:
        raise ZeroInformation("total initial information must be positive")
    mean_I = float(np.mean(I0))
    mean_P = complex(np.mean(P0))
    scale_I = max(1.0, abs(mean_I))
    scale_P = max(1.0, abs(mean_P))
    rho = fitted_rho(g) if cfg.rho is None else cfg.rho

    if record is not None:
        record(np.zeros((1, g.n)), np.zeros((1, g.n), dtype=complex))
    streams = np.stack((I0, P0.real, P0.imag))
    rounds = admm_rounds(g, rho, streams, np.zeros_like(streams), np.zeros_like(streams))
    tol, max_iter = cfg.tol, cfg.max_iter
    for k, (y, _lam) in enumerate(rounds, start=1):
        disagreement = float(np.abs(y[0] - mean_I).max()) / scale_I
        # The stop needs both streams within tol: the projection is measured
        # only once the information is, and at the cap.
        check_P = disagreement <= tol or k == max_iter
        if check_P or record is not None:
            P = y[1:2] + 1j * y[2:3]
        if check_P:
            disagreement = max(disagreement, float(np.abs(P - mean_P).max()) / scale_P)
        if record is not None:
            record(y[:1].copy(), P)
        if check_P and (disagreement <= tol or k == max_iter):
            break
    return DecentralizedRun(
        I=y[:1].copy(),
        P=P,
        converged=disagreement <= tol,
        iterations=k,
        disagreement=disagreement,
        rho=rho,
    )

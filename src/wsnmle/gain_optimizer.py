"""Cyclic sensor-gain optimization via a bordered-matrix reformulation.

The estimator variance is minimized by maximizing the information
``f(a) = a^H H^H C(a)^{-1} H a`` over the gain domain.  For any offset
``eta0`` the bordered matrix

    R = [[eta0,  (Ha)^H],
         [Ha,    C(a)  ]]

has Schur complement ``eta0 - f(a)``, the minimum of the quadratic form
``g(y, a) = y^H R(a) y`` over auxiliary vectors ``y = (1, ytilde)``.  So
maximizing ``f`` is the joint minimization of ``g`` over the tail
``ytilde`` and the gains (the power-method-like recast of Soltanalian &
Stoica, "Designing unimodular codes via quadratic optimization", IEEE
TSP 2014).  Neither update depends on ``eta0``, so the optimizer tracks
``f`` itself and never forms ``R``.

For fixed gains the optimal ``y`` is the normalized first column of
``R^{-1}`` (equivalently the vector orthogonal to all but the first row
of ``R``, the paper's Gram-Schmidt step).  Because ``C(a)`` is diagonal
after compression, ``R`` is an arrow matrix and that tail has the closed
form ``-Ha / C(a)``.  For fixed ``ytilde`` the objective is, up to a
constant, an exact quadratic in the gains through an (N+1)-dimensional
arrow matrix ``Q``; diagonally loading ``Q`` turns the constrained
quadratic maximization into power-method-like iterations whose objective
never decreases.  The load (:func:`diagonal_load`) is a margin times
the exact largest eigenvalue of ``Q``, the largest root of the arrow's
secular equation (:func:`lambda_max_estimate`).  Alternating the two
updates drives ``f`` monotonically up.  Neither matrix is ever formed densely; the dense
references that check these closed forms (``build_R``, ``g_value`` and
``dense_arrow``) live in :mod:`wsnmle.selfcheck`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, MonotonicityViolation, ZeroInformation
from .fusion import GlobalModel, information_total, noise_cov_rows
from .network_model import GainDomain, GainVector, gain_array, project_gains

__all__ = [
    "OptTrace",
    "update_y",
    "Arrow",
    "build_Q",
    "lambda_max_estimate",
    "diagonal_load",
    "power_iterate",
    "gains_cannot_move",
    "optimize",
]

# Secular-equation solve in lambda_max_estimate: relative stop and step cap.
# Bisection alone halves a bracket no wider than its upper end, so it
# reaches the stop in about 50 steps; Newton steps take about 5.
_EPS = 4.0 * float(np.finfo(float).eps)
_SECULAR_STEPS = 100

EPS_ABS = 1e-9          # additive floor on the diagonal load
MONOTONE_SLACK = 1e-10  # tolerance on the monotonicity checks
LAMBDA_MARGIN = 1.05    # diagonal load as a multiple of lambda_max(Q)
INNER_ITERS = 500       # power steps per outer cycle, at most
INNER_TOL = 1e-10       # inner stop: largest gain move per power step
MAX_OUTER = 200         # outer cycles, at most
XI = 1e-8               # outer stop: largest information move per cycle


@dataclass
class OptTrace:
    """Record of one optimization run.

    ``variances[0]`` is the estimator variance at the initial gains;
    subsequent entries follow each outer cycle.  ``gains`` holds the best
    iterate (highest information), which coincides with the last one
    whenever the run is strictly monotone.
    """

    variances: list[float] = field(default_factory=list)
    inner_iters_used: list[int] = field(default_factory=list)
    gains: GainVector | None = None
    var_final: float = 0.0
    converged: bool = False
    outer_cycles: int = 0


def update_y(gm: GlobalModel, a) -> np.ndarray:
    """Minimize the bordered quadratic form over vectors ``y = (1, ytilde)``.

    ``R(a)`` is an arrow matrix (diagonal ``cov`` bordered by ``Ha``), so
    the vector orthogonal to all but its first row -- what a dense solve
    of ``R y = e1`` or Gram-Schmidt would return after normalization --
    is ``(1, -Ha / cov)``, and ``R y = (eta0 - f(a)) e1``.  Returns the
    tail ``ytilde = -Ha / cov``; the leading 1 is implied.  Raises
    :class:`SingularCovariance` if some row has zero combined noise.
    """
    a = gain_array(a)
    return -gm.row_h * a[gm.row_sender] / noise_cov_rows(gm, a)


class Arrow(NamedTuple):
    """Hermitian (N+1)-square arrow matrix stored in O(N).

    The top-left N-by-N block is ``diag(top)``, the last column is
    ``(border, 0)`` and the last row its conjugate.
    """

    top: np.ndarray
    border: np.ndarray


def build_Q(gm: GlobalModel, ytilde: np.ndarray) -> Arrow:
    """Recast the quadratic form as an arrow matrix in the gains.

    For fixed tail ``ytilde`` of the auxiliary vector,

        y^H R(a) y  =  eta0 + ytilde^H Sigma ytilde  +  (a, 1)^H Q (a, 1)

    for every ``a``; the first two terms do not depend on the gains, so
    only ``Q`` is returned.  ``Q``'s top-left block is the diagonal matrix
    collecting, per sender, the tail-weighted channel energies times the
    sender's observation variance; its border is ``H^H ytilde``.  (When
    every sender occupies a single row this equals the rank-one form
    ``(H^H ytilde ytilde^H H) .* V``.)
    """
    ytilde = np.asarray(ytilde, dtype=complex)
    if ytilde.size != gm.m:
        raise DimensionMismatch(f"tail vector has {ytilde.size} entries for {gm.m} rows")
    weights = np.abs(gm.row_h) ** 2 * np.abs(ytilde) ** 2
    top = np.zeros(gm.n)
    np.add.at(top, gm.row_sender, weights)
    border = np.zeros(gm.n, dtype=complex)
    np.add.at(border, gm.row_sender, np.conj(gm.row_h) * ytilde)
    return Arrow(top * gm.v_diag, border)


def lambda_max_estimate(Q: Arrow) -> float:
    """Largest eigenvalue of an arrow matrix, exactly, in O(N).

    With diagonal ``d = top``, border ``b`` and corner 0, every eigenvalue
    other than a ``d_i`` with ``b_i = 0`` (those deflate and are
    eigenvalues themselves) is a root of the secular equation

        f(lam) = lam - sum_i |b_i|^2 / (lam - d_i) = 0

    taken over the nonzero ``b_i`` (Golub, "Some modified matrix eigenvalue
    problems", SIAM Rev. 1973).  Right of its largest pole ``f`` is
    increasing and concave; it is negative just right of
    ``lo = max(d_i, 0)`` over those entries and nonnegative at
    ``lo + ||b||``, so that interval brackets the largest root.  Newton's
    method, with bisection whenever a step leaves the bracket, finds it to
    relative machine precision.  The result is the largest of that root,
    ``max(d)`` and 0 (the corner); by interlacing it is never negative.
    """
    b_sq = np.abs(Q.border) ** 2
    live = b_sq > 0.0
    floor = float(Q.top.max(initial=0.0))
    if not live.any():
        return floor
    d, b_sq = Q.top[live], b_sq[live]
    lo = max(float(d.max()), 0.0)
    hi = lo + math.sqrt(float(b_sq.sum()))
    lam = hi
    for _ in range(_SECULAR_STEPS):
        if hi - lo <= _EPS * hi:
            break
        gap = lam - d
        ratio = b_sq / gap
        f = lam - float(ratio.sum())
        if f < 0.0:
            lo = lam
        elif f > 0.0:
            hi = lam
        else:
            break
        nxt = lam - f / (1.0 + float((ratio / gap).sum()))
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        done = abs(nxt - lam) <= _EPS * nxt
        lam = nxt
        if done:
            break
    return max(lam, floor)


def diagonal_load(Q: Arrow) -> float:
    """The load ``lambda`` that makes ``lambda I - Q`` positive definite.

    :data:`LAMBDA_MARGIN` times the exact largest eigenvalue of ``Q``
    (:func:`lambda_max_estimate`), plus the floor :data:`EPS_ABS`.
    """
    return LAMBDA_MARGIN * lambda_max_estimate(Q) + EPS_ABS


def power_iterate(a: GainVector, Q: Arrow):
    """Maximize the loaded quadratic form over the fixed-energy sphere.

    Repeats ``a <- project(first N components of (lambda I - Q) (a, 1))``
    until no gain moves by more than :data:`INNER_TOL` in a step, or for
    :data:`INNER_ITERS` steps.  Those components are
    ``v = (lambda - top) a - border``, and the loaded form at the same
    gains is ``(a,1)^H (lambda I - Q) (a,1) = Re<a, v - border> + lambda``,
    so each step costs one O(N) product.  The loaded form never decreases
    across iterations (a drop beyond a small slack raises
    :class:`MonotonicityViolation`).  A feasible start from either domain
    has squared norm N, so it already lies on the sphere.  Returns the new
    fixed-energy gains and the number of iterations used.
    """
    if Q.top.shape != (a.n,) or Q.border.shape != (a.n,):
        raise DimensionMismatch(f"arrow of size {Q.top.size + 1} for {a.n} gains")
    lam = diagonal_load(Q)
    load = lam - Q.top
    cur = a.a.copy()
    v = load * cur - Q.border
    obj = float(np.real(np.vdot(cur, v - Q.border))) + lam
    used = 0
    for t in range(INNER_ITERS):
        new = project_gains(v)
        used = t + 1
        if new is None:
            break
        v = load * new - Q.border
        obj_new = float(np.real(np.vdot(new, v - Q.border))) + lam
        if obj_new < obj - MONOTONE_SLACK * max(1.0, abs(obj)):
            raise MonotonicityViolation(f"loaded quadratic form decreased: {obj} -> {obj_new}")
        step = float(np.max(np.abs(new - cur)))
        cur = new
        obj = obj_new
        if step <= INNER_TOL:
            break
    return GainVector(cur, GainDomain.FIXED_ENERGY), used


def gains_cannot_move(gm: GlobalModel, domain: GainDomain) -> bool:
    """Whether every gain vector in ``domain`` gives ``gm`` the same variance.

    A row's information depends on the gains only through its sender's power
    ``|a_s|^2``, and only if the row is noisy: unimodular gains fix every power.
    """
    return domain is GainDomain.UNIMODULAR or not gm.sigma_rows.any()


def optimize(gm: GlobalModel, a_init: GainVector) -> OptTrace:
    """Run the cyclic gain optimization on a frozen global model.

    The auxiliary vector is initialized at its optimum for the initial
    gains, so the recorded information starts at the initial gains' value
    and never decreases.  The run stops once one outer cycle changes the
    information by at most :data:`XI`, or after :data:`MAX_OUTER` cycles.
    The selection plan baked into ``gm`` stays fixed for the whole run.
    When the gains cannot move the variance (:func:`gains_cannot_move`),
    the run returns ``a_init``, converged after 0 cycles.

    Returns an :class:`OptTrace` whose ``gains`` are the best recorded
    iterate together with its information value and estimator variance.
    Raises :class:`ZeroInformation` if no recorded iterate carries any
    information, since the variance is then undefined.
    """
    if a_init.n != gm.n:
        raise DimensionMismatch(f"{a_init.n} gains for {gm.n} nodes")
    trace = OptTrace()

    def record(gains: GainVector, inner_used: int) -> float:
        info = information_total(gm, gains.a)
        trace.variances.append(np.inf if info <= 0.0 else 1.0 / info)
        trace.inner_iters_used.append(inner_used)
        return info

    a = best_a = a_init
    info_prev = best_info = record(a, 0)
    trace.converged = gains_cannot_move(gm, a_init.domain)
    for _ in range(0 if trace.converged else MAX_OUTER):
        a, used = power_iterate(a, build_Q(gm, update_y(gm, a)))
        info = record(a, used)
        if info < info_prev - MONOTONE_SLACK:
            raise MonotonicityViolation(f"information decreased across outer cycle: {info_prev} -> {info}")
        if info > best_info:
            best_info, best_a = info, a
        if abs(info - info_prev) <= XI:
            trace.converged = True
            break
        info_prev = info
    if best_info <= 0.0:
        raise ZeroInformation("total information is zero at every recorded gain vector")
    trace.gains = best_a
    trace.var_final = 1.0 / best_info
    trace.outer_cycles = len(trace.inner_iters_used) - 1
    return trace

"""Randomized verification of every module's core properties.

Each check runs a batch of small random instances (networks of up to 8
nodes by default) and returns ``None`` on success or a message naming the
first violated property.  Each check reaches the pieces it tests
(``admm_rounds``, ``fitted_rho``, ``build_Q``, ``diagonal_load``, ...)
through this module's globals, so a test can patch in a deliberately
broken one and see that its check fails.
The dense reference forms of the optimizer's two arrow matrices
(:func:`build_R`, :func:`g_value`, :func:`dense_arrow`), which the
optimizer itself never forms, live here for those checks and the tests.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from .consensus import admm_rounds, fitted_rho
from .errors import DimensionMismatch, WsnMleError, integer_at_least
from .experiment import ExperimentConfig, build_scenario, optimize_with_reselection
from .fusion import GlobalModel, compress, decompose_information, information_total, ml_variance, noise_cov_rows
from .gain_optimizer import Arrow, build_Q, diagonal_load, update_y
from .network_model import GainDomain, GainVector, gain_array, node_information
from .topology import random_connected_graph

__all__ = ["CheckResult", "PROPERTY_CHECKS", "run_all", "build_R", "g_value", "dense_arrow"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def build_R(gm: GlobalModel, a, eta0: float) -> np.ndarray:
    """Assemble the dense Hermitian bordered matrix for gains ``a``.

    The paper's reference form; the optimizer itself only ever uses its
    closed-form consequences (:func:`~wsnmle.gain_optimizer.update_y`).
    """
    a = gain_array(a)
    if a.size != gm.n:
        raise DimensionMismatch(f"{a.size} gains for {gm.n} nodes")
    ha = gm.row_h * a[gm.row_sender]
    cov = noise_cov_rows(gm, a)
    m = gm.m
    R = np.zeros((m + 1, m + 1), dtype=complex)
    R[0, 0] = eta0
    R[0, 1:] = np.conj(ha)
    R[1:, 0] = ha
    R[1:, 1:][np.diag_indices(m)] = cov
    return R


def g_value(ytilde: np.ndarray, R: np.ndarray) -> float:
    """Evaluate the (real) quadratic form of the dense bordered matrix at ``(1, ytilde)``."""
    ytilde = np.asarray(ytilde, dtype=complex)
    if ytilde.size + 1 != R.shape[0]:
        raise DimensionMismatch(
            f"tail vector of length {ytilde.size} for a {R.shape[0]}x{R.shape[1]} matrix"
        )
    y = np.concatenate(([1.0 + 0j], ytilde))
    return float(np.real(np.conj(y) @ (R @ y)))


def dense_arrow(Q: Arrow) -> np.ndarray:
    """The full (N+1)-square matrix of an :class:`~wsnmle.gain_optimizer.Arrow`."""
    n = Q.top.size
    D = np.zeros((n + 1, n + 1), dtype=complex)
    D[np.diag_indices(n)] = Q.top
    D[:n, n] = Q.border
    D[n, :n] = np.conj(Q.border)
    return D


def _random_size(rng: np.random.Generator, n_max: int) -> int:
    """Every random check's node count: at least 2, at most ``max(n_max, 2)``."""
    return int(rng.integers(2, max(n_max, 2) + 1))


def _random_scenario(rng: np.random.Generator, n_max: int):
    """A G(n, 0.6) scenario, n from :func:`_random_size`, with per-node observation variances in [0.5, 2)."""
    n = _random_size(rng, n_max)
    sigma_v_sq = rng.uniform(0.5, 2.0, n).tolist()
    seed = int(rng.integers(0, 2**31))
    return build_scenario(
        ExperimentConfig(n=n, topology_model="gnp", p=0.6, sigma_v_sq=sigma_v_sq, theta=2.0 + 1.0j, master_seed=seed)
    )


def _random_global(rng, n_max):
    g, model = _random_scenario(rng, n_max)
    a = GainVector.random(g.n, GainDomain.FIXED_ENERGY, rng)
    return g, model, a, compress(model, a)


def check_topology(rng, cases, n_max):
    """Connectivity, neighbour symmetry, and generation determinism."""
    for _ in range(cases):
        n = int(rng.integers(1, n_max + 1))
        seed = int(rng.integers(0, 2**31))
        model = "geometric" if rng.random() < 0.5 else "gnp"
        g = random_connected_graph(n, model, radius=0.7, p=0.5, seed=seed)
        g2 = random_connected_graph(n, model, radius=0.7, p=0.5, seed=seed)
        if g != g2:
            return f"generation not deterministic for seed {seed}"
        for i in range(n):
            for j in g.neighbors(i):
                if i not in g.neighbors(j):
                    return f"neighbour asymmetry at ({i}, {j})"
        # Graph already rejects disconnected graphs; re-check reachability.
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != n:
            return f"graph with seed {seed} not connected"
    return None


def check_information(rng, cases, n_max):
    """Phase invariance and noise monotonicity of every node's information."""
    for _ in range(cases):
        g, model = _random_scenario(rng, n_max)
        a = GainVector.random(g.n, GainDomain.FIXED_ENERGY, rng)
        info = node_information(model, a)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        rotated = GainVector(phase * a.a, GainDomain.FIXED_ENERGY)
        info_rot = node_information(model, rotated)
        if np.any(np.abs(info - info_rot) > 1e-10 * np.maximum(1.0, info)):
            return f"information not phase invariant: {info} vs {info_rot}"
        info_2n = node_information(replace(model, sigma_n_sq=2.0 * model.sigma_n_sq), a)
        if not np.all(info_2n < info):
            return "doubling transmission noise did not decrease information"
    return None


def check_partition(rng, cases, n_max):
    """Per-receiver information shares sum to the global information."""
    for _ in range(cases):
        g, model, a, gm = _random_global(rng, n_max)
        I0 = decompose_information(gm, a)
        total = information_total(gm, a)
        if abs(float(np.sum(I0)) - total) > 1e-12 * total:
            return f"partition mismatch: {np.sum(I0)} vs {total}"
        if abs(ml_variance(gm, a) * total - 1.0) > 1e-12:
            return "variance is not the reciprocal information"
    return None


def check_consensus(rng, cases, n_max):
    """Convergence to the mean and stationarity of the consensus round.

    Each case draws a G(n, 0.5) graph, n from :func:`_random_size`, and complex
    initial values, then runs rho = 0.1, 0.5, 2.0 and the graph's
    :func:`fitted_rho` from zero state.
    Every run must come within 1e-9 of the mean in at most 5,000 rounds,
    and one more round from there must move no copy by more than 1e-6.
    """
    for _ in range(cases):
        n = _random_size(rng, n_max)
        g = random_connected_graph(n, "gnp", p=0.5, seed=int(rng.integers(0, 2**31)))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        target = np.mean(x)
        for rho in (0.1, 0.5, 2.0, fitted_rho(g)):
            rounds = admm_rounds(g, rho, x, np.zeros(n, dtype=complex), np.zeros(n, dtype=complex))
            for _, (y, _lam) in zip(range(5000), rounds):
                if float(np.max(np.abs(y - target))) <= 1e-9:
                    break
            else:
                return f"consensus did not reach the mean (n={n}, rho={rho})"
            y = y.copy()  # the next round overwrites the yielded array
            y_next, _ = next(rounds)
            if float(np.max(np.abs(y_next - y))) > 1e-6:
                return f"converged state is not nearly stationary (n={n}, rho={rho})"
    return None


def _rank_one_top_left(H, V, ytilde):
    return (np.conj(H.T) @ np.outer(ytilde, np.conj(ytilde)) @ H) * V


def check_hadamard(rng, cases, n_max):
    """Quadratic recast of the noise energy, and ``build_Q`` against dense forms.

    With ``C = H diag(a) V diag(a)^H H^H``, ``yt^H C yt == a^H T a``, ``T`` from :func:`_rank_one_top_left`.
    Each row draws its own observation noise, so ``build_Q(gm, yt)`` gives
    ``a^H diag(top) a == yt^H diag(C) yt`` and ``border == H^H yt``.
    """
    for _ in range(cases):
        g, model, a, gm = _random_global(rng, n_max)
        H = np.zeros((gm.m, gm.n), dtype=complex)  # the dense sensing matrix, one nonzero per row
        H[np.arange(gm.m), gm.row_sender] = gm.row_h
        V = np.diag(gm.v_diag)
        ar = rng.standard_normal(gm.n) + 1j * rng.standard_normal(gm.n)
        yt = rng.standard_normal(gm.m) + 1j * rng.standard_normal(gm.m)
        D = np.diag(ar)
        C = H @ D @ V @ np.conj(D.T) @ np.conj(H.T)
        lhs = complex(np.conj(yt) @ (C @ yt))
        rhs = complex(np.conj(ar) @ (_rank_one_top_left(H, V, yt) @ ar))
        if abs(lhs - rhs) > 1e-9 * max(1.0, abs(lhs)):
            return f"quadratic recast violated: {lhs} vs {rhs}"
        Q = build_Q(gm, yt)
        row_energy = complex(np.conj(yt) @ (np.diag(np.diag(C)) @ yt))
        energy = complex(np.vdot(ar, Q.top * ar))
        if abs(row_energy - energy) > 1e-9 * max(1.0, abs(row_energy)):
            return f"build_Q's diagonal misses the per-row noise energy: {row_energy} vs {energy}"
        if not np.allclose(Q.border, np.conj(H.T) @ yt, rtol=1e-12, atol=1e-12):
            return "build_Q's border is not H^H ytilde"
    return None


def check_equivalence(rng, cases, n_max):
    """The three evaluations of the reformulated objective agree."""
    for _ in range(cases):
        g, model, a, gm = _random_global(rng, n_max)
        # Each row carries at most 1/sigma_v^2 information, so this offset
        # exceeds f(a) and keeps the Schur complement positive.
        eta0 = 2.0 * float(np.sum(1.0 / gm.row_sigma_v()))
        R = build_R(gm, a.a, eta0)
        eta_schur = eta0 - information_total(gm, a.a)
        e1 = np.zeros(gm.m + 1, dtype=complex)
        e1[0] = 1.0
        first_col = np.linalg.solve(R, e1)
        eta_inv = 1.0 / float(np.real(first_col[0]))
        ytilde = update_y(gm, a)
        eta_g = g_value(ytilde, R)
        if abs(eta_inv - eta_schur) > 1e-8 * eta_schur:
            return f"inverse-entry evaluation off: {eta_inv} vs {eta_schur}"
        if abs(eta_g - eta_schur) > 1e-8 * eta_schur:
            return f"quadratic-form evaluation off: {eta_g} vs {eta_schur}"
        if float(np.max(np.abs(ytilde - first_col[1:] / first_col[0]))) > 1e-8:
            return "closed-form and dense-solve auxiliary vectors disagree"
    return None


def check_optimizer(rng, cases, n_max):
    """Monotone information, feasible iterates, and a valid diagonal load."""
    for _ in range(cases):
        domain = GainDomain.FIXED_ENERGY if rng.random() < 0.5 else GainDomain.UNIMODULAR
        g, model = _random_scenario(rng, n_max)
        a0 = GainVector.ones(g.n, domain)
        gm, trace = optimize_with_reselection(model, a0)
        info = 1.0 / np.asarray(trace.variances)
        if np.any(np.diff(info) < -1e-10):
            return f"information decreased along the trace (max drop {-np.min(np.diff(info)):.2e})"
        a = trace.gains.a
        if domain is GainDomain.FIXED_ENERGY:
            if abs(float(np.sum(np.abs(a) ** 2)) - gm.n) > 1e-9 * gm.n:
                return "final gains violate the energy constraint"
        else:
            if float(np.max(np.abs(np.abs(a) - 1.0))) > 1e-12:
                return "final gains violate the unit-modulus constraint"
        if trace.var_final > ml_variance(gm, a0):
            return "optimization did not improve on the initial gains"
        Q = build_Q(gm, update_y(gm, a))
        mineig = float(np.min(np.linalg.eigvalsh(diagonal_load(Q) * np.eye(gm.n + 1) - dense_arrow(Q))))
        if mineig < -1e-9:
            return f"diagonal load leaves a negative eigenvalue {mineig:.2e}"
    return None


PROPERTY_CHECKS = (
    ("topology", check_topology),
    ("local_information", check_information),
    ("information_partition", check_partition),
    ("consensus", check_consensus),
    ("quadratic_recast", check_hadamard),
    ("objective_equivalence", check_equivalence),
    ("gain_optimizer", check_optimizer),
)


def run_all(seed: int = 0, cases: int = 100, n_max: int = 8):
    """Run every property check on ``cases`` random cases; returns one :class:`CheckResult` each."""
    integer_at_least("cases", cases, 1)  # a run of no case would report every property passed
    results = []
    for name, fn in PROPERTY_CHECKS:
        rng = np.random.default_rng(np.random.SeedSequence((seed, zlib.crc32(name.encode()))))
        try:
            detail = fn(rng, cases, n_max)
        except WsnMleError as exc:
            detail = f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=detail is None, detail=detail or ""))
    return results

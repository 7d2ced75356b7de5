"""Dense reference forms for tests: what the package keeps per row."""

import numpy as np


def dense_H(gm):
    """The M-by-N sensing matrix of a global model: ``row_h[r]`` at ``(r, row_sender[r])``."""
    H = np.zeros((gm.m, gm.n), dtype=complex)
    H[np.arange(gm.m), gm.row_sender] = gm.row_h
    return H


def all_pairs_edges(pos, radius):
    """Geometric edges by testing all n(n-1)/2 pairs of positions, in canonical order."""
    iu, ju = np.triu_indices(len(pos), k=1)
    dx = pos[iu, 0] - pos[ju, 0]
    dy = pos[iu, 1] - pos[ju, 1]
    mask = dx**2 + dy**2 <= radius * radius
    return np.stack((iu[mask], ju[mask]), axis=1)


def _bisect(f, lo, hi):
    # Elementwise bisection for the root of a decreasing f on [lo, hi],
    # run until every midpoint equals one of its ends.
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            return mid
        above = f(mid) > 0.0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)


def water_filling_information(gm):
    """The highest information over fixed-energy gains, by water-filling.

    After compression, row r depends only on its sender's power
    ``p = |a_s|^2``: it carries ``c p / (c p sigma_v^2 + t)`` with
    ``c = |h_r|^2`` and transmission noise ``t``.  That is concave in p, so
    the maximum over ``sum p = N`` satisfies KKT: a node whose slope
    ``F_s'(0)`` exceeds the multiplier ``mu`` takes the p where
    ``F_s'(p) = mu``, the rest take 0, and ``mu`` makes the powers sum to
    N.  Both levels are bisections.  A noiseless row (t = 0) counts as its
    p -> 0+ limit, ``1 / sigma_v^2``, whatever its sender's power.
    """
    noisy = gm.sigma_rows > 0.0
    c = np.abs(gm.row_h[noisy]) ** 2
    t = gm.sigma_rows[noisy]
    sv = gm.row_sigma_v()[noisy]
    senders = gm.row_sender[noisy]
    n = float(gm.n)

    def slope(p):  # F_s'(p_s) of every node
        return np.bincount(senders, c * t / (c * p[senders] * sv + t) ** 2, minlength=gm.n)

    slope0 = slope(np.zeros(gm.n))

    def powers(mu):
        hi = np.where(slope0 > mu, n, 0.0)
        return _bisect(lambda p: slope(p) - mu, np.zeros(gm.n), hi)

    mu = _bisect(lambda mu: powers(mu).sum() - n, 0.0, slope0.max())
    p = powers(mu)
    p *= n / p.sum()
    x = c * p[senders]
    return float(np.sum(x / (x * sv + t)) + np.sum(1.0 / gm.row_sigma_v()[~noisy]))

"""Dense reference forms for tests: what the package keeps per row or per link."""

import numpy as np

from wsnmle.topology import Links


def dense_H(gm):
    """The M-by-N sensing matrix of a global model: ``row_h[r]`` at ``(r, row_sender[r])``."""
    H = np.zeros((gm.m, gm.n), dtype=complex)
    H[np.arange(gm.m), gm.row_sender] = gm.row_h
    return H


def geometric_mask(pos, radius):
    """Which of the nodes at ``pos`` lie within ``radius`` of each other, over all n^2 ordered pairs."""
    dx = pos[:, 0, None] - pos[None, :, 0]
    dy = pos[:, 1, None] - pos[None, :, 1]
    return dx**2 + dy**2 <= radius * radius


def edge_mask(n, edges):
    """The n-by-n symmetric adjacency of an (m, 2) edge array."""
    mask = np.zeros((n, n), dtype=bool)
    mask[edges[:, 0], edges[:, 1]] = mask[edges[:, 1], edges[:, 0]] = True
    return mask


def dense_links(mask):
    """Canonical edges and link table of the graph with symmetric adjacency ``mask``.

    The links are the row-major nonzeros of ``mask`` with the diagonal set;
    ``reverse`` reads a dense n-by-n matrix of link indices at the
    transposed pair.
    """
    n = len(mask)
    assert np.array_equal(mask, mask.T)
    mask = mask | np.eye(n, dtype=bool)
    receiver, sender = np.nonzero(mask)
    index = np.full((n, n), -1, dtype=np.intp)
    index[receiver, sender] = np.arange(receiver.size)
    upper = receiver < sender
    links = Links(
        receiver=receiver,
        sender=sender,
        starts=np.searchsorted(receiver, np.arange(n)),
        reverse=index[sender, receiver],
        forward=np.flatnonzero(upper),
        own=np.diagonal(index).copy(),
    )
    return np.stack((receiver[upper], sender[upper]), axis=1), links


def assert_same_table(got, ref):
    """Byte-identical edges and link arrays: same dtypes, shapes and values."""
    for name, a, b in zip(("edges", *Links._fields), (got[0], *got[1]), (ref[0], *ref[1])):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


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


def dense_laplacian(g):
    """The n-by-n graph Laplacian ``diag(d) - A`` of a graph."""
    A = edge_mask(g.n, g.edges).astype(float)
    return np.diag(A.sum(axis=1)) - A


def round_map(g, rho):
    """The 2n-by-2n matrix of one consensus round on ``(y, lam)``, input term left out.

    ``admm_rounds``' updates, ``y' = B y - D^-1 lam + D^-1 x`` with
    ``D = I + 2 rho diag(d)`` and ``B = rho D^-1 (diag(d) + A)``, then
    ``lam' = lam + rho L y'``, stacked.
    """
    L = dense_laplacian(g)
    d = np.diag(L)
    D_inv = np.diag(1.0 / (1.0 + 2.0 * rho * d))
    B = rho * D_inv @ (2.0 * np.diag(d) - L)
    return np.block([[B, -D_inv], [rho * L @ B, np.eye(g.n) - rho * L @ D_inv]])

"""Channels, noise statistics, gains, and per-node information values.

Every node ``i`` observes ``z_i = theta + v_i`` with complex Gaussian
sensor noise, scales it by an adjustable complex gain ``a_i``, and
broadcasts it to its neighbors over noisy channels.  Every quantity
attached to a reception lives in one array over the graph's directed-link
table (:class:`~wsnmle.topology.Links`, sorted by receiver, then sender,
self links included): the channel coefficient, the sender's gain and
observation-noise variance, and whether the link carries transmission
noise.

Each reception carries an independent observation-noise draw, so the
combined noise of any stack of receptions is diagonal; every covariance in
this package is represented by its diagonal vector.  A node's own
observation enters its stack as a self link with unit channel; by default
the self link is noiseless on the transmission side
(``noisy_self_link=False``), since a node reads its own sensor without
going over the air.
"""

from __future__ import annotations

import cmath
import enum
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, SingularCovariance, is_number, positive_finite, real_number
from .topology import Graph

__all__ = [
    "GainDomain",
    "GainVector",
    "NetworkModel",
    "check_channels",
    "check_noise",
    "gain_array",
    "project_gains",
    "sample_channels",
    "link_information",
    "node_information",
]


class GainDomain(enum.Enum):
    """Feasible set for the sensor gain vector."""

    FIXED_ENERGY = "fixed-energy"  # ||a||^2 = N
    UNIMODULAR = "unimodular"      # |a_i| = 1 for all i


@dataclass(frozen=True)
class GainVector:
    """Complex sensor gains constrained to a :class:`GainDomain`.

    The constructor enforces the domain invariant: squared norm equal to
    the length within 1e-9 relative for ``FIXED_ENERGY``, unit modulus per
    entry within 1e-12 for ``UNIMODULAR``.  Non-finite entries raise
    ``ValueError`` in both domains.
    """

    a: np.ndarray
    domain: GainDomain

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        object.__setattr__(self, "a", a)
        if a.ndim != 1 or a.size == 0:
            raise DimensionMismatch("gain vector must be a nonempty 1-d array")
        if not np.all(np.isfinite(a)):
            raise ValueError("gains must be finite")
        n = a.size
        if self.domain is GainDomain.FIXED_ENERGY:
            energy = float(np.sum(np.abs(a) ** 2))
            if abs(energy - n) > 1e-9 * n:
                raise ValueError(f"||a||^2 = {energy} violates the fixed-energy constraint {n}")
        else:
            if np.max(np.abs(np.abs(a) - 1.0)) > 1e-12:
                raise ValueError("gain moduli violate the unimodular constraint")

    @property
    def n(self) -> int:
        return self.a.size

    @classmethod
    def ones(cls, n: int, domain: GainDomain) -> "GainVector":
        """All-ones gains; feasible in both domains."""
        return cls(np.ones(n, dtype=complex), domain)

    @classmethod
    def random(cls, n: int, domain: GainDomain, rng: np.random.Generator) -> "GainVector":
        """Random feasible gains."""
        if domain is GainDomain.UNIMODULAR:
            return cls(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)), domain)
        return cls(project_gains(rng.standard_normal(n) + 1j * rng.standard_normal(n)), domain)


def project_gains(ahat: np.ndarray):
    """Rescale onto the fixed-energy sphere ``||a||^2 = N``; ``None`` for the zero vector."""
    ahat = np.asarray(ahat, dtype=complex)
    norm = np.linalg.norm(ahat)
    if norm == 0.0:
        return None
    return np.sqrt(ahat.size) * ahat / norm


def gain_array(a) -> np.ndarray:
    """The complex gain array of a :class:`GainVector` or of any array-like."""
    if isinstance(a, GainVector):
        return a.a
    return np.asarray(a, dtype=complex)


def check_noise(sigma_v_sq, sigma_n_sq, theta, n: int | None = None) -> tuple[np.ndarray, complex]:
    """``(sigma_v_sq, theta)`` as a model holds them, or :class:`ConfigError`.

    ``sigma_v_sq``: a positive finite number, or a flat list of them, one
    for all nodes or one each (``n``, when given); ``sigma_n_sq``:
    nonnegative and finite; ``theta``: a finite number or ``[re, im]``.
    A number is never a bool or a string, and each list entry is checked
    (``np.asarray([True, 2])`` would be an int array); an array's dtype
    must be integer or float.
    """
    if isinstance(sigma_v_sq, np.ndarray):
        numeric = sigma_v_sq.dtype.kind in "iuf"
    else:
        numeric = all(map(is_number, sigma_v_sq if isinstance(sigma_v_sq, (list, tuple)) else [sigma_v_sq]))
    sv = np.atleast_1d(np.asarray(sigma_v_sq, dtype=float)) if numeric else np.empty((0, 0))
    if sv.ndim != 1 or sv.size == 0:
        raise ConfigError(f"sigma_v_sq must be a number or a flat list of numbers, got {sigma_v_sq!r}")
    for v in (sv.min(), sv.max()):
        positive_finite("sigma_v_sq", float(v))
    if n is not None and sv.size != n:
        if sv.size != 1:
            raise ConfigError(f"sigma_v_sq has {sv.size} entries for {n} nodes")
        sv = np.full(n, float(sv[0]))
    real_number("sigma_n_sq", sigma_n_sq, "nonnegative and finite", lambda v: 0 <= v < np.inf)
    if isinstance(theta, (list, tuple)) and len(theta) == 2 and all(map(is_number, theta)):
        z = complex(*theta)
    elif is_number(theta, numbers.Complex):
        z = complex(theta)
    else:
        z = complex("nan")  # fails the finiteness rule below
    if not cmath.isfinite(z):
        raise ConfigError(f"theta must be a finite number or [re, im] pair, got {theta!r}")
    return sv, z


@dataclass(frozen=True)
class NetworkModel:
    """Channels, noise variances, and the true parameter for one network.

    ``h`` holds one complex channel coefficient per directed link, in the
    order of ``graph.links`` (``2|E| + n`` entries); self links carry
    exactly 1.
    """

    graph: Graph
    h: np.ndarray
    sigma_v_sq: np.ndarray
    sigma_n_sq: float
    theta: complex
    noisy_self_link: bool = False

    def __post_init__(self):
        g = self.graph
        sv, theta = check_noise(self.sigma_v_sq, self.sigma_n_sq, self.theta, g.n)
        object.__setattr__(self, "sigma_v_sq", sv)
        object.__setattr__(self, "theta", theta)
        h = np.asarray(self.h, dtype=complex)
        links = g.links
        if h.shape != links.sender.shape:
            raise DimensionMismatch(f"{h.size} channels for {links.sender.size} directed links plus self links")
        bad = h[links.own] != 1
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"self channel h[({i},{i})] must be exactly 1")
        object.__setattr__(self, "h", h)

    @property
    def n(self) -> int:
        return self.graph.n

    def noisy_links(self) -> np.ndarray:
        """Which links carry transmission noise (of variance ``sigma_n_sq``).

        Every link does, except the self links when ``noisy_self_link`` is false.
        """
        links = self.graph.links
        noisy = np.ones(links.sender.size, dtype=bool)
        noisy[links.own] = self.noisy_self_link
        return noisy


#: Edges per block of channel draws, links per block of node_information.
_BLOCK = 1 << 12


def check_channels(dist, sigma_h) -> None:
    """Raise :class:`ConfigError` unless ``dist`` is ``complex_gaussian`` with a
    positive finite ``sigma_h``, or ``unit`` (which reads no ``sigma_h``)."""
    if dist not in ("complex_gaussian", "unit"):
        raise ConfigError(f"channel_dist must be 'complex_gaussian' or 'unit', got {dist!r}")
    if dist == "complex_gaussian":
        positive_finite("sigma_h", sigma_h)


def sample_channels(
    graph: Graph,
    dist: str = "complex_gaussian",
    *,
    sigma_h: float = 1.0,
    reciprocal: bool = False,
    seed: int = 0,
) -> np.ndarray:
    """Draw channel coefficients for every directed link, in link order.

    ``complex_gaussian`` draws i.i.d. circularly-symmetric complex
    Gaussians with variance ``sigma_h**2`` (real and imaginary parts
    i.i.d. normal with variance ``sigma_h**2 / 2``); ``unit`` sets every
    coefficient to 1.  With ``reciprocal=True`` the two directions of an
    edge share one draw.  Self channels are always exactly 1.  Edge ``k =
    (i, j)`` takes row ``k`` of the draws: ``(i, j)`` first, then
    ``(j, i)``.
    """
    check_channels(dist, sigma_h)
    links = graph.links
    if dist == "unit":
        return np.ones(links.sender.size, dtype=complex)
    h = np.empty(links.sender.size, dtype=complex)  # the draws fill every link but the self links
    h[links.own] = 1.0
    rng = np.random.default_rng(np.random.SeedSequence((seed,)))
    scale = sigma_h / np.sqrt(2.0)
    # Row k holds (re, im) pairs: one per edge direction, or one shared.
    # Blocks of rows draw the same stream as one call, in less memory.
    for k in range(0, graph.num_edges, _BLOCK):
        draws = rng.standard_normal((min(_BLOCK, graph.num_edges - k), 2 if reciprocal else 4))
        draws *= scale  # the bytes of rng.normal(0.0, scale, ...)
        draws = draws.view(complex)
        forward = links.forward[k : k + _BLOCK]
        h[forward] = draws[:, 0]
        h[links.reverse[forward]] = draws[:, -1]
    return h


def link_information(power: np.ndarray, cov: np.ndarray, tx, where=True) -> tuple[np.ndarray, np.ndarray]:
    """Information and combined noise variance of each reception, in place.

    A reception carrying ``signal = h a`` from a sensor with
    observation-noise variance ``sigma_v``, plus transmission noise of
    variance ``tx``, has noise variance ``cov = |signal|^2 sigma_v + tx``
    and information ``|signal|^2 / cov``.  ``power`` holds ``|signal|``
    and becomes the information; ``cov`` holds ``sigma_v`` and becomes
    the combined variance; ``tx`` is added only where ``where`` holds
    (adding a zero changes no bit).  Both must be float arrays the caller
    owns.  Returns ``(info, cov)``.  Raises :class:`SingularCovariance` if
    any ``cov`` is zero (a zeroed gain on a reception without
    transmission noise).
    """
    np.square(power, out=power)
    np.add(np.multiply(power, cov, out=cov), tx, out=cov, where=where)
    if np.any(cov <= 0.0):
        raise SingularCovariance(f"zero combined noise in receptions {np.flatnonzero(cov <= 0.0).tolist()}")
    return np.divide(power, cov, out=power), cov


def node_information(model: NetworkModel, gains: GainVector) -> np.ndarray:
    """Information value at every node from its full (uncompressed) stack.

    Node ``i`` holds the sum of :func:`link_information` over the links it
    receives; the reciprocal is the variance of the ML estimate formed
    from those rows alone.
    """
    if gains.n != model.n:
        raise DimensionMismatch(f"{gains.n} gains for {model.n} nodes")
    # |h a| a block at a time and no per-link noise array: temporaries small
    # enough that freed memory is reused, not returned and faulted in again.
    links = model.graph.links
    power = np.empty(links.sender.size)
    for lo in range(0, power.size, _BLOCK):
        signal = gains.a[links.sender[lo : lo + _BLOCK]]  # indexing: np.take copies read-only indices
        np.abs(np.multiply(model.h[lo : lo + _BLOCK], signal, out=signal), out=power[lo : lo + _BLOCK])
    info, _ = link_information(power, model.sigma_v_sq[links.sender], model.sigma_n_sq, where=model.noisy_links())
    return np.add.reduceat(info, links.starts)


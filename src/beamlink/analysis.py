"""Closed-form link performance metrics.

Covers the achievable-rate expression of the beamformed single-user
link, beamspace gain patterns, codeword-distance statistics, the
pairwise union bound with its Chernoff relaxation, and the averaged
error probabilities of BPSK/MPSK/MQAM over a Rayleigh-distributed SNR.
The averages are the closed forms of the moment-generating-function
representation of the Gaussian Q-function,

    E[Q(a sqrt(gamma))] = (1/pi) * int_0^{pi/2} 1 / (1 + a^2 gbar / (2 sin^2 t)) dt

for exponentially distributed gamma with mean gbar. The union bound is
exact for every constellation order: the orthogonality of the Alamouti
code reduces its sum over codeword pairs to a sum over pairs of
symbol-distance classes.
"""

from __future__ import annotations

import math

import numpy as np

from . import stbc
from .channel import SteeringConfig, steering_vector


_erfc = np.vectorize(math.erfc, otypes=[np.float64])


def q_function(x):
    """Gaussian tail probability ``Q(x) = erfc(x / sqrt 2) / 2``, elementwise over ``x``.

    ``erfc`` is the standard library's ``math.erfc`` applied per element.
    It matches ``scipy.stats.norm.sf`` to a relative 1e-12 on [0, 37],
    where Q falls to about 6e-301, so the high-SNR union-bound terms keep
    their digits.
    """
    return 0.5 * _erfc(np.asarray(x, dtype=np.float64) / np.sqrt(2.0))


def mgf_ber_bpsk(gamma_bar: float) -> float:
    """Average BPSK error probability over Rayleigh fading.

    Closed form of the MGF integral with a = 1:
    ``1/2 - 1/2 sqrt(gbar / (2 + gbar))``.
    """
    if gamma_bar < 0:
        raise ValueError("gamma_bar must be nonnegative")
    return 0.5 - 0.5 * np.sqrt(gamma_bar / (2.0 + gamma_bar))


def mgf_ber_mpsk(gamma_bar: float, m: int) -> float:
    """Average MPSK error probability over Rayleigh fading.

    Closed form of the MGF integral with ``a^2 = 2 sin^2(pi/M)``:

        (1 - sqrt(mu)) / 2,   mu = gbar sin^2(pi/M) / (1 + gbar sin^2(pi/M))
    """
    if gamma_bar < 0:
        raise ValueError("gamma_bar must be nonnegative")
    if m < 2 or (m & (m - 1)) != 0:
        raise ValueError("M must be a power of two, at least 2")
    g = np.sin(np.pi / m) ** 2
    mu = gamma_bar * g / (1.0 + gamma_bar * g)
    return 0.5 * (1.0 - np.sqrt(mu))


def mgf_ber_mqam(gamma_bar: float, m: int) -> float:
    """Average square-QAM error probability over Rayleigh fading.

    Closed form of the two-integral MGF representation

        (4 zeta / pi) int_0^{pi/2} (1 + c/sin^2 t)^(-1) dt
      - (4 zeta^2 / pi) int_0^{pi/4} (1 + c/sin^2 t)^(-1) dt

    with ``zeta = 1 - 1/sqrt(M)`` and ``c = 3 gbar / (2 (M - 1))``
    (Simon and Alouini): with ``mu = sqrt(c / (1 + c))`` it is

        2 zeta (1 - mu) - zeta^2 (1 - (4/pi) mu atan(1/mu)),

    which equals ``2 zeta - zeta^2`` at gbar = 0.
    """
    if gamma_bar < 0:
        raise ValueError("gamma_bar must be nonnegative")
    if m not in (4, 16, 64):
        raise ValueError("M must be one of 4, 16, 64")
    zeta = 1.0 - 1.0 / np.sqrt(m)
    c = 3.0 * gamma_bar / (2.0 * (m - 1))
    mu = np.sqrt(c / (1.0 + c))
    return 2.0 * zeta * (1.0 - mu) - zeta**2 * (1.0 - 4.0 / np.pi * mu * np.arctan2(1.0, mu))


def spectral_efficiency(quad_form, snr: float):
    """Achievable rate ``log2(1 + snr * h^H F F^H h)`` in bits/s/Hz,
    elementwise over the quadratic forms ``quad_form``."""
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    return np.log2(1.0 + snr * quad_form)


def beamspace_pattern(
    f: np.ndarray, theta_grid: np.ndarray, cfg: SteeringConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Gains ``|a(theta)^H f_k|^2`` of each beamformer column over the grid.

    Returns ``(gains, spread_rad)``: the gains, shape ``(n_theta,
    n_columns)``, and each column's -3 dB angular spread, the measure of
    the grid where the gain stays above ``peak * 10**-0.3``.
    """
    f = np.asarray(f)
    theta = np.asarray(theta_grid, dtype=np.float64)
    steer = steering_vector(theta, f.shape[0], cfg)
    response = steer.conj() @ f
    gains = np.abs(response) ** 2
    widths = np.gradient(theta) if theta.size > 1 else np.array([0.0])
    spread = np.zeros(f.shape[1])
    for k in range(f.shape[1]):
        peak = gains[:, k].max()
        if peak > 0:
            spread[k] = float(widths[gains[:, k] >= peak * 10**-0.3].sum())
    return gains, spread


def _distance_classes(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classes of the ``M^2`` ordered symbol pairs by squared distance.

    Returns ascending squared distances ``d_u`` with the pair count
    ``C_u`` and summed label Hamming weight ``W_u`` of each class;
    ``d_0 = 0`` holds the M pairs of a symbol with itself, so ``d_1`` is
    the squared minimum distance. Every coordinate of a supported
    constellation is an odd multiple of its smallest ``|real part|``
    ``u``, so the pairs are grouped exactly, by the integer squared
    distance of their coordinates in units of ``u``.
    """
    unit = np.abs(points.real).min()
    lattice = np.rint(points / unit)
    diff = lattice[:, None] - lattice[None, :]
    lattice_sq = (diff.real**2 + diff.imag**2).astype(np.int64).ravel()
    idx = np.arange(len(points))
    hamming = stbc.hamming_distance(idx[:, None], idx[None, :]).ravel()
    d, group = np.unique(lattice_sq, return_inverse=True)
    return d * unit**2, np.bincount(group), np.bincount(group, weights=hamming)


def min_euclidean_distance(h_eq: np.ndarray, points: np.ndarray) -> float:
    """Smallest received-space distance ``min ||h_eq^H (S_k - S_l)||_F``
    over pairs of distinct Alamouti codewords.

    Every codeword difference satisfies ``E E^H = (|d1|^2 + |d2|^2) I``
    (see :func:`union_bound_ber`), so the minimum is reached where one
    symbol differs by the constellation's minimum distance:
    ``||h_eq|| * d_min``.
    """
    d, _, _ = _distance_classes(points)
    return float(np.linalg.norm(h_eq) * np.sqrt(d[1]))


def pairwise_q_term(h_eq: np.ndarray, err: np.ndarray, gamma0: float, kappa: float) -> float:
    """Exact pairwise term ``Q(Xi * sqrt(gamma0 kappa / 2))`` with
    ``Xi = ||h_eq^H E||_F`` for the 2x2 codeword difference ``E``."""
    xi_val = float(np.linalg.norm(h_eq.conj() @ err))
    return float(q_function(xi_val * np.sqrt(gamma0 * kappa / 2.0)))


def chernoff_pep(h_eq: np.ndarray, err: np.ndarray, gamma0: float, kappa: float) -> float:
    """Chernoff relaxation ``exp(-gamma0 kappa Xi^2 / 4)`` of the pairwise term."""
    if gamma0 < 0:
        raise ValueError("gamma0 must be nonnegative")
    xi_sq = float(np.linalg.norm(h_eq.conj() @ err) ** 2)
    return float(np.exp(-gamma0 * kappa * xi_sq / 4.0))


def union_bound_ber(h_eq: np.ndarray, points: np.ndarray, gamma0: float, kappa: float) -> float:
    """Pairwise union bound on the conditional bit error rate.

    Sums ``e(S_k, S_l) / log2(M) * Q(Xi_{k,l} sqrt(gamma0 kappa / 2))``
    over ordered pairs of Alamouti codewords, with ``e`` the Hamming
    distance between the Gray labels of the pair's symbols. A codeword difference
    built from per-symbol differences d1, d2 satisfies
    ``E E^H = (|d1|^2 + |d2|^2) I``, so
    ``Xi^2 = ||h_eq||^2 (|d1|^2 + |d2|^2)`` and the Hamming distances
    add the same way. Grouping the ``M^2`` symbol pairs by squared
    distance ``d_u``, with pair count ``C_u`` and summed Hamming weight
    ``W_u``, gives the exact sum

        sum_{u,v} (W_u C_v + C_u W_v) Q(c sqrt(d_u + d_v)) / log2(M)
      = 2 sum_{u,v} W_u C_v Q(c sqrt(d_u + d_v)) / log2(M)

    with ``c = ||h_eq|| sqrt(gamma0 kappa / 2)``, the second line by the
    symmetry of the Q matrix in (u, v). The k = l term vanishes because
    its Hamming weight is zero.
    """
    if gamma0 < 0:
        raise ValueError("gamma0 must be nonnegative")
    d, count, weight = _distance_classes(points)
    scale = np.sqrt(float(np.vdot(h_eq, h_eq).real) * gamma0 * kappa / 2.0)
    q_uv = q_function(scale * np.sqrt(d[:, None] + d[None, :]))
    return float(2.0 * (weight @ q_uv @ count) / stbc.bits_per_symbol(points))


def wilson_interval(errors: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% by default)."""
    if n <= 0:
        raise ValueError("n must be positive")
    p_hat = errors / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2 * n)) / denom
    half = z * np.sqrt(p_hat * (1 - p_hat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if errors == 0 else max(0.0, float(center - half))
    hi = 1.0 if errors == n else min(1.0, float(center + half))
    return lo, hi

"""Closed-form and semi-analytic link performance metrics.

Covers the achievable-rate expression of the beamformed single-user
link, beamspace gain patterns, codeword-distance statistics, the
pairwise union bound with its Chernoff relaxation, and the averaged
error probabilities of BPSK/MPSK/MQAM over a Rayleigh-distributed SNR,
obtained through the moment-generating-function representation of the
Gaussian Q-function:

    E[Q(a sqrt(gamma))] = (1/pi) * int_0^{pi/2} 1 / (1 + a^2 gbar / (2 sin^2 t)) dt

for exponentially distributed gamma with mean gbar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .beamformer import BeamformingMatrix, equivalent_channel
from .channel import SteeringConfig, steering_vector
from .stbc import Constellation, ErrorMatrix, alamouti_codebook

QUAD_ABS_TOL = 1e-9
_QUAD_LIMIT = 200

MPSK_FORM_QUADRATURE = "quadrature"
MPSK_FORM_PRINTED = "printed"


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature fails to reach its tolerance."""


def q_function(x):
    """Gaussian tail probability ``Q(x)`` via the complementary error function."""
    return 0.5 * special.erfc(np.asarray(x, dtype=np.float64) / np.sqrt(2.0))


def q_function_integral(x: float) -> float:
    """``Q(x)`` through its finite-integral form, for cross-validation.

    Q(x) = (1/pi) * int_0^{pi/2} exp(-x^2 / (2 sin^2 t)) dt for x >= 0;
    negative arguments use Q(x) = 1 - Q(-x).
    """
    if not np.isfinite(x):
        raise ValueError("x must be finite")
    if x < 0:
        return 1.0 - q_function_integral(-x)
    value = _quad(lambda t: np.exp(-x * x / (2.0 * np.sin(t) ** 2)), 0.0, np.pi / 2)
    return value / np.pi


def _quad(fn, a: float, b: float) -> float:
    result = integrate.quad(
        fn, a, b, epsabs=QUAD_ABS_TOL * 1e-2, epsrel=1e-12, limit=_QUAD_LIMIT, full_output=1
    )
    if len(result) > 3:
        raise QuadratureError(f"quadrature did not converge: {result[3]}")
    value, abserr = result[0], result[1]
    if abserr > QUAD_ABS_TOL:
        raise QuadratureError(f"quadrature error {abserr} above tolerance")
    return value


def rayleigh_qfunc_average(a: float, gamma_bar: float) -> float:
    """``E[Q(a sqrt(gamma))]`` for gamma ~ Exp(mean gamma_bar), by quadrature."""
    if gamma_bar < 0:
        raise ValueError("gamma_bar must be nonnegative")
    c = a * a * gamma_bar / 2.0
    value = _quad(lambda t: np.sin(t) ** 2 / (np.sin(t) ** 2 + c), 0.0, np.pi / 2)
    return value / np.pi


def mgf_ber_bpsk(gamma_bar: float) -> float:
    """Average BPSK error probability over Rayleigh fading.

    Closed form of the MGF integral with a = 1:
    ``1/2 - 1/2 sqrt(gbar / (2 + gbar))``.
    """
    if gamma_bar < 0:
        raise ValueError("gamma_bar must be nonnegative")
    return 0.5 - 0.5 * np.sqrt(gamma_bar / (2.0 + gamma_bar))


def mgf_ber_mpsk(gamma_bar: float, m: int, form: str = MPSK_FORM_QUADRATURE) -> float:
    """Average MPSK error probability over Rayleigh fading.

    The default ``quadrature`` form is the closed form of the MGF
    integral with ``a^2 = 2 sin^2(pi/M)``:

        (1 - sqrt(mu)) / 2,   mu = gbar sin^2(pi/M) / (1 + gbar sin^2(pi/M))

    and agrees with :func:`rayleigh_qfunc_average` to quadrature accuracy
    for every M. The ``printed`` form keeps an alternative arctangent
    weighting, ``(M-1)/M - sqrt(mu)/2 + ((M-1) sqrt(mu)/M) atan(sqrt(mu)
    cot(pi/M))``; the two coincide only for M = 2, and the printed form
    does not decay at high SNR for M > 2, so it is retained for
    comparison rather than as a default.
    """
    if gamma_bar < 0:
        raise ValueError("gamma_bar must be nonnegative")
    if m < 2 or (m & (m - 1)) != 0:
        raise ValueError("M must be a power of two, at least 2")
    g = np.sin(np.pi / m) ** 2
    mu = gamma_bar * g / (1.0 + gamma_bar * g)
    if form == MPSK_FORM_QUADRATURE:
        return 0.5 * (1.0 - np.sqrt(mu))
    if form == MPSK_FORM_PRINTED:
        root = np.sqrt(mu)
        cot = 1.0 / np.tan(np.pi / m) if m > 2 else 0.0
        return (m - 1) / m - root / 2.0 + (m - 1) * root / m * np.arctan(root * cot)
    raise ValueError(f"unknown MPSK form {form!r}")


def mgf_ber_mqam(gamma_bar: float, m: int) -> float:
    """Average square-QAM error probability over Rayleigh fading.

    Evaluates the two-integral MGF representation

        (4 zeta / pi) int_0^{pi/2} (1 + c/sin^2 t)^(-1) dt
      - (4 zeta^2 / pi) int_0^{pi/4} (1 + c/sin^2 t)^(-1) dt

    with ``zeta = 1 - 1/sqrt(M)`` and ``c = 3 gbar / (2 (M - 1))`` by
    adaptive quadrature. At gbar = 0 this equals ``2 zeta - zeta^2``.
    """
    if gamma_bar < 0:
        raise ValueError("gamma_bar must be nonnegative")
    if m not in (4, 16, 64):
        raise ValueError("M must be one of 4, 16, 64")
    zeta = 1.0 - 1.0 / np.sqrt(m)
    c = 3.0 * gamma_bar / (2.0 * (m - 1))
    integrand = lambda t: np.sin(t) ** 2 / (np.sin(t) ** 2 + c)
    i1 = _quad(integrand, 0.0, np.pi / 2)
    i2 = _quad(integrand, 0.0, np.pi / 4)
    return 4.0 * zeta / np.pi * i1 - 4.0 * zeta**2 / np.pi * i2


def spectral_efficiency(
    h: np.ndarray,
    bf: BeamformingMatrix | np.ndarray,
    power: float,
    sigma2: float = 1.0,
) -> float:
    """Achievable rate ``log2(1 + (P / sigma^2) * h^H F F^H h)`` in bits/s/Hz."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    h_eq = equivalent_channel(bf, h)
    quad_form = float(np.vdot(h_eq, h_eq).real)
    if quad_form < -1e-10:
        raise ValueError("beamforming quadratic form is negative")
    return float(np.log2(1.0 + power / sigma2 * max(quad_form, 0.0)))


@dataclass(frozen=True, eq=False)
class BeamspacePattern:
    """Per-column array gains over a departure-angle grid."""

    theta: np.ndarray
    gains: np.ndarray  # shape (n_theta, n_columns)
    spread_rad: np.ndarray  # angular support above -3 dB of each column's peak


def beamspace_pattern(
    bf: BeamformingMatrix | np.ndarray,
    theta_grid: np.ndarray,
    cfg: SteeringConfig | None = None,
) -> BeamspacePattern:
    """Gains ``|a(theta)^H f_k|^2`` of each beamformer column.

    Also reports each column's -3 dB angular spread, the measure of the
    grid where the gain stays above ``peak * 10**-0.3``.
    """
    mat = bf.matrix if isinstance(bf, BeamformingMatrix) else np.asarray(bf)
    theta = np.asarray(theta_grid, dtype=np.float64)
    steer = steering_vector(theta, mat.shape[0], cfg)
    response = steer.conj() @ mat
    gains = np.abs(response) ** 2
    widths = np.gradient(theta) if theta.size > 1 else np.array([0.0])
    spread = np.zeros(mat.shape[1])
    for k in range(mat.shape[1]):
        peak = gains[:, k].max()
        if peak > 0:
            spread[k] = float(widths[gains[:, k] >= peak * 10**-0.3].sum())
    return BeamspacePattern(theta=theta, gains=gains, spread_rad=spread)


def min_euclidean_distance(
    h: np.ndarray,
    bf: BeamformingMatrix | np.ndarray,
    codewords: np.ndarray,
) -> tuple[float, tuple[int, int]]:
    """Smallest received-space codeword distance and its achieving pair.

    Returns ``min_{k != l} ||h^H F (S_k - S_l)||_F`` with the (k, l)
    index pair, k < l.
    """
    codewords = np.asarray(codewords)
    if codewords.shape[0] < 2:
        raise ValueError("at least two codewords are required")
    h_eq = equivalent_channel(bf, h)
    projected = np.einsum("c,kct->kt", h_eq.conj(), codewords)
    best = np.inf
    best_pair = (0, 1)
    for k in range(projected.shape[0] - 1):
        dists = np.linalg.norm(projected[k + 1 :] - projected[k], axis=1)
        l_rel = int(np.argmin(dists))
        if dists[l_rel] < best:
            best = float(dists[l_rel])
            best_pair = (k, k + 1 + l_rel)
    return best, best_pair


def pairwise_q_term(
    h_eq: np.ndarray, err: ErrorMatrix | np.ndarray, gamma0: float, kappa: float
) -> float:
    """Exact pairwise term ``Q(Xi * sqrt(gamma0 kappa / 2))`` with
    ``Xi = ||h_eq^H E||_F``."""
    e = err.matrix if isinstance(err, ErrorMatrix) else np.asarray(err)
    xi_val = float(np.linalg.norm(h_eq.conj() @ e))
    return float(q_function(xi_val * np.sqrt(gamma0 * kappa / 2.0)))


def chernoff_pep(
    h_eq: np.ndarray, err: ErrorMatrix | np.ndarray, gamma0: float, kappa: float
) -> float:
    """Chernoff relaxation ``exp(-gamma0 kappa Xi^2 / 4)`` of the pairwise term."""
    if gamma0 < 0:
        raise ValueError("gamma0 must be nonnegative")
    e = err.matrix if isinstance(err, ErrorMatrix) else np.asarray(err)
    xi_sq = float(np.linalg.norm(h_eq.conj() @ e) ** 2)
    return float(np.exp(-gamma0 * kappa * xi_sq / 4.0))


@dataclass(frozen=True)
class UnionBoundResult:
    value: float
    pairs_used: int
    pairs_total: int


FULL_ENUMERATION_MAX_ORDER = 16


def union_bound_ber(
    h_eq: np.ndarray,
    constellation: Constellation,
    gamma0: float,
    kappa: float,
    pair_budget: int | None = None,
    rng: np.random.Generator | None = None,
) -> UnionBoundResult:
    """Pairwise union bound on the conditional bit error rate.

    Sums ``e(S_k, S_l) / log2(M) * Q(Xi_{k,l} sqrt(gamma0 kappa / 2))``
    over ordered codeword pairs, with ``e`` the Hamming distance between
    the pair's source-bit labels. All pairs are enumerated up to M = 16;
    for larger constellations a uniformly subsampled pair set with a
    population-size correction is used and the budget is reported.
    """
    if gamma0 < 0:
        raise ValueError("gamma0 must be nonnegative")
    codewords, bits = alamouti_codebook(constellation)
    n_cw = codewords.shape[0]
    pairs_total = n_cw * (n_cw - 1)
    projected = np.einsum("c,kct->kt", np.asarray(h_eq).conj(), codewords)
    bits_per_symbol = constellation.bits_per_symbol
    snr_scale = np.sqrt(gamma0 * kappa / 2.0)
    if constellation.order <= FULL_ENUMERATION_MAX_ORDER and pair_budget is None:
        xi_mat = np.linalg.norm(
            projected[:, None, :] - projected[None, :, :], axis=2
        )
        hamming = np.count_nonzero(bits[:, None, :] != bits[None, :, :], axis=2)
        terms = hamming / bits_per_symbol * q_function(xi_mat * snr_scale)
        np.fill_diagonal(terms, 0.0)
        return UnionBoundResult(
            value=float(terms.sum()), pairs_used=pairs_total, pairs_total=pairs_total
        )
    if pair_budget is None:
        pair_budget = 200_000
    if rng is None:
        raise ValueError("subsampled evaluation requires an rng")
    ks = rng.integers(0, n_cw, pair_budget)
    ls = rng.integers(0, n_cw - 1, pair_budget)
    ls = np.where(ls >= ks, ls + 1, ls)  # uniform over l != k
    xi_vals = np.linalg.norm(projected[ks] - projected[ls], axis=1)
    hamming = np.count_nonzero(bits[ks] != bits[ls], axis=1)
    terms = hamming / bits_per_symbol * q_function(xi_vals * snr_scale)
    value = float(terms.mean()) * pairs_total
    return UnionBoundResult(value=value, pairs_used=int(pair_budget), pairs_total=pairs_total)


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

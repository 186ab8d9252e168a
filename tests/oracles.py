"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive (loops, joint enumeration,
fixed-grid quadrature) and shares no code with the package paths it
checks.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.stats import norm


def dense_matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Triple-checked naive matrix-vector product of a^H x."""
    rows, cols = a.shape
    out = np.zeros(cols, dtype=np.complex128)
    for k in range(cols):
        acc = 0.0 + 0.0j
        for m in range(rows):
            acc += np.conj(a[m, k]) * x[m]
        out[k] = acc
    return out


def dense_gram(a: np.ndarray) -> np.ndarray:
    """Naive a^H a."""
    rows, cols = a.shape
    out = np.zeros((cols, cols), dtype=np.complex128)
    for i in range(cols):
        for j in range(cols):
            acc = 0.0 + 0.0j
            for m in range(rows):
                acc += np.conj(a[m, i]) * a[m, j]
            out[i, j] = acc
    return out


def joint_bruteforce_gain(h: np.ndarray, angles: np.ndarray) -> float:
    """Global optimum of |sum conj(h_v) e^{j phi_v}| over all grid assignments."""
    best = -1.0
    hc = np.conj(h)
    for combo in itertools.product(angles, repeat=h.size):
        val = abs(sum(hc[v] * np.exp(1j * combo[v]) for v in range(h.size)))
        best = max(best, val)
    return best


def blockwise_bruteforce_gain(h: np.ndarray, grid1: np.ndarray, grid2: np.ndarray) -> float:
    """Global optimum of the blockwise assignment problem.

    Every split of the elements into two equal halves is enumerated; the
    first half draws angles from grid1 per slot, the second from grid2.
    """
    n = h.size
    half = n // 2
    hc = np.conj(h)
    best = -1.0
    for set1 in itertools.combinations(range(n), half):
        set2 = tuple(v for v in range(n) if v not in set1)
        for a1 in itertools.product(grid1, repeat=half):
            part1 = sum(hc[v] * np.exp(1j * a) for v, a in zip(set1, a1))
            for a2 in itertools.product(grid2, repeat=half):
                part2 = sum(hc[v] * np.exp(1j * a) for v, a in zip(set2, a2))
                best = max(best, abs(part1 + part2))
    return best


def random_blockwise_gain(
    h: np.ndarray, grid1: np.ndarray, grid2: np.ndarray, rng: np.random.Generator
) -> float:
    """Gain of one uniformly random feasible blockwise assignment."""
    n = h.size
    half = n // 2
    perm = rng.permutation(n)
    phases = np.zeros(n)
    phases[perm[:half]] = grid1[rng.integers(0, grid1.size, half)]
    phases[perm[half:]] = grid2[rng.integers(0, grid2.size, half)]
    return float(abs(np.sum(np.conj(h) * np.exp(1j * phases))))


def greedy_blockwise_reference(
    h: np.ndarray, grid1: np.ndarray, grid2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Scalar per-candidate greedy blockwise selection.

    Block 1's slots are filled first, then block 2's, each from the
    elements not yet placed and that block's grid angles. A slot takes
    the candidate (element, angle) with the largest aligned-sum
    magnitude ``|acc + conj(h_v) exp(j angle)|``. Candidates are scanned
    by ascending element index, then ascending grid index, and only a
    strictly larger score replaces the best so far, so ties go to the
    lowest element index, then the lowest grid index.

    The first slot of every run is an exact tie in exact arithmetic
    (all angles give ``|h_v|``), so floating-point rounding decides it.
    Each element's scores are therefore computed as one array over the
    grid, as numpy's array loops round differently from its scalar
    arithmetic.

    Returns (phi1, phi2, slots1, slots2, gain).
    """
    hc = np.conj(h)
    remaining = list(range(h.size))
    acc = 0.0 + 0.0j
    slots: list[list[int]] = [[], []]
    phis: list[list[float]] = [[], []]
    for block, angles in enumerate((grid1, grid2)):
        rotations = np.exp(1j * angles)
        for _ in range(h.size // 2):
            best_score = -1.0
            best_pos = best_angle_idx = 0
            for pos, elem in enumerate(remaining):
                scores = np.abs(acc + hc[elem] * rotations)
                for bi in range(angles.size):
                    if scores[bi] > best_score:
                        best_score = float(scores[bi])
                        best_pos = pos
                        best_angle_idx = bi
            elem = remaining.pop(best_pos)
            slots[block].append(elem)
            phis[block].append(float(angles[best_angle_idx]))
            acc = acc + hc[elem] * rotations[best_angle_idx]
    return (
        np.array(phis[0]),
        np.array(phis[1]),
        np.array(slots[0]),
        np.array(slots[1]),
        float(abs(acc)),
    )


def ml_decode_index(
    y: np.ndarray, h_eq: np.ndarray, codewords: np.ndarray, amplitude: float
) -> int:
    """Exhaustive maximum-likelihood codeword index."""
    best_idx = -1
    best_metric = np.inf
    for idx in range(codewords.shape[0]):
        predicted = amplitude * (np.conj(h_eq) @ codewords[idx])
        metric = float(np.sum(np.abs(y - predicted) ** 2))
        if metric < best_metric:
            best_metric = metric
            best_idx = idx
    return best_idx


def union_bound_enum(
    h_eq: np.ndarray,
    codewords: np.ndarray,
    bits: np.ndarray,
    gamma0: float,
    kappa: float,
) -> float:
    """Direct ordered-pair enumeration of the union bound."""
    total = 0.0
    n = codewords.shape[0]
    bits_per_symbol = bits.shape[1] // 2
    for k in range(n):
        for l in range(n):
            if k == l:
                continue
            err = codewords[k] - codewords[l]
            xi = np.sqrt(
                sum(
                    abs(sum(np.conj(h_eq[c]) * err[c, t] for c in range(2))) ** 2
                    for t in range(2)
                )
            )
            hamming = int(np.sum(bits[k] != bits[l]))
            total += hamming / bits_per_symbol * norm.sf(xi * np.sqrt(gamma0 * kappa / 2.0))
    return total


def gauss_legendre(fn, a: float, b: float, n_nodes: int = 240) -> float:
    """Fixed-grid Gauss-Legendre quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    x = 0.5 * (b - a) * nodes + 0.5 * (b + a)
    return float(0.5 * (b - a) * np.sum(weights * fn(x)))


def expected_q_over_rayleigh(a: float, gamma_bar: float) -> float:
    """E[Q(a sqrt(gamma))], gamma ~ Exp(gamma_bar), by direct integration.

    Substituting u = exp(-gamma / gamma_bar) turns the expectation into
    int_0^1 Q(a sqrt(-gamma_bar ln u)) du, evaluated on a fixed grid.
    This route never touches the MGF identity the package uses.
    """
    if gamma_bar == 0:
        return 0.5

    def integrand(u: np.ndarray) -> np.ndarray:
        gamma = -gamma_bar * np.log(np.clip(u, 1e-300, 1.0))
        return norm.sf(a * np.sqrt(gamma))

    return gauss_legendre(integrand, 0.0, 1.0, 400)


def mqam_mgf_reference(gamma_bar: float, m: int) -> float:
    """Two-integral MGF representation of square-QAM error probability,
    on fixed Gauss-Legendre grids (independent of adaptive quadrature)."""
    zeta = 1.0 - 1.0 / np.sqrt(m)
    c = 3.0 * gamma_bar / (2.0 * (m - 1))
    integrand = lambda t: np.sin(t) ** 2 / (np.sin(t) ** 2 + c)
    i1 = gauss_legendre(integrand, 0.0, np.pi / 2, 400)
    i2 = gauss_legendre(integrand, 0.0, np.pi / 4, 400)
    return 4.0 * zeta / np.pi * i1 - 4.0 * zeta**2 / np.pi * i2


def mpsk_mgf_reference(gamma_bar: float, m: int) -> float:
    """Single-integral MGF form with a^2 = 2 sin^2(pi/M), fixed grid."""
    c = gamma_bar * np.sin(np.pi / m) ** 2
    integrand = lambda t: np.sin(t) ** 2 / (np.sin(t) ** 2 + c)
    return gauss_legendre(integrand, 0.0, np.pi / 2, 400) / np.pi

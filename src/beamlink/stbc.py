"""Gray-mapped QAM constellations and the 2x2 orthogonal space-time code.

The codeword built from two constellation symbols is

    S = [[s1, -conj(s2)],
         [s2,  conj(s1)]]

which satisfies ``S S^H = (|s1|^2 + |s2|^2) I`` and therefore admits
symbol-separable maximum-likelihood decoding after linear combining.
Transmission through the beamformed array multiplies ``S`` by the tall
beamformer ``F`` and the channel row ``h^H``; the receiver only ever
sees the two-dimensional equivalent channel ``F^H h``.

A constellation is the array of its points, and a symbol is the label
index of its point, whose binary expansion is its Gray bit label; bit
errors are the popcounts of XORed indices. The link runs at unit noise
variance, so its amplitude (:func:`link_amplitude`) alone sets the SNR,
and combining gives the sent symbols plus the combined noise over the
amplitude (:func:`alamouti_noise`), so one noise draw serves every
amplitude. Packing, the combined noise and slicing accept leading batch
axes, so one call runs a block of codewords and a single codeword is a
batch of one.
"""

from __future__ import annotations

import numpy as np

NORM_EQ1 = "eq1"
NORM_EQ10 = "eq10"
NORM_MODES = (NORM_EQ1, NORM_EQ10)

SUPPORTED_ORDERS = (2, 4, 16, 64)


def _gray_codes(n_levels: int) -> np.ndarray:
    """Reflected Gray code of each PAM level ``0 .. n_levels - 1``."""
    levels = np.arange(n_levels)
    return levels ^ (levels >> 1)


def _qam_axes(order: int) -> tuple[int, int, float]:
    """Bits per axis, PAM levels per axis and the unit-energy scale of square QAM."""
    k_axis = int(np.log2(order)) // 2
    return k_axis, 1 << k_axis, float(np.sqrt(2.0 * (order - 1) / 3.0))


def make_constellation(order: int) -> np.ndarray:
    """The ``(order,)`` unit-average-energy points of BPSK (order 2) or Gray square QAM.

    Point ``i`` carries label index ``i``: its Gray bit label is the
    ``bits_per_symbol``-bit big-endian binary expansion of ``i``. For QAM
    the label splits into an in-phase half followed by a quadrature
    half; each half is a reflected Gray code over the PAM levels, so
    nearest neighbours along either axis differ in one bit.
    """
    if order not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported constellation order {order}")
    if order == 2:
        return np.array([1.0 + 0.0j, -1.0 + 0.0j])
    k_axis, n_levels, scale = _qam_axes(order)
    level = np.argsort(_gray_codes(n_levels))  # the PAM level of each Gray code
    idx = np.arange(order)
    level_i, level_q = level[idx >> k_axis], level[idx & (n_levels - 1)]
    amp = 2.0 * level_i - (n_levels - 1) + 1j * (2.0 * level_q - (n_levels - 1))
    return amp / scale


def bits_per_symbol(points: np.ndarray) -> int:
    """Label length ``log2(M)`` of the M-point constellation ``points``."""
    return len(points).bit_length() - 1


def label_index(bits: np.ndarray) -> np.ndarray:
    """Label indices of the big-endian bit groups in the last axis of ``bits``."""
    bits = np.asarray(bits, dtype=np.uint8)
    return bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1))


# set bits of every label index of the largest constellation
_POPCOUNT = np.array([bin(i).count("1") for i in range(max(SUPPORTED_ORDERS))], dtype=np.uint8)


def hamming_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Number of bits in which the labels of indices ``a`` and ``b`` differ, elementwise."""
    return _POPCOUNT[np.bitwise_xor(a, b)]


def demap(symbol: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Label index of the constellation point nearest to each symbol.

    Square Gray QAM separates into two PAM decisions, so each axis is
    sliced on its own: with ``scale = sqrt(2 (M - 1) / 3)`` and
    ``L = sqrt(M)`` levels per axis, ``u = (x * scale + L - 1) / 2`` is
    rounded to the nearest level and clipped to ``[0, L - 1]``, the level
    is Gray-coded, and the index is ``gray_I << k_axis | gray_Q``. BPSK
    is a sign test on the real part. No search over the M points is made.

    Ties: where the computed ``u`` is exactly a decision boundary
    ``l + 1/2`` (``x * scale`` on an even integer, up to the rounding of
    the sum), the axis
    takes the smaller of the two Gray codes (BPSK: at real part 0, the
    point +1). As the index is I-major, that is the lowest constellation
    index among the equidistant points, the first-minimum rule of an
    exhaustive nearest-point search.

    The slicer reads only ``len(points)``, so any ``points`` other than
    ``make_constellation(len(points))`` raises a ValueError.
    """
    order = len(points)
    if order not in SUPPORTED_ORDERS or not np.array_equal(points, make_constellation(order)):
        raise ValueError(
            f"points must be make_constellation(M) for M in {SUPPORTED_ORDERS}, "
            f"got another array of {order} points"
        )
    symbol = np.asarray(symbol)
    if order == 2:
        return (symbol.real < 0).astype(np.intp)
    k_axis, n_levels, scale = _qam_axes(order)
    gray_i = _slice_axis(symbol.real, n_levels, scale)
    gray_q = _slice_axis(symbol.imag, n_levels, scale)
    return gray_i << k_axis | gray_q


def _slice_axis(x: np.ndarray, n_levels: int, scale: float) -> np.ndarray:
    """Gray code of the PAM level nearest to ``x``; a tie takes the smaller code."""
    u = np.clip((x * scale + (n_levels - 1)) / 2.0, 0.0, n_levels - 1.0)
    # ceil(u - 1/2) and floor(u + 1/2) are the nearest level, and they
    # differ only at a boundary u = l + 1/2. Both sums are exact for
    # u >= 1/2; just below 1/2, u + 1/2 may round up to 1, where the
    # other candidate, gray[0] = 0, still wins.
    below = np.ceil(u - 0.5).astype(np.intp)
    above = np.floor(u + 0.5).astype(np.intp)
    gray = _gray_codes(n_levels)
    return np.minimum(gray[below], gray[above])


def link_amplitude(
    gamma0: float, kappa: float, mode: str, include_array_gain: bool, n_antennas: int, n_paths: int
) -> float:
    """Scale multiplying ``h_eq^H S`` in the received block.

    Under ``eq1`` the codeword is F S and the link applies the
    received-signal prefactor sqrt(P N_t / L) (or sqrt(P) when the array
    gain factor is disabled); under ``eq10`` the explicit sqrt(gamma0 *
    kappa) codeword scaling is the only amplitude, so the bound formulas
    describe the link exactly.
    """
    if mode not in NORM_MODES:
        raise ValueError(f"mode must be one of {NORM_MODES}, got {mode!r}")
    if mode == NORM_EQ10:
        return float(np.sqrt(gamma0 * kappa))
    if include_array_gain:
        return float(np.sqrt(gamma0 * n_antennas / n_paths))
    return float(np.sqrt(gamma0))


def alamouti_noise(
    h_eq: np.ndarray, noise: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The combined noise ``w`` of each symbol of a block of codewords,
    and its reach.

    ``h_eq = (g1, g2)`` and the unit noise ``n = (n1, n2)`` of each
    codeword's two received slots have the same shape ``(..., 2)``, and
    so have both results. The codeword arrives as ``y = A h_eq^H S + n``
    at link amplitude A, and combining,
    ``(g1 y1 + conj(g2) conj(y2), g2 y1 - conj(g1) conj(y2)) / (A ||h_eq||^2)``,
    gives ``s + w / A`` by the codeword's orthogonality, with
    ``w = (g1 n1 + conj(g2) conj(n2), g2 n1 - conj(g1) conj(n2)) / ||h_eq||^2``.
    Its nearest-point decisions are joint maximum likelihood.

    The reach ``max(|Re w|, |Im w|) * scale`` (``scale = sqrt(2 (M - 1) / 3)``
    for square QAM, 1 for BPSK) counts half spacings of ``points``: a
    symbol whose reach is below A stays strictly inside its own decision
    cell. A zero equivalent channel has no combiner: its ``w`` is 0, its
    reach infinite, and by convention it decodes to label index 0.
    """
    g1, g2 = h_eq[..., 0], h_eq[..., 1]
    n1, n2 = noise[..., 0], noise[..., 1].conj()
    w = np.empty(noise.shape, dtype=np.complex128)
    w[..., 0] = g1 * n1 + g2.conj() * n2
    w[..., 1] = g2 * n1 - g1.conj() * n2
    gain = np.abs(g1) ** 2 + np.abs(g2) ** 2
    zero = gain == 0.0
    # the contiguous float parts (Re w1, Im w1, Re w2, Im w2) of each
    # codeword, scaled by a real factor without a strided pass over w.real
    parts = w.view(np.float64)
    parts *= (1.0 / np.where(zero, 1.0, gain))[..., None]
    scale = 1.0 if len(points) == 2 else _qam_axes(len(points))[2]
    parts = np.abs(parts)
    reach = np.maximum(parts[..., 0::2], parts[..., 1::2]) * scale
    reach[zero] = np.inf
    return w, reach

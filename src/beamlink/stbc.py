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
errors are the popcounts of XORed indices. The slicer and the label
length take the constellation's order, and the slicer reads nothing
else. The link runs at unit noise variance, so its amplitude
(:func:`link_amplitude`) alone sets the SNR. Alamouti combining over
the equivalent channel ``h_eq`` gives each sent symbol plus
``z / (A ||h_eq||)``, where ``z`` is unit complex Gaussian noise
whatever ``h_eq`` is, so one noise draw serves every channel and every
amplitude; :func:`noise_reach` says how far that noise carries a
symbol. The reach and slicing accept leading batch axes, so one call
runs a block of codewords and a single codeword is a batch of one.
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


def bits_per_symbol(order: int) -> int:
    """Label length ``log2(M)`` of the constellation of order M."""
    return int(order).bit_length() - 1


# set bits of every label index of the largest constellation
_POPCOUNT = np.array([bin(i).count("1") for i in range(max(SUPPORTED_ORDERS))], dtype=np.uint8)


def hamming_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Number of bits in which the labels of indices ``a`` and ``b`` differ, elementwise."""
    return _POPCOUNT[np.bitwise_xor(a, b)]


def demap(symbol: np.ndarray, order: int) -> np.ndarray:
    """Label index of the nearest point of ``make_constellation(order)`` to each symbol.

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

    An order outside ``SUPPORTED_ORDERS`` raises a ValueError.
    """
    if order not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported constellation order {order}")
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


def link_amplitude(gamma0: float, kappa: float, mode: str, n_antennas: int, n_paths: int) -> float:
    """Scale multiplying ``h_eq^H S`` in the received block.

    Under ``eq1`` the codeword is F S and the link applies the
    received-signal prefactor sqrt(P N_t / L); under ``eq10`` the
    explicit sqrt(gamma0 * kappa) codeword scaling is the only amplitude,
    so the bound formulas describe the link exactly.
    """
    if mode not in NORM_MODES:
        raise ValueError(f"mode must be one of {NORM_MODES}, got {mode!r}")
    if mode == NORM_EQ10:
        return float(np.sqrt(gamma0 * kappa))
    return float(np.sqrt(gamma0 * n_antennas / n_paths))


def noise_reach(z: np.ndarray, order: int) -> np.ndarray:
    """How far the noise ``z`` carries a symbol of the order-M
    constellation along the axes its decision reads, in half spacings:
    ``max(|Re z|, |Im z|) * scale`` for square QAM
    (``scale = sqrt(2 (M - 1) / 3)``) and ``|Re z|`` for BPSK.

    A symbol received as ``s + z / a`` whose reach is below ``a`` stays
    strictly inside its own decision cell.
    """
    z = np.asarray(z)
    if order == 2:
        return np.abs(z.real)
    return np.maximum(np.abs(z.real), np.abs(z.imag)) * _qam_axes(order)[2]

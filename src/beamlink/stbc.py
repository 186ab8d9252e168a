"""Gray-mapped QAM constellations and the 2x2 orthogonal space-time code.

The codeword built from two constellation symbols is

    S = [[s1, -conj(s2)],
         [s2,  conj(s1)]]

which satisfies ``S S^H = (|s1|^2 + |s2|^2) I`` and therefore admits
symbol-separable maximum-likelihood decoding after linear combining.
Transmission through the beamformed array multiplies ``S`` by the tall
beamformer ``F`` and the channel row ``h^H``; the receiver only ever
sees the two-dimensional equivalent channel ``F^H h``.

Mapping, transmission and decoding accept leading batch axes, so one
call runs a block of codewords and a single codeword is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_EQ1 = "eq1"
NORM_EQ10 = "eq10"
NORM_MODES = (NORM_EQ1, NORM_EQ10)

SUPPORTED_ORDERS = (2, 4, 16, 64)


@dataclass(frozen=True, eq=False)
class Constellation:
    """Unit-average-energy constellation with Gray bit labels.

    ``points[i]`` is the symbol whose label is the ``bits_per_symbol``-bit
    big-endian binary expansion of ``i``; ``labels[i]`` spells that
    expansion out as a bit row.
    """

    order: int
    points: np.ndarray
    labels: np.ndarray

    @property
    def bits_per_symbol(self) -> int:
        return int(self.labels.shape[1])


def _gray_to_binary(g: np.ndarray) -> np.ndarray:
    b = g.copy()
    shift = 1
    while shift < 64:
        b ^= b >> shift
        shift *= 2
    return b


def _qam_axes(order: int) -> tuple[int, int, float]:
    """Bits per axis, PAM levels per axis and the unit-energy scale of square QAM."""
    k_axis = int(np.log2(order)) // 2
    return k_axis, 1 << k_axis, float(np.sqrt(2.0 * (order - 1) / 3.0))


def make_constellation(order: int) -> Constellation:
    """Build BPSK (order 2) or a Gray-coded square QAM constellation.

    For QAM the label splits into an in-phase half followed by a
    quadrature half; each half is a reflected Gray code over the PAM
    levels, so nearest neighbours along either axis differ in one bit.
    """
    if order not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported constellation order {order}")
    if order == 2:
        points = np.array([1.0 + 0.0j, -1.0 + 0.0j])
        labels = np.array([[0], [1]], dtype=np.uint8)
        return Constellation(order=2, points=points, labels=labels)
    k = int(np.log2(order))
    k_axis, n_levels, scale = _qam_axes(order)
    labels = np.array(
        [[(i >> (k - 1 - b)) & 1 for b in range(k)] for i in range(order)],
        dtype=np.uint8,
    )
    idx = np.arange(order)
    gray_i = idx >> k_axis
    gray_q = idx & (n_levels - 1)
    level_i = _gray_to_binary(gray_i)
    level_q = _gray_to_binary(gray_q)
    amp = 2.0 * level_i - (n_levels - 1) + 1j * (2.0 * level_q - (n_levels - 1))
    return Constellation(order=order, points=amp / scale, labels=labels)


def map_bits(bits: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Map each label's worth of bits (the last axis) to its constellation point."""
    bits = np.asarray(bits, dtype=np.uint8)
    k = constellation.bits_per_symbol
    if bits.shape[-1:] != (k,):
        raise ValueError(f"expected {k} bits, got shape {bits.shape}")
    return constellation.points[bits @ (1 << np.arange(k - 1, -1, -1))]


def demap(symbol: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Bits of the constellation point nearest to each symbol, in a trailing axis.

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
    """
    symbol = np.asarray(symbol)
    if constellation.order == 2:
        idx = (symbol.real < 0).astype(np.intp)
    else:
        k_axis, n_levels, scale = _qam_axes(constellation.order)
        gray_i = _slice_axis(symbol.real, n_levels, scale)
        gray_q = _slice_axis(symbol.imag, n_levels, scale)
        idx = gray_i << k_axis | gray_q
    return np.take(constellation.labels, idx, axis=0)


def _slice_axis(x: np.ndarray, n_levels: int, scale: float) -> np.ndarray:
    """Gray code of the PAM level nearest to ``x``; a tie takes the smaller code."""
    u = np.clip((x * scale + (n_levels - 1)) / 2.0, 0.0, n_levels - 1.0)
    # ceil(u - 1/2) and floor(u + 1/2) are the nearest level, and they
    # differ only at a boundary u = l + 1/2. Both sums are exact for
    # u >= 1/2; just below 1/2, u + 1/2 may round up to 1, where the
    # other candidate, gray[0] = 0, still wins.
    below = np.ceil(u - 0.5).astype(np.intp)
    above = np.floor(u + 0.5).astype(np.intp)
    gray = np.arange(n_levels) ^ (np.arange(n_levels) >> 1)
    return np.minimum(gray[below], gray[above])


def alamouti_codeword(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Codewords ``[[s1, -conj(s2)], [s2, conj(s1)]]`` in the last two axes."""
    out = np.empty(np.broadcast_shapes(np.shape(s1), np.shape(s2)) + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = s1
    out[..., 0, 1] = -np.conj(s2)
    out[..., 1, 0] = s2
    out[..., 1, 1] = np.conj(s1)
    return out


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


def transmit_receive(
    x: np.ndarray,
    h: np.ndarray,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    sigma2: float = 1.0,
) -> np.ndarray:
    """Received rows ``y = amplitude * h^H X + z`` with z i.i.d. CN(0, sigma2).

    ``x`` has shape ``(..., n_rows, t)`` and ``h`` shape ``(..., n_rows)``.
    """
    h = np.asarray(h)
    x = np.asarray(x)
    if x.shape[-2] != h.shape[-1]:
        raise ValueError("channel length does not match codeword rows")
    hc = h.conj()
    received = hc[..., 0, None] * x[..., 0, :]
    for row in range(1, x.shape[-2]):
        received = received + hc[..., row, None] * x[..., row, :]
    noise = np.sqrt(sigma2 / 2.0) * (
        rng.standard_normal(received.shape) + 1j * rng.standard_normal(received.shape)
    )
    return amplitude * received + noise


def decode_alamouti(
    y: np.ndarray,
    h_eq: np.ndarray,
    constellation: Constellation,
    amplitude: float = 1.0,
) -> np.ndarray:
    """Combine and demap received blocks back to bits.

    ``y`` and ``h_eq`` have shape ``(..., 2)``; the result has shape
    ``(..., 2 * bits_per_symbol)``. Linear combining against the known
    equivalent channel recovers per-symbol statistics whose
    nearest-point decisions coincide with joint maximum likelihood,
    thanks to the codeword's orthogonality. A zero equivalent channel is
    degenerate; by convention the decoder then emits the first
    constellation label twice.
    """
    y = np.asarray(y)
    h_eq = np.asarray(h_eq)
    g1, g2 = h_eq[..., 0], h_eq[..., 1]
    y1, y2 = y[..., 0], y[..., 1]
    denom = amplitude * (np.abs(g1) ** 2 + np.abs(g2) ** 2)
    zero = denom == 0.0
    denom = np.where(zero, 1.0, denom)
    s1_hat = (g1 * y1 + np.conj(g2) * np.conj(y2)) / denom
    s2_hat = (g2 * y1 - np.conj(g1) * np.conj(y2)) / denom
    bits = np.concatenate(
        [demap(s1_hat, constellation), demap(s2_hat, constellation)], axis=-1
    )
    if zero.any():
        bits[zero] = np.tile(constellation.labels[0], 2)
    return bits


def alamouti_codebook(constellation: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """All ``M**2`` codewords with their source-bit labels.

    Codeword ``i1 * M + i2`` encodes symbol labels (i1, i2); the returned
    bit rows concatenate the two symbol labels.
    """
    i1, i2 = np.divmod(np.arange(constellation.order**2), constellation.order)
    codewords = alamouti_codeword(constellation.points[i1], constellation.points[i2])
    bits = np.concatenate([constellation.labels[i1], constellation.labels[i2]], axis=1)
    return codewords, bits

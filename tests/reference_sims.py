"""Reference link simulations that only the tests run.

The explicit Alamouti link lives here: the packing of source bits into
label indices, the codeword, the received rows ``A h^H S + n``, the
combine-and-demap decoder and the unit noise ``z = U (n1, conj(n2))``
that combining leaves of ``n``. The harness's link draws label indices
and ``z`` itself and reads only ``||h_eq||^2`` of a channel, and the
tests check it against this explicit path. The simulators check
the package's link against closed forms (criteria 5 and 6), so unlike
:mod:`oracles` they run the package's own kernels: stbc's slicer and
the harness's trial blocks and link. Their substream purpose tags, 4
and 5, are reserved in the harness.
"""

from __future__ import annotations

import numpy as np

from beamlink import analysis, channel, harness, stbc

_PURPOSE_BPSK_CHECK = 4
_PURPOSE_CONDITIONAL = 5


def label_index(bits: np.ndarray) -> np.ndarray:
    """Label indices of the big-endian bit groups in the last axis of ``bits``,
    as int64, packed by shifts and ORs."""
    bits = np.asarray(bits, dtype=np.uint8)
    index = np.zeros(bits.shape[:-1], dtype=np.int64)
    for j in range(bits.shape[-1]):
        index <<= 1
        index |= bits[..., j]
    # a single group gives a scalar
    return index[()]


def alamouti_codeword(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Codewords ``[[s1, -conj(s2)], [s2, conj(s1)]]`` in the last two axes."""
    out = np.empty(np.broadcast_shapes(np.shape(s1), np.shape(s2)) + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = s1
    out[..., 0, 1] = -np.conj(s2)
    out[..., 1, 0] = s2
    out[..., 1, 1] = np.conj(s1)
    return out


def received_parts(
    x: np.ndarray, h: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The noiseless rows ``h^H X`` and the noise ``z`` of the received
    rows ``y = amplitude * h^H X + z``.

    ``x`` has shape ``(..., n_rows, t)`` and ``h`` shape ``(..., n_rows)``.
    The noise is i.i.d. CN(0, 1), its real parts drawn from ``rng``
    before its imaginary parts, so one draw serves every amplitude; its
    scaling has the bits of :func:`beamlink.channel.complex_normal`.
    """
    h = np.asarray(h)
    x = np.asarray(x)
    if x.shape[-2] != h.shape[-1]:
        raise ValueError("channel length does not match codeword rows")
    hc = h.conj()
    clean = hc[..., 0, None] * x[..., 0, :]
    for row in range(1, x.shape[-2]):
        clean = clean + hc[..., row, None] * x[..., row, :]
    noise = (rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)) / np.sqrt(2.0)
    return clean, noise


def decode_alamouti(
    y: np.ndarray, h_eq: np.ndarray, points: np.ndarray, amplitude: float = 1.0
) -> np.ndarray:
    """Combine and demap received blocks back to the label indices of (s1, s2).

    ``y`` and ``h_eq`` have shape ``(..., 2)``, and so has the result.
    Linear combining against the known equivalent channel recovers
    per-symbol statistics whose nearest-point decisions coincide with
    joint maximum likelihood. A zero equivalent channel is degenerate;
    by convention the decoder then emits label index 0 twice.
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
    idx = np.stack([stbc.demap(s1_hat, len(points)), stbc.demap(s2_hat, len(points))], axis=-1)
    idx[zero] = 0
    return idx


def unit_noise(h_eq: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """``z = U (n1, conj(n2))`` per codeword, with
    ``U = [[g1, conj(g2)], [g2, -conj(g1)]] / ||h_eq||`` unitary.

    ``h_eq = (g1, g2)`` and the received noise ``(n1, n2)`` have shape
    ``(..., 2)``, and so has ``z``. Combining ``A h_eq^H S + n`` gives
    ``s + z / (A ||h_eq||)``. A zero channel has no combiner; its ``z``
    is ``(n1, conj(n2))``.
    """
    g1, g2 = h_eq[..., 0], h_eq[..., 1]
    norm = np.sqrt(np.abs(g1) ** 2 + np.abs(g2) ** 2)
    zero = norm == 0.0
    scale = np.where(zero, 1.0, norm)
    g1, g2 = np.where(zero, 1.0, g1) / scale, g2 / scale
    n1, n2 = noise[..., 0], np.conj(noise[..., 1])
    return np.stack([g1 * n1 + np.conj(g2) * n2, g2 * n1 - np.conj(g1) * n2], axis=-1)


def transmit_receive(
    x: np.ndarray,
    h: np.ndarray,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    sigma2: float = 1.0,
) -> np.ndarray:
    """Received rows ``y = amplitude * h^H X + z`` with z i.i.d. CN(0, sigma2).

    ``x`` has shape ``(..., n_rows, t)`` and ``h`` shape ``(..., n_rows)``;
    the two terms come from :func:`received_parts`.
    """
    clean, noise = received_parts(x, h, rng)
    return amplitude * clean + np.sqrt(sigma2) * noise


def alamouti_codebook(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All ``M**2`` codewords with their ``(M**2, 2)`` label index pairs.

    Codeword ``i1 * M + i2`` encodes the symbols of label indices (i1, i2).
    """
    i1, i2 = np.divmod(np.arange(len(points) ** 2), len(points))
    return alamouti_codeword(points[i1], points[i2]), np.stack([i1, i2], axis=1)


def simulate_bpsk_rayleigh_ber(
    gamma_bar_db: float, n_trials: int, seed: int = 0
) -> tuple[float, float, float, int]:
    """Monte-Carlo BPSK error rate over a scalar Rayleigh channel.

    Each trial sends one symbol through stbc's link, ``y = A h s + z``,
    and detects it from ``conj(h) y``; ``A = sqrt(gamma_bar / 2)`` makes
    that statistic's SNR exponential with mean ``gamma_bar``, matching
    the closed form :func:`beamlink.analysis.mgf_ber_bpsk`. Returns
    (ber, wilson_lo, wilson_hi, n_trials).
    """
    points = stbc.make_constellation(2)
    amplitude = np.sqrt(10.0 ** (gamma_bar_db / 10.0) / 2.0)
    errors = 0
    for n, rng in harness._blocks(n_trials, seed, _PURPOSE_BPSK_CHECK):
        h = channel.sample_rayleigh_batch(n, 1, rng)
        sent = rng.integers(0, 2, n)
        # transmit_receive applies conj of its channel argument
        y = transmit_receive(points[sent][:, None, None], h.conj(), rng, amplitude)
        detected = stbc.demap(h.conj() * y, 2)
        errors += int(stbc.hamming_distance(sent, detected[:, 0]).sum())
    lo, hi = analysis.wilson_interval(errors, n_trials)
    return errors / n_trials, lo, hi, n_trials


def simulate_conditional_ber(
    h_eq: np.ndarray, points: np.ndarray, amplitude: float, n_trials: int, seed: int = 0
) -> tuple[int, int]:
    """Error count for a fixed equivalent channel and link amplitude
    (noise-only randomness), on fig3's link draw and decoder.

    Returns (bit_errors, total_bits); used to compare simulation against
    the conditional union bound.
    """
    gain = float(np.vdot(h_eq, h_eq).real)
    errors = 0
    for n, rng in harness._blocks(n_trials, seed, _PURPOSE_CONDITIONAL):
        link = harness._link_draw(n, len(points), rng)
        errors += harness._ber_block(np.full(n, gain), points, amplitude, link)
    return errors, n_trials * 2 * stbc.bits_per_symbol(len(points))

"""Narrow-band channel models for a uniform linear transmit array.

Two generators are provided. The sparse geometric model sums a small
number of plane-wave departure paths, each with a complex Gaussian gain
and a departure angle drawn uniformly on [-pi/2, pi/2]:

    h = sum_l alpha_l * a(theta_l)

where ``a`` is the steering vector of the array, whose elements sit half
a wavelength apart (:data:`SPACING`). The i.i.d. complex Gaussian model
is the classical rich-scattering baseline. Both samplers draw one
channel per row from a caller-provided generator. The Rayleigh sampler
returns the rows themselves; the geometric sampler returns each row's
paths, and :func:`plane_wave_sums` forms the rows of any slice of them,
so a caller that works in row tiles never holds a block of rows. Rows
come antenna-major (``h.T`` is C-contiguous), the layout in which the
greedy selector and the equivalent channels read them.
"""

from __future__ import annotations

import numpy as np

MMWAVE = "mmwave"
RAYLEIGH = "rayleigh"
CHANNEL_KINDS = (MMWAVE, RAYLEIGH)
# element spacing d / lambda of the array: the narrow-band steering
# vector depends on the geometry only through this ratio
SPACING = 0.5


def steering_vector(theta: float | np.ndarray, n_antennas: int) -> np.ndarray:
    """Transmit steering vectors of a uniform linear array.

    Element m (0-based) is ``exp(j * 2*pi * SPACING * m * sin(theta))``,
    so element 0 is always 1 and every element has unit modulus. ``theta``
    may be an array of angles; the elements go on a new last axis, giving
    shape ``theta.shape + (n_antennas,)``. It is :func:`plane_wave_sums`
    of one unit-gain path per angle.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    if n_antennas < 1:
        raise ValueError("n_antennas must be at least 1")
    return plane_wave_sums(np.ones(theta.shape + (1,)), theta[..., None], n_antennas)


def plane_wave_sums(gains: np.ndarray, angles: np.ndarray, n_antennas: int) -> np.ndarray:
    """``sum_l gains[..., l] * a(angles[..., l])`` over the paths in the last axis.

    Returns an antenna-major array of shape ``gains.shape[:-1] +
    (n_antennas,)``: it is the view ``moveaxis(buf, 0, -1)`` of the
    C-contiguous ``(n_antennas,) + gains.shape[:-1]`` buffer the sums are
    written to, so ``moveaxis(result, -1, 0)`` (``result.T`` for a block
    of rows) is C-contiguous and no copy is made. Each path's phase step
    ``z = exp(j * 2*pi * SPACING * sin(theta))`` is the only complex
    exponential; antenna m's wave is antenna m-1's times ``z``, so no
    exponential runs on the ``(..., paths, antennas)`` array. The waves
    are held path-major, so each antenna's sum over the paths adds
    contiguous rows. Every row is formed from its own paths alone, so
    the rows of a slice of the paths are that slice of the rows, bit for
    bit.
    """
    phase = np.moveaxis(2.0 * np.pi * SPACING * np.sin(angles), -1, 0)
    # cos and sin give the bits of np.exp(1j * phase), without its complex temporaries
    step = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=step.real)
    np.sin(phase, out=step.imag)
    wave = np.ascontiguousarray(np.moveaxis(gains, -1, 0), dtype=np.complex128)
    h = np.empty((n_antennas,) + wave.shape[1:], dtype=np.complex128)
    h[0] = wave.sum(axis=0)
    for m in range(1, n_antennas):
        # not in place: numpy rounds an in-place product of one element
        # differently, and a scalar angle must give the row of a batch
        wave = wave * step
        h[m] = wave.sum(axis=0)
    return np.moveaxis(h, 0, -1)


def _complex_normal(shape, rng: np.random.Generator, order: str = "C") -> np.ndarray:
    """I.i.d. CN(0, 1) entries: the real parts are drawn first, then the imaginary,
    each scaled in place with the bits of ``(re + 1j * im) / np.sqrt(2.0)``.

    The draws are in C order whatever the memory ``order`` of the result,
    so its values do not depend on ``order``.
    """
    z = np.empty(shape, dtype=np.complex128, order=order)
    np.multiply(rng.standard_normal(shape), 1.0 / np.sqrt(2.0), out=z.real)
    np.multiply(rng.standard_normal(shape), 1.0 / np.sqrt(2.0), out=z.imag)
    return z


def sample_mmwave_batch(
    n_trials: int, n_paths: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The paths of one sparse geometric channel per row, drawn from ``rng``.

    Returns ``(gains, angles)``, each of shape ``(n_trials, n_paths)``:
    i.i.d. CN(0, 1) gains and i.i.d. uniform [-pi/2, pi/2] departure
    angles. The stream is consumed in a fixed order (gain real parts,
    gain imaginary parts, angles). The channel rows are
    ``plane_wave_sums(gains[rows], angles[rows], n_antennas)`` for any
    row slice (:func:`plane_wave_sums`), so one channel per seed is
    ``plane_wave_sums(*sample_mmwave_batch(1, ..., substream(seed)), n_antennas)[0]``.
    """
    gains = _complex_normal((n_trials, n_paths), rng)
    angles = rng.uniform(-np.pi / 2, np.pi / 2, (n_trials, n_paths))
    return gains, angles


def sample_rayleigh_batch(
    n_trials: int, n_antennas: int, rng: np.random.Generator
) -> np.ndarray:
    """One i.i.d. CN(0, 1) channel per row, the rich-scattering baseline.

    The entries are drawn row by row and written straight into an
    antenna-major buffer, laid out as :func:`plane_wave_sums` lays out
    its rows: ``h.T`` is C-contiguous, and no transposed copy is made.
    """
    return _complex_normal((n_trials, n_antennas), rng, order="F")


def mean_energy(kind: str, n_antennas: int, n_paths: int) -> float:
    """The exact ``E ||h||^2`` of a row of the ``kind`` sampler.

    A geometric row sums ``n_paths`` independent zero-mean paths, each
    of CN(0, 1) gain times a unit-modulus steering vector, so its energy
    has mean ``n_antennas * n_paths``; a Rayleigh row holds
    ``n_antennas`` CN(0, 1) entries, so its mean is ``n_antennas``.
    """
    if kind not in CHANNEL_KINDS:
        raise ValueError(f"unknown channel kind {kind!r}")
    return float(n_antennas * (n_paths if kind == MMWAVE else 1))

"""Narrow-band channel models for a uniform linear transmit array.

Two generators are provided. The sparse geometric model sums a small
number of plane-wave departure paths, each with a complex Gaussian gain
and a departure angle drawn uniformly on [-pi/2, pi/2]:

    h = sum_l alpha_l * a(theta_l)

where ``a`` is the array steering vector. The i.i.d. complex Gaussian
model is the classical rich-scattering baseline. Both samplers draw one
channel per row from a caller-provided generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

MMWAVE = "mmwave"
RAYLEIGH = "rayleigh"
CHANNEL_KINDS = (MMWAVE, RAYLEIGH)


@dataclass(frozen=True)
class SteeringConfig:
    """Array geometry used when evaluating steering vectors.

    ``spacing_over_wavelength`` is d/lambda for a uniform linear array;
    half-wavelength spacing (0.5) is the default. The narrow-band
    steering vector depends on the geometry only through this ratio.
    """

    spacing_over_wavelength: float = 0.5

    def __post_init__(self) -> None:
        d = self.spacing_over_wavelength
        if not (isinstance(d, Real) and not isinstance(d, bool) and math.isfinite(d) and d > 0):
            raise ValueError(f"spacing_over_wavelength must be a finite positive number, got {d!r}")


def steering_vector(
    theta: float | np.ndarray, n_antennas: int, cfg: SteeringConfig | None = None
) -> np.ndarray:
    """Transmit steering vectors of a uniform linear array.

    Element m (0-based) is ``exp(j * 2*pi * (d/lambda) * m * sin(theta))``,
    so element 0 is always 1 and every element has unit modulus. ``theta``
    may be an array of angles; the elements go on a new last axis, giving
    shape ``theta.shape + (n_antennas,)``.
    """
    if cfg is None:
        cfg = SteeringConfig()
    theta = np.asarray(theta, dtype=np.float64)
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    if n_antennas < 1:
        raise ValueError("n_antennas must be at least 1")
    m = np.arange(n_antennas)
    phase = 2.0 * np.pi * cfg.spacing_over_wavelength * np.sin(theta)
    return np.exp(1j * phase[..., None] * m)


def _complex_normal(shape, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. CN(0, 1) entries: the real parts are drawn first, then the imaginary."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def sample_mmwave_batch(
    n_trials: int,
    n_paths: int,
    n_antennas: int,
    cfg: SteeringConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """One sparse geometric channel per row, drawn from ``rng``.

    Each row sums ``n_paths`` plane waves with i.i.d. CN(0, 1) gains and
    i.i.d. uniform [-pi/2, pi/2] departure angles. The stream is consumed
    in a fixed order (gain real parts, gain imaginary parts, angles), so
    one channel per seed is ``sample_mmwave_batch(1, ..., substream(seed))[0]``.
    """
    gains = _complex_normal((n_trials, n_paths), rng)
    angles = rng.uniform(-np.pi / 2, np.pi / 2, (n_trials, n_paths))
    return np.einsum("...l,...lm->...m", gains, steering_vector(angles, n_antennas, cfg))


def sample_rayleigh_batch(
    n_trials: int, n_antennas: int, rng: np.random.Generator
) -> np.ndarray:
    """One i.i.d. CN(0, 1) channel per row, the rich-scattering baseline."""
    return _complex_normal((n_trials, n_antennas), rng)

"""Narrow-band channel models for a uniform linear transmit array.

Two generators are provided. The sparse geometric model sums a small
number of plane-wave departure paths, each with a complex Gaussian gain
and a departure angle drawn uniformly on [-pi/2, pi/2]:

    h = sum_l alpha_l * a(theta_l)

where ``a`` is the array steering vector. The i.i.d. complex Gaussian
model is the classical rich-scattering baseline. Both are deterministic
functions of a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .rng import substream

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


@dataclass(frozen=True, eq=False)
class PathSet:
    """Gains and departure angles of a sparse geometric channel."""

    gains: np.ndarray
    angles: np.ndarray

    def __post_init__(self) -> None:
        gains = np.asarray(self.gains, dtype=np.complex128)
        angles = np.asarray(self.angles, dtype=np.float64)
        if gains.ndim != 1 or angles.ndim != 1 or gains.size != angles.size:
            raise ValueError("gains and angles must be 1-D arrays of equal length")
        if gains.size < 1:
            raise ValueError("at least one path is required")
        if np.any(np.abs(angles) > np.pi / 2):
            raise ValueError("departure angles must lie in [-pi/2, pi/2]")
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "angles", angles)

    @property
    def n_paths(self) -> int:
        return self.gains.size


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


def _draw_paths(
    n_trials: int, n_paths: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """CN(0, 1) gains and uniform [-pi/2, pi/2] angles, one path set per row."""
    gains = _complex_normal((n_trials, n_paths), rng)
    angles = rng.uniform(-np.pi / 2, np.pi / 2, (n_trials, n_paths))
    return gains, angles


def _superpose(
    gains: np.ndarray, angles: np.ndarray, n_antennas: int, cfg: SteeringConfig
) -> np.ndarray:
    """``sum_l gains[..., l] a(angles[..., l])`` over the last (path) axis."""
    return np.einsum("...l,...lm->...m", gains, steering_vector(angles, n_antennas, cfg))


def channel_from_paths(
    paths: PathSet, n_antennas: int, cfg: SteeringConfig | None = None
) -> np.ndarray:
    """Reconstruct ``h = sum_l alpha_l a(theta_l)`` from an explicit path set."""
    return _superpose(paths.gains, paths.angles, n_antennas, cfg)


def sample_mmwave_channel(
    n_paths: int,
    n_antennas: int,
    cfg: SteeringConfig | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Draw one sparse geometric channel vector, deterministically from ``seed``.

    Path gains are i.i.d. CN(0, 1); departure angles are i.i.d. uniform on
    [-pi/2, pi/2]. This is the draw of :func:`sample_mmwave_batch` on a
    batch of one from ``substream(seed)``, built through
    :func:`channel_from_paths`.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    gains, angles = _draw_paths(1, n_paths, substream(seed))
    return channel_from_paths(PathSet(gains=gains[0], angles=angles[0]), n_antennas, cfg)


def sample_rayleigh_channel(n_antennas: int, seed: int = 0) -> np.ndarray:
    """Draw one i.i.d. CN(0, 1) channel vector, deterministically from ``seed``."""
    if n_antennas < 1:
        raise ValueError("n_antennas must be at least 1")
    return sample_rayleigh_batch(1, n_antennas, substream(seed))[0]


def sample_mmwave_batch(
    n_trials: int,
    n_paths: int,
    n_antennas: int,
    cfg: SteeringConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized bulk sampler used by sweeps; one channel per row.

    Consumes a caller-provided stream, so sweep blocks stay reproducible
    under the substream scheme; :func:`sample_mmwave_channel` is this
    draw on a batch of one.
    """
    gains, angles = _draw_paths(n_trials, n_paths, rng)
    return _superpose(gains, angles, n_antennas, cfg)


def sample_rayleigh_batch(
    n_trials: int, n_antennas: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized bulk sampler for the i.i.d. Gaussian baseline."""
    return _complex_normal((n_trials, n_antennas), rng)

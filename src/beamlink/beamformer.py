"""Analog transmit beamformer constructions.

Every beamformer here is a tall complex matrix with ``2**q`` rows
(antennas) and ``2**(q-1)`` columns (RF chains) whose entries all share a
single modulus ``sqrt(kappa)``, the constant-modulus constraint of a
phase-shifter network. ``kappa`` is the per-entry power factor.

Three families are built:

* ``dft``      - first half of the columns of the unitary DFT matrix,
* ``hadamard`` - first half of the columns of the scaled Sylvester
                 Hadamard matrix,
* ``bpr-*``    - blockwise phase-rotated golden-ratio Hadamard matrices

The blockwise construction scales the recursive block matrix

    [[W A, W B],
     [W B, -W A]]

by ``g / sqrt(xi)``, where ``W`` is the order ``2**(q-1)`` Sylvester
Hadamard matrix, ``A = diag(exp(j phi1))`` and ``B = diag(exp(j phi2))``
hold quantized rotation angles, ``g`` is the golden number (real variant
``(1+sqrt 5)/2``, complex variant ``(j+sqrt 3)/2``) and

    xi = n * ((1+n)**q - (1-n)**q) / 2**q

normalizes with ``n`` the root of the squared golden number's surd
(``sqrt 5`` real, ``sqrt 3`` complex). The beamformer keeps the first
``2**(q-1)`` columns of the recursive matrix. Every builder returns the
``(2**q, 2**(q-1))`` complex array itself, and :func:`build` is the one
map from a scheme name to its builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DFT = "dft"
HADAMARD = "hadamard"
BPR_REAL = "bpr-real"
BPR_COMPLEX = "bpr-complex"
SCHEMES = (DFT, HADAMARD, BPR_REAL, BPR_COMPLEX)
BPR_SCHEMES = (BPR_REAL, BPR_COMPLEX)


@dataclass(frozen=True)
class GoldenVariant:
    """Golden-number scalar and the surd root of its normalizer."""

    g: complex
    n_root: float


REAL_GOLDEN = GoldenVariant(g=(1.0 + math.sqrt(5.0)) / 2.0, n_root=math.sqrt(5.0))
COMPLEX_GOLDEN = GoldenVariant(g=(1j + math.sqrt(3.0)) / 2.0, n_root=math.sqrt(3.0))


def golden_variant(scheme: str) -> GoldenVariant:
    if scheme == BPR_REAL:
        return REAL_GOLDEN
    if scheme == BPR_COMPLEX:
        return COMPLEX_GOLDEN
    raise ValueError(f"no golden variant for scheme {scheme!r}")


def xi(q: int, n_root: float) -> float:
    """Normalizer ``n * ((1+n)**q - (1-n)**q) / 2**q``."""
    if q < 1:
        raise ValueError("q must be at least 1")
    if not n_root > 0:
        raise ValueError("n_root must be positive")
    n = float(n_root)
    return n * ((1.0 + n) ** q - (1.0 - n) ** q) / 2.0**q


def kappa(scheme: str, q: int) -> float:
    """Per-entry power factor ``|F[i, j]|**2`` of the named scheme."""
    if q < 1:
        raise ValueError("q must be at least 1")
    if scheme in (DFT, HADAMARD):
        return 1.0 / 2**q
    if scheme in BPR_SCHEMES:
        variant = golden_variant(scheme)
        return (variant.g * variant.g.conjugate()).real / xi(q, variant.n_root)
    raise ValueError(f"unknown scheme {scheme!r}")


def _sylvester(k: int) -> np.ndarray:
    """Integer Sylvester Hadamard matrix of order ``2**k``, doubled as ``[[W, W], [W, -W]]``."""
    w = np.ones((1, 1), dtype=np.int64)
    for _ in range(k):
        w = np.block([[w, w], [w, -w]])
    return w


def build_dft_atb(q: int) -> np.ndarray:
    """First ``2**(q-1)`` columns of the unitary ``2**q``-point DFT matrix.

    Entry (m, k) is ``exp(-j 2 pi m k / 2**q) / sqrt(2**q)``; the kept
    columns are orthonormal, so ``F^H F = I``.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    n = 2**q
    m = np.arange(n)[:, None]
    k = np.arange(n // 2)[None, :]
    return np.exp(-2j * np.pi * m * k / n) / np.sqrt(n)


def build_hadamard_atb(q: int) -> np.ndarray:
    """First ``2**(q-1)`` columns of the scaled Sylvester Hadamard matrix."""
    if q < 1:
        raise ValueError("q must be at least 1")
    n = 2**q
    return _sylvester(q).astype(np.complex128)[:, : n // 2] / np.sqrt(n)


def bpr_equivalent_channels(
    q: int, variant: GoldenVariant, h: np.ndarray, phi1: np.ndarray, phi2: np.ndarray
) -> np.ndarray:
    """``F^H h`` for each row of ``h``, F being :func:`build_bpr_atb` with that row's phases.

    Column k of F is ``g/sqrt(xi)`` times ``W[:, k]`` rotated by
    ``phi1[k]`` (top block) and ``phi2[k]`` (bottom block), so with the
    symmetric real ``W`` no per-row matrix is formed.
    """
    half = 2 ** (q - 1)
    w = _sylvester(q - 1).astype(np.float64)
    top = h[..., :half] @ w
    bot = h[..., half:] @ w
    scale = np.conj(variant.g) / np.sqrt(xi(q, variant.n_root))
    return scale * (np.exp(-1j * phi1) * top + np.exp(-1j * phi2) * bot)


def build_bpr_atb(
    q: int, variant: GoldenVariant, phi1: np.ndarray, phi2: np.ndarray
) -> np.ndarray:
    """Blockwise phase-rotated beamformer ``g/sqrt(xi) [[W A], [W B]]``.

    ``phi1`` and ``phi2`` are the diagonals of the rotation blocks A and
    B, each of length ``2**(q-1)``. These are the kept first half of the
    columns of the recursive block matrix, so column k carries
    ``exp(j phi1[k])`` on the top antenna block and ``exp(j phi2[k])`` on
    the bottom one.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    half = 2 ** (q - 1)
    phi1 = np.asarray(phi1, dtype=np.float64)
    phi2 = np.asarray(phi2, dtype=np.float64)
    if phi1.shape != (half,) or phi2.shape != (half,):
        raise ValueError(f"phase vectors must each have length {half}")
    w = _sylvester(q - 1).astype(np.complex128)
    block = np.vstack([w * np.exp(1j * phi1), w * np.exp(1j * phi2)])
    return variant.g / np.sqrt(xi(q, variant.n_root)) * block


def build(
    scheme: str, q: int, phi1: np.ndarray | None = None, phi2: np.ndarray | None = None
) -> np.ndarray:
    """Beamformer of the named scheme; only the blockwise schemes read the phases."""
    if scheme == DFT:
        return build_dft_atb(q)
    if scheme == HADAMARD:
        return build_hadamard_atb(q)
    return build_bpr_atb(q, golden_variant(scheme), phi1, phi2)


def equivalent_channel(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Low-dimensional channel ``F^H h`` for each channel row (last axis) of ``h``."""
    f = np.asarray(f)
    h = np.asarray(h)
    if h.shape[-1:] != (f.shape[0],):
        raise ValueError(
            f"channel length {h.shape} does not match beamformer rows {f.shape[0]}"
        )
    return h @ f.conj()


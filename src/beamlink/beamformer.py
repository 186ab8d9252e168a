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
``2**(q-1)`` columns of the recursive matrix.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import hadamard

DFT = "dft"
HADAMARD = "hadamard"
BPR_REAL = "bpr-real"
BPR_COMPLEX = "bpr-complex"
SCHEMES = (DFT, HADAMARD, BPR_REAL, BPR_COMPLEX)
BPR_SCHEMES = (BPR_REAL, BPR_COMPLEX)


@dataclass(frozen=True)
class GoldenVariant:
    """Golden-number scalar and the surd root of its normalizer."""

    kind: str
    g: complex
    n_root: float


REAL_GOLDEN = GoldenVariant(kind="real", g=(1.0 + math.sqrt(5.0)) / 2.0, n_root=math.sqrt(5.0))
COMPLEX_GOLDEN = GoldenVariant(kind="complex", g=(1j + math.sqrt(3.0)) / 2.0, n_root=math.sqrt(3.0))


def golden_variant(scheme: str) -> GoldenVariant:
    if scheme == BPR_REAL:
        return REAL_GOLDEN
    if scheme == BPR_COMPLEX:
        return COMPLEX_GOLDEN
    raise ValueError(f"no golden variant for scheme {scheme!r}")


@dataclass(frozen=True, eq=False)
class BeamformingMatrix:
    """An analog beamformer with its defining metadata.

    ``xi``, ``golden`` and ``phase_blocks`` are populated only for the
    blockwise schemes; ``phase_blocks`` keeps the (phi1, phi2) diagonals
    for audit and exact reconstruction.
    """

    scheme: str
    matrix: np.ndarray
    q: int
    kappa: float
    xi: float | None = None
    golden: GoldenVariant | None = None
    phase_blocks: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n_antennas(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_chains(self) -> int:
        return self.matrix.shape[1]


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
    if scheme == BPR_REAL:
        return (1.0 + math.sqrt(5.0)) ** 2 / (4.0 * xi(q, math.sqrt(5.0)))
    if scheme == BPR_COMPLEX:
        return abs((1j + math.sqrt(3.0)) ** 2) / (4.0 * xi(q, math.sqrt(3.0)))
    raise ValueError(f"unknown scheme {scheme!r}")


def build_dft_atb(q: int) -> BeamformingMatrix:
    """First ``2**(q-1)`` columns of the unitary ``2**q``-point DFT matrix.

    Entry (m, k) is ``exp(-j 2 pi m k / 2**q) / sqrt(2**q)``; the kept
    columns are orthonormal, so ``F^H F = I``.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    n = 2**q
    m = np.arange(n)[:, None]
    k = np.arange(n // 2)[None, :]
    mat = np.exp(-2j * np.pi * m * k / n) / np.sqrt(n)
    return BeamformingMatrix(scheme=DFT, matrix=mat, q=q, kappa=1.0 / n)


def build_hadamard_atb(q: int) -> BeamformingMatrix:
    """First ``2**(q-1)`` columns of the scaled Sylvester Hadamard matrix."""
    if q < 1:
        raise ValueError("q must be at least 1")
    n = 2**q
    mat = hadamard(n).astype(np.complex128)[:, : n // 2] / np.sqrt(n)
    return BeamformingMatrix(scheme=HADAMARD, matrix=mat, q=q, kappa=1.0 / n)


def golden_hadamard(
    q: int, variant: GoldenVariant, phi1: np.ndarray, phi2: np.ndarray
) -> np.ndarray:
    """Full ``2**q x 2**q`` recursive block matrix ``g/sqrt(xi) [[WA, WB], [WB, -WA]]``."""
    half = 2 ** (q - 1)
    w = hadamard(half).astype(np.complex128)
    top_a = w * np.exp(1j * phi1)[None, :]
    top_b = w * np.exp(1j * phi2)[None, :]
    block = np.block([[top_a, top_b], [top_b, -top_a]])
    return variant.g / np.sqrt(xi(q, variant.n_root)) * block


def bpr_equivalent_channels(
    q: int, variant: GoldenVariant, h: np.ndarray, phi1: np.ndarray, phi2: np.ndarray
) -> np.ndarray:
    """``F^H h`` for each row of ``h``, F being :func:`build_bpr_atb` with that row's phases.

    Column k of F is ``g/sqrt(xi)`` times ``W[:, k]`` rotated by
    ``phi1[k]`` (top block) and ``phi2[k]`` (bottom block), so with the
    symmetric real ``W`` no per-row matrix is formed.
    """
    half = 2 ** (q - 1)
    w = hadamard(half).astype(np.float64)
    top = h[..., :half] @ w
    bot = h[..., half:] @ w
    scale = np.conj(variant.g) / np.sqrt(xi(q, variant.n_root))
    return scale * (np.exp(-1j * phi1) * top + np.exp(-1j * phi2) * bot)


def build_bpr_atb(
    q: int, variant: GoldenVariant, phi1: np.ndarray, phi2: np.ndarray
) -> BeamformingMatrix:
    """Blockwise phase-rotated beamformer for the given rotation angles.

    ``phi1`` and ``phi2`` are the diagonals of the rotation blocks A and
    B, each of length ``2**(q-1)``; the result keeps the first half of
    the columns of :func:`golden_hadamard`, so column k carries
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
    scheme = BPR_REAL if variant.kind == "real" else BPR_COMPLEX
    xi_val = xi(q, variant.n_root)
    mat = golden_hadamard(q, variant, phi1, phi2)[:, :half]
    return BeamformingMatrix(
        scheme=scheme,
        matrix=mat,
        q=q,
        kappa=kappa(scheme, q),
        xi=xi_val,
        golden=variant,
        phase_blocks=(phi1.copy(), phi2.copy()),
    )


def equivalent_channel(bf: BeamformingMatrix | np.ndarray, h: np.ndarray) -> np.ndarray:
    """Low-dimensional channel ``F^H h`` for each channel row (last axis) of ``h``."""
    mat = bf.matrix if isinstance(bf, BeamformingMatrix) else np.asarray(bf)
    h = np.asarray(h)
    if h.shape[-1:] != (mat.shape[0],):
        raise ValueError(
            f"channel length {h.shape} does not match beamformer rows {mat.shape[0]}"
        )
    return h @ mat.conj()


def export_matrix(bf: BeamformingMatrix, csv_path: str | Path) -> Path:
    """Write the matrix as CSV (row-major, alternating re/im columns).

    A JSON sidecar with the same stem records scheme, q, kappa, xi and
    the rotation diagonals.
    """
    csv_path = Path(csv_path)
    with open(csv_path, "w", newline="\n") as fh:
        writer = csv.writer(fh)
        for row in bf.matrix:
            flat: list[str] = []
            for entry in row:
                flat.append(repr(float(entry.real)))
                flat.append(repr(float(entry.imag)))
            writer.writerow(flat)
    meta = {
        "scheme": bf.scheme,
        "q": bf.q,
        "rows": bf.n_antennas,
        "cols": bf.n_chains,
        "kappa": bf.kappa,
        "xi": bf.xi,
        "golden": None if bf.golden is None else bf.golden.kind,
        "column_selection": "first-half",
        "phase_blocks": None
        if bf.phase_blocks is None
        else [bf.phase_blocks[0].tolist(), bf.phase_blocks[1].tolist()],
    }
    sidecar = csv_path.with_suffix(".json")
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return sidecar

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
``2**(q-1)`` columns of the recursive matrix. Every function here that
depends on the scheme takes its name: :func:`build` returns the
``(2**q, 2**(q-1))`` complex array itself, and :func:`kappa`, :func:`xi`
and :func:`bpr_scale` its scalars; the last two read the one table of
``(g, n)`` per blockwise scheme.

The per-block products ``F^H h`` (:func:`equivalent_channel`,
:func:`bpr_rotated_sum`) are sums over antenna elements that run on the
calling thread; no BLAS call runs on a block of channel rows. The two
golden variants differ only in the scalar :func:`bpr_scale`, so one
rotated sum serves both. The rotated sum rotates the two Sylvester sums
of a row (:func:`bpr_block_sums`), and :func:`bpr_floor` bounds its
squared norm from below for every choice of grid phases, rounding
included, so a caller can tell from the row alone that its gain is
large, before any phase is chosen. Each of the two forms the sums of
the rows it is given, so no other module forms or holds them.
"""

from __future__ import annotations

import math

import numpy as np

from . import phase_opt

DFT = "dft"
HADAMARD = "hadamard"
BPR_REAL = "bpr-real"
BPR_COMPLEX = "bpr-complex"
SCHEMES = (DFT, HADAMARD, BPR_REAL, BPR_COMPLEX)
BPR_SCHEMES = (BPR_REAL, BPR_COMPLEX)


# golden number g and surd root n of each blockwise scheme
_GOLDEN = {
    BPR_REAL: ((1.0 + math.sqrt(5.0)) / 2.0, math.sqrt(5.0)),
    BPR_COMPLEX: ((1j + math.sqrt(3.0)) / 2.0, math.sqrt(3.0)),
}


def _golden(scheme: str) -> tuple[complex, float]:
    """``(g, n)`` of a blockwise scheme."""
    if scheme in _GOLDEN:
        return _GOLDEN[scheme]
    if scheme in SCHEMES:
        raise ValueError(
            f"xi and bpr_scale are defined only for the blockwise schemes, not {scheme!r}"
        )
    raise ValueError(f"unknown scheme {scheme!r}")


def xi(scheme: str, q: int) -> float:
    """Normalizer ``n * ((1+n)**q - (1-n)**q) / 2**q`` of a blockwise scheme."""
    if q < 1:
        raise ValueError("q must be at least 1")
    _, n = _golden(scheme)
    return n * ((1.0 + n) ** q - (1.0 - n) ** q) / 2.0**q


def kappa(scheme: str, q: int) -> float:
    """Per-entry power factor ``|F[i, j]|**2`` of the named scheme."""
    if q < 1:
        raise ValueError("q must be at least 1")
    if scheme in (DFT, HADAMARD):
        return 1.0 / 2**q
    g, _ = _golden(scheme)
    return (g * g.conjugate()).real / xi(scheme, q)


def _sylvester(k: int) -> np.ndarray:
    """Integer Sylvester Hadamard matrix of order ``2**k``, doubled as ``[[W, W], [W, -W]]``."""
    w = np.ones((1, 1), dtype=np.int64)
    for _ in range(k):
        w = np.block([[w, w], [w, -w]])
    return w


def bpr_block_sums(q: int, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Sylvester sums ``(a, b) = (h_top W, h_bot W)`` of each row of ``h``.

    They are the two terms that :func:`bpr_rotated_sum` rotates, with
    ``W`` the order ``2**(q-1)`` Sylvester Hadamard matrix and ``h_top``,
    ``h_bot`` the two antenna blocks of a row. Each is summed antenna by
    antenna, with no BLAS call.
    """
    half = 2 ** (q - 1)
    w = _sylvester(q - 1).astype(np.float64)
    return _antenna_sums(h[..., :half], w), _antenna_sums(h[..., half:], w)


def bpr_rotated_sum(q: int, h: np.ndarray, idx1: np.ndarray, idx2: np.ndarray) -> np.ndarray:
    """Unscaled ``exp(-j phi1) h_top W + exp(-j phi2) h_bot W`` for each row of ``h``.

    Column k of a blockwise :func:`build` is ``g/sqrt(xi)`` times ``W[:, k]``
    rotated by ``phi1[k]`` (top block) and ``phi2[k]`` (bottom block), so
    with the symmetric real ``W`` no per-row matrix is formed: ``F^H h``
    for each row, F being :func:`build` with that row's phases, is
    :func:`bpr_scale` times this sum. The sum does not depend on the
    golden variant, so one sum serves both. It rotates the rows'
    :func:`bpr_block_sums`, formed here.

    ``idx1`` and ``idx2`` index the two grids of :func:`phase_opt.block_grids`,
    as :func:`phase_opt.greedy_bpr_indices` returns them: ``phi1 =
    grid1[idx1]``, ``phi2 = grid2[idx2]``, and their rotations are
    ``np.exp(-1j * grid)[idx]``. An index off its grid raises a ValueError.
    """
    top, bot = bpr_block_sums(q, h)
    grid1, grid2 = phase_opt.block_grids(q)
    # each sum is dropped once rotated; the in-place add commutes bit for bit
    rotated = _grid_rotations(grid1, idx1) * top
    del top
    rotated += _grid_rotations(grid2, idx2) * bot
    return rotated


# rounding margin of bpr_floor, as a share of sum_k |a_k|^2 + |b_k|^2
_FLOOR_MARGIN = 1e-11


def bpr_floor(q: int, h: np.ndarray) -> np.ndarray:
    """A floor under the computed ``||bpr_rotated_sum||^2`` of each row of
    ``h``, whatever its grid indices, from the row's :func:`bpr_block_sums`
    ``(a, b)``, formed here.

    Unit rotations ``r1``, ``r2`` give ``|r1 a_k + r2 b_k| >= ||a_k| - |b_k||``,
    so ``F = sum_k (|a_k| - |b_k|)^2`` bounds the rotated sum's squared
    norm from below. The floor is ``F - 1e-11 S``, with
    ``S = sum_k |a_k|^2 + |b_k|^2``, so that it also holds for the
    computed sum. At q = 2, fig3's array, each Sylvester sum is one
    addition; with unit roundoff ``u = 2**-53``, computing ``F`` errs by
    at most about ``15 u S``, and the computed squared norm of the
    rotated sum falls short of the exact one by at most about ``30 u S``
    (the grid's rotations are unit to within ``u``). ``1e-11 S`` exceeds
    their total, under ``5e-15 S``, 2000 times. Larger arrays add
    ``2**(q-1)`` terms per Sylvester sum, and the rounding grows with
    them. A row with ``|a_k| = |b_k|`` gets a negative floor, and a zero
    row a floor of 0.
    """
    top, bot = bpr_block_sums(q, h)
    floor = np.zeros(top.shape[:-1])
    # column by column: a sum over a short last axis costs several times more
    for k in range(top.shape[-1]):
        a, b = np.abs(top[..., k]), np.abs(bot[..., k])
        d = a - b
        floor += d * d - _FLOOR_MARGIN * (a * a + b * b)
    return floor


def _grid_rotations(grid: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``exp(-j grid[idx])`` for integer indices ``idx`` on ``grid``."""
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu" or idx.size and not 0 <= idx.min() <= idx.max() < len(grid):
        raise ValueError("indices must index their block grid, phase_opt.block_grids(q)")
    return np.exp(-1j * grid)[idx]


def bpr_scale(scheme: str, q: int) -> complex:
    """``conj(g) / sqrt(xi)`` of a blockwise scheme, the factor that turns
    :func:`bpr_rotated_sum` into ``F^H h``."""
    g, _ = _golden(scheme)
    return np.conj(g) / np.sqrt(xi(scheme, q))


def build(
    scheme: str, q: int, phi1: np.ndarray | None = None, phi2: np.ndarray | None = None
) -> np.ndarray:
    """The ``(2**q, 2**(q-1))`` beamformer of the named scheme.

    * ``dft``: the first ``2**(q-1)`` columns of the unitary ``2**q``-point
      DFT matrix. Entry (m, k) is ``exp(-j 2 pi m k / 2**q) / sqrt(2**q)``;
      the kept columns are orthonormal, so ``F^H F = I``.
    * ``hadamard``: the first ``2**(q-1)`` columns of the scaled Sylvester
      Hadamard matrix.
    * ``bpr-real``, ``bpr-complex``: the blockwise phase-rotated beamformer
      ``g/sqrt(xi) [[W A], [W B]]``. ``phi1`` and ``phi2`` are the
      diagonals of the rotation blocks A and B, each of length
      ``2**(q-1)``. These are the kept first half of the columns of the
      recursive block matrix, so column k carries ``exp(j phi1[k])`` on
      the top antenna block and ``exp(j phi2[k])`` on the bottom one.

    Only the blockwise schemes read the phases.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    n = 2**q
    half = n // 2
    if scheme == DFT:
        m = np.arange(n)[:, None]
        k = np.arange(half)[None, :]
        return np.exp(-2j * np.pi * m * k / n) / np.sqrt(n)
    if scheme == HADAMARD:
        return _sylvester(q).astype(np.complex128)[:, :half] / np.sqrt(n)
    g, _ = _golden(scheme)
    phi1 = np.asarray(phi1, dtype=np.float64)
    phi2 = np.asarray(phi2, dtype=np.float64)
    if phi1.shape != (half,) or phi2.shape != (half,):
        raise ValueError(f"phase vectors must each have length {half}")
    w = _sylvester(q - 1).astype(np.complex128)
    block = np.vstack([w * np.exp(1j * phi1), w * np.exp(1j * phi2)])
    return g / np.sqrt(xi(scheme, q)) * block


def equivalent_channel(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Low-dimensional channel ``F^H h`` for each channel row (last axis) of ``h``.

    ``h`` may carry any leading axes. The product is summed antenna by
    antenna (:func:`_antenna_sums`), with no BLAS call.
    """
    f = np.asarray(f)
    h = np.asarray(h)
    if h.shape[-1:] != (f.shape[0],):
        raise ValueError(
            f"channel length {h.shape} does not match beamformer rows {f.shape[0]}"
        )
    return _antenna_sums(h, f.conj())


def _antenna_sums(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``h @ m`` for ``h`` of shape ``(..., n)`` and ``m`` of shape ``(n, c)``, without BLAS.

    ``h`` is read antenna-major as ``moveaxis(h, -1, 0)``. That is a view
    when each antenna's row of it is C-contiguous, as in the antenna-major
    blocks of the channel samplers and in their row tiles, and a
    C-contiguous copy otherwise, because numpy's contiguous and strided
    complex-multiply loops can round differently. Output column j
    accumulates ``h[k] * m[k, j]`` over the antennas k in order, then is
    written into the preallocated C-contiguous ``(..., c)`` output. A
    threaded BLAS product on a block of rows wakes worker threads that
    keep spinning after it returns; these sums run on the calling thread
    alone, and their bits do not depend on the BLAS build.
    """
    h_t = np.moveaxis(h, -1, 0)
    if not h_t[0].flags.c_contiguous:
        h_t = np.ascontiguousarray(h_t)
    out = np.empty(h_t.shape[1:] + (m.shape[1],), dtype=np.result_type(h_t, m))
    for j in range(m.shape[1]):
        acc = h_t[0] * m[0, j]
        for k in range(1, m.shape[0]):
            acc += h_t[k] * m[k, j]
        out[..., j] = acc
    return out

"""Greedy blockwise phase selection for the BPR beamformer.

The rotation angles of the two blocks come from two grids of
``2**(q-1)`` angles each (:func:`block_grids`). A greedy pass fills the
slots of block 1 and then those of block 2, one channel element at a
time, to maximize the aligned-sum magnitude

    | sum_v conj(h_v) * exp(j phi(v)) |

Every slot scores each unplaced element once, at the grid angle that
rotates it closest to the phase of the sum placed so far, which is that
element's best angle. With nothing placed every angle is nearest, and
slot 1 takes angle 0: both grids are the same cyclic group of angles,
so the greedy is equivariant under a grid rotation of slot 1, whose
angle only sets the global phase. :func:`greedy_bpr_indices` runs on a
batch of channel rows at once and returns each slot's grid index; a
single channel is a batch of one. The kernel works element-major, on
``(n, rows)`` tiles of ``conj(h).T``, so the antenna-major rows of the
channel samplers reach it without a transposed copy.
"""

from __future__ import annotations

import numpy as np


def block_grids(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Angles ``2 pi b / 2**(q-1)`` of the two blockwise grids, reduced modulo 2 pi.

    The first block uses indices ``b = 0 .. 2**(q-1) - 1``, the second
    ``2**(q-1) .. 2**q - 1``; the second set's angles exceed 2 pi before
    the reduction (for q = 2 both reduce to {0, pi}).
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    half = 2 ** (q - 1)
    angles = (2.0 * np.pi * np.arange(2 * half, dtype=np.int64) / half) % (2.0 * np.pi)
    return angles[:half], angles[half:]


# channel entries in one tile, 4096 rows at n = 4 and 1024 at n = 16; no
# bit of the result depends on it. A slot's (m, rows) candidate arrays then
# take at most 256 KiB each, whatever n. Each harness stage tile of 2**15
# entries runs as two greedy tiles: one greedy tile per stage tile raised a
# Rayleigh 4-QAM run's median peak RSS by 1.3 to 1.6 MiB.
_TILE_ENTRIES = 2**14


def greedy_bpr_indices(h: np.ndarray, q: int) -> np.ndarray:
    """Greedy blockwise phase selection over the rows of ``h``, shape ``(b, 2**q)``.

    Returns ``idx``, shape ``(2, b, 2**(q-1))``: slot k of row i rotates
    by ``grid1[idx[0, i, k]]`` in the top block and ``grid2[idx[1, i, k]]``
    in the bottom one, ``(grid1, grid2)`` being :func:`block_grids`. One
    channel is the batch ``h[None]``; :func:`complexity_probe` gives the
    candidate scores per row.

    The first pass fills the ``2**(q-1)`` slots of block 1 in turn, each
    with the (unplaced element, grid-1 angle) pair that maximizes the
    aligned-sum magnitude; the second fills block 2 the same way from
    the remaining elements and grid 2. Nothing placed is revisited.
    Only the angles are returned: the beamformer reads slot k's angles
    as column k's, whichever elements filled the slot.

    No slot scores the whole (element, angle) grid. With ``c = conj(h_v)``
    and the sum ``acc`` of the slots placed so far,
    ``|acc + c e^{j theta}|^2 = |acc|^2 + |c|^2 + 2 |acc| |c| cos(theta - arg acc + arg c)``,
    so on the cyclic grid of G angles each element's best angle is the
    one nearest to ``arg acc - arg c``, index
    ``rint(-G angle(c conj(acc)) / 2 pi) mod G``. Each unplaced element
    is scored once, at that angle, as ``abs(acc + rotation * c)``, and
    the first maximum over the elements in ascending index order wins.

    Slot 1 (``acc = 0``) follows the same rule: every angle is nearest,
    and the index is 0, so it computes no angle, its element is the first
    maximum of ``|h_v|`` (equal magnitudes go to the lowest index) and
    its angle is 0. That fixes only the global phase. Both grids are the
    cyclic group ``{2 pi b / 2**(q-1)}`` modulo 2 pi, so rotating slot 1
    by a grid step rotates every later nearest angle by the same step and
    leaves the elements, the aligned-sum magnitude and ``phi2 - phi1``
    unchanged. So, away from ties to the last bit, multiplying a row by
    a common phase ``exp(j psi)`` changes none of its indices.

    Known limit: on continuous channels every decision equals that of a
    scorer that rates all (unplaced element, angle) pairs of every slot
    after slot 1 and takes the first float maximum. On rows whose
    entries lie on a lattice (Gaussian integers, say) an element's two
    grid angles can be equally near; there the full-grid scorer lets
    rounding decide, where this kernel takes the angle ``rint`` gives.
    Either choice scores the full-grid maximum up to rounding.

    Rows run in tiles of ``_TILE_ENTRIES`` channel entries; neither the
    tiling nor the layout of ``h`` changes a bit of the result. Each
    tile's C-contiguous ``conj(h).T`` is formed in one pass, whatever the
    layout of ``h``. A row holding NaN or inf has no maximum to pick and
    raises a ValueError.
    """
    h = np.asarray(h, dtype=np.complex128)
    grids = block_grids(q)
    if h.ndim != 2 or h.shape[1] != 2**q:
        raise ValueError(f"h must have shape (b, 2**q) = (b, {2**q}), got {h.shape}")
    finite = np.isfinite(h).all(axis=1)
    if not finite.all():
        raise ValueError(f"h must be finite, but row {int(finite.argmin())} holds NaN or inf")
    b, n = h.shape
    idx = np.empty((2, b, n // 2), dtype=np.int64)
    tile = max(1, _TILE_ENTRIES // n)
    for start in range(0, b, tile):
        rows = slice(start, start + tile)
        _greedy_tile(np.conjugate(h[rows].T, order="C"), grids, idx[:, rows])
    return idx


def _greedy_tile(
    hc: np.ndarray, grids: tuple[np.ndarray, np.ndarray], idx: np.ndarray
) -> None:
    """:func:`greedy_bpr_indices` on one tile of conjugated channel rows,
    held element-major: ``hc`` is the C-contiguous ``(n, rows)`` array
    ``conj(h).T``. Fills the tile's view ``idx``.

    Every slot works on whole element rows of length ``rows``. The first
    maximum over the unplaced elements is a running scan
    (:func:`_first_max`); the chosen values are picked with one flat
    ``take`` at ``pos * rows + col``, and the placed element is dropped
    by an order-keeping flat ``take`` of the other element rows.
    """
    n, rows = hc.shape
    col = np.arange(rows)
    acc = np.zeros(rows, dtype=np.complex128)
    cand = hc
    for block, angles in enumerate(grids):
        size = angles.size
        rotations = np.exp(1j * angles)
        for slot in range(n // 2):
            if block == slot == 0:
                # nothing placed: grid index 0, of rotation 1, scores |conj(h_v)|
                near, score = np.zeros(cand.shape, dtype=np.int64), cand
            else:
                # + 0.0 makes the signed zeros of a zero product +0, whose
                # angle is 0, so a row with acc = 0 takes grid index 0; the
                # chain runs in place, and each step drops the one before
                phase = cand * acc.conj()
                phase += 0.0
                phase = np.angle(phase)
                phase *= -size / (2 * np.pi)
                np.rint(phase, out=phase)
                near = phase.astype(np.int64)
                near &= size - 1
                # operand order fixed, as complex products round by order; the
                # in-place add skips a broadcast output and commutes bit for bit
                score = rotations[near] * cand
                score += acc
            # each score gives way to its magnitude, dropped once scanned
            score = np.abs(score)
            pos = _first_max(score)
            del score
            flat = pos * rows + col
            g = near.ravel().take(flat)
            idx[block, :, slot] = g
            if cand.shape[0] == 1:
                break
            acc = acc + rotations[g] * cand.ravel().take(flat)
            j = np.arange(cand.shape[0] - 1)[:, None]
            cand = cand.ravel().take((j + (j >= pos)) * rows + col)


def _first_max(scores: np.ndarray) -> np.ndarray:
    """Row index of the first maximum in each column of ``scores``, shape
    ``(m, rows)``: ``scores.argmax(axis=0)`` for finite scores, by a
    running scan over the rows in ascending order."""
    pos = np.zeros(scores.shape[1], dtype=np.int64)
    best = scores[0]
    for j in range(1, scores.shape[0]):
        pos = np.where(scores[j] > best, j, pos)
        best = np.maximum(best, scores[j])
    return pos


def complexity_probe(q_values: list[int] | tuple[int, ...]) -> list[tuple[int, int]]:
    """Greedy candidate scores per channel row for each q.

    The count is input independent: each slot scores the ``m`` unplaced
    elements once, at their nearest angle, so the total over
    ``m = 2**q .. 1`` is ``2**q (2**q + 1) / 2``.
    """
    if not all(1 <= q <= 8 for q in q_values):
        raise ValueError(f"complexity probe limited to 1 <= q <= 8, got {list(q_values)}")
    return [(int(q), 2**q * (2**q + 1) // 2) for q in q_values]

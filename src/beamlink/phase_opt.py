"""Greedy blockwise phase selection for the BPR beamformer.

The rotation angles of the two blocks come from two grids of
``2**(q-1)`` angles each (:func:`block_grids`). A greedy pass fills the
slots of block 1 and then those of block 2, one channel element at a
time, to maximize the aligned-sum magnitude

    | sum_v conj(h_v) * exp(j phi(v)) |

The greedy kernel runs on a batch of channel rows at once;
:func:`greedy_bpr_phases` is that kernel on a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class PhaseSelection:
    """A solved phase assignment.

    ``slots1``/``slots2`` hold the channel-element index assigned to each
    slot of the two blocks, and ``phi1``/``phi2`` the angle chosen for
    that slot, so slot k of the beamformer columns rotates by
    ``phi1[k]`` (top block) and ``phi2[k]`` (bottom block). ``gain`` is
    the achieved aligned-sum magnitude.
    """

    phi1: np.ndarray
    phi2: np.ndarray
    slots1: np.ndarray
    slots2: np.ndarray
    gain: float


# candidate scores per slot in one row tile; their complex terms take 2 MiB
_TILE_SCORES = 2**17


def _greedy(h: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Greedy blockwise selection over the rows of ``h``, shape ``(b, 2**q)``.

    Returns ``(phi, slots, gain, evals)``: ``phi[block]`` and
    ``slots[block]`` have shape ``(b, 2**(q-1))`` and hold the angle and
    the element chosen for each slot of the two blocks, ``gain`` is the
    aligned-sum magnitude per row and ``evals`` the number of candidate
    scores computed per row, which does not depend on ``h``.

    Each slot scores only the unplaced elements of a row, so ``evals`` is
    ``sum_m m * G`` over the remaining counts ``m = n .. 1`` for the grid
    size ``G``. Rows are independent, so they run in tiles of about
    ``_TILE_SCORES / (n * G)`` rows that keep one slot's scores in cache;
    the tile size changes no result.
    """
    b, n = h.shape
    half = n // 2
    grids = block_grids(q)
    tile = max(1, _TILE_SCORES // (n * grids[0].size))
    hc = h.conj()
    phi = np.empty((2, b, half))
    slots = np.empty((2, b, half), dtype=np.int64)
    gain = np.empty(b)
    evals = 0
    for start in range(0, b, tile):
        rows = slice(start, start + tile)
        gain[rows], evals = _greedy_tile(hc[rows], grids, phi[:, rows], slots[:, rows])
    return phi, slots, gain, evals


def _greedy_tile(
    hc: np.ndarray, grids: tuple[np.ndarray, np.ndarray], phi: np.ndarray, slots: np.ndarray
) -> tuple[np.ndarray, int]:
    """:func:`_greedy` on one tile of conjugated channel rows ``hc``; fills
    the tile's views ``phi`` and ``slots`` and returns ``(gain, evals)``."""
    b, n = hc.shape
    half = n // 2
    rows = np.arange(b)
    acc = np.zeros(b, dtype=np.complex128)
    # unplaced elements per row in ascending order, and their conj(h)
    remaining = np.tile(np.arange(n), (b, 1))
    cand = hc
    evals = 0
    for block, angles in enumerate(grids):
        rotations = np.exp(1j * angles)
        for slot in range(half):
            m = remaining.shape[1]
            # This exact expression fixes the rounding: on the first slot
            # every angle of an element scores |h_v| in exact arithmetic,
            # and numpy's complex multiply and abs round differently in
            # other loop layouts (|z|**2, hoisted or reused products), which
            # would pick other angles there.
            scores = np.abs(acc[:, None, None] + cand[:, :, None] * rotations[None, None, :])
            evals += m * rotations.size
            # first flat maximum of the computed scores: equal floats go to the
            # lowest element index, then the lowest grid index
            flat = scores.reshape(b, -1).argmax(axis=1)
            pos, gidx = np.divmod(flat, rotations.size)
            elem = remaining[rows, pos]
            phi[block, :, slot] = angles[gidx]
            slots[block, :, slot] = elem
            acc = acc + hc[rows, elem] * rotations[gidx]
            keep = np.arange(m) != pos[:, None]
            remaining = remaining[keep].reshape(b, m - 1)
            cand = cand[keep].reshape(b, m - 1)
    return np.abs(acc), evals


def greedy_bpr_phases(h: np.ndarray, q: int) -> PhaseSelection:
    """Greedy blockwise phase selection.

    Two greedy passes run over the aligned sum of the elements placed so
    far. The first pass fills the ``2**(q-1)`` slots of block 1 in turn:
    each slot takes the (unplaced element, grid-1 angle) pair that gives
    the largest aligned-sum magnitude. The second pass fills the slots of
    block 2 the same way from the remaining elements and grid 2. A placed
    element and its angle are never revisited. Candidates whose computed
    magnitudes are equal floats break toward the lowest element index,
    then the lowest grid index. Ties in exact arithmetic need not be
    equal floats: on the first slot every grid angle of an element gives
    ``|h_v|``, and rounding in numpy's array ``abs`` decides which angle
    is taken. That is why the kernel keeps one scoring expression,
    ``abs(acc + conj(h_v) * rotation)``, in one loop layout: a cheaper
    form such as ``|z|**2`` rounds differently and changes phases. Each
    slot scores only the still unplaced elements, and rows run in
    cache-sized tiles; neither changes a decision. This is the batched
    kernel applied to a batch of one.
    """
    h = np.asarray(h, dtype=np.complex128)
    n = 2**q
    if h.shape != (n,):
        raise ValueError(f"h must have length 2**q = {n}")
    phi, slots, gain, _ = _greedy(h[None], q)
    return PhaseSelection(*phi[:, 0], *slots[:, 0], float(gain[0]))


def complexity_probe(q_values: list[int] | tuple[int, ...]) -> list[tuple[int, int]]:
    """Count greedy candidate evaluations for each q.

    The count is input independent: each of the ``2**q`` slot decisions
    scans the remaining candidates against the full slot grid, giving
    ``2**(q-1) * 2**q * (2**q + 1) / 2`` evaluations in total.
    """
    out: list[tuple[int, int]] = []
    for q in q_values:
        if q > 8:
            raise ValueError("complexity probe limited to q <= 8")
        h = np.exp(1j * np.linspace(0.0, 1.0, 2**q))
        *_, evals = _greedy(h[None], q)
        out.append((int(q), int(evals)))
    return out

"""Greedy blockwise phase selection for the BPR beamformer.

The rotation angles of the two blocks come from two grids of
``2**(q-1)`` angles each (:func:`block_grids`). A greedy pass fills the
slots of block 1 and then those of block 2, one channel element at a
time, to maximize the aligned-sum magnitude

    | sum_v conj(h_v) * exp(j phi(v)) |

:func:`greedy_bpr_phases` runs on a batch of channel rows at once; a
single channel is a batch of one.
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


# candidate scores per slot in one row tile; their complex terms take 2 MiB
_TILE_SCORES = 2**17


def greedy_bpr_phases(h: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Greedy blockwise phase selection over the rows of ``h``, shape ``(b, 2**q)``.

    Returns ``(phi, slots, gain, evals)``. ``phi[block]`` and
    ``slots[block]``, shape ``(b, 2**(q-1))``, hold the angle and the
    element of each slot of the two blocks: slot k of row i rotates by
    ``phi[0, i, k]`` in the top block and ``phi[1, i, k]`` in the bottom
    one. ``gain`` is the aligned-sum magnitude per row and ``evals`` the
    number of candidate scores per row, ``sum_m m * G`` over the
    remaining counts ``m = n .. 1`` for grid size ``G``, whatever ``h``
    holds. One channel is the batch ``h[None]``.

    The first pass fills the ``2**(q-1)`` slots of block 1 in turn, each
    with the (unplaced element, grid-1 angle) pair that maximizes the
    aligned-sum magnitude; the second fills block 2 the same way from
    the remaining elements and grid 2. Nothing placed is revisited.
    Equal float scores break toward the lowest element index, then the
    lowest grid index. Exact ties need not be equal floats: on the first
    slot every grid angle of an element gives ``|h_v|``, and rounding in
    numpy's array ``abs`` picks the angle. So the kernel keeps one
    scoring expression, ``abs(acc + conj(h_v) * rotation)``, in one loop
    layout; a cheaper form such as ``|z|**2`` rounds differently and
    changes phases. Rows run in tiles of about ``_TILE_SCORES / (n * G)``
    rows that keep one slot's scores in cache; neither the tiling nor
    scoring only the unplaced elements changes a decision.
    """
    h = np.asarray(h, dtype=np.complex128)
    grids = block_grids(q)
    if h.ndim != 2 or h.shape[1] != 2**q:
        raise ValueError(f"h must have shape (b, 2**q) = (b, {2**q}), got {h.shape}")
    b, n = h.shape
    half = n // 2
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
    """:func:`greedy_bpr_phases` on one tile of conjugated channel rows
    ``hc``; fills the tile's views ``phi`` and ``slots`` and returns
    ``(gain, evals)``."""
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
            # keep this exact expression: its rounding decides the exact ties
            # of the first slot (see greedy_bpr_phases)
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
        *_, evals = greedy_bpr_phases(h[None], q)
        out.append((int(q), int(evals)))
    return out

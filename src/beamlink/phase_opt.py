"""Greedy blockwise phase selection for the BPR beamformer.

The rotation angles of the two blocks come from two grids of
``2**(q-1)`` angles each (:func:`block_grids`). A greedy pass fills the
slots of block 1 and then those of block 2, one channel element at a
time, to maximize the aligned-sum magnitude

    | sum_v conj(h_v) * exp(j phi(v)) |

Only the first slot scores a grid of angles; every later slot scores
each unplaced element once, at the grid angle that rotates it closest
to the phase of the sum placed so far, which is that element's best
angle. The first slot's angle is the one decision left to rounding (see
:func:`greedy_bpr_phases`). :func:`greedy_bpr_phases` runs on a batch of channel rows at once; a
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


# channel entries (rows x n) in one row tile; a slot's (rows, m) candidate
# arrays then take at most 1 MiB each
_TILE_ENTRIES = 2**16


def greedy_bpr_phases(h: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy blockwise phase selection over the rows of ``h``, shape ``(b, 2**q)``.

    Returns ``(phi, slots, gain)``. ``phi[block]`` and ``slots[block]``,
    shape ``(b, 2**(q-1))``, hold the angle and the element of each slot
    of the two blocks: slot k of row i rotates by ``phi[0, i, k]`` in the
    top block and ``phi[1, i, k]`` in the bottom one. ``gain`` is the
    aligned-sum magnitude per row. One channel is the batch ``h[None]``;
    :func:`complexity_probe` gives the candidate scores per row.

    The first pass fills the ``2**(q-1)`` slots of block 1 in turn, each
    with the (unplaced element, grid-1 angle) pair that maximizes the
    aligned-sum magnitude; the second fills block 2 the same way from
    the remaining elements and grid 2. Nothing placed is revisited.

    No slot scores the whole (element, angle) grid. With ``c = conj(h_v)``
    and the sum ``acc`` of the slots placed so far,
    ``|acc + c e^{j theta}|^2 = |acc|^2 + |c|^2 + 2 |acc| |c| cos(theta - arg acc + arg c)``,
    so on the cyclic grid of G angles each element's best angle is the
    one nearest to ``arg acc - arg c``, index
    ``rint(-G angle(c conj(acc)) / 2 pi) mod G``. From slot 2 on, each
    unplaced element is scored once, at that angle, as
    ``abs(acc + c * rotation)``, and the first maximum over the elements
    in ascending index order wins.

    Slot 1 (``acc = 0``) is the one step decided by rounding: every angle
    gives ``|h_v|`` in exact arithmetic. Its element is the first maximum
    of ``|h_v|``, so equal magnitudes go to the lowest index. Its angle is
    the first maximum of ``abs(c * rotations)`` over that element's G
    angles. That expression is kept as it is, because its rounding picks
    the angle; a cheaper form such as ``|z|**2`` rounds differently and
    changes phases.

    Known limit: on continuous channels every decision equals that of a
    scorer that rates all (unplaced element, angle) pairs of every slot
    and takes the first float maximum. On rows whose entries lie on a
    lattice (Gaussian integers, say) candidates can tie exactly, and
    there the two can break the tie differently, because the full-grid
    scorer lets rounding decide among equal ``|h_v|`` at slot 1 and
    between an element's two equally near angles later, where this
    kernel takes the lowest index and the angle ``rint`` gives. Either
    choice scores the full-grid maximum up to rounding. Rows run in
    tiles of about ``_TILE_ENTRIES / n`` rows; the tiling changes no
    decision.
    """
    h = np.asarray(h, dtype=np.complex128)
    grids = block_grids(q)
    if h.ndim != 2 or h.shape[1] != 2**q:
        raise ValueError(f"h must have shape (b, 2**q) = (b, {2**q}), got {h.shape}")
    b, n = h.shape
    half = n // 2
    tile = max(1, _TILE_ENTRIES // n)
    hc = h.conj()
    phi = np.empty((2, b, half))
    slots = np.empty((2, b, half), dtype=np.int64)
    gain = np.empty(b)
    for start in range(0, b, tile):
        rows = slice(start, start + tile)
        gain[rows] = _greedy_tile(hc[rows], grids, phi[:, rows], slots[:, rows])
    return phi, slots, gain


def _greedy_tile(
    hc: np.ndarray, grids: tuple[np.ndarray, np.ndarray], phi: np.ndarray, slots: np.ndarray
) -> np.ndarray:
    """:func:`greedy_bpr_phases` on one tile of conjugated channel rows
    ``hc``; fills the tile's views ``phi`` and ``slots`` and returns the
    gain per row."""
    b, n = hc.shape
    acc = np.zeros(b, dtype=np.complex128)
    # unplaced elements per row in ascending order, and their conj(h)
    remaining = np.broadcast_to(np.arange(n), (b, n))
    cand = hc
    for block, angles in enumerate(grids):
        size = angles.size
        rotations = np.exp(1j * angles)
        for slot in range(n // 2):
            if block == slot == 0:
                pos = np.abs(cand).argmax(axis=1)[:, None]
                c = np.take_along_axis(cand, pos, axis=1)[:, 0]
                # keep this exact expression: its rounding decides the exact
                # tie of the first slot (see greedy_bpr_phases)
                g = np.abs(c[:, None] * rotations).argmax(axis=1)
            else:
                phase = np.angle(cand * acc.conj()[:, None])
                near = np.rint(phase * (-size / (2 * np.pi))).astype(np.int64) & (size - 1)
                scores = np.abs(acc[:, None] + cand * rotations[near])
                pos = scores.argmax(axis=1)[:, None]
                g = np.take_along_axis(near, pos, axis=1)[:, 0]
                c = np.take_along_axis(cand, pos, axis=1)[:, 0]
            phi[block, :, slot] = angles[g]
            slots[block, :, slot] = np.take_along_axis(remaining, pos, axis=1)[:, 0]
            acc = acc + c * rotations[g]
            keep = np.arange(cand.shape[1]) != pos
            remaining = remaining[keep].reshape(b, -1)
            cand = cand[keep].reshape(b, -1)
    return np.abs(acc)


def complexity_probe(q_values: list[int] | tuple[int, ...]) -> list[tuple[int, int]]:
    """Greedy candidate scores per channel row for each q.

    The count is input independent: slot 1 takes ``|h_v|`` of the
    ``2**q`` elements and scores the chosen one at the ``2**(q-1)``
    angles of grid 1; each later slot scores the ``m`` unplaced elements
    once, at their nearest angle, so the total over ``m = 2**q - 1 .. 1``
    is ``2**q + 2**(q-1) + 2**q (2**q - 1) / 2``.
    """
    if not all(1 <= q <= 8 for q in q_values):
        raise ValueError(f"complexity probe limited to 1 <= q <= 8, got {list(q_values)}")
    return [(int(q), 2**q + 2 ** (q - 1) + 2**q * (2**q - 1) // 2) for q in q_values]

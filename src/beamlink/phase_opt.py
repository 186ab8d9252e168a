"""Greedy blockwise phase selection for the BPR beamformer.

The rotation angles of the two blocks come from two grids of
``2**(q-1)`` angles each (:func:`block_grids`). A greedy pass fills the
slots of block 1 and then those of block 2, one channel element at a
time, to maximize the aligned-sum magnitude

    | sum_v conj(h_v) * exp(j phi(v)) |

Every slot scores each unplaced element once, at its best grid angle.
With ``c = conj(h_v)``, the sum ``acc`` placed so far and
``p = c conj(acc)``, a rotation ``r`` gives
``|acc + r c|^2 = |acc|^2 + |c|^2 + 2 Re(r p)``, so an element's score
is ``|c|^2 / 2 + max_r Re(r p)``, a projection of ``p`` with a closed
form per grid size (:func:`_grid_projection`). No slot takes an angle
of a candidate: only the winner's grid index is computed, as the angle
nearest to ``arg acc - arg c``. With nothing placed every angle is best,
and slot 1 takes angle 0: both grids are the same cyclic group of
angles, so the greedy is equivariant under a grid rotation of slot 1,
whose angle only sets the global phase. :func:`greedy_bpr_indices`
runs on a batch of channel rows at once and returns each slot's grid
index; a single channel is a batch of one. The kernel works
element-major, on ``(n, rows)`` tiles of ``conj(h).T``, so the
antenna-major rows of the channel samplers reach it without a
transposed copy.
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

    No slot scores the whole (element, angle) grid. With ``c = conj(h_v)``,
    the sum ``acc`` of the slots placed so far and ``p = c conj(acc)``,
    ``|acc + c e^{j theta}|^2 = |acc|^2 + |c|^2 + 2 Re(e^{j theta} p)``,
    so on the cyclic grid of G angles each element's best angle is the
    one nearest to ``-arg p``, and the row's ``|acc|^2`` ranks no
    element. Each unplaced element is scored once, as
    ``|c|^2 / 2 + P_G(p)`` with ``P_G(p) = max_k Re(e^{2 pi j k / G} p)``
    in closed form (:func:`_grid_projection`): ``Re p`` for G = 1,
    ``|Re p|`` for 2, the largest of ``|Re p|`` and ``|Im p|`` for 4,
    with ``(|Re p| + |Im p|) sqrt(1/2)`` too for 8, and from 16 on the
    grid angles of the first octant after folding ``p`` into it. No
    candidate takes an ``atan2`` or a ``hypot``. The first maximum over
    the elements in ascending index order wins, and only the winner's
    grid index is computed, from its own ``p``, as
    ``rint(-G angle(p) / 2 pi) mod G``. The placed element is
    swap-removed, which reorders the candidates; each keeps a key of
    its element index, so a tie still goes to the lowest index.

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
    raises a ValueError. A row whose largest real or imaginary part lies
    below ``2**-129`` or from ``2**128`` on, where its scores could
    underflow or overflow, is scored at the power-of-two scale that
    brings that part into ``[1/2, 1)``. The scaling is exact, so such a
    row gets the indices of the same row at unit scale.
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
    ``conj(h).T``, overwritten. Fills the tile's view ``idx``.

    Every slot works on whole element rows of length ``rows``: it scores
    the unplaced elements by :func:`_grid_projection`, takes the first
    maximum by :func:`_first_max`, and computes the winner's grid index
    alone. The placed element is swap-removed: the last unplaced
    element's entries move into its slot, one flat assignment per
    array, and the arrays shrink by a view. Each entry keeps its
    element's key ``(n - v) * rows + col`` for column ``col``, and
    ``at[key]`` holds the entry's flat offset, so the lowest element
    among a column's maxima wins wherever the swaps have moved it.
    """
    n, rows = hc.shape
    col = np.arange(rows)
    keys = (n - np.arange(n))[:, None] * rows + col
    at = np.empty((n + 1) * rows, dtype=np.intp)
    at[keys] = np.arange(n * rows).reshape(n, rows)
    # |c|^2 / 2 of each element, the part of its score that no slot moves;
    # one that overflows fails the range test below
    with np.errstate(over="ignore"):
        half_mag = _half_squares(hc)
    top = np.maximum.reduce(half_mag, axis=0)
    if not (top.min() > 2.0**-258 and top.max() < 2.0**255):
        # a row whose largest part lies below 2**-129 or from 2**128 on is
        # scaled by the power of two that brings that part into [1/2, 1):
        # exact, so its scores neither underflow nor overflow. Any other
        # row passes the test above and keeps its entries
        parts = hc.view(np.float64)
        _, exp = np.frexp(np.abs(parts).max(axis=0).reshape(rows, 2).max(axis=1))
        exp[np.abs(exp) <= 128] = 0
        np.ldexp(parts, np.repeat(-exp, 2), out=parts)
        half_mag = _half_squares(hc)
    acc = np.zeros(rows, dtype=np.complex128)
    cand = hc
    for block, angles in enumerate(grids):
        size = angles.size
        rotations = np.exp(1j * angles)
        for slot in range(n // 2):
            if block == slot == 0:
                # nothing placed: grid index 0, of rotation 1, scores |conj(h_v)|
                flat = at.take(_first_max(np.abs(cand), keys))
                g = np.zeros(rows, dtype=np.int64)
            else:
                prod = cand * acc.conj()
                score = _grid_projection(prod, size)
                score += half_mag
                flat = at.take(_first_max(score, keys))
                del score
                # the winner's nearest angle; + 0.0 makes the signed zeros of
                # a zero product +0, whose angle is 0, so a row with acc = 0
                # takes grid index 0
                phase = prod.take(flat)
                phase += 0.0
                phase = np.arctan2(phase.imag, phase.real)
                phase *= -size / (2 * np.pi)
                np.rint(phase, out=phase)
                g = phase.astype(np.int64)
                g &= size - 1
            idx[block, :, slot] = g
            last = cand.shape[0] - 1
            if last == 0:
                break
            # operand order fixed, as complex products round by order
            acc = acc + rotations[g] * cand.take(flat)
            at[keys[last]] = flat
            # leading slices of C-contiguous arrays: each reshape is a view
            for entries in (cand, half_mag, keys):
                entries.reshape(-1)[flat] = entries[last]
            cand, half_mag, keys = cand[:last], half_mag[:last], keys[:last]


def _half_squares(hc: np.ndarray) -> np.ndarray:
    """``|c|^2 / 2`` of each entry of ``hc``, in a new array."""
    out = hc.real * hc.real
    out += hc.imag * hc.imag
    out *= 0.5
    return out


def _grid_projection(p: np.ndarray, size: int) -> np.ndarray:
    """``max_k Re(exp(2 pi j k / size) p)`` for each entry of ``p``, in a
    new array, with ``size`` a power of two: the largest ``Re(r p)`` over
    the ``size`` rotations ``r`` of the grid.

    With ``x + j y = p``: ``x`` for one rotation, ``|x|`` for two,
    ``max(|x|, |y|)`` for four and ``max(|x|, |y|, (|x| + |y|) sqrt(1/2))``
    for eight. For four and from sixteen on, the grid's symmetries fold
    ``p`` into the first octant, ``hi >= lo >= 0``, and the maximum runs
    over the ``size // 8 + 1`` grid angles ``theta`` in ``[0, pi/4]`` of
    ``hi cos(theta) + lo sin(theta)``; for four that is ``theta = 0``
    alone, ``hi = max(|x|, |y|)``.
    """
    if size == 1:
        return p.real.copy()
    x = np.abs(p.real)
    if size == 2:
        return x
    y = np.abs(p.imag)
    best = np.maximum(x, y)
    if size == 8:
        x += y
        x *= np.sqrt(0.5)
        return np.maximum(best, x, out=best)
    lo = np.minimum(x, y, out=x)
    hi = best.copy()
    for t in range(1, size // 8 + 1):
        theta = 2 * np.pi * t / size
        term = hi * np.cos(theta)
        term += lo * np.sin(theta)
        np.maximum(best, term, out=best)
    return best


def _first_max(scores: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The largest key among the maxima of each column of ``scores``,
    shape ``(m, rows)``: the key of the column's first maximum in
    element order, elements with lower indices having larger keys.
    Every key is positive."""
    best = np.maximum.reduce(scores, axis=0)
    hits = np.multiply(scores == best, keys)
    return np.maximum.reduce(hits, axis=0)


def complexity_probe(q_values: list[int] | tuple[int, ...]) -> list[tuple[int, int]]:
    """Greedy candidate scores per channel row for each q.

    The count is input independent: each slot scores the ``m`` unplaced
    elements once, at their nearest angle, so the total over
    ``m = 2**q .. 1`` is ``2**q (2**q + 1) / 2``.
    """
    if not all(1 <= q <= 8 for q in q_values):
        raise ValueError(f"complexity probe limited to 1 <= q <= 8, got {list(q_values)}")
    return [(int(q), 2**q * (2**q + 1) // 2) for q in q_values]

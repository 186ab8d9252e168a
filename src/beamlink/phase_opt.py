"""Quantized phase-alignment solvers for the blockwise beamformer.

Two problems are solved over finite phase grids. The per-element problem
assigns every channel element its own angle from the fine grid
``{2 pi b / 2**q}`` and is solved to global optimality; it serves as the
reference any heuristic must stay below. The blockwise problem restricts
the angles to the two coarser grids tied to the rotation blocks and is
solved with a greedy pass that fills the two slot sets one antenna at a
time. Both maximize the aligned-sum magnitude

    | sum_v conj(h_v) * exp(j phi(v)) |

The greedy kernel runs on a batch of channel rows at once;
:func:`greedy_bpr_phases` is that kernel on a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METHOD_EXHAUSTIVE = "exhaustive"
METHOD_GREEDY = "greedy"
METHOD_FIXED_ZERO = "fixed-zero"
METHOD_RANDOM = "random"

MAX_ORACLE_ELEMENTS = 16


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """Angles ``2 pi b / denominator`` for the stored integer indices ``b``."""

    denominator: int
    indices: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))

    @property
    def angles(self) -> np.ndarray:
        """Grid angles reduced modulo 2 pi."""
        return (2.0 * np.pi * self.indices / self.denominator) % (2.0 * np.pi)

    @property
    def size(self) -> int:
        return self.indices.size


def element_grid(q: int) -> PhaseGrid:
    """Per-element grid: denominator ``2**q``, indices ``0 .. 2**q - 1``."""
    if q < 1:
        raise ValueError("q must be at least 1")
    n = 2**q
    return PhaseGrid(denominator=n, indices=np.arange(n))


def block_grids(q: int) -> tuple[PhaseGrid, PhaseGrid]:
    """Blockwise grids with denominator ``2**(q-1)``.

    The first block uses indices ``0 .. 2**(q-1) - 1``, the second
    ``2**(q-1) .. 2**q - 1``; the second set's angles exceed 2 pi and are
    stored reduced (for q = 2 both reduce to {0, pi}).
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    half = 2 ** (q - 1)
    return (
        PhaseGrid(denominator=half, indices=np.arange(half)),
        PhaseGrid(denominator=half, indices=np.arange(half, 2 * half)),
    )


@dataclass(frozen=True, eq=False)
class PhaseSelection:
    """A solved phase assignment.

    ``slots1``/``slots2`` hold the channel-element index assigned to each
    slot of the two blocks, and ``phi1``/``phi2`` the angle chosen for
    that slot, so slot k of the beamformer columns rotates by
    ``phi1[k]`` (top block) and ``phi2[k]`` (bottom block). ``gain`` is
    the achieved aligned-sum magnitude; it is always recomputable from
    the stored assignment via :func:`alignment_gain`.
    """

    phi1: np.ndarray
    phi2: np.ndarray
    slots1: np.ndarray
    slots2: np.ndarray
    gain: float
    method: str

    def per_element_phases(self) -> np.ndarray:
        """Total phase applied to each channel element."""
        n = self.slots1.size + self.slots2.size
        out = np.zeros(n, dtype=np.float64)
        out[self.slots1] = self.phi1
        out[self.slots2] = self.phi2
        return out


def alignment_gain(h: np.ndarray, selection: PhaseSelection) -> float:
    """Re-evaluate ``|sum conj(h_v) exp(j phi(v))|`` for a stored selection."""
    phases = selection.per_element_phases()
    return float(np.abs(np.sum(np.conj(h) * np.exp(1j * phases))))


def _selection_from_element_phases(
    h: np.ndarray, phases: np.ndarray, method: str
) -> PhaseSelection:
    # Identity slotting: element k sits in slot k of its half.
    n = phases.size
    half = n // 2
    slots1 = np.arange(half)
    slots2 = np.arange(half, n)
    gain = float(np.abs(np.sum(np.conj(h) * np.exp(1j * phases))))
    return PhaseSelection(
        phi1=phases[:half].copy(),
        phi2=phases[half:].copy(),
        slots1=slots1,
        slots2=slots2,
        gain=gain,
        method=method,
    )


def _rotation_sweep_phases(h: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Exact grid optimum via a sweep over the common rotation angle.

    For any reference direction psi each element's best grid angle is the
    one closest to ``psi - arg(conj(h_v))``; the best assignment changes
    only at finitely many psi values, so scanning one candidate psi per
    breakpoint interval and keeping the best aligned-sum magnitude yields
    the global optimum without joint enumeration.
    """
    hc = np.conj(h)
    base = np.angle(hc)
    step = 2.0 * np.pi / angles.size
    breakpoints = np.sort(
        ((base[:, None] + angles[None, :] + step / 2.0) % (2.0 * np.pi)).ravel()
    )
    gaps = np.diff(np.concatenate([breakpoints, [breakpoints[0] + 2.0 * np.pi]]))
    candidates = (breakpoints + gaps / 2.0) % (2.0 * np.pi)
    best_gain = -1.0
    best_phases: np.ndarray | None = None
    for psi in candidates:
        idx = np.round(((psi - base) % (2.0 * np.pi)) / step).astype(np.int64) % angles.size
        phases = angles[idx]
        gain = float(np.abs(np.sum(hc * np.exp(1j * phases))))
        if gain > best_gain + 1e-15:
            best_gain = gain
            best_phases = phases
    assert best_phases is not None
    return best_phases


def exhaustive_phase_oracle(h: np.ndarray, q: int) -> PhaseSelection:
    """Globally optimal per-element assignment over the fine grid.

    The rotation sweep finds the optimum of the ``(2**q)**(2**q)`` joint
    assignments from ``2**q * 2**q`` candidate rotations, for arrays of
    up to 16 elements. The result upper-bounds any blockwise selection
    because the blockwise grids are subsets of this one.
    """
    h = np.asarray(h, dtype=np.complex128)
    n = 2**q
    if h.shape != (n,):
        raise ValueError(f"h must have length 2**q = {n}")
    if n > MAX_ORACLE_ELEMENTS:
        raise ValueError(f"oracle limited to {MAX_ORACLE_ELEMENTS} elements")
    phases = _rotation_sweep_phases(h, element_grid(q).angles)
    return _selection_from_element_phases(h, phases, METHOD_EXHAUSTIVE)


def _greedy(h: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Greedy blockwise selection over the rows of ``h``, shape ``(b, 2**q)``.

    Returns ``(phi, slots, gain, evals)``: ``phi[block]`` and
    ``slots[block]`` have shape ``(b, 2**(q-1))`` and hold the angle and
    the element chosen for each slot of the two blocks, ``gain`` is the
    aligned-sum magnitude per row and ``evals`` the number of candidate
    objective evaluations per row, which does not depend on ``h``.
    """
    b, n = h.shape
    half = n // 2
    hc = h.conj()
    acc = np.zeros(b, dtype=np.complex128)
    alive = np.ones((b, n), dtype=bool)
    phi = np.empty((2, b, half))
    slots = np.empty((2, b, half), dtype=np.int64)
    rows = np.arange(b)
    evals = 0
    for block, grid in enumerate(block_grids(q)):
        rotations = np.exp(1j * grid.angles)
        for slot in range(half):
            scores = np.abs(acc[:, None, None] + hc[:, :, None] * rotations[None, None, :])
            scores[~alive] = -np.inf
            evals += (n - block * half - slot) * rotations.size
            # first flat maximum of the computed scores: equal floats go to the
            # lowest element index, then the lowest grid index. On the first
            # slot every angle of an element scores |h_v| in exact arithmetic,
            # so the rounding of numpy's array abs picks the angle there.
            flat = scores.reshape(b, -1).argmax(axis=1)
            elem, gidx = np.divmod(flat, rotations.size)
            phi[block, :, slot] = grid.angles[gidx]
            slots[block, :, slot] = elem
            acc = acc + hc[rows, elem] * rotations[gidx]
            alive[rows, elem] = False
    return phi, slots, np.abs(acc), evals


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
    is taken. This is the batched kernel applied to a batch of one.
    """
    h = np.asarray(h, dtype=np.complex128)
    n = 2**q
    if h.shape != (n,):
        raise ValueError(f"h must have length 2**q = {n}")
    phi, slots, gain, _ = _greedy(h[None], q)
    return PhaseSelection(*phi[:, 0], *slots[:, 0], float(gain[0]), METHOD_GREEDY)


def fixed_zero_selection(h: np.ndarray, q: int) -> PhaseSelection:
    """All-zero rotation baseline (identity blocks)."""
    h = np.asarray(h, dtype=np.complex128)
    return _selection_from_element_phases(
        h, np.zeros(2**q, dtype=np.float64), METHOD_FIXED_ZERO
    )


def random_selection(
    h: np.ndarray, q: int, rng: np.random.Generator
) -> PhaseSelection:
    """Uniformly random feasible blockwise assignment (baseline)."""
    h = np.asarray(h, dtype=np.complex128)
    n = 2**q
    half = n // 2
    grid1, grid2 = block_grids(q)
    perm = rng.permutation(n)
    slots1, slots2 = perm[:half], perm[half:]
    phi1 = grid1.angles[rng.integers(0, grid1.size, half)]
    phi2 = grid2.angles[rng.integers(0, grid2.size, half)]
    phases = np.zeros(n, dtype=np.float64)
    phases[slots1] = phi1
    phases[slots2] = phi2
    gain = float(np.abs(np.sum(np.conj(h) * np.exp(1j * phases))))
    return PhaseSelection(
        phi1=phi1,
        phi2=phi2,
        slots1=np.asarray(slots1, dtype=np.int64),
        slots2=np.asarray(slots2, dtype=np.int64),
        gain=gain,
        method=METHOD_RANDOM,
    )


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

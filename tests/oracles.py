"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive (loops, joint enumeration,
fixed-grid quadrature) or, like the rotation sweep, exact by
construction, and shares no code with the package paths it checks.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
from scipy.linalg import hadamard
from scipy.stats import norm


def dense_matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Triple-checked naive matrix-vector product of a^H x."""
    rows, cols = a.shape
    out = np.zeros(cols, dtype=np.complex128)
    for k in range(cols):
        acc = 0.0 + 0.0j
        for m in range(rows):
            acc += np.conj(a[m, k]) * x[m]
        out[k] = acc
    return out


def dense_gram(a: np.ndarray) -> np.ndarray:
    """Naive a^H a."""
    rows, cols = a.shape
    out = np.zeros((cols, cols), dtype=np.complex128)
    for i in range(cols):
        for j in range(cols):
            acc = 0.0 + 0.0j
            for m in range(rows):
                acc += np.conj(a[m, i]) * a[m, j]
            out[i, j] = acc
    return out


def geometric_channel(
    gains: np.ndarray, angles: np.ndarray, n: int, spacing: float
) -> np.ndarray:
    """Naive ``h[m] = sum_l gains[l] exp(j 2 pi spacing m sin(angles[l]))``."""
    h = np.zeros(n, dtype=np.complex128)
    for m in range(n):
        for gain, theta in zip(gains, angles):
            h[m] += gain * np.exp(2j * np.pi * spacing * m * np.sin(theta))
    return h


def golden_block(
    q: int, g: complex, n_root: float, phi1: np.ndarray, phi2: np.ndarray
) -> np.ndarray:
    """Full ``2**q x 2**q`` recursive block ``g/sqrt(xi) [[W A, W B], [W B, -W A]]``.

    ``W`` is scipy's order ``2**(q-1)`` Hadamard matrix, ``A`` and ``B``
    are ``diag(exp(j phi1))`` and ``diag(exp(j phi2))``, and
    ``xi = n ((1+n)**q - (1-n)**q) / 2**q`` with ``n = n_root``.
    """
    w = hadamard(2 ** (q - 1)).astype(np.complex128)
    wa = w * np.exp(1j * np.asarray(phi1))[None, :]
    wb = w * np.exp(1j * np.asarray(phi2))[None, :]
    xi = n_root * ((1.0 + n_root) ** q - (1.0 - n_root) ** q) / 2.0**q
    return g / np.sqrt(xi) * np.block([[wa, wb], [wb, -wa]])


def joint_bruteforce_gain(h: np.ndarray, angles: np.ndarray) -> float:
    """Global optimum of |sum conj(h_v) e^{j phi_v}| over all grid assignments."""
    best = -1.0
    hc = np.conj(h)
    for combo in itertools.product(angles, repeat=h.size):
        val = abs(sum(hc[v] * np.exp(1j * combo[v]) for v in range(h.size)))
        best = max(best, val)
    return best


def element_grid_angles(q: int) -> np.ndarray:
    """Per-element fine grid: angles ``2 pi b / 2**q`` for ``b = 0 .. 2**q - 1``."""
    n = 2**q
    return (2.0 * np.pi * np.arange(n) / n) % (2.0 * np.pi)


def rotation_sweep_phases(h: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Exact per-element grid optimum via a sweep over the common rotation angle.

    For any reference direction psi each element's best grid angle is the
    one closest to ``psi - arg(conj(h_v))``; the best assignment changes
    only at finitely many psi values, so scanning one candidate psi per
    breakpoint interval and keeping the best aligned-sum magnitude yields
    the global optimum of the ``angles.size ** h.size`` joint assignments
    without enumerating them. Every blockwise assignment whose grids are
    subsets of ``angles`` is one of those assignments, so the optimum
    bounds any blockwise selection from above.
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


def blockwise_bruteforce_gain(h: np.ndarray, grid1: np.ndarray, grid2: np.ndarray) -> float:
    """Global optimum of the blockwise assignment problem.

    Every split of the elements into two equal halves is enumerated; the
    first half draws angles from grid1 per slot, the second from grid2.
    """
    n = h.size
    half = n // 2
    hc = np.conj(h)
    best = -1.0
    for set1 in itertools.combinations(range(n), half):
        set2 = tuple(v for v in range(n) if v not in set1)
        for a1 in itertools.product(grid1, repeat=half):
            part1 = sum(hc[v] * np.exp(1j * a) for v, a in zip(set1, a1))
            for a2 in itertools.product(grid2, repeat=half):
                part2 = sum(hc[v] * np.exp(1j * a) for v, a in zip(set2, a2))
                best = max(best, abs(part1 + part2))
    return best


def random_blockwise_gain(
    h: np.ndarray, grid1: np.ndarray, grid2: np.ndarray, rng: np.random.Generator
) -> float:
    """Gain of one uniformly random feasible blockwise assignment."""
    n = h.size
    half = n // 2
    perm = rng.permutation(n)
    phases = np.zeros(n)
    phases[perm[:half]] = grid1[rng.integers(0, grid1.size, half)]
    phases[perm[half:]] = grid2[rng.integers(0, grid2.size, half)]
    return float(abs(np.sum(np.conj(h) * np.exp(1j * phases))))


def greedy_blockwise_reference(
    h: np.ndarray, grid1: np.ndarray, grid2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Scalar per-candidate greedy blockwise selection.

    Block 1's slots are filled first, then block 2's, each from the
    elements not yet placed and that block's grid angles. A slot takes
    the candidate (element, angle) with the largest aligned-sum
    magnitude ``|acc + conj(h_v) exp(j angle)|``. Candidates are scanned
    by ascending element index, then ascending grid index, and only a
    strictly larger score replaces the best so far, so ties go to the
    lowest element index, then the lowest grid index. The first slot of
    a run scores grid index 0 only: with nothing placed every angle
    gives ``|h_v|``, and a fixed first angle only sets the global phase.

    Returns (phi1, phi2, slots1, slots2, gain).
    """
    hc = np.conj(h)
    remaining = list(range(h.size))
    acc = 0.0 + 0.0j
    slots: list[list[int]] = [[], []]
    phis: list[list[float]] = [[], []]
    for block, angles in enumerate((grid1, grid2)):
        rotations = np.exp(1j * angles)
        for slot in range(h.size // 2):
            best_score = -1.0
            best_pos = best_angle_idx = 0
            for pos, elem in enumerate(remaining):
                scores = np.abs(acc + hc[elem] * rotations)
                for bi in range(1 if block == slot == 0 else angles.size):
                    if scores[bi] > best_score:
                        best_score = float(scores[bi])
                        best_pos = pos
                        best_angle_idx = bi
            elem = remaining.pop(best_pos)
            slots[block].append(elem)
            phis[block].append(float(angles[best_angle_idx]))
            acc = acc + hc[elem] * rotations[best_angle_idx]
    return (
        np.array(phis[0]),
        np.array(phis[1]),
        np.array(slots[0]),
        np.array(slots[1]),
        float(abs(acc)),
    )


def greedy_full_grid(
    h: np.ndarray, grid1: np.ndarray, grid2: np.ndarray, tile_rows: int = 1024
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched greedy blockwise selection that scores the full grid.

    The rows of ``h``, shape ``(b, n)``, run in tiles of ``tile_rows``.
    Every slot scores all ``m x G`` (unplaced element, grid angle) pairs
    as one ``(rows, m, G)`` array ``abs(acc + conj(h_v) * rotation)`` and
    takes the first flat maximum, so equal float scores go to the lowest
    element index, then the lowest grid index. Slot 1 scores grid index
    0 only, as the kernel's rule states. Returns ``(phi, slots,
    gain)``, each of the first two laid out as
    ``phase_opt.greedy_bpr_indices`` lays out its indices.
    """
    b, n = h.shape
    half = n // 2
    phi = np.empty((2, b, half))
    slots = np.empty((2, b, half), dtype=np.int64)
    gain = np.empty(b)
    for start in range(0, b, tile_rows):
        hc = np.conj(h[start : start + tile_rows])
        rows = np.arange(hc.shape[0])
        acc = np.zeros(hc.shape[0], dtype=np.complex128)
        remaining = np.tile(np.arange(n), (hc.shape[0], 1))
        cand = hc
        for block, angles in enumerate((grid1, grid2)):
            rotations = np.exp(1j * angles)
            for slot in range(half):
                m = remaining.shape[1]
                grid = rotations[:1] if block == slot == 0 else rotations
                scores = np.abs(acc[:, None, None] + cand[:, :, None] * grid[None, None, :])
                pos, gidx = np.divmod(scores.reshape(rows.size, -1).argmax(axis=1), grid.size)
                elem = remaining[rows, pos]
                phi[block, start + rows, slot] = angles[gidx]
                slots[block, start + rows, slot] = elem
                acc = acc + hc[rows, elem] * rotations[gidx]
                keep = np.arange(m) != pos[:, None]
                remaining = remaining[keep].reshape(rows.size, m - 1)
                cand = cand[keep].reshape(rows.size, m - 1)
        gain[start : start + rows.size] = np.abs(acc)
    return phi, slots, gain


def replay_greedy(
    h: np.ndarray, idx: np.ndarray, grid1: np.ndarray, grid2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replays a greedy blockwise selection from its grid indices alone.

    ``h`` has shape ``(b, n)`` and ``idx`` shape ``(2, b, n // 2)``, as
    ``phase_opt.greedy_bpr_indices`` returns them. Each slot rotates
    every unplaced element by the slot's recorded angle and places the
    first element with the largest ``|acc + conj(h_v) exp(j angle)|``.
    That is the greedy's element: at the recorded angle no element
    scores more than at its own best angle, where none beats the
    greedy's choice. Returns ``(phi, slots, gain)``: the angles, each
    slot's element and the aligned-sum magnitude of each row.
    """
    b, n = h.shape
    hc = np.conj(h)
    rows = np.arange(b)
    acc = np.zeros(b, dtype=np.complex128)
    placed = np.zeros((b, n), dtype=bool)
    phi = np.empty(idx.shape)
    slots = np.empty(idx.shape, dtype=np.int64)
    for block, angles in enumerate((grid1, grid2)):
        for slot in range(n // 2):
            rotation = np.exp(1j * angles[idx[block, :, slot]])
            scores = np.abs(acc[:, None] + hc * rotation[:, None])
            scores[placed] = -np.inf
            elem = scores.argmax(axis=1)
            phi[block, :, slot] = angles[idx[block, :, slot]]
            slots[block, :, slot] = elem
            acc = acc + hc[rows, elem] * rotation
            placed[rows, elem] = True
    return phi, slots, np.abs(acc)


def greedy_nearest_angle(
    h: np.ndarray, grid1: np.ndarray, grid2: np.ndarray, tile_entries: int = 2**14
) -> np.ndarray:
    """Batched greedy blockwise selection that scores each unplaced element
    at its nearest grid angle, by that angle's ``atan2`` and the ``hypot``
    of the rotated sum.

    Every slot takes each element's nearest angle
    ``rint(-G angle(conj(h_v) conj(acc)) / 2 pi) mod G``, scores it as
    ``abs(acc + rotation * conj(h_v))`` and places the first maximum
    over the elements in ascending index order, found by a running
    scan; the placed element leaves by an order-keeping ``take``. Slot
    1 takes grid index 0 and the first maximum of ``|h_v|``. The rows
    of ``h``, shape ``(b, n)``, run in tiles of ``tile_entries``
    entries. Returns the grid indices laid out as
    ``phase_opt.greedy_bpr_indices`` lays them out.
    """
    b, n = h.shape
    idx = np.empty((2, b, n // 2), dtype=np.int64)
    tile = max(1, tile_entries // n)
    for start in range(0, b, tile):
        rows = slice(start, start + tile)
        _nearest_angle_tile(np.conjugate(h[rows].T, order="C"), (grid1, grid2), idx[:, rows])
    return idx


def _nearest_angle_tile(
    hc: np.ndarray, grids: tuple[np.ndarray, np.ndarray], idx: np.ndarray
) -> None:
    """:func:`greedy_nearest_angle` on the element-major tile
    ``hc = conj(h).T``, shape ``(n, rows)``; fills the tile's view ``idx``."""
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
                # angle is 0, so a row with acc = 0 takes grid index 0
                phase = cand * acc.conj()
                phase += 0.0
                phase = np.angle(phase)
                phase *= -size / (2 * np.pi)
                np.rint(phase, out=phase)
                near = phase.astype(np.int64)
                near &= size - 1
                score = rotations[near] * cand
                score += acc
            score = np.abs(score)
            pos = _running_first_max(score)
            del score
            flat = pos * rows + col
            g = near.ravel().take(flat)
            idx[block, :, slot] = g
            if cand.shape[0] == 1:
                break
            acc = acc + rotations[g] * cand.ravel().take(flat)
            j = np.arange(cand.shape[0] - 1)[:, None]
            cand = cand.ravel().take((j + (j >= pos)) * rows + col)


def _running_first_max(scores: np.ndarray) -> np.ndarray:
    """Row index of the first maximum in each column of ``scores``, by a
    running scan over the rows in ascending order."""
    pos = np.zeros(scores.shape[1], dtype=np.int64)
    best = scores[0]
    for j in range(1, scores.shape[0]):
        pos = np.where(scores[j] > best, j, pos)
        best = np.maximum(best, scores[j])
    return pos


def grid_projection_bruteforce(p: np.ndarray, size: int) -> np.ndarray:
    """``max_k Re(exp(2 pi j k / size) p)`` over all ``size`` grid rotations."""
    k = np.arange(size)
    return np.max(np.real(np.exp(2j * np.pi * k / size) * np.asarray(p)[..., None]), axis=-1)


def label_rows(order: int) -> np.ndarray:
    """Gray bit labels of an ``order``-point constellation, one row per label index.

    Row i spells the big-endian binary expansion of i, written out
    digit by digit from its string form.
    """
    width = order.bit_length() - 1
    return np.array([[int(c) for c in format(i, f"0{width}b")] for i in range(order)], dtype=np.uint8)


def pair_label_rows(pairs: np.ndarray, order: int) -> np.ndarray:
    """Source-bit rows of codewords given as ``(n, 2)`` label index pairs:
    the two symbol labels side by side."""
    labels = label_rows(order)
    return np.concatenate([labels[pairs[:, 0]], labels[pairs[:, 1]]], axis=1)


def nearest_point_index(symbol: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Index of the constellation point nearest to each symbol.

    Exhaustive search over all M points; ``argmin`` keeps the first
    minimum, so an exact tie goes to the lowest constellation index.
    """
    symbol = np.asarray(symbol)
    return np.abs(symbol[..., None] - points).argmin(axis=-1)


def lattice_nearest_index(m: np.ndarray, n: np.ndarray, points: np.ndarray, scale: float) -> np.ndarray:
    """Index of the point nearest to ``(m + j n) / scale`` for integer m, n, in exact arithmetic.

    Every point of a square QAM (BPSK with scale 1) sits at odd integers
    over ``scale`` on each axis, so squared distances in units of
    ``1 / scale`` are integers and ties are exact; the lowest index wins.
    """
    coords = points * scale
    pi = np.rint(coords.real).astype(np.int64)
    pq = np.rint(coords.imag).astype(np.int64)
    if not (np.allclose(pi, coords.real, atol=1e-9) and np.allclose(pq, coords.imag, atol=1e-9)):
        raise ValueError("constellation points are not on the integer lattice")
    m = np.asarray(m, dtype=np.int64)[..., None]
    n = np.asarray(n, dtype=np.int64)[..., None]
    d2 = (m - pi) ** 2 + (n - pq) ** 2
    return d2.argmin(axis=-1)


def ml_decode_index(
    y: np.ndarray, h_eq: np.ndarray, codewords: np.ndarray, amplitude: float
) -> int:
    """Exhaustive maximum-likelihood codeword index."""
    best_idx = -1
    best_metric = np.inf
    for idx in range(codewords.shape[0]):
        predicted = amplitude * (np.conj(h_eq) @ codewords[idx])
        metric = float(np.sum(np.abs(y - predicted) ** 2))
        if metric < best_metric:
            best_metric = metric
            best_idx = idx
    return best_idx


def min_codeword_distance(h_eq: np.ndarray, codewords: np.ndarray) -> float:
    """Pairwise search for ``min_{k != l} ||h_eq^H (S_k - S_l)||_F``.

    Projects every codeword and scans all pairs, with no use of the
    code's orthogonality; the 4096 codewords of 64-QAM take a fraction
    of a second.
    """
    projected = np.einsum("c,kct->kt", np.conj(h_eq), codewords)
    best = np.inf
    for k in range(projected.shape[0] - 1):
        dists = np.linalg.norm(projected[k + 1 :] - projected[k], axis=1)
        best = min(best, float(dists.min()))
    return best


def union_bound_enum(
    h_eq: np.ndarray,
    codewords: np.ndarray,
    bits: np.ndarray,
    gamma0: float,
    kappa: float,
) -> float:
    """Direct ordered-pair enumeration of the union bound."""
    total = 0.0
    n = codewords.shape[0]
    bits_per_symbol = bits.shape[1] // 2
    for k in range(n):
        for l in range(n):
            if k == l:
                continue
            err = codewords[k] - codewords[l]
            xi = np.sqrt(
                sum(
                    abs(sum(np.conj(h_eq[c]) * err[c, t] for c in range(2))) ** 2
                    for t in range(2)
                )
            )
            hamming = int(np.sum(bits[k] != bits[l]))
            total += hamming / bits_per_symbol * norm.sf(xi * np.sqrt(gamma0 * kappa / 2.0))
    return total


def union_bound_codebook(
    h_eq: np.ndarray,
    codewords: np.ndarray,
    bits: np.ndarray,
    gamma0s: list[float],
    kappa: float,
) -> list[float]:
    """Ordered-pair union bound over the full codebook, one value per gamma0.

    Each pair's distance is ``||h_eq^H (S_k - S_l)||_F``, summed over
    the real and imaginary parts of the projected codewords, with no use
    of the code's orthogonality. Rows are processed in chunks and the
    distances are shared across SNRs, so the 4096 codewords of 64-QAM,
    too many for :func:`union_bound_enum`, take a few seconds.
    """
    projected = np.einsum("c,kct->kt", np.conj(h_eq), codewords)
    parts = np.concatenate([projected.real, projected.imag], axis=1)
    label_ints = bits.astype(np.int64) @ (1 << np.arange(bits.shape[1]))
    popcount = np.array([bin(i).count("1") for i in range(1 << bits.shape[1])])
    scales = np.sqrt(np.asarray(gamma0s) * kappa / 2.0)
    totals = np.zeros(scales.size)
    for start in range(0, codewords.shape[0], 256):
        rows = slice(start, start + 256)
        xi_sq = 0.0
        for col in range(parts.shape[1]):
            diff = parts[rows, None, col] - parts[None, :, col]
            xi_sq = xi_sq + diff * diff
        xi = np.sqrt(xi_sq)
        # the k = l pairs have zero Hamming weight and add nothing
        hamming = popcount[label_ints[rows, None] ^ label_ints[None, :]]
        for g, scale in enumerate(scales):
            totals[g] += float(np.sum(hamming * norm.sf(xi * scale)))
    return list(totals / (bits.shape[1] // 2))


@functools.lru_cache(maxsize=None)
def _legendre_grid(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n_nodes)


def gauss_legendre(fn, a: float, b: float, n_nodes: int = 240) -> float:
    """Fixed-grid Gauss-Legendre quadrature."""
    nodes, weights = _legendre_grid(n_nodes)
    x = 0.5 * (b - a) * nodes + 0.5 * (b + a)
    return float(0.5 * (b - a) * np.sum(weights * fn(x)))


def rayleigh_q_mgf_reference(a: float, gamma_bar: float) -> float:
    """E[Q(a sqrt(gamma))], gamma ~ Exp(gamma_bar), from the MGF integral
    (1/pi) int_0^{pi/2} sin^2 t / (sin^2 t + a^2 gamma_bar / 2) dt on a
    fixed grid."""
    c = a * a * gamma_bar / 2.0
    integrand = lambda t: np.sin(t) ** 2 / (np.sin(t) ** 2 + c)
    return gauss_legendre(integrand, 0.0, np.pi / 2, 400) / np.pi


def expected_q_over_rayleigh(a: float, gamma_bar: float) -> float:
    """E[Q(a sqrt(gamma))], gamma ~ Exp(gamma_bar), by direct integration.

    Substituting u = exp(-gamma / gamma_bar) turns the expectation into
    int_0^1 Q(a sqrt(-gamma_bar ln u)) du, evaluated on a fixed grid.
    This route never touches the MGF identity the package uses.
    """
    if gamma_bar == 0:
        return 0.5

    def integrand(u: np.ndarray) -> np.ndarray:
        gamma = -gamma_bar * np.log(np.clip(u, 1e-300, 1.0))
        return norm.sf(a * np.sqrt(gamma))

    return gauss_legendre(integrand, 0.0, 1.0, 400)


def mqam_mgf_reference(gamma_bar: float, m: int) -> float:
    """Two-integral MGF representation of square-QAM error probability,
    on fixed Gauss-Legendre grids (independent of the package closed form)."""
    zeta = 1.0 - 1.0 / np.sqrt(m)
    c = 3.0 * gamma_bar / (2.0 * (m - 1))
    integrand = lambda t: np.sin(t) ** 2 / (np.sin(t) ** 2 + c)
    i1 = gauss_legendre(integrand, 0.0, np.pi / 2, 400)
    i2 = gauss_legendre(integrand, 0.0, np.pi / 4, 400)
    return 4.0 * zeta / np.pi * i1 - 4.0 * zeta**2 / np.pi * i2


def mpsk_mgf_reference(gamma_bar: float, m: int) -> float:
    """Single-integral MGF form with a^2 = 2 sin^2(pi/M), fixed grid."""
    return rayleigh_q_mgf_reference(np.sqrt(2.0) * np.sin(np.pi / m), gamma_bar)


def mpsk_printed_form(gamma_bar: float, m: int) -> float:
    """Arctangent-weighted MPSK expression as printed in some references,

        (M-1)/M - sqrt(mu)/2 + ((M-1) sqrt(mu)/M) atan(sqrt(mu) cot(pi/M)),

    with ``mu = gbar sin^2(pi/M) / (1 + gbar sin^2(pi/M))``. It agrees
    with the MGF integral only for M = 2 and does not decay at high SNR
    for M > 2; the acceptance suite logs how far it is off.
    """
    g = np.sin(np.pi / m) ** 2
    root = np.sqrt(gamma_bar * g / (1.0 + gamma_bar * g))
    cot = 1.0 / np.tan(np.pi / m) if m > 2 else 0.0
    return (m - 1) / m - root / 2.0 + (m - 1) * root / m * np.arctan(root * cot)

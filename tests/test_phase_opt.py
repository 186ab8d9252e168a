import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from beamlink import beamformer, channel, phase_opt
from beamlink.rng import substream

from oracles import (
    blockwise_bruteforce_gain,
    element_grid_angles,
    greedy_full_grid,
    greedy_nearest_angle,
    grid_projection_bruteforce,
    joint_bruteforce_gain,
    random_blockwise_gain,
    replay_greedy,
    rotation_sweep_phases,
)


def _random_channel(n, seed):
    rng = substream(seed, 77)
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)


def _sweep_gain(h, angles):
    return abs(np.sum(np.conj(h) * np.exp(1j * rotation_sweep_phases(h, angles))))


class TestGrids:
    def test_element_grid_q2(self):
        angles = element_grid_angles(2)
        np.testing.assert_allclose(angles, [0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_block_grids_q2_reduce_to_binary(self):
        g1, g2 = phase_opt.block_grids(2)
        np.testing.assert_allclose(g1, [0.0, np.pi])
        np.testing.assert_allclose(g2, [0.0, np.pi])
        # the second block's indices are 2, 3, reduced modulo 2 pi
        np.testing.assert_array_equal(g2, (2.0 * np.pi * np.array([2, 3]) / 2) % (2.0 * np.pi))

    def test_block_grids_q3(self):
        g1, g2 = phase_opt.block_grids(3)
        quarter = np.array([0, np.pi / 2, np.pi, 3 * np.pi / 2])
        np.testing.assert_allclose(g1, quarter)
        np.testing.assert_allclose(g2, quarter)  # indices 4..7 reduced mod 2 pi

    def test_block_angles_subset_of_element_grid(self):
        for q in (1, 2, 3, 4):
            fine = set(np.round(element_grid_angles(q), 12))
            g1, g2 = phase_opt.block_grids(q)
            assert set(np.round(g1, 12)) <= fine
            assert set(np.round(g2, 12)) <= fine


class TestExhaustiveOracle:
    """The rotation sweep in ``oracles``: the fine-grid per-element optimum."""

    def test_aligned_channel(self):
        for q in (1, 2):
            h = np.ones(2**q, dtype=complex)
            phases = rotation_sweep_phases(h, element_grid_angles(q))
            assert _sweep_gain(h, element_grid_angles(q)) == pytest.approx(2**q)
            np.testing.assert_allclose(phases, 0.0)

    def test_alternating_signs_q1(self):
        h = np.array([1.0 + 0j, -1.0 + 0j])
        assert _sweep_gain(h, element_grid_angles(1)) == pytest.approx(2.0)
        np.testing.assert_allclose(
            sorted(rotation_sweep_phases(h, element_grid_angles(1))), [0.0, np.pi]
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_joint_bruteforce_q2(self, seed):
        h = _random_channel(4, seed)
        angles = element_grid_angles(2)
        assert _sweep_gain(h, angles) == pytest.approx(joint_bruteforce_gain(h, angles), abs=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_rotation_sweep_agrees_with_bruteforce(self, seed):
        # check the sweep against the independent joint enumeration on
        # instances small enough to enumerate
        h = _random_channel(4, 100 + seed)
        angles = element_grid_angles(2)
        swept = rotation_sweep_phases(h, angles)
        gain = abs(np.sum(np.conj(h) * np.exp(1j * swept)))
        assert gain == pytest.approx(joint_bruteforce_gain(h, angles), abs=1e-10)

    def test_q3_uses_sweep_and_dominates_random_search(self):
        h = _random_channel(8, 5)
        angles = element_grid_angles(3)
        best = _sweep_gain(h, angles)
        rng = substream(5, 78)
        for _ in range(2000):
            phases = angles[rng.integers(0, angles.size, 8)]
            assert abs(np.sum(np.conj(h) * np.exp(1j * phases))) <= best + 1e-10


def _replayed(h, q):
    """The kernel's selection over the rows of ``h`` as ``(phi, slots,
    gain)``: its grid indices, replayed by ``oracles.replay_greedy``."""
    return replay_greedy(h, phase_opt.greedy_bpr_indices(h, q), *phase_opt.block_grids(q))


def _greedy_row(h, q):
    """The selection for one channel: row 0 of a batch of one, as
    ``(phi, slots, gain)`` with ``phi[block]`` and ``slots[block]``."""
    phi, slots, gain = _replayed(h[None], q)
    return phi[:, 0], slots[:, 0], float(gain[0])


class TestGreedy:
    def test_aligned_channel_reaches_full_gain(self):
        _, _, gain = _greedy_row(np.ones(4, dtype=complex), 2)
        assert gain == pytest.approx(4.0)
        expected = blockwise_bruteforce_gain(np.ones(4, dtype=complex), *phase_opt.block_grids(2))
        assert gain == pytest.approx(expected)

    def test_dominant_element_chosen_first(self):
        h = np.array([10.0 + 0j, 0.01 + 0j, 0.01j, 0.01 - 0.01j])
        _, slots, _ = _greedy_row(h, 2)
        assert slots[0, 0] == 0

    @pytest.mark.parametrize("seed", range(50))
    def test_bounded_by_blockwise_bruteforce(self, seed):
        h = _random_channel(4, 200 + seed)
        _, _, gain = _greedy_row(h, 2)
        assert gain <= blockwise_bruteforce_gain(h, *phase_opt.block_grids(2)) + 1e-10

    @pytest.mark.parametrize("seed", range(50))
    def test_bounded_by_element_oracle(self, seed):
        # the fine per-element grid contains every blockwise assignment
        h = _random_channel(4, 300 + seed)
        _, _, gain = _greedy_row(h, 2)
        assert gain <= _sweep_gain(h, element_grid_angles(2)) + 1e-10

    def test_beats_random_baseline_on_average(self):
        rng = substream(0, 79)
        grids = phase_opt.block_grids(2)
        wins = 0
        for seed in range(50):
            h = _random_channel(4, 400 + seed)
            _, _, gain = _greedy_row(h, 2)
            baseline = np.mean(
                [random_blockwise_gain(h, *grids, rng) for _ in range(100)]
            )
            wins += gain >= baseline
        assert wins >= 49

    @settings(max_examples=40, deadline=None)
    @given(psi=st.floats(0, 2 * np.pi), seed=st.integers(0, 1000))
    def test_global_phase_equivariance(self, psi, seed):
        h = _random_channel(4, seed)
        _, _, base = _greedy_row(h, 2)
        _, _, rotated = _greedy_row(np.exp(1j * psi) * h, 2)
        assert rotated == pytest.approx(base, abs=1e-10)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_global_phase_equivariance_batched(self, q):
        # each row times its own common phase: slot 1 takes angle 0 on both,
        # so every grid index is the same, and the replayed slots and gain
        n = 2**q
        rng = substream(q, 67)
        h = np.concatenate(
            [
                channel.sample_rayleigh_batch(8192, n, rng),
                channel.plane_wave_sums(*channel.sample_mmwave_batch(8192, 3, rng), n),
            ]
        )
        psi = rng.uniform(0, 2 * np.pi, h.shape[0])
        rotated = np.exp(1j * psi)[:, None] * h
        np.testing.assert_array_equal(
            phase_opt.greedy_bpr_indices(rotated, q), phase_opt.greedy_bpr_indices(h, q)
        )
        phi, slots, gain = _replayed(h, q)
        rot_phi, rot_slots, rot_gain = _replayed(rotated, q)
        np.testing.assert_array_equal(rot_phi, phi)
        np.testing.assert_array_equal(rot_slots, slots)
        np.testing.assert_allclose(rot_gain, gain, rtol=1e-12)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_scale_invariance_batched(self, q):
        # each row times its own positive scale: every score of the row
        # scales with it, so no choice moves. A power of two scales each
        # score exactly; other scales move only roundings, far from ties
        n = 2**q
        rng = substream(q, 68)
        h = np.concatenate(
            [
                channel.sample_rayleigh_batch(8192, n, rng),
                channel.plane_wave_sums(*channel.sample_mmwave_batch(8192, 3, rng), n),
            ]
        )
        want = phase_opt.greedy_bpr_indices(h, q)
        exact = np.ldexp(1.0, rng.integers(-30, 31, h.shape[0]))
        seeded = 10.0 ** rng.uniform(-3.0, 3.0, h.shape[0])
        for scale in (exact, seeded):
            np.testing.assert_array_equal(
                phase_opt.greedy_bpr_indices(scale[:, None] * h, q), want
            )

    def test_permutation_consistency(self):
        h = _random_channel(4, 17)
        perm = np.array([2, 0, 3, 1])
        base_phi, base_slots, _ = _greedy_row(h, 2)
        phi, slots, _ = _greedy_row(h[perm], 2)
        # element i of the permuted channel is element perm[i] of the original
        assert list(perm[slots[0]]) == list(base_slots[0])
        assert list(perm[slots[1]]) == list(base_slots[1])
        np.testing.assert_allclose(phi[0], base_phi[0])
        np.testing.assert_allclose(phi[1], base_phi[1])

    @pytest.mark.parametrize("seed", range(20))
    def test_gain_recomputable(self, seed):
        h = _random_channel(4, 500 + seed)
        phi, slots, gain = _greedy_row(h, 2)
        phases = np.zeros(4)
        phases[slots[0]] = phi[0]
        phases[slots[1]] = phi[1]
        recomputed = abs(np.sum(np.conj(h) * np.exp(1j * phases)))
        assert recomputed == pytest.approx(gain, abs=1e-10)

    def test_angles_come_from_block_grids(self):
        h = _random_channel(8, 3)
        idx = phase_opt.greedy_bpr_indices(h[None], 3)
        assert idx.dtype == np.int64 and idx.min() >= 0 and idx.max() < 4
        phi, slots, _ = _greedy_row(h, 3)
        g1, g2 = phase_opt.block_grids(3)
        np.testing.assert_array_equal(phi[0], g1[idx[0, 0]])
        np.testing.assert_array_equal(phi[1], g2[idx[1, 0]])
        assert sorted(np.concatenate([slots[0], slots[1]])) == list(range(8))

    @pytest.mark.parametrize("shape", [(4,), (3, 8), (1, 2, 4)])
    def test_rejects_rows_of_the_wrong_shape(self, shape):
        # q = 2 needs rows of 4 elements; a single channel is a batch of one
        with pytest.raises(ValueError, match=r"\bh\b"):
            phase_opt.greedy_bpr_indices(np.ones(shape, dtype=complex), 2)

    @pytest.mark.parametrize("bad", [np.nan, complex(0, -np.inf)], ids=["nan", "inf"])
    def test_rejects_non_finite_rows(self, bad):
        # a NaN or inf entry leaves no maximum to pick, so the row is refused
        h = np.ones((3, 4), dtype=complex)
        h[1, 2] = bad
        with pytest.raises(ValueError, match=r"\bh\b.*row 1\b"):
            phase_opt.greedy_bpr_indices(h, 2)


    @pytest.mark.parametrize("q", [2, 4])
    def test_rows_far_from_unit_scale_keep_their_indices(self, q):
        # near 2**-530 the scores of a unit row scaled down underflow and
        # moved decisions, and from 2**511 they overflow; each such row is
        # scored at an exact power-of-two scale, so it keeps its indices,
        # whatever the scales of the rows that share its tile
        n = 2**q
        rng = substream(q, 72)
        h = np.concatenate(
            [
                channel.sample_rayleigh_batch(4096, n, rng),
                channel.plane_wave_sums(*channel.sample_mmwave_batch(4096, 3, rng), n),
            ]
        )
        exps = [-1000, -600, -540, -530, -520, -511, 0, 500, 510, 600, 1000]
        e = rng.choice(exps, size=(h.shape[0], 1))
        scaled = np.ldexp(h.real, e) + 1j * np.ldexp(h.imag, e)
        np.testing.assert_array_equal(
            phase_opt.greedy_bpr_indices(scaled, q), phase_opt.greedy_bpr_indices(h, q)
        )

class TestLayout:
    """The selection does not depend on how the rows of ``h`` are laid out
    or batched."""

    @pytest.mark.parametrize("q", [2, 4])
    def test_layouts_give_identical_selections(self, q):
        # two full tiles and a short last one; every tenth row lies on the
        # {1, j, -1, -j} lattice, where candidates tie exactly
        n = 2**q
        rows = 2 * (phase_opt._TILE_ENTRIES // n) + 100
        rng = substream(q, 66)
        h = np.ascontiguousarray(channel.sample_rayleigh_batch(rows, n, rng))
        lattice = np.array([1, 1j, -1, -1j])
        h[::10] = lattice[rng.integers(0, 4, h[::10].shape)]
        spaced = np.zeros((2 * rows, n), dtype=complex)
        spaced[::2] = h
        want = phase_opt.greedy_bpr_indices(h, q)
        # 64-row batches score operands too small for numpy's temporary
        # elision, so a product's operand order must not depend on it
        batched = np.concatenate(
            [phase_opt.greedy_bpr_indices(h[i : i + 64], q) for i in range(0, rows, 64)], axis=1
        )
        for got in (
            phase_opt.greedy_bpr_indices(np.asfortranarray(h), q),
            phase_opt.greedy_bpr_indices(spaced[::2], q),
            batched,
        ):
            np.testing.assert_array_equal(got, want)
        # returned C-contiguous, not as a transposed view of an
        # element-major buffer
        assert want.flags.c_contiguous

    @pytest.mark.parametrize("kind", ["rayleigh", "gaussian-integer"])
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_tiles_give_identical_score_bits(self, monkeypatch, q, kind):
        # a score's bits decide nothing away from last-bit ties, so equal
        # selections cannot show a product whose operand order moves with
        # the tile. One 8192-row tile scores operands of 256 KiB and more,
        # which numpy's temporary elision may reuse and so reorder; 64-row
        # tiles score operands too small for it. Entries of 3 keep the
        # integer rows' products inexact. Each column's candidates are
        # swap-removed by that column's own picks, so a column holds its
        # candidates in the same order in every tile
        n, rows, small = 2**q, 8192, 64
        rng = substream(q, 68)
        if kind == "rayleigh":
            h = channel.sample_rayleigh_batch(rows, n, rng)
        else:
            h = rng.integers(-3, 4, (rows, n)) + 1j * rng.integers(-3, 4, (rows, n))
        first_max = phase_opt._first_max
        whole, differ, calls = [], [], 0

        def recording(scores, keys):
            whole.append(scores.copy())
            return first_max(scores, keys)

        def comparing(scores, keys):
            # tile t scores slot s in call t * n + s
            nonlocal calls
            t, s = divmod(calls, n)
            calls += 1
            want = whole[s][:, t * small : (t + 1) * small]
            if not np.array_equal(scores.view(np.uint64), want.view(np.uint64)):
                differ.append((s, t))
            return first_max(scores, keys)

        monkeypatch.setattr(phase_opt, "_TILE_ENTRIES", rows * n)
        monkeypatch.setattr(phase_opt, "_first_max", recording)
        phase_opt.greedy_bpr_indices(h, q)
        monkeypatch.setattr(phase_opt, "_TILE_ENTRIES", small * n)
        monkeypatch.setattr(phase_opt, "_first_max", comparing)
        phase_opt.greedy_bpr_indices(h, q)
        assert len(whole) == n and calls == n * rows // small
        assert differ == []


class TestFullGridIdentity:
    """On continuous channels the kernel makes every decision of the
    full-grid scorer in ``oracles``, which rates all (unplaced element,
    angle) pairs of every slot."""

    @pytest.mark.parametrize("kind", ["mmwave", "rayleigh"])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_matches_full_grid(self, q, kind):
        # 2**16 rows and a short last tile
        rows = 2**16 + 300
        rng = substream(q, 64)
        if kind == "mmwave":
            h = channel.plane_wave_sums(*channel.sample_mmwave_batch(rows, 3, rng), 2**q)
        else:
            h = channel.sample_rayleigh_batch(rows, 2**q, rng)
        self._assert_identical(h, q)

    def test_matches_full_grid_q5(self):
        rng = substream(5, 64)
        h = np.concatenate(
            [
                channel.plane_wave_sums(*channel.sample_mmwave_batch(8192, 3, rng), 32),
                channel.sample_rayleigh_batch(8192, 32, rng),
            ]
        )
        self._assert_identical(h, 5)

    @staticmethod
    def _assert_identical(h, q):
        grids = phase_opt.block_grids(q)
        idx = phase_opt.greedy_bpr_indices(h, q)
        ref_phi, ref_slots, ref_gain = greedy_full_grid(h, *grids)
        # the oracle's angles are grid values; G angles 2 pi g / G, reduced
        ref_idx = np.rint(ref_phi * (grids[0].size / (2 * np.pi))).astype(np.int64) % grids[0].size
        np.testing.assert_array_equal(np.stack([grids[0][ref_idx[0]], grids[1][ref_idx[1]]]), ref_phi)
        np.testing.assert_array_equal(idx, ref_idx)
        # the realized ||F^H h||^2, up to bpr_scale: the oracle's phases on
        # the Sylvester sums, against the package's rotated sum
        half = 2 ** (q - 1)
        w = hadamard(half)
        ref_sum = np.exp(-1j * ref_phi[0]) * (h[:, :half] @ w) + np.exp(-1j * ref_phi[1]) * (
            h[:, half:] @ w
        )
        realized = np.sum(np.abs(beamformer.bpr_rotated_sum(q, h, *idx)) ** 2, axis=1)
        np.testing.assert_allclose(realized, np.sum(np.abs(ref_sum) ** 2, axis=1), rtol=1e-12)
        _, slots, gain = replay_greedy(h, idx, *grids)
        np.testing.assert_array_equal(slots, ref_slots)
        np.testing.assert_allclose(gain, ref_gain, rtol=1e-12)


class TestNearestAngleKernel:
    """The kernel picks every index of the kernel in ``oracles`` that
    scores each candidate at its nearest angle by ``atan2`` and ``hypot``
    and drops the placed element by an order-keeping ``take``."""

    @pytest.mark.parametrize("kind", ["mmwave", "rayleigh"])
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_same_indices(self, q, kind):
        rng = substream(q, 69)
        rows = 2**16
        if kind == "mmwave":
            h = channel.plane_wave_sums(*channel.sample_mmwave_batch(rows, 3, rng), 2**q)
        else:
            h = channel.sample_rayleigh_batch(rows, 2**q, rng)
        np.testing.assert_array_equal(
            phase_opt.greedy_bpr_indices(h, q), greedy_nearest_angle(h, *phase_opt.block_grids(q))
        )

    def test_same_indices_q8(self):
        # 256 elements: the keys must tell 256 element indices apart
        rng = substream(8, 69)
        h = np.concatenate(
            [
                channel.plane_wave_sums(*channel.sample_mmwave_batch(3, 3, rng), 256),
                channel.sample_rayleigh_batch(3, 256, rng),
            ]
        )
        np.testing.assert_array_equal(
            phase_opt.greedy_bpr_indices(h, 8), greedy_nearest_angle(h, *phase_opt.block_grids(8))
        )


class TestGridProjection:
    """``_grid_projection`` is the largest ``Re(r p)`` over the grid's
    rotations ``r``, up to rounding."""

    @pytest.mark.parametrize("size", [1, 2, 4, 8, 16, 32])
    def test_matches_bruteforce(self, size):
        rng = substream(size, 70)
        drawn = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
        # each grid direction, each midpoint between two (where two
        # rotations tie) and the axes and diagonals the folds meet at
        turns = np.concatenate([np.arange(2 * size) / (2 * size), np.arange(8) / 8])
        radii = rng.uniform(0.5, 2.0, turns.size)
        p = np.concatenate([drawn, radii * np.exp(-2j * np.pi * turns), [0.0]])
        got = phase_opt._grid_projection(p, size)
        want = grid_projection_bruteforce(p, size)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(p))
        # a new array: the kernel adds to it in place
        assert not np.shares_memory(got, p)

    def test_size_four_is_the_larger_part_exactly(self):
        # the octant fold of four rotations runs over theta = 0 alone
        rng = substream(4, 71)
        p = np.concatenate([rng.standard_normal(4000) + 1j * rng.standard_normal(4000), [0.0]])
        want = np.maximum(np.abs(p.real), np.abs(p.imag))
        assert phase_opt._grid_projection(p, 4).tobytes() == want.tobytes()


def _replayed_slot_scores(h, phi, slots, grids):
    """Replays a selection slot by slot. Returns, per slot and row, the
    score of the chosen candidate and the maximum over every (unplaced
    element, grid angle) pair, both shape ``(2**q, b)``."""
    b, n = h.shape
    hc = h.conj()
    rows = np.arange(b)
    acc = np.zeros(b, dtype=complex)
    placed = np.zeros((b, n), dtype=bool)
    chosen, best = [], []
    for block, angles in enumerate(grids):
        for slot in range(n // 2):
            full = np.abs(acc[:, None, None] + hc[:, :, None] * np.exp(1j * angles))
            full[placed] = -np.inf
            best.append(full.max(axis=(1, 2)))
            elem = slots[block, :, slot]
            acc = acc + hc[rows, elem] * np.exp(1j * phi[block, :, slot])
            placed[rows, elem] = True
            chosen.append(np.abs(acc))
    return np.array(chosen), np.array(best)


class TestTieRule:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_zero_row(self, q):
        n = 2**q
        np.testing.assert_array_equal(
            phase_opt.greedy_bpr_indices(np.zeros((1, n), dtype=complex), q), 0
        )
        phi, slots, gain = _replayed(np.zeros((1, n), dtype=complex), q)
        np.testing.assert_array_equal(phi, 0.0)
        np.testing.assert_array_equal(slots[:, 0].ravel(), np.arange(n))
        assert gain[0] == 0.0

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_all_ones_row(self, q):
        n = 2**q
        # every slot takes slot 1's angle, 0, and the replay places equal
        # candidates in ascending order
        np.testing.assert_array_equal(
            phase_opt.greedy_bpr_indices(np.ones((1, n), dtype=complex), q), 0
        )
        phi, slots, gain = _replayed(np.ones((1, n), dtype=complex), q)
        np.testing.assert_array_equal(slots[:, 0].ravel(), np.arange(n))
        np.testing.assert_array_equal(phi, 0.0)
        assert gain[0] == pytest.approx(n, rel=1e-12)

    @pytest.mark.parametrize("kind", ["mmwave", "rayleigh"])
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_first_slot_takes_angle_zero(self, q, kind):
        # every angle ties at slot 1; the rule, not rounding, takes index 0
        rng = substream(q, 68)
        if kind == "mmwave":
            h = channel.plane_wave_sums(*channel.sample_mmwave_batch(4096, 3, rng), 2**q)
        else:
            h = channel.sample_rayleigh_batch(4096, 2**q, rng)
        np.testing.assert_array_equal(phase_opt.greedy_bpr_indices(h, q)[0, :, 0], 0)

    def test_equal_magnitudes_first_slot_takes_lowest_index(self):
        # |-5| = |5j| = |3+4j| = |4-3j| = 5 exactly
        h = np.array([[0.1, 2.0, -5.0, 5j, 3 + 4j, 1.0, 4 - 3j, 0.0]])
        _, slots, _ = _replayed(h, 3)
        assert slots[0, 0, 0] == 2

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_lattice_rows_score_the_full_grid_maximum(self, q):
        # Gaussian-integer rows tie exactly between candidates; whatever the
        # kernel picks there must score the full-grid maximum
        n = 2**q
        rng = substream(q, 65)
        h = rng.integers(-2, 3, (1024, n)) + 1j * rng.integers(-2, 3, (1024, n))
        grids = phase_opt.block_grids(q)
        phi, slots, _ = _replayed(h, q)
        chosen, best = _replayed_slot_scores(h, phi, slots, grids)
        np.testing.assert_allclose(chosen, best, rtol=1e-12, atol=0)


class TestComplexityProbe:
    def test_frozen_counts(self):
        # each slot scores every unplaced element once: 2^q (2^q + 1) / 2
        assert phase_opt.complexity_probe([1, 2, 3, 4]) == [(1, 3), (2, 10), (3, 36), (4, 136)]

    def test_closed_form(self):
        for q, count in phase_opt.complexity_probe([1, 2, 3, 4, 5, 6]):
            n = 2**q
            assert count == sum(range(1, n + 1))

    def test_guard(self):
        with pytest.raises(ValueError):
            phase_opt.complexity_probe([9])

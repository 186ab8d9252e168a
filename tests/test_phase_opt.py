import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamlink import phase_opt
from beamlink.rng import substream

from oracles import blockwise_bruteforce_gain, joint_bruteforce_gain, random_blockwise_gain


def _random_channel(n, seed):
    rng = substream(seed, 77)
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)


class TestGrids:
    def test_element_grid_q2(self):
        grid = phase_opt.element_grid(2)
        np.testing.assert_allclose(grid.angles, [0, np.pi / 2, np.pi, 3 * np.pi / 2])
        assert grid.denominator == 4

    def test_block_grids_q2_reduce_to_binary(self):
        g1, g2 = phase_opt.block_grids(2)
        np.testing.assert_allclose(g1.angles, [0.0, np.pi])
        np.testing.assert_allclose(g2.angles, [0.0, np.pi])
        assert list(g2.indices) == [2, 3]

    def test_block_grids_q3(self):
        g1, g2 = phase_opt.block_grids(3)
        quarter = np.array([0, np.pi / 2, np.pi, 3 * np.pi / 2])
        np.testing.assert_allclose(g1.angles, quarter)
        np.testing.assert_allclose(g2.angles, quarter)  # indices 4..7 reduced mod 2 pi

    def test_block_angles_subset_of_element_grid(self):
        for q in (1, 2, 3, 4):
            fine = set(np.round(phase_opt.element_grid(q).angles, 12))
            g1, g2 = phase_opt.block_grids(q)
            assert set(np.round(g1.angles, 12)) <= fine
            assert set(np.round(g2.angles, 12)) <= fine


class TestExhaustiveOracle:
    def test_aligned_channel(self):
        for q in (1, 2):
            sel = phase_opt.exhaustive_phase_oracle(np.ones(2**q, dtype=complex), q)
            assert sel.gain == pytest.approx(2**q)
            np.testing.assert_allclose(sel.per_element_phases(), 0.0)

    def test_alternating_signs_q1(self):
        sel = phase_opt.exhaustive_phase_oracle(np.array([1.0 + 0j, -1.0 + 0j]), 1)
        assert sel.gain == pytest.approx(2.0)
        np.testing.assert_allclose(sorted(sel.per_element_phases()), [0.0, np.pi])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_joint_bruteforce_q2(self, seed):
        h = _random_channel(4, seed)
        sel = phase_opt.exhaustive_phase_oracle(h, 2)
        expected = joint_bruteforce_gain(h, phase_opt.element_grid(2).angles)
        assert sel.gain == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_rotation_sweep_agrees_with_bruteforce(self, seed):
        # the sweep is the oracle's only algorithm; check it against the
        # independent joint enumeration on instances small enough to enumerate
        h = _random_channel(4, 100 + seed)
        angles = phase_opt.element_grid(2).angles
        swept = phase_opt._rotation_sweep_phases(h, angles)
        gain = abs(np.sum(np.conj(h) * np.exp(1j * swept)))
        assert gain == pytest.approx(joint_bruteforce_gain(h, angles), abs=1e-10)

    def test_q3_uses_sweep_and_dominates_random_search(self):
        h = _random_channel(8, 5)
        sel = phase_opt.exhaustive_phase_oracle(h, 3)
        angles = phase_opt.element_grid(3).angles
        rng = substream(5, 78)
        for _ in range(2000):
            phases = angles[rng.integers(0, angles.size, 8)]
            assert abs(np.sum(np.conj(h) * np.exp(1j * phases))) <= sel.gain + 1e-10

    def test_size_guard(self):
        with pytest.raises(ValueError):
            phase_opt.exhaustive_phase_oracle(np.ones(32, dtype=complex), 5)
        with pytest.raises(ValueError):
            phase_opt.exhaustive_phase_oracle(np.ones(3, dtype=complex), 2)


class TestGreedy:
    def test_aligned_channel_reaches_full_gain(self):
        sel = phase_opt.greedy_bpr_phases(np.ones(4, dtype=complex), 2)
        assert sel.gain == pytest.approx(4.0)
        expected = blockwise_bruteforce_gain(
            np.ones(4, dtype=complex), *[g.angles for g in phase_opt.block_grids(2)]
        )
        assert sel.gain == pytest.approx(expected)

    def test_dominant_element_chosen_first(self):
        h = np.array([10.0 + 0j, 0.01 + 0j, 0.01j, 0.01 - 0.01j])
        sel = phase_opt.greedy_bpr_phases(h, 2)
        assert sel.slots1[0] == 0

    @pytest.mark.parametrize("seed", range(50))
    def test_bounded_by_blockwise_bruteforce(self, seed):
        h = _random_channel(4, 200 + seed)
        grids = [g.angles for g in phase_opt.block_grids(2)]
        sel = phase_opt.greedy_bpr_phases(h, 2)
        assert sel.gain <= blockwise_bruteforce_gain(h, *grids) + 1e-10

    @pytest.mark.parametrize("seed", range(50))
    def test_bounded_by_element_oracle(self, seed):
        # the fine per-element grid contains every blockwise assignment
        h = _random_channel(4, 300 + seed)
        greedy = phase_opt.greedy_bpr_phases(h, 2)
        oracle = phase_opt.exhaustive_phase_oracle(h, 2)
        assert greedy.gain <= oracle.gain + 1e-10

    def test_beats_random_baseline_on_average(self):
        rng = substream(0, 79)
        grids = [g.angles for g in phase_opt.block_grids(2)]
        wins = 0
        for seed in range(50):
            h = _random_channel(4, 400 + seed)
            sel = phase_opt.greedy_bpr_phases(h, 2)
            baseline = np.mean(
                [random_blockwise_gain(h, *grids, rng) for _ in range(100)]
            )
            wins += sel.gain >= baseline
        assert wins >= 49

    @settings(max_examples=40, deadline=None)
    @given(psi=st.floats(0, 2 * np.pi), seed=st.integers(0, 1000))
    def test_global_phase_equivariance(self, psi, seed):
        h = _random_channel(4, seed)
        base = phase_opt.greedy_bpr_phases(h, 2)
        rotated = phase_opt.greedy_bpr_phases(np.exp(1j * psi) * h, 2)
        assert rotated.gain == pytest.approx(base.gain, abs=1e-10)

    def test_permutation_consistency(self):
        h = _random_channel(4, 17)
        perm = np.array([2, 0, 3, 1])
        base = phase_opt.greedy_bpr_phases(h, 2)
        permuted = phase_opt.greedy_bpr_phases(h[perm], 2)
        # element i of the permuted channel is element perm[i] of the original
        assert list(perm[permuted.slots1]) == list(base.slots1)
        assert list(perm[permuted.slots2]) == list(base.slots2)
        np.testing.assert_allclose(permuted.phi1, base.phi1)
        np.testing.assert_allclose(permuted.phi2, base.phi2)

    @pytest.mark.parametrize("seed", range(20))
    def test_gain_recomputable(self, seed):
        h = _random_channel(4, 500 + seed)
        sel = phase_opt.greedy_bpr_phases(h, 2)
        assert phase_opt.alignment_gain(h, sel) == pytest.approx(sel.gain, abs=1e-10)

    def test_angles_come_from_block_grids(self):
        h = _random_channel(8, 3)
        sel = phase_opt.greedy_bpr_phases(h, 3)
        g1, g2 = phase_opt.block_grids(3)
        assert set(np.round(sel.phi1, 12)) <= set(np.round(g1.angles, 12))
        assert set(np.round(sel.phi2, 12)) <= set(np.round(g2.angles, 12))
        assert sorted(np.concatenate([sel.slots1, sel.slots2])) == list(range(8))


class TestBaselines:
    def test_fixed_zero(self):
        h = _random_channel(4, 1)
        sel = phase_opt.fixed_zero_selection(h, 2)
        assert sel.gain == pytest.approx(abs(h.sum()))
        assert sel.method == phase_opt.METHOD_FIXED_ZERO

    def test_random_selection_valid_and_seeded(self):
        h = _random_channel(4, 2)
        a = phase_opt.random_selection(h, 2, substream(0, 80))
        b = phase_opt.random_selection(h, 2, substream(0, 80))
        assert a.gain == b.gain
        assert phase_opt.alignment_gain(h, a) == pytest.approx(a.gain, abs=1e-12)


class TestComplexityProbe:
    def test_frozen_counts(self):
        # each of the 2^q slot decisions scans remaining candidates x grid:
        # sum = 2^(q-1) * 2^q (2^q + 1) / 2
        assert phase_opt.complexity_probe([1, 2, 3]) == [(1, 3), (2, 20), (3, 144)]

    def test_closed_form(self):
        for q, count in phase_opt.complexity_probe([1, 2, 3, 4, 5, 6]):
            n = 2**q
            assert count == (n // 2) * n * (n + 1) // 2

    def test_guard(self):
        with pytest.raises(ValueError):
            phase_opt.complexity_probe([9])


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamlink import phase_opt
from beamlink.rng import substream

from oracles import (
    blockwise_bruteforce_gain,
    element_grid_angles,
    joint_bruteforce_gain,
    random_blockwise_gain,
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


def _greedy_row(h, q):
    """The selection for one channel: row 0 of a batch of one, as
    ``(phi, slots, gain)`` with ``phi[block]`` and ``slots[block]``."""
    phi, slots, gain = phase_opt.greedy_bpr_phases(h[None], q)
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
        phi, slots, _ = _greedy_row(h, 3)
        g1, g2 = phase_opt.block_grids(3)
        assert set(np.round(phi[0], 12)) <= set(np.round(g1, 12))
        assert set(np.round(phi[1], 12)) <= set(np.round(g2, 12))
        assert sorted(np.concatenate([slots[0], slots[1]])) == list(range(8))

    @pytest.mark.parametrize("shape", [(4,), (3, 8), (1, 2, 4)])
    def test_rejects_rows_of_the_wrong_shape(self, shape):
        # q = 2 needs rows of 4 elements; a single channel is a batch of one
        with pytest.raises(ValueError, match=r"\bh\b"):
            phase_opt.greedy_bpr_phases(np.ones(shape, dtype=complex), 2)


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


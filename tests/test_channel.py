import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamlink import channel
from beamlink.rng import substream

from oracles import geometric_channel


class TestSteeringVector:
    def test_boresight_is_all_ones(self):
        v = channel.steering_vector(0.0, 4)
        np.testing.assert_allclose(v, np.ones(4))

    def test_endfire_two_elements(self):
        # sin(pi/2) = 1 with d/lambda = 1/2 puts the second element at phase pi
        v = channel.steering_vector(np.pi / 2, 2)
        np.testing.assert_allclose(v, [1.0, -1.0], atol=1e-12)

    def test_thirty_degree_phases(self):
        # element m should sit at phase m * pi/2 exactly
        v = channel.steering_vector(np.pi / 6, 4)
        expected = np.exp(1j * np.pi / 2 * np.arange(4))
        np.testing.assert_allclose(v, expected, atol=1e-12)
        np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.floats(-np.pi / 2, np.pi / 2),
        n=st.integers(min_value=1, max_value=64),
    )
    def test_unit_modulus_and_first_element(self, theta, n):
        v = channel.steering_vector(theta, n)
        assert np.all(np.abs(np.abs(v) - 1.0) < 1e-12)
        assert v[0] == 1.0 + 0.0j

    @settings(max_examples=60, deadline=None)
    @given(theta=st.floats(-np.pi / 2, np.pi / 2))
    def test_negated_angle_conjugates(self, theta):
        v_pos = channel.steering_vector(theta, 8)
        v_neg = channel.steering_vector(-theta, 8)
        np.testing.assert_allclose(v_neg, np.conj(v_pos), atol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            channel.steering_vector(np.nan, 4)
        with pytest.raises(ValueError):
            channel.steering_vector(0.0, 0)

    @pytest.mark.parametrize("shape", [(721,), (50, 3)])
    def test_array_matches_stacked_scalar_calls(self, shape):
        theta = substream(8, 0).uniform(-np.pi / 2, np.pi / 2, shape)
        batched = channel.steering_vector(theta, 16)
        stacked = np.stack(
            [channel.steering_vector(float(t), 16) for t in theta.ravel()]
        ).reshape(shape + (16,))
        assert np.array_equal(batched, stacked)

    def test_array_rejects_any_nonfinite_angle(self):
        with pytest.raises(ValueError):
            channel.steering_vector(np.array([0.0, np.inf]), 4)

    def test_half_wavelength_spacing(self):
        # at endfire, half-wavelength elements alternate in sign
        assert channel.SPACING == 0.5
        v = channel.steering_vector(np.pi / 2, 3)
        np.testing.assert_allclose(v, [1.0, -1.0, 1.0], atol=1e-12)


class _FixedPaths:
    """Generator stand-in that hands the mmwave sampler the given path set."""

    def __init__(self, gains, angles):
        self.gains = np.asarray(gains, dtype=np.complex128)
        self.angles = np.asarray(angles, dtype=np.float64)
        self.calls = 0

    def standard_normal(self, shape):
        self.calls += 1
        part = self.gains.real if self.calls == 1 else self.gains.imag
        return part * np.sqrt(2)

    def uniform(self, lo, hi, shape):
        return self.angles


def _mmwave_rows(n_trials, n_paths, n_antennas, rng):
    """The rows of one block of geometric channels, formed from its paths."""
    return channel.plane_wave_sums(*channel.sample_mmwave_batch(n_trials, n_paths, rng), n_antennas)


class TestMmwaveChannel:
    def test_single_boresight_path_gives_ones(self):
        h = _mmwave_rows(1, 1, 4, _FixedPaths([[1.0]], [[0.0]]))
        np.testing.assert_allclose(h[0], np.ones(4))
        np.testing.assert_allclose(h[0], geometric_channel([1.0], [0.0], 4, 0.5))

    def test_seed_determinism(self):
        a = _mmwave_rows(1, 3, 4, substream(42))
        b = _mmwave_rows(1, 3, 4, substream(42))
        assert np.array_equal(a, b)
        c = _mmwave_rows(1, 3, 4, substream(43))
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", range(20))
    def test_scalar_sampler_is_batch_of_one(self, seed):
        # one channel per seed (criteria 3 and 6) is a batch of one from
        # substream(seed), whose paths come off the stream as gain real
        # parts, gain imaginary parts, then angles
        rng = substream(seed)
        re, im = rng.standard_normal(3), rng.standard_normal(3)
        angles = rng.uniform(-np.pi / 2, np.pi / 2, 3)
        gains = (re + 1j * im) / np.sqrt(2)
        h = _mmwave_rows(1, 3, 8, substream(seed))
        assert h.shape == (1, 8)
        np.testing.assert_allclose(h[0], geometric_channel(gains, angles, 8, 0.5), atol=1e-13)

    def test_mean_energy_matches_path_count(self):
        # E ||h||^2 = L * N_t for unit-variance gains and unit-modulus steering
        L, n, trials = 3, 4, 100_000
        rng = substream(5, 0)
        h = _mmwave_rows(trials, L, n, rng)
        stat = np.sum(np.abs(h) ** 2, axis=1) / n
        se = stat.std(ddof=1) / np.sqrt(trials)
        assert abs(stat.mean() - L) < 3 * se

    def test_batch_matches_per_row_construction(self):
        rng = substream(9, 0)
        gains = (rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))) / np.sqrt(2)
        angles = rng.uniform(-np.pi / 2, np.pi / 2, (50, 3))
        batch = _mmwave_rows(50, 3, 4, _FixedPaths(gains, angles))
        for i in range(50):
            np.testing.assert_allclose(
                batch[i], geometric_channel(gains[i], angles[i], 4, 0.5), atol=1e-13
            )

    @pytest.mark.parametrize("n_antennas", [4, 16, 64])
    def test_recurrence_matches_exponential_form(self, n_antennas):
        # antenna m's wave is antenna m-1's times each path's phase step;
        # the rows match the sum over paths of an exponential per (path,
        # antenna) phase, and the naive oracle, to rounding
        n, spacing = 2000, 0.5
        h = _mmwave_rows(n, 3, n_antennas, substream(10, n_antennas))
        assert h.shape == (n, n_antennas)
        # the rows come antenna-major, the layout the greedy and F^H h read
        assert h.T.flags.c_contiguous
        rng = substream(10, n_antennas)
        gains = (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))) / np.sqrt(2)
        angles = rng.uniform(-np.pi / 2, np.pi / 2, (n, 3))
        phase = 2 * np.pi * spacing * np.sin(angles)[..., None] * np.arange(n_antennas)
        want = np.einsum("nl,nlm->nm", gains, np.exp(1j * phase))
        err = np.linalg.norm(h - want, axis=1)
        assert np.all(err <= 1e-13 * np.linalg.norm(want, axis=1))
        for i in range(0, n, 97):
            row = geometric_channel(gains[i], angles[i], n_antennas, spacing)
            assert np.linalg.norm(h[i] - row) <= 1e-13 * np.linalg.norm(row)


class TestRayleighChannel:
    def test_seed_determinism(self):
        a = channel.sample_rayleigh_batch(1, 6, substream(1))
        b = channel.sample_rayleigh_batch(1, 6, substream(1))
        assert np.array_equal(a, b)

    def test_unit_second_moment(self):
        rng = substream(3, 0)
        h = channel.sample_rayleigh_batch(1_000_000, 1, rng).ravel()
        power = np.abs(h) ** 2
        se = power.std(ddof=1) / np.sqrt(power.size)
        assert abs(power.mean() - 1.0) < 3 * se

    def test_exponential_tail(self):
        # P(|h|^2 > 1) = exp(-1) for CN(0, 1) entries
        rng = substream(4, 0)
        h = channel.sample_rayleigh_batch(1_000_000, 1, rng).ravel()
        frac = np.mean(np.abs(h) ** 2 > 1.0)
        p = np.exp(-1.0)
        se = np.sqrt(p * (1 - p) / h.size)
        assert abs(frac - p) < 3 * se

    @pytest.mark.parametrize("seed", range(5))
    def test_scalar_sampler_is_batch_of_one(self, seed):
        # one channel per seed is a batch of one from substream(seed):
        # the real parts are drawn first, then the imaginary
        rng = substream(seed)
        expected = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / np.sqrt(2)
        h = channel.sample_rayleigh_batch(1, 6, substream(seed))
        assert h.shape == (1, 6)
        assert np.array_equal(h[0], expected)


class TestPlaneWaveTiles:
    """The rows formed from a slice of a block's paths are that slice of
    the block's rows, bit for bit, so a caller may form them tile by tile."""

    @pytest.mark.parametrize("tile", [1, 7, 2048])
    def test_sliced_paths_give_the_bits_of_the_whole_block(self, tile):
        # 4100 rows: the 7- and 2048-row tiles end on a short last tile
        n = 4100
        gains, angles = channel.sample_mmwave_batch(n, 3, substream(tile, 83))
        whole = channel.plane_wave_sums(gains, angles, 16)
        for start in range(0, n, tile):
            rows = slice(start, start + tile)
            got = channel.plane_wave_sums(gains[rows], angles[rows], 16)
            assert got.T.flags.c_contiguous
            assert got.tobytes() == whole[rows].tobytes(), start

    def test_sampler_returns_the_paths_in_stream_order(self):
        # gain real parts, then imaginary parts, then angles
        rng = substream(3, 84)
        re, im = rng.standard_normal((500, 3)), rng.standard_normal((500, 3))
        angles = rng.uniform(-np.pi / 2, np.pi / 2, (500, 3))
        got_gains, got_angles = channel.sample_mmwave_batch(500, 3, substream(3, 84))
        assert got_gains.tobytes() == ((re + 1j * im) / np.sqrt(2.0)).tobytes()
        assert got_angles.tobytes() == angles.tobytes()


class TestSamplerBits:
    """The samplers write their real and imaginary parts in place, with the
    bits of the complex expressions that built them before."""

    def test_complex_normal_keeps_the_bits_of_the_complex_division(self):
        shape = (65536, 3)
        rng = substream(0, 80)
        want = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        got = channel.complex_normal(shape, substream(0, 80))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_rayleigh_rows_keep_the_bits_of_the_row_major_draw(self):
        # the rows were drawn row-major and then copied antenna-major
        shape = (16384, 4)
        rng = substream(0, 82)
        want = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        got = channel.sample_rayleigh_batch(*shape, substream(0, 82))
        assert got.T.flags.c_contiguous
        assert np.array_equal(got.T.view(np.uint64), np.ascontiguousarray(want.T).view(np.uint64))

    def test_plane_wave_steps_keep_the_bits_of_the_exponential(self):
        # 2**17 rows of 3 paths: each path's step was np.exp(1j * phase)
        n = 2**17
        rng = substream(0, 81)
        gains = channel.complex_normal((n, 3), rng)
        angles = rng.uniform(-np.pi / 2, np.pi / 2, (n, 3))
        step = np.exp(1j * (2.0 * np.pi * channel.SPACING * np.sin(angles))).T
        wave = np.ascontiguousarray(gains.T)
        got = channel.plane_wave_sums(gains, angles, 8)
        for m in range(8):
            if m:
                wave = wave * step
            assert np.array_equal(got[:, m].view(np.uint64), wave.sum(axis=0).view(np.uint64)), m


class TestMeanEnergy:
    """fig2's control variate is ``||h||^2``, whose exact mean each sampler states."""

    @pytest.mark.parametrize(
        "kind,n_antennas,n_paths,want",
        [("mmwave", 4, 3, 12.0), ("mmwave", 16, 2, 32.0), ("rayleigh", 4, 3, 4.0),
         ("rayleigh", 8, 1, 8.0)],
    )
    def test_stated_values(self, kind, n_antennas, n_paths, want):
        assert channel.mean_energy(kind, n_antennas, n_paths) == want

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="awgn"):
            channel.mean_energy("awgn", 4, 3)

    @pytest.mark.parametrize("kind", channel.CHANNEL_KINDS)
    def test_sample_energy_matches_stated_mean(self, kind):
        # 2**18 rows; the stated mean lies within 5 standard errors
        n, n_antennas, n_paths = 2**18, 4, 3
        rng = substream(7, 85)
        if kind == channel.MMWAVE:
            h = _mmwave_rows(n, n_paths, n_antennas, rng)
        else:
            h = channel.sample_rayleigh_batch(n, n_antennas, rng)
        energy = np.sum(np.abs(h) ** 2, axis=1)
        se = energy.std(ddof=1) / np.sqrt(n)
        assert abs(energy.mean() - channel.mean_energy(kind, n_antennas, n_paths)) < 5 * se

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamlink import beamformer, stbc
from beamlink.rng import substream

from oracles import (
    label_rows,
    lattice_nearest_index,
    ml_decode_index,
    nearest_point_index,
    pair_label_rows,
)
from reference_sims import (
    alamouti_codebook,
    alamouti_codeword,
    decode_alamouti,
    received_parts,
    transmit_receive,
    unit_noise,
)


def _transmit_block(sent, points, bf):
    """Antenna-domain block ``F S`` of the Alamouti codeword of label indices ``sent``."""
    return bf @ alamouti_codeword(points[sent[0]], points[sent[1]])


class TestConstellations:
    def test_bpsk_mapping(self):
        points = stbc.make_constellation(2)
        assert points[stbc.label_index([0])] == 1.0 + 0j
        assert points[stbc.label_index([1])] == -1.0 + 0j

    def test_qpsk_unit_modulus(self):
        points = stbc.make_constellation(4)
        np.testing.assert_allclose(np.abs(points) ** 2, 1.0, atol=1e-12)

    @pytest.mark.parametrize("order", [2, 4, 16, 64])
    def test_unit_average_energy(self, order):
        points = stbc.make_constellation(order)
        assert points.shape == (order,)
        # independent accumulation, entry by entry
        total = 0.0
        for p in points:
            total += abs(p) ** 2
        assert total / order == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order", [2, 4, 16, 64])
    def test_label_index_equals_the_weighted_sum(self, order):
        # the big-endian weighted sum of the bits, as an integer matmul
        k = stbc.bits_per_symbol(order)
        weights = 1 << np.arange(k - 1, -1, -1)
        for shape in [(k,), (64, k), (16, 2, k), (3, 4, 2, k)]:
            bits = substream(order, 13).integers(0, 2, shape, dtype=np.uint8)
            got = stbc.label_index(bits)
            want = bits @ weights
            assert got.dtype == want.dtype == np.int64
            assert np.shape(got) == np.shape(want) == shape[:-1]
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("order", [2, 4, 16, 64])
    def test_labels_distinct_and_roundtrip(self, order):
        points = stbc.make_constellation(order)
        labels = label_rows(order)
        assert stbc.bits_per_symbol(order) == labels.shape[1]
        assert len(set(points.tolist())) == order
        np.testing.assert_array_equal(stbc.label_index(labels), np.arange(order))
        for i in range(order):
            assert stbc.demap(points[stbc.label_index(labels[i])], order) == i

    @pytest.mark.parametrize("order", [16, 64])
    def test_gray_neighbours_differ_in_one_bit(self, order):
        points = stbc.make_constellation(order)
        labels = label_rows(order)
        spacing = 2.0 / np.sqrt(2.0 * (order - 1) / 3.0)
        neighbours = 0
        for i in range(order):
            for j in range(i + 1, order):
                d = abs(points[i] - points[j])
                if d == pytest.approx(spacing, rel=1e-9):
                    neighbours += 1
                    assert np.sum(labels[i] != labels[j]) == 1
        side = int(np.sqrt(order))
        assert neighbours == 2 * side * (side - 1)

    @pytest.mark.parametrize("order", [2, 4, 16, 64])
    def test_hamming_distance_matches_label_rows(self, order):
        labels = label_rows(order)
        i, j = np.meshgrid(np.arange(order), np.arange(order), indexing="ij")
        expected = np.count_nonzero(labels[i] != labels[j], axis=-1)
        np.testing.assert_array_equal(stbc.hamming_distance(i, j), expected)

    def test_noisy_demap_nearest(self):
        points = stbc.make_constellation(16)
        assert stbc.demap(points[5] + (0.01 + 0.02j), 16) == 5

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            stbc.make_constellation(8)
        with pytest.raises(ValueError, match="order 8"):
            stbc.demap(0.0, 8)


def _scale(order):
    return 1.0 if order == 2 else np.sqrt(2.0 * (order - 1) / 3.0)


def _noisy_symbols(rng, points, shape):
    # per-symbol noise from far below to far above the point spacing, so
    # decisions land near every boundary and beyond the outer points
    spacing = 2.0 / _scale(len(points))
    sigma = spacing * rng.choice([0.01, 0.1, 0.3, 1.0, 3.0], shape)
    noise = sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return points[rng.integers(0, len(points), shape)] + noise


class TestDemap:
    @pytest.mark.parametrize("order", [2, 4, 16, 64])
    def test_matches_exhaustive_search_on_noisy_symbols(self, order):
        points = stbc.make_constellation(order)
        rng = substream(0, 51, order)
        mismatches = 0
        for _ in range(16):
            sym = _noisy_symbols(rng, points, 1 << 16)
            wrong = stbc.demap(sym, order) != nearest_point_index(sym, points)
            mismatches += np.count_nonzero(wrong)
        assert mismatches == 0

    @pytest.mark.parametrize("order", [2, 4, 16, 64])
    def test_boundary_lattice_follows_lowest_index_rule(self, order):
        # every integer multiple of 1/scale on each axis, two steps beyond
        # the outer points: the points sit at odd integers, the decision
        # boundaries and 0 at even ones. Coordinates are nudged by ulps
        # until x * scale is exactly the even integer, so every boundary
        # is an exact tie; an odd one need only land within ulps of its point.
        points = stbc.make_constellation(order)
        scale = _scale(order)
        reach = int(np.sqrt(order)) + 2
        ints = np.arange(-reach, reach + 1)
        coord = ints / scale
        for _ in range(4):
            err = coord * scale - ints
            coord = np.where(
                err > 0,
                np.nextafter(coord, -np.inf),
                np.where(err < 0, np.nextafter(coord, np.inf), coord),
            )
        even = ints % 2 == 0
        assert np.array_equal(coord[even] * scale, ints[even])
        np.testing.assert_allclose(coord * scale, ints, rtol=0, atol=1e-13)
        m, n = np.meshgrid(ints, ints, indexing="ij")
        sym = coord[m + reach] + 1j * coord[n + reach]
        np.testing.assert_array_equal(
            stbc.demap(sym, order), lattice_nearest_index(m, n, points, scale)
        )

    @pytest.mark.parametrize("order", [2, 4, 16, 64])
    def test_keeps_batch_axes_and_scalar_input(self, order):
        points = stbc.make_constellation(order)
        sym = _noisy_symbols(substream(0, 52, order), points, (4, 6))
        out = stbc.demap(sym, order)
        assert out.shape == (4, 6)
        np.testing.assert_array_equal(out, nearest_point_index(sym, points))
        for idx in np.ndindex(4, 6):
            scalar = stbc.demap(sym[idx], order)
            assert scalar.shape == ()
            assert scalar == out[idx]

    @pytest.mark.parametrize("order", [16, 64])
    def test_zero_channel_convention_on_a_grid_batch(self, order):
        # s_hat = 0 is a four-way tie whose lowest index is not 0 at these
        # orders; the decoder must still emit index 0 twice
        points = stbc.make_constellation(order)
        rng = substream(0, 53, order)
        sent = rng.integers(0, order, (2, 3, 2))
        h_eq = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        zero = np.array([[True, False, False], [False, True, True]])
        h_eq[zero] = 0.0
        s = alamouti_codeword(points[sent[..., 0]], points[sent[..., 1]])
        y = transmit_receive(s, h_eq, rng, amplitude=2.0, sigma2=0.0)
        out = decode_alamouti(y, h_eq, points, amplitude=2.0)
        assert out.shape == (2, 3, 2)
        np.testing.assert_array_equal(out[zero], np.zeros((3, 2)))
        np.testing.assert_array_equal(out[~zero], sent[~zero])
        assert stbc.demap(0.0, order) != 0


class TestAlamoutiCodeword:
    @settings(max_examples=100, deadline=None)
    @given(
        re1=st.floats(-2, 2), im1=st.floats(-2, 2),
        re2=st.floats(-2, 2), im2=st.floats(-2, 2),
    )
    def test_orthogonality(self, re1, im1, re2, im2):
        s = alamouti_codeword(re1 + 1j * im1, re2 + 1j * im2)
        energy = abs(re1 + 1j * im1) ** 2 + abs(re2 + 1j * im2) ** 2
        np.testing.assert_allclose(s @ s.conj().T, energy * np.eye(2), atol=1e-12)

    def test_determinant_is_energy(self):
        rng = substream(0, 41)
        for _ in range(100):
            s1, s2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            s = alamouti_codeword(s1, s2)
            det = np.linalg.det(s)
            assert det.imag == pytest.approx(0.0, abs=1e-12)
            assert det.real == pytest.approx(abs(s1) ** 2 + abs(s2) ** 2, abs=1e-10)

    def test_identity_like_codeword(self):
        np.testing.assert_allclose(alamouti_codeword(1.0, 0.0), np.eye(2))


class TestEncode:
    def test_eq1_codeword(self):
        # under eq1 the array sends F S; through h it arrives as S through F^H h
        points = stbc.make_constellation(4)
        bf = beamformer.build(beamformer.DFT, 2)
        sent = stbc.label_index(np.array([[0, 1], [1, 0]]))
        s = alamouti_codeword(points[sent[0]], points[sent[1]])
        h = np.array([0.3 - 0.2j, -1.1 + 0.4j, 0.5j, 0.8])
        h_eq = beamformer.equivalent_channel(bf, h)
        rng = substream(0, 40)
        y_antenna = transmit_receive(bf @ s, h, rng, sigma2=0.0)
        y_eq = transmit_receive(s, h_eq, rng, sigma2=0.0)
        np.testing.assert_allclose(y_antenna, y_eq, atol=1e-12)

    def test_eq10_scaling(self):
        points = stbc.make_constellation(4)
        bf = beamformer.build(beamformer.DFT, 2)
        kappa = beamformer.kappa(beamformer.DFT, 2)
        x1 = _transmit_block(stbc.label_index(np.array([[0, 1], [1, 0]])), points, bf)
        # eq10 carries no array gain N_t / L
        for n_antennas, n_paths in ((4, 3), (16, 1)):
            amp = stbc.link_amplitude(4.0, kappa, "eq10", n_antennas, n_paths)
            np.testing.assert_allclose(amp * x1, np.sqrt(4.0 * kappa) * x1)

    def test_eq10_power_audit(self):
        # E ||X||_F^2 = gamma0 * kappa * E ||F S||_F^2 = 4 gamma0 kappa for
        # orthonormal-column F and unit-energy symbols
        points = stbc.make_constellation(16)
        bf = beamformer.build(beamformer.DFT, 2)
        kappa = beamformer.kappa(beamformer.DFT, 2)
        rng = substream(0, 42)
        gamma0 = 7.0
        amp = stbc.link_amplitude(gamma0, kappa, "eq10", 4, 3)
        total = 0.0
        n = 4000
        for _ in range(n):
            bits = rng.integers(0, 2, 8).astype(np.uint8)
            x = amp * _transmit_block(stbc.label_index(bits.reshape(2, 4)), points, bf)
            total += np.linalg.norm(x) ** 2
        assert total / n == pytest.approx(4.0 * gamma0 * kappa, rel=0.05)


class TestTransmitReceive:
    def test_noiseless_unit_channel_picks_first_row(self):
        x = np.arange(8, dtype=np.complex128).reshape(4, 2)
        h = np.zeros(4, dtype=complex)
        h[0] = 1.0
        y = transmit_receive(x, h, substream(0, 43), amplitude=2.0, sigma2=0.0)
        np.testing.assert_allclose(y, 2.0 * x[0])

    def test_zero_codeword_gives_pure_noise(self):
        x = np.zeros((4, 2), dtype=complex)
        h = np.ones(4, dtype=complex)
        y = transmit_receive(x, h, substream(0, 44), sigma2=1.0)
        z = transmit_receive(x, h, substream(0, 44), sigma2=1.0)
        assert np.array_equal(y, z)
        assert np.all(y != 0)

    def test_noise_variance(self):
        x = np.zeros((500_000, 2, 2), dtype=complex)
        h = np.ones(2, dtype=complex)
        samples = transmit_receive(x, h, substream(0, 45), sigma2=2.0).ravel()
        var = np.mean(np.abs(samples) ** 2)
        se = np.std(np.abs(samples) ** 2, ddof=1) / np.sqrt(samples.size)
        assert abs(var - 2.0) < 3 * se

    def test_eq1_amplitude(self):
        assert stbc.link_amplitude(9.0, 0.25, "eq1", 4, 3) == pytest.approx(np.sqrt(12.0))

    @pytest.mark.parametrize("mode", ["eq01", "EQ10", ""])
    def test_link_amplitude_rejects_unknown_mode(self, mode):
        with pytest.raises(ValueError, match=r"\bmode\b"):
            stbc.link_amplitude(10.0, 0.25, mode, 4, 3)


class TestDecode:
    @pytest.mark.parametrize("order", [2, 4, 16, 64])
    @pytest.mark.parametrize("scheme", ["dft", "bpr"])
    def test_noiseless_roundtrip(self, order, scheme):
        points = stbc.make_constellation(order)
        k = stbc.bits_per_symbol(order)
        rng = substream(0, 46)
        if scheme == "dft":
            bf = beamformer.build(beamformer.DFT, 2)
        else:
            bf = beamformer.build(
                beamformer.BPR_REAL, 2, np.array([0.0, np.pi]), np.array([np.pi, np.pi])
            )
        for _ in range(50):
            h = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / np.sqrt(2)
            h_eq = beamformer.equivalent_channel(bf, h)
            sent = stbc.label_index(rng.integers(0, 2, (2, k)).astype(np.uint8))
            x = _transmit_block(sent, points, bf)
            y = transmit_receive(x, h, rng, amplitude=1.5, sigma2=0.0)
            assert np.array_equal(decode_alamouti(y, h_eq, points, amplitude=1.5), sent)

    def test_matches_exhaustive_ml(self):
        points = stbc.make_constellation(4)
        bf = beamformer.build(beamformer.DFT, 2)
        codewords, pairs = alamouti_codebook(points)
        rng = substream(0, 47)
        for _ in range(1000):
            h = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / np.sqrt(2)
            h_eq = beamformer.equivalent_channel(bf, h)
            if np.linalg.norm(h_eq) < 1e-6:
                continue
            sent = stbc.label_index(rng.integers(0, 2, (2, 2)).astype(np.uint8))
            x = _transmit_block(sent, points, bf)
            y = transmit_receive(x, h, rng, amplitude=1.0, sigma2=0.5)
            fast = decode_alamouti(y, h_eq, points)
            ml = pairs[ml_decode_index(y, h_eq, codewords, 1.0)]
            assert np.array_equal(fast, ml)

    def test_pure_guessing_limit(self):
        points = stbc.make_constellation(4)
        bf = beamformer.build(beamformer.DFT, 2)
        rng = substream(0, 48)
        errors = 0
        bits_total = 0
        for _ in range(5000):
            h = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / np.sqrt(2)
            h_eq = beamformer.equivalent_channel(bf, h)
            bits = rng.integers(0, 2, 4).astype(np.uint8)
            x = _transmit_block(stbc.label_index(bits.reshape(2, 2)), points, bf)
            y = transmit_receive(x, h, rng, amplitude=1.0, sigma2=1e8)
            decoded = decode_alamouti(y, h_eq, points)
            errors += np.count_nonzero(pair_label_rows(decoded[None], 4)[0] != bits)
            bits_total += 4
        assert errors / bits_total == pytest.approx(0.5, abs=0.02)

    def test_degenerate_channel_convention(self):
        points = stbc.make_constellation(4)
        out = decode_alamouti(np.array([1.0 + 0j, 1.0 + 0j]), np.zeros(2, dtype=complex), points)
        assert np.array_equal(out, [0, 0])

    @pytest.mark.parametrize("order", [16, 64])
    def test_batched_zero_rows_follow_convention(self, order):
        # a zero h_eq gives s_hat = 0, whose nearest point is not index 0
        points = stbc.make_constellation(order)
        k = stbc.bits_per_symbol(order)
        bits = substream(0, 49).integers(0, 2, (3, 2 * k)).astype(np.uint8)
        sent = stbc.label_index(bits.reshape(3, 2, k))
        h_eq = np.array([[0, 0], [0.8 - 0.3j, 0.2 + 0.9j], [0, 0]], dtype=complex)
        s = alamouti_codeword(points[sent[:, 0]], points[sent[:, 1]])
        y = transmit_receive(s, h_eq, substream(0, 50), amplitude=1.5, sigma2=0.0)
        out = decode_alamouti(y, h_eq, points, amplitude=1.5)
        first_twice = [0, 0]
        np.testing.assert_array_equal(out[0], first_twice)
        np.testing.assert_array_equal(out[1], sent[1])
        np.testing.assert_array_equal(out[2], first_twice)


class TestAlamoutiNoise:
    @pytest.mark.parametrize("order", [2, 4, 16, 64])
    def test_combiner_output_is_symbol_plus_noise_over_amplitude(self, order):
        # combining A h_eq^H S + n leaves s + z / (A ||h_eq||), whatever was
        # sent, with z = U (n1, conj(n2)) of the same norm as the noise n
        points = stbc.make_constellation(order)
        rng = substream(0, 54, order)
        h_eq = (rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))) / np.sqrt(2)
        sent = rng.integers(0, order, (500, 2))
        clean, noise = received_parts(
            alamouti_codeword(points[sent[:, 0]], points[sent[:, 1]]), h_eq, rng
        )
        z = unit_noise(h_eq, noise)
        np.testing.assert_allclose(
            np.sum(np.abs(z) ** 2, axis=1), np.sum(np.abs(noise) ** 2, axis=1), rtol=1e-13
        )
        g1, g2 = h_eq[:, 0], h_eq[:, 1]
        norm = np.sqrt(np.sum(np.abs(h_eq) ** 2, axis=1))
        for amplitude in (0.5, 3.0, 40.0):
            y1, y2 = (amplitude * clean + noise).T
            s_hat = np.stack(
                [g1 * y1 + np.conj(g2) * np.conj(y2), g2 * y1 - np.conj(g1) * np.conj(y2)], axis=1
            ) / (amplitude * norm**2)[:, None]
            np.testing.assert_allclose(
                points[sent] + z / (amplitude * norm)[:, None], s_hat, rtol=0, atol=1e-12
            )
        # the reach counts half spacings along the axes a decision reads
        half = np.min(np.diff(np.unique(points.real))) / 2
        axes = np.abs(z.real) if order == 2 else np.maximum(np.abs(z.real), np.abs(z.imag))
        np.testing.assert_allclose(stbc.noise_reach(z, order) * half, axes, rtol=1e-15)
        assert stbc.noise_reach(complex(z[7, 1]), order) == stbc.noise_reach(z, order)[7, 1]


class TestErrorMatrix:
    def test_orthogonal_difference_property(self):
        codewords, _ = alamouti_codebook(stbc.make_constellation(4))
        n = codewords.shape[0]
        for k in range(n):
            for l in range(n):
                if k == l:
                    continue
                err = codewords[k] - codewords[l]
                scale = np.abs(err[0, 0]) ** 2 + np.abs(err[1, 0]) ** 2
                np.testing.assert_allclose(err @ err.conj().T, scale * np.eye(2), atol=1e-10)
                assert scale > 0

    def test_codebook_shape_and_labels(self):
        points = stbc.make_constellation(16)
        codewords, pairs = alamouti_codebook(points)
        assert codewords.shape == (256, 2, 2)
        assert pairs.shape == (256, 2)
        # codeword i1*M+i2 holds symbols (i1, i2), so its source bits are
        # the 8-bit label of its own index
        np.testing.assert_array_equal(pair_label_rows(pairs, 16), label_rows(256))
        assert codewords[5 * 16 + 3][0, 0] == points[5]
        assert codewords[5 * 16 + 3][1, 0] == points[3]

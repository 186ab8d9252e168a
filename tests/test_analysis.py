import math

import numpy as np
import pytest
from scipy.stats import norm

from beamlink import analysis, beamformer, stbc
from beamlink.channel import SteeringConfig
from beamlink.rng import substream

from oracles import (
    dense_matvec,
    expected_q_over_rayleigh,
    min_codeword_distance,
    mpsk_mgf_reference,
    mpsk_printed_form,
    mqam_mgf_reference,
    pair_label_rows,
    rayleigh_q_mgf_reference,
    union_bound_codebook,
    union_bound_enum,
)

GAMMA_BAR_GRID = (0.01, 0.1, 1.0, 10.0, 100.0, 1e4)


class TestQFunction:
    def test_at_zero(self):
        assert analysis.q_function(0.0) == pytest.approx(0.5)

    def test_symmetry(self):
        for x in (0.3, 1.0, 2.5):
            assert analysis.q_function(x) + analysis.q_function(-x) == pytest.approx(1.0)

    def test_matches_scipy_norm_sf(self):
        for x in np.linspace(-6.0, 6.0, 25):
            assert float(analysis.q_function(x)) == pytest.approx(norm.sf(x), abs=1e-10)
        # The high-SNR union-bound terms live far below abs=1e-10, so the
        # tail is checked relative to Q itself, down to Q(37) ~ 6e-301.
        x = np.linspace(0.0, 37.0, 371)
        np.testing.assert_allclose(analysis.q_function(x), norm.sf(x), rtol=1e-12, atol=0.0)


def _quad_form(bf, h):
    return sum(abs(v) ** 2 for v in dense_matvec(bf, h))


class TestSpectralEfficiency:
    def test_zero_channel(self):
        bf = beamformer.build_dft_atb(2)
        quad_form = _quad_form(bf, np.zeros(4, dtype=complex))
        assert analysis.spectral_efficiency(quad_form, 10.0) == 0.0

    def test_zero_power(self):
        bf = beamformer.build_dft_atb(2)
        quad_form = _quad_form(bf, np.ones(4, dtype=complex))
        assert analysis.spectral_efficiency(quad_form, 0.0) == 0.0

    def test_matches_dense_oracle(self):
        # elementwise over quadratic forms of several channels
        rng = substream(0, 50)
        bf = beamformer.build_dft_atb(2)
        h = (rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))) / np.sqrt(2)
        quad_forms = np.array([_quad_form(bf, row) for row in h])
        rates = analysis.spectral_efficiency(quad_forms, 3.0)
        assert rates.shape == (5,)
        for rate, quad_form in zip(rates, quad_forms):
            assert rate == pytest.approx(math.log2(1.0 + 3.0 * quad_form), abs=1e-12)

    def test_monotone_in_power(self):
        rng = substream(0, 51)
        bf = beamformer.build_hadamard_atb(2)
        h = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / np.sqrt(2)
        quad_form = _quad_form(bf, h)
        rates = [analysis.spectral_efficiency(quad_form, p) for p in (0.1, 1.0, 10.0, 100.0)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_rejects_negative_snr(self):
        with pytest.raises(ValueError, match="snr"):
            analysis.spectral_efficiency(np.ones(3), -1.0)


class TestBeamspacePattern:
    def test_zero_matrix(self):
        theta = np.linspace(-np.pi / 2, np.pi / 2, 181)
        gains, spread = analysis.beamspace_pattern(np.zeros((4, 2), dtype=complex), theta)
        assert np.all(gains == 0)
        assert np.all(spread == 0)

    def test_dft_peak_gain_is_coherent_sum(self):
        # column k of the DFT beamformer aligns at sin(theta) = -k / 2^(q-1);
        # the coherent sum of N unit-modulus terms of power kappa gives N^2 kappa
        bf = beamformer.build_dft_atb(2)
        for k, s in ((0, 0.0), (1, -0.5)):
            theta = np.array([np.arcsin(s)])
            gains, _ = analysis.beamspace_pattern(bf, theta, SteeringConfig())
            expected = 16 * beamformer.kappa(beamformer.DFT, 2)  # = N_t for the DFT scheme
            assert gains[0, k] == pytest.approx(expected, abs=1e-10)

    def test_dft_columns_have_distinct_mainlobes(self):
        bf = beamformer.build_dft_atb(2)
        theta = np.linspace(-np.pi / 2, np.pi / 2, 721)
        gains, _ = analysis.beamspace_pattern(bf, theta)
        peaks = theta[np.argmax(gains, axis=0)]
        assert abs(peaks[0] - peaks[1]) > 0.2
        assert np.all(gains >= 0)

    def test_bpr_spreads_reported(self):
        bf = beamformer.build_bpr_atb(
            2, beamformer.REAL_GOLDEN, np.array([0.0, np.pi]), np.array([np.pi, 0.0])
        )
        theta = np.linspace(-np.pi / 2, np.pi / 2, 721)
        _, spread = analysis.beamspace_pattern(bf, theta)
        assert np.all(spread > 0)


def _random_h_eq(seed):
    rng = substream(0, seed)
    return (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2)


class TestMinEuclideanDistance:
    @pytest.mark.parametrize("m", [2, 4, 16, 64])
    def test_matches_pairwise_search(self, m):
        c = stbc.make_constellation(m)
        codewords, _ = stbc.alamouti_codebook(c)
        for seed in (52, 53, 54):
            h_eq = _random_h_eq(seed)
            expected = min_codeword_distance(h_eq, codewords)
            assert analysis.min_euclidean_distance(h_eq, c) == pytest.approx(expected, rel=1e-12)

    def test_bpsk_set_matches_pair_enumeration(self):
        c = stbc.make_constellation(2)
        codewords, _ = stbc.alamouti_codebook(c)
        bf = beamformer.build_dft_atb(2)
        rng = substream(0, 52)
        h = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / np.sqrt(2)
        h_eq = dense_matvec(bf, h)
        best = min(
            np.linalg.norm(h_eq.conj() @ (codewords[k] - codewords[l]))
            for k in range(4)
            for l in range(k + 1, 4)
        )
        assert analysis.min_euclidean_distance(h_eq, c) == pytest.approx(best, abs=1e-12)

    def test_scales_linearly_with_channel(self):
        c = stbc.make_constellation(16)
        h_eq = _random_h_eq(55)
        d1 = analysis.min_euclidean_distance(h_eq, c)
        for scale in (3.0, 0.25, -2.0j):
            d = analysis.min_euclidean_distance(scale * h_eq, c)
            assert d == pytest.approx(abs(scale) * d1, rel=1e-12)

    def test_zero_channel(self):
        c = stbc.make_constellation(64)
        assert analysis.min_euclidean_distance(np.zeros(2, dtype=complex), c) == 0.0

    @pytest.mark.parametrize("m, n_classes", [(2, 2), (4, 3), (16, 10), (64, 34)])
    def test_one_distance_class_per_distinct_distance(self, m, n_classes):
        # equal distances that round differently still share one class
        d, count, weight = analysis._distance_classes(stbc.make_constellation(m))
        assert d.size == n_classes
        assert d[0] == 0.0 and np.all(np.diff(d) > 0)
        assert count.sum() == m * m
        assert weight.sum() == pytest.approx(m * m * np.log2(m) / 2)


class TestUnionBound:
    def _h_eq(self, seed=54):
        rng = substream(0, seed)
        return (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2)

    def test_bpsk_matches_direct_enumeration(self):
        c = stbc.make_constellation(2)
        codewords, pairs = stbc.alamouti_codebook(c)
        bits = pair_label_rows(pairs, 2)
        h_eq = self._h_eq()
        result = analysis.union_bound_ber(h_eq, c, gamma0=8.0, kappa=0.25)
        expected = union_bound_enum(h_eq, codewords, bits, 8.0, 0.25)
        assert result == pytest.approx(expected, abs=1e-12)

    def test_4qam_matches_direct_enumeration(self):
        c = stbc.make_constellation(4)
        codewords, pairs = stbc.alamouti_codebook(c)
        bits = pair_label_rows(pairs, 4)
        h_eq = self._h_eq(57)
        for gamma0 in (1.0, 30.0):
            expected = union_bound_enum(h_eq, codewords, bits, gamma0, 0.52)
            result = analysis.union_bound_ber(h_eq, c, gamma0, 0.52)
            assert result == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("order", [16, 64])
    def test_matches_full_codebook_oracle(self, order):
        # no sampling at any order: every ordered codeword pair counts
        c = stbc.make_constellation(order)
        codewords, pairs = stbc.alamouti_codebook(c)
        bits = pair_label_rows(pairs, order)
        h_eq = self._h_eq(58)
        gamma0s = [10.0, 1000.0]
        expected = union_bound_codebook(h_eq, codewords, bits, gamma0s, 0.25)
        for gamma0, ref in zip(gamma0s, expected):
            assert analysis.union_bound_ber(h_eq, c, gamma0, 0.25) == pytest.approx(ref, rel=1e-9)

    def test_vanishes_at_high_snr(self):
        c = stbc.make_constellation(4)
        h_eq = self._h_eq()
        assert analysis.union_bound_ber(h_eq, c, 1e7, 0.25) < 1e-9

    def test_monotone_in_snr(self):
        c = stbc.make_constellation(4)
        h_eq = self._h_eq()
        values = [analysis.union_bound_ber(h_eq, c, g, 0.25) for g in (1.0, 10.0, 100.0)]
        assert values[0] > values[1] > values[2]


class TestChernoff:
    def test_zero_distance_gives_one(self):
        err = np.zeros((2, 2), dtype=complex)
        assert analysis.chernoff_pep(np.ones(2, dtype=complex), err, 10.0, 0.5) == 1.0

    def test_dominates_exact_q_term(self):
        rng = substream(0, 55)
        c = stbc.make_constellation(4)
        codewords, _ = stbc.alamouti_codebook(c)
        for _ in range(1000):
            h_eq = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2)
            k, l = rng.integers(0, 16, 2)
            if k == l:
                continue
            err = codewords[k] - codewords[l]
            gamma0 = float(rng.uniform(0.1, 1000.0))
            assert analysis.chernoff_pep(h_eq, err, gamma0, 0.52) >= analysis.pairwise_q_term(
                h_eq, err, gamma0, 0.52
            )

    def test_doubling_snr_squares_bound(self):
        rng = substream(0, 56)
        h_eq = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2)
        err = np.array([[0.2 + 0.1j, 0.0], [0.0, 0.2 - 0.1j]])
        b1 = analysis.chernoff_pep(h_eq, err, 5.0, 0.33)
        b2 = analysis.chernoff_pep(h_eq, err, 10.0, 0.33)
        assert b2 == pytest.approx(b1**2, rel=1e-12)


class TestMgfBpsk:
    def test_no_signal(self):
        assert analysis.mgf_ber_bpsk(0.0) == 0.5

    def test_frozen_value_at_ten(self):
        assert analysis.mgf_ber_bpsk(10.0) == pytest.approx(0.04356453541236155, abs=1e-15)

    def test_agrees_with_mgf_quadrature(self):
        for gb in GAMMA_BAR_GRID:
            assert analysis.mgf_ber_bpsk(gb) == pytest.approx(
                rayleigh_q_mgf_reference(1.0, gb), abs=1e-8
            )

    def test_agrees_with_direct_expectation(self):
        for gb in (0.1, 1.0, 10.0, 100.0):
            assert analysis.mgf_ber_bpsk(gb) == pytest.approx(
                expected_q_over_rayleigh(1.0, gb), abs=1e-7
            )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            analysis.mgf_ber_bpsk(-1.0)


class TestMgfMpsk:
    def test_m2_reduces_to_double_rate_bpsk_family(self):
        # a^2 = 2 sin^2(pi/2) = 2 doubles the effective SNR of the a=1 form
        for gb in GAMMA_BAR_GRID:
            a2 = 2.0
            direct = rayleigh_q_mgf_reference(np.sqrt(a2), gb)
            assert analysis.mgf_ber_mpsk(gb, 2) == pytest.approx(direct, abs=1e-8)

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_default_matches_quadrature(self, m):
        for gb in GAMMA_BAR_GRID:
            ref = mpsk_mgf_reference(gb, m)
            assert analysis.mgf_ber_mpsk(gb, m) == pytest.approx(ref, abs=1e-8)

    def test_printed_form_coincides_only_for_m2(self):
        for gb in (0.1, 1.0, 10.0):
            assert mpsk_printed_form(gb, 2) == pytest.approx(
                analysis.mgf_ber_mpsk(gb, 2), abs=1e-12
            )
        assert mpsk_printed_form(10.0, 4) != pytest.approx(
            analysis.mgf_ber_mpsk(10.0, 4), abs=1e-3
        )

    def test_monotone_decreasing(self):
        for m in (4, 8):
            values = [analysis.mgf_ber_mpsk(gb, m) for gb in np.logspace(-2, 4, 20)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            analysis.mgf_ber_mpsk(1.0, 3)


class TestMgfMqam:
    @pytest.mark.parametrize(
        "m,expected", [(4, 0.75), (16, 0.9375), (64, 0.984375)]
    )
    def test_zero_snr_closed_form(self, m, expected):
        # at gamma_bar = 0, mu = 0 and the closed form is 2 zeta - zeta^2
        assert analysis.mgf_ber_mqam(0.0, m) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_matches_fixed_grid_reference(self, m):
        for gb in GAMMA_BAR_GRID:
            assert analysis.mgf_ber_mqam(gb, m) == pytest.approx(
                mqam_mgf_reference(gb, m), abs=1e-8
            )

    def test_high_snr_slope_is_diversity_one(self):
        lo, hi = 1e3, 1e5
        slope = (np.log10(analysis.mgf_ber_mqam(hi, 4)) - np.log10(analysis.mgf_ber_mqam(lo, 4))) / 2
        assert slope == pytest.approx(-1.0, abs=0.01)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            analysis.mgf_ber_mqam(1.0, 8)


class TestProbabilityRanges:
    def test_default_forms_stay_in_unit_interval(self):
        for gb in np.logspace(-3, 5, 30):
            assert 0.0 <= analysis.mgf_ber_bpsk(gb) <= 0.5 + 1e-9
            for m in (2, 4, 8):
                assert 0.0 <= analysis.mgf_ber_mpsk(gb, m) <= 0.5 + 1e-9
            for m in (4, 16, 64):
                assert 0.0 <= analysis.mgf_ber_mqam(gb, m) <= 1.0


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = analysis.wilson_interval(37, 1000)
        assert lo < 0.037 < hi

    def test_known_value(self):
        # hand-computed Wilson bounds for 5/100 at z = 1.96
        lo, hi = analysis.wilson_interval(5, 100, z=1.96)
        assert lo == pytest.approx(0.0215, abs=2e-4)
        assert hi == pytest.approx(0.1118, abs=2e-4)

    def test_zero_errors(self):
        lo, hi = analysis.wilson_interval(0, 1000)
        assert lo == 0.0
        assert hi > 0

import math

import numpy as np
import pytest
from scipy.linalg import hadamard

from beamlink import beamformer
from beamlink.beamformer import (
    BPR_COMPLEX,
    BPR_REAL,
    COMPLEX_GOLDEN,
    DFT,
    HADAMARD,
    REAL_GOLDEN,
    SCHEMES,
)
from beamlink.rng import substream

from oracles import dense_gram, dense_matvec, golden_block


class TestXi:
    # frozen from symbolic expansion of n((1+n)^q - (1-n)^q)/2^q
    @pytest.mark.parametrize(
        "q,n_root,expected",
        [
            (1, math.sqrt(5), 5.0),
            (2, math.sqrt(5), 5.0),
            (3, math.sqrt(5), 10.0),
            (4, math.sqrt(5), 15.0),
            (1, math.sqrt(3), 3.0),
            (2, math.sqrt(3), 3.0),
            (3, math.sqrt(3), 4.5),
            (4, math.sqrt(3), 6.0),
        ],
    )
    def test_frozen_values(self, q, n_root, expected):
        assert beamformer.xi(q, n_root) == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            beamformer.xi(0, 2.0)
        with pytest.raises(ValueError):
            beamformer.xi(2, 0.0)


class TestKappa:
    def test_reported_q2_values(self):
        assert beamformer.kappa(DFT, 2) == pytest.approx(0.25)
        assert beamformer.kappa(HADAMARD, 2) == pytest.approx(0.25)
        assert beamformer.kappa(BPR_REAL, 2) == pytest.approx((3 + math.sqrt(5)) / 10)
        assert beamformer.kappa(BPR_COMPLEX, 2) == pytest.approx(1 / 3)

    def test_q2_ordering(self):
        assert (
            beamformer.kappa(BPR_REAL, 2)
            > beamformer.kappa(BPR_COMPLEX, 2)
            > beamformer.kappa(DFT, 2)
        )

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            beamformer.kappa("zadoff-chu", 2)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_matches_measured_entry_power(self, scheme, q):
        half = 2 ** (q - 1)
        bf = beamformer.build(scheme, q, np.zeros(half), np.zeros(half))
        np.testing.assert_allclose(
            np.abs(bf) ** 2, beamformer.kappa(scheme, q), atol=1e-12
        )


class TestBuild:
    def test_maps_each_scheme_to_its_builder(self):
        phi1, phi2 = np.array([0.0, np.pi]), np.array([np.pi / 2, 0.0])
        expected = {
            DFT: beamformer.build_dft_atb(2),
            HADAMARD: beamformer.build_hadamard_atb(2),
            BPR_REAL: beamformer.build_bpr_atb(2, REAL_GOLDEN, phi1, phi2),
            BPR_COMPLEX: beamformer.build_bpr_atb(2, COMPLEX_GOLDEN, phi1, phi2),
        }
        for scheme in SCHEMES:
            np.testing.assert_array_equal(beamformer.build(scheme, 2, phi1, phi2), expected[scheme])

    @pytest.mark.parametrize("scheme", ["zadoff-chu", BPR_REAL])
    def test_rejects_unknown_scheme_and_missing_phases(self, scheme):
        with pytest.raises(ValueError):
            beamformer.build(scheme, 2)


class TestDftConstruction:
    def test_q1_single_column(self):
        bf = beamformer.build_dft_atb(1)
        np.testing.assert_allclose(bf, np.array([[1.0], [1.0]]) / np.sqrt(2))

    def test_q2_orthonormal_columns(self):
        bf = beamformer.build_dft_atb(2)
        gram = dense_gram(bf)
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(np.abs(bf), 0.5, atol=1e-12)

    def test_q3_gram_identity(self):
        bf = beamformer.build_hadamard_atb(3)
        np.testing.assert_allclose(dense_gram(bf), np.eye(4), atol=1e-12)


class TestHadamardConstruction:
    @pytest.mark.parametrize("k", range(9))
    def test_sylvester_matches_scipy_hadamard(self, k):
        w = beamformer._sylvester(k)
        assert np.issubdtype(w.dtype, np.integer)
        np.testing.assert_array_equal(w, hadamard(2**k))

    def test_q1(self):
        bf = beamformer.build_hadamard_atb(1)
        np.testing.assert_allclose(bf, np.array([[1.0], [1.0]]) / np.sqrt(2))

    def test_q2_entries(self):
        bf = beamformer.build_hadamard_atb(2)
        np.testing.assert_allclose(np.abs(bf) ** 2, 0.25, atol=1e-14)
        assert np.all(np.isin(bf.real * 2, [-1.0, 1.0]))


class TestBprConstruction:
    def test_q1_zero_phases(self):
        bf = beamformer.build_bpr_atb(1, REAL_GOLDEN, np.zeros(1), np.zeros(1))
        g = (1 + math.sqrt(5)) / 2
        np.testing.assert_allclose(
            bf, g / math.sqrt(5) * np.array([[1.0], [1.0]]), atol=1e-14
        )
        assert np.abs(bf[0, 0]) ** 2 == pytest.approx((3 + math.sqrt(5)) / 10)

    def test_q2_constant_modulus_both_variants(self):
        rng = substream(0, 17)
        phi1 = rng.uniform(0, 2 * np.pi, 2)
        phi2 = rng.uniform(0, 2 * np.pi, 2)
        for variant, expected in ((REAL_GOLDEN, (3 + math.sqrt(5)) / 10), (COMPLEX_GOLDEN, 1 / 3)):
            bf = beamformer.build_bpr_atb(2, variant, phi1, phi2)
            np.testing.assert_allclose(np.abs(bf) ** 2, expected, atol=1e-10)

    def test_q2_zero_phases_reduce_to_scaled_hadamard(self):
        bf = beamformer.build_bpr_atb(2, REAL_GOLDEN, np.zeros(2), np.zeros(2))
        g = (1 + math.sqrt(5)) / 2
        w2 = np.array([[1.0, 1.0], [1.0, -1.0]])
        np.testing.assert_allclose(bf[:2, :], g / math.sqrt(5) * w2, atol=1e-14)

    def test_reconstruction_from_stored_parts(self):
        rng = substream(0, 23)
        phi1, phi2 = rng.uniform(0, 2 * np.pi, (2, 4))
        bf = beamformer.build_bpr_atb(3, COMPLEX_GOLDEN, phi1, phi2)
        full = golden_block(3, COMPLEX_GOLDEN.g, COMPLEX_GOLDEN.n_root, phi1, phi2)
        assert np.array_equal(bf, full[:, :4])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            beamformer.build_bpr_atb(2, REAL_GOLDEN, np.zeros(3), np.zeros(2))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
def test_constant_modulus_invariant(scheme, q):
    rng = substream(1, q)
    half = 2 ** (q - 1)
    bf = beamformer.build(
        scheme, q, rng.uniform(0, 2 * np.pi, half), rng.uniform(0, 2 * np.pi, half)
    )
    err = np.max(np.abs(np.abs(bf) ** 2 - beamformer.kappa(scheme, q)))
    assert err < 1e-10
    assert bf.shape == (2**q, half)


class TestEquivalentChannel:
    def test_dft_q1_all_ones(self):
        bf = beamformer.build_dft_atb(1)
        h_eq = beamformer.equivalent_channel(bf, np.array([1.0 + 0j, 1.0 + 0j]))
        np.testing.assert_allclose(h_eq, [np.sqrt(2)], atol=1e-14)

    def test_zero_channel(self):
        bf = beamformer.build_dft_atb(2)
        np.testing.assert_allclose(
            beamformer.equivalent_channel(bf, np.zeros(4, dtype=complex)), np.zeros(2)
        )

    def test_matches_dense_oracle(self):
        rng = substream(0, 31)
        h = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / np.sqrt(2)
        bf = beamformer.build_bpr_atb(
            2, REAL_GOLDEN, rng.uniform(0, 2 * np.pi, 2), rng.uniform(0, 2 * np.pi, 2)
        )
        np.testing.assert_allclose(
            beamformer.equivalent_channel(bf, h), dense_matvec(bf, h), atol=1e-12
        )

    def test_dimension_mismatch(self):
        bf = beamformer.build_dft_atb(2)
        with pytest.raises(ValueError):
            beamformer.equivalent_channel(bf, np.zeros(3, dtype=complex))



class TestBprEquivalentChannels:
    @pytest.mark.parametrize("variant", [REAL_GOLDEN, COMPLEX_GOLDEN], ids=["real", "complex"])
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_rows_match_built_matrix(self, q, variant):
        rng = substream(0, 32 + q)
        n_rows, n, half = 40, 2**q, 2 ** (q - 1)
        h = (rng.standard_normal((n_rows, n)) + 1j * rng.standard_normal((n_rows, n))) / np.sqrt(2)
        phi1, phi2 = rng.uniform(0, 2 * np.pi, (2, n_rows, half))
        batch = beamformer.bpr_equivalent_channels(q, variant, h, phi1, phi2)
        assert batch.shape == (n_rows, half)
        for i in range(n_rows):
            bf = beamformer.build_bpr_atb(q, variant, phi1[i], phi2[i])
            np.testing.assert_allclose(
                batch[i], beamformer.equivalent_channel(bf, h[i]), rtol=0, atol=1e-12
            )

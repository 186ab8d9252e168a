import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from beamlink import beamformer, channel, phase_opt
from beamlink.beamformer import (
    BPR_COMPLEX,
    BPR_REAL,
    DFT,
    HADAMARD,
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
        scheme = {math.sqrt(5): BPR_REAL, math.sqrt(3): BPR_COMPLEX}[n_root]
        assert beamformer.xi(scheme, q) == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="q must be at least 1"):
            beamformer.xi(BPR_REAL, 0)
        for scalar in (beamformer.xi, beamformer.bpr_scale):
            with pytest.raises(ValueError, match="unknown scheme 'zadoff-chu'"):
                scalar("zadoff-chu", 2)
            for scheme in (DFT, HADAMARD):
                with pytest.raises(ValueError, match="only for the blockwise schemes"):
                    scalar(scheme, 2)


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
        with pytest.raises(ValueError, match="unknown scheme 'zadoff-chu'"):
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
        # each scheme against an oracle built from its own formula and literal
        # golden numbers (1+sqrt 5)/2, (j+sqrt 3)/2 with surd roots sqrt 5, sqrt 3
        phi1, phi2 = np.array([0.0, np.pi]), np.array([np.pi / 2, 0.0])
        dft = [[np.exp(-2j * np.pi * m * k / 4) / 2 for k in range(2)] for m in range(4)]
        expected = {
            DFT: np.array(dft),
            HADAMARD: hadamard(4)[:, :2] / 2.0,
            BPR_REAL: golden_block(2, (1 + math.sqrt(5)) / 2, math.sqrt(5), phi1, phi2)[:, :2],
            BPR_COMPLEX: golden_block(2, (1j + math.sqrt(3)) / 2, math.sqrt(3), phi1, phi2)[:, :2],
        }
        for scheme in SCHEMES:
            np.testing.assert_allclose(
                beamformer.build(scheme, 2, phi1, phi2), expected[scheme], rtol=0, atol=1e-15
            )

    @pytest.mark.parametrize("scheme", ["zadoff-chu", BPR_REAL])
    def test_rejects_unknown_scheme_and_missing_phases(self, scheme):
        match = {"zadoff-chu": "unknown scheme 'zadoff-chu'", BPR_REAL: "phase vectors"}[scheme]
        with pytest.raises(ValueError, match=match):
            beamformer.build(scheme, 2)


class TestDftConstruction:
    def test_q1_single_column(self):
        bf = beamformer.build(DFT, 1)
        np.testing.assert_allclose(bf, np.array([[1.0], [1.0]]) / np.sqrt(2))

    def test_q2_orthonormal_columns(self):
        bf = beamformer.build(DFT, 2)
        gram = dense_gram(bf)
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(np.abs(bf), 0.5, atol=1e-12)

    def test_q3_gram_identity(self):
        bf = beamformer.build(HADAMARD, 3)
        np.testing.assert_allclose(dense_gram(bf), np.eye(4), atol=1e-12)


class TestHadamardConstruction:
    @pytest.mark.parametrize("k", range(9))
    def test_sylvester_matches_scipy_hadamard(self, k):
        w = beamformer._sylvester(k)
        assert np.issubdtype(w.dtype, np.integer)
        np.testing.assert_array_equal(w, hadamard(2**k))

    def test_q1(self):
        bf = beamformer.build(HADAMARD, 1)
        np.testing.assert_allclose(bf, np.array([[1.0], [1.0]]) / np.sqrt(2))

    def test_q2_entries(self):
        bf = beamformer.build(HADAMARD, 2)
        np.testing.assert_allclose(np.abs(bf) ** 2, 0.25, atol=1e-14)
        assert np.all(np.isin(bf.real * 2, [-1.0, 1.0]))


class TestBprConstruction:
    def test_q1_zero_phases(self):
        bf = beamformer.build(BPR_REAL, 1, np.zeros(1), np.zeros(1))
        g = (1 + math.sqrt(5)) / 2
        np.testing.assert_allclose(
            bf, g / math.sqrt(5) * np.array([[1.0], [1.0]]), atol=1e-14
        )
        assert np.abs(bf[0, 0]) ** 2 == pytest.approx((3 + math.sqrt(5)) / 10)

    def test_q2_constant_modulus_both_variants(self):
        rng = substream(0, 17)
        phi1 = rng.uniform(0, 2 * np.pi, 2)
        phi2 = rng.uniform(0, 2 * np.pi, 2)
        for scheme, expected in ((BPR_REAL, (3 + math.sqrt(5)) / 10), (BPR_COMPLEX, 1 / 3)):
            bf = beamformer.build(scheme, 2, phi1, phi2)
            np.testing.assert_allclose(np.abs(bf) ** 2, expected, atol=1e-10)

    def test_q2_zero_phases_reduce_to_scaled_hadamard(self):
        bf = beamformer.build(BPR_REAL, 2, np.zeros(2), np.zeros(2))
        g = (1 + math.sqrt(5)) / 2
        w2 = np.array([[1.0, 1.0], [1.0, -1.0]])
        np.testing.assert_allclose(bf[:2, :], g / math.sqrt(5) * w2, atol=1e-14)

    def test_reconstruction_from_stored_parts(self):
        rng = substream(0, 23)
        phi1, phi2 = rng.uniform(0, 2 * np.pi, (2, 4))
        bf = beamformer.build(BPR_COMPLEX, 3, phi1, phi2)
        full = golden_block(3, (1j + math.sqrt(3)) / 2, math.sqrt(3), phi1, phi2)
        assert np.array_equal(bf, full[:, :4])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="phase vectors must each have length 2"):
            beamformer.build(BPR_REAL, 2, np.zeros(3), np.zeros(2))


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
        bf = beamformer.build(DFT, 1)
        h_eq = beamformer.equivalent_channel(bf, np.array([1.0 + 0j, 1.0 + 0j]))
        np.testing.assert_allclose(h_eq, [np.sqrt(2)], atol=1e-14)

    def test_zero_channel(self):
        bf = beamformer.build(DFT, 2)
        np.testing.assert_allclose(
            beamformer.equivalent_channel(bf, np.zeros(4, dtype=complex)), np.zeros(2)
        )

    def test_matches_dense_oracle(self):
        # dft and hadamard at q=1..4 and one blockwise matrix, on one row
        # and on an (a, b) batch of rows, to 1e-13 of each oracle row's norm
        rng = substream(0, 31)
        matrices = [beamformer.build(s, q) for s in (DFT, HADAMARD) for q in (1, 2, 3, 4)]
        phi1, phi2 = rng.uniform(0, 2 * np.pi, (2, 2))
        matrices.append(beamformer.build(BPR_REAL, 2, phi1, phi2))
        for bf in matrices:
            for lead in [(), (3, 5)]:
                shape = (*lead, bf.shape[0])
                h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
                batch = beamformer.equivalent_channel(bf, h)
                assert batch.shape == (*lead, bf.shape[1])
                want = np.apply_along_axis(lambda row: dense_matvec(bf, row), -1, h)
                err = np.linalg.norm(batch - want, axis=-1)
                assert np.all(err <= 1e-13 * np.linalg.norm(want, axis=-1))

    def test_dimension_mismatch(self):
        bf = beamformer.build(DFT, 2)
        with pytest.raises(ValueError):
            beamformer.equivalent_channel(bf, np.zeros(3, dtype=complex))


class TestAntennaMajorRows:
    """``F^H h`` reads the samplers' antenna-major rows in place, with the
    bits of the same rows in C order."""

    @pytest.mark.parametrize("q", [2, 4])
    def test_layouts_give_identical_sums(self, q):
        h = channel.sample_rayleigh_batch(3000, 2**q, substream(q, 40))
        assert h.T.flags.c_contiguous
        rows = np.ascontiguousarray(h)
        for scheme in (DFT, HADAMARD):
            bf = beamformer.build(scheme, q)
            np.testing.assert_array_equal(
                beamformer.equivalent_channel(bf, h), beamformer.equivalent_channel(bf, rows)
            )
        idx = phase_opt.greedy_bpr_indices(h, q)
        np.testing.assert_array_equal(
            beamformer.bpr_rotated_sum(q, h, *idx), beamformer.bpr_rotated_sum(q, rows, *idx)
        )

    def test_antenna_major_block_is_not_copied(self):
        h = channel.sample_rayleigh_batch(16384, 16, substream(0, 41))
        bf = beamformer.build(DFT, 4)
        tracemalloc.start()
        try:
            out = beamformer.equivalent_channel(bf, h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the output takes out.nbytes and each column's sum a fraction of
        # it; a transposed copy of h would add h.nbytes
        assert peak < out.nbytes + h.nbytes // 2

    @pytest.mark.parametrize("q", [2, 4])
    @pytest.mark.parametrize("kind", ["mmwave", "rayleigh"])
    def test_row_tiles_give_the_bits_of_their_c_order_copy(self, q, kind):
        rng = substream(q, 42)
        if kind == "mmwave":
            h = channel.plane_wave_sums(*channel.sample_mmwave_batch(3000, 3, rng), 2**q)
        else:
            h = channel.sample_rayleigh_batch(3000, 2**q, rng)
        tile = h[700:2300]
        assert not tile.T.flags.c_contiguous and tile.T[0].flags.c_contiguous
        rows = np.ascontiguousarray(tile)
        for scheme in (DFT, HADAMARD):
            bf = beamformer.build(scheme, q)
            np.testing.assert_array_equal(
                beamformer.equivalent_channel(bf, tile), beamformer.equivalent_channel(bf, rows)
            )
        idx = phase_opt.greedy_bpr_indices(tile, q)
        np.testing.assert_array_equal(
            beamformer.bpr_rotated_sum(q, tile, *idx), beamformer.bpr_rotated_sum(q, rows, *idx)
        )

    def test_row_tile_is_not_copied(self):
        h = channel.sample_rayleigh_batch(32768, 16, substream(0, 43))
        tile = h[8192:24576]
        bf = beamformer.build(DFT, 4)
        tracemalloc.start()
        try:
            out = beamformer.equivalent_channel(bf, tile)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # as for a whole block: a copy of the tile would add tile.nbytes
        assert peak < out.nbytes + tile.nbytes // 2



class TestBprEquivalentChannels:
    @pytest.mark.parametrize("scheme", [BPR_REAL, BPR_COMPLEX], ids=["real", "complex"])
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_rows_match_built_matrix(self, q, scheme):
        # bpr_scale times the rotated sum is F^H h of build with each
        # row's grid phases, on one row, a batch and an (a, b) batch of rows
        rng = substream(0, 32 + q)
        n, half = 2**q, 2 ** (q - 1)
        for lead in [(), (40,), (3, 5)]:
            shape = (*lead, n)
            h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
            idx1, idx2 = rng.integers(0, half, (2, *lead, half))
            grid1, grid2 = phase_opt.block_grids(q)
            phi1, phi2 = grid1[idx1], grid2[idx2]
            batch = beamformer.bpr_scale(scheme, q) * beamformer.bpr_rotated_sum(q, h, idx1, idx2)
            assert batch.shape == (*lead, half)
            rows, p1, p2 = h.reshape(-1, n), phi1.reshape(-1, half), phi2.reshape(-1, half)
            want = np.array([
                dense_matvec(beamformer.build(scheme, q, p1[i], p2[i]), rows[i])
                for i in range(len(rows))
            ])
            err = np.linalg.norm(batch.reshape(len(rows), half) - want, axis=-1)
            assert np.all(err <= 1e-13 * np.linalg.norm(want, axis=-1))

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
    def test_grid_rotations_are_np_exp(self, q):
        # the lookup among the grid's exponentials keeps np.exp's bits
        for grid in phase_opt.block_grids(q):
            idx = substream(0, 39).integers(0, grid.size, (50, grid.size))
            assert np.array_equal(beamformer._grid_rotations(grid, idx), np.exp(-1j * grid[idx]))

    def test_rejects_phases_off_the_grid(self):
        # the phases are grid indices: an index past either end of the
        # grid, or an angle in place of an index, is refused
        h = np.ones((3, 4), dtype=np.complex128)
        on = np.broadcast_to(np.arange(2), (3, 2))
        beamformer.bpr_rotated_sum(2, h, on, on)
        grid1, _ = phase_opt.block_grids(2)
        for off in (on + 1, on - 1, np.broadcast_to(grid1, (3, 2))):
            with pytest.raises(ValueError, match="block_grids"):
                beamformer.bpr_rotated_sum(2, h, on, off)


def _rotated_norms(q, h, idx1, idx2):
    """The computed unscaled ``||bpr_rotated_sum||^2`` of each row, as the
    block stage reduces it."""
    return np.sum(np.abs(beamformer.bpr_rotated_sum(q, h, idx1, idx2)) ** 2, axis=-1)


def _index_sets(q, rows, rng):
    """Every pair of grid index vectors at q = 2; 40 random pairs per row above."""
    half = 2 ** (q - 1)
    if q == 2:
        for flat in itertools.product(range(half), repeat=2 * half):
            pair = np.broadcast_to(np.reshape(flat, (2, 1, half)), (2, rows, half))
            yield pair[0], pair[1]
        return
    for _ in range(40):
        yield tuple(rng.integers(0, half, (2, rows, half)))


def _adversarial_rows(q, rows, rng):
    """Named groups of channel rows on which the floor is tight or
    degenerate, from Rayleigh and mmwave draws scaled by 1e-3 to 1e3:
    the draws themselves; their bottom block set to the top one turned
    (``|a_k| = |b_k|``); set to the top one negated and scaled by
    ``1 + t`` for tiny ``t`` (``b = -(1 + t) a``, where a rotation of 1 on
    both blocks meets the floor); Gaussian-integer rows whose bottom block
    is the top one times a unit; and zero rows."""
    n, half = 2**q, 2 ** (q - 1)
    draws = {
        "rayleigh": channel.sample_rayleigh_batch(rows, n, rng),
        "mmwave": channel.plane_wave_sums(*channel.sample_mmwave_batch(rows, 3, rng), n),
    }
    groups = {}
    for kind, h in draws.items():
        h = np.array(h) * 10.0 ** rng.uniform(-3.0, 3.0, (rows, 1))
        turned, opposite = h.copy(), h.copy()
        turned[:, half:] = h[:, :half] * np.exp(1j * rng.uniform(0, 2 * np.pi, (rows, 1)))
        opposite[:, half:] = -h[:, :half] * (1.0 + 10.0 ** rng.uniform(-16.0, -2.0, (rows, 1)))
        groups.update({kind: h, f"{kind} turned": turned, f"{kind} opposite": opposite})
    lattice = rng.integers(-3, 4, (rows, n)) + 1j * rng.integers(-3, 4, (rows, n))
    lattice[:, half:] = rng.choice([1, -1, 1j, -1j], (rows, 1)) * lattice[:, :half]
    groups["lattice"] = lattice * 10.0 ** rng.integers(-3, 4, (rows, 1))
    groups["zero"] = np.zeros((4, n), dtype=complex)
    return groups


@st.composite
def _floor_rows(draw):
    """One q = 2 row: free, Gaussian integer, ``|a_k| = |b_k|`` or near
    ``b = -a``, at a scale from 1e-3 to 1e3, or zero."""
    kind = draw(st.sampled_from(["free", "lattice", "turned", "opposite", "zero"]))
    part = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    h = np.array([complex(draw(part), draw(part)) for _ in range(4)])
    if kind == "lattice":
        h = np.round(h)
    elif kind == "turned":
        h[2:] = h[:2] * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
    elif kind == "opposite":
        h[2:] = -h[:2] * (1.0 + draw(st.floats(0.0, 1e-3)))
    elif kind == "zero":
        h[:] = 0.0
    return h * 10.0 ** draw(st.floats(-3.0, 3.0))


class TestBprFloor:
    """The floor under the rotated sum, less its rounding margin, never
    exceeds the computed unscaled ``||bpr_rotated_sum||^2``, whatever the
    grid indices."""

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_floor_never_exceeds_any_rotated_sum(self, q):
        rng = substream(q, 44)
        groups = _adversarial_rows(q, 2000, rng)
        h = np.concatenate(list(groups.values()))
        sums = beamformer.bpr_block_sums(q, h)
        floor = beamformer.bpr_floor(q, h)
        scale = np.sum(np.abs(sums[0]) ** 2 + np.abs(sums[1]) ** 2, axis=-1)
        slack = np.full(h.shape[0], np.inf)
        for idx1, idx2 in _index_sets(q, h.shape[0], rng):
            norms = _rotated_norms(q, h, idx1, idx2)
            assert np.all(floor <= norms)
            slack = np.minimum(slack, norms - floor)
        ends = np.cumsum([len(g) for g in groups.values()])
        group = dict(zip(groups, np.split(np.arange(h.shape[0]), ends[:-1])))
        # |a_k| = |b_k| gives no positive floor, and a zero row a floor of 0
        for name in ("rayleigh turned", "mmwave turned", "lattice"):
            assert np.all(floor[group[name]] <= 0.0), name
        assert np.all(floor[group["zero"]] == 0.0)
        # the draws get positive floors; on rows near b = -a the rotation
        # of 1 meets the exact floor, and the margin alone holds them
        assert np.all(floor[group["rayleigh"]] > 0.0) and np.all(floor[group["mmwave"]] > 0.0)
        if q < 4:
            near = group["rayleigh opposite"]
            assert np.min(slack[near] / scale[near]) < 1.01e-11

    @settings(max_examples=300, deadline=None)
    @given(h=_floor_rows())
    def test_floor_holds_on_single_rows(self, h):
        h = h[None]
        floor = beamformer.bpr_floor(2, h)
        for idx1, idx2 in _index_sets(2, 1, None):
            assert floor[0] <= _rotated_norms(2, h, idx1, idx2)[0]

    def test_block_sums_are_the_sylvester_products(self):
        h = channel.sample_rayleigh_batch(500, 8, substream(0, 45))
        w = hadamard(4).astype(float)
        top, bot = beamformer.bpr_block_sums(3, h)
        np.testing.assert_allclose(top, h[:, :4] @ w, rtol=0, atol=1e-14)
        np.testing.assert_allclose(bot, h[:, 4:] @ w, rtol=0, atol=1e-14)

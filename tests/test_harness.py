import dataclasses
import hashlib
import inspect
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, chi2

from beamlink import analysis, beamformer, channel, cli, harness, phase_opt, stbc
from beamlink.rng import substream

from oracles import greedy_blockwise_reference, label_rows, ml_decode_index, pair_label_rows
from reference_sims import (
    alamouti_codeword,
    decode_alamouti,
    received_parts,
    simulate_bpsk_rayleigh_ber,
    simulate_conditional_ber,
    unit_noise,
)


def _tiny_cfg(**overrides):
    base = dict(
        snr_grid_db=(0.0, 10.0, 20.0),
        modulation=4,
        schemes=("dft", "bpr-real"),
        trials=2000,
        target_errors=50,
        max_trials=4000,
        seed=123,
    )
    base.update(overrides)
    return harness.ExperimentConfig(**base)


def _stage_tiles(cfg, blocks):
    """Rows of fig2's stage tiles, in order, over blocks of the given sizes."""
    tile = harness._STAGE_ENTRIES // cfg.n_antennas
    return [min(tile, n - start) for n in blocks for start in range(0, n, tile)]


def _block_rows(cfg, n, rng):
    """Every row of one block of ``cfg``'s channels, drawn from ``rng``."""
    return harness._sample_channels(cfg, n, rng)(slice(None))


def _stage_gains(cfg, schemes, h, limit=None):
    """:func:`harness._block_gains` of the rows ``h`` for ``schemes``, into
    outputs that start at ``+inf``, as fig3's do."""
    gains = {scheme: np.full(h.shape[0], np.inf) for scheme in schemes}
    harness._block_gains(cfg, lambda rows: h[rows], gains, limit)
    return gains


class _Replay:
    """A generator that hands :func:`harness._link_draw` the given label
    indices, then the real and then the imaginary parts of the given unit
    noise, in the order in which the link draws them."""

    def __init__(self, labels, z):
        self._draws = [labels, z.real * np.sqrt(2.0), z.imag * np.sqrt(2.0)]

    def integers(self, *args, **kwargs):
        return self._draws.pop(0)

    standard_normal = integers


# one override per case; each is invalid whatever the other fields hold
_REJECTED_OVERRIDES = [
    {"n_antennas": 3},
    {"n_rf": 3},
    {"snr_grid_db": ()},
    {"snr_grid_db": (10.0, 5.0)},
    {"trials": 0},
    {"modulation": 8},
    {"schemes": ("dft", "mystery")},
    {"channel_kind": "awgn"},
    {"normalization": "eq42"},
    {"n_paths": 0},
    {"n_paths": 2.5},
    {"trials": 100.0},
    {"max_trials": 0},
    {"max_trials": 1.5},
    {"target_errors": -1},
    {"target_errors": 1.0},
    {"snr_grid_db": (0.0, float("nan"))},
    {"snr_grid_db": (0.0, float("inf"))},
    {"seed": -1},
    {"n_rf": 0},
    {"n_antennas": 4.0},
    {"modulation": 64.0},
    {"seed": 1.5},
    {"snr_grid_db": (0.0, 400.0)},
    {"schemes": ()},
    {"schemes": ("dft", "dft")},
    {"snr_grid_db": 5},
    {"snr_grid_db": ("a",)},
    {"snr_grid_db": "5"},
    {"schemes": "dft"},
    {"schemes": 5},
]


@st.composite
def _valid_config_fields(draw):
    n = draw(st.sampled_from([2, 4, 8, 16]))
    snrs = draw(st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=3, unique=True))
    return dict(
        n_antennas=n,
        n_rf=n // 2,
        n_paths=draw(st.integers(1, 4)),
        snr_grid_db=tuple(sorted(snrs)),
        modulation=draw(st.sampled_from(stbc.SUPPORTED_ORDERS)),
        schemes=tuple(
            draw(st.lists(st.sampled_from(beamformer.SCHEMES), min_size=1, max_size=4, unique=True))
        ),
        channel_kind=draw(st.sampled_from(["mmwave", "rayleigh"])),
        trials=draw(st.integers(1, 2000)),
        target_errors=draw(st.integers(0, 50)),
        max_trials=draw(st.integers(1, 2000)),
        seed=draw(st.integers(0, 2**32)),
        normalization=draw(st.sampled_from(stbc.NORM_MODES)),
    )


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = harness.ExperimentConfig()
        assert cfg.q == 2
        assert cfg.n_antennas == 4
        assert cfg.n_rf == 2
        assert cfg.n_paths == 3
        assert cfg.modulation == 64
        # the exact field list: a new knob needs a deliberate edit here
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "n_antennas", "n_rf", "n_paths", "snr_grid_db", "modulation", "schemes",
            "channel_kind", "trials", "target_errors", "max_trials", "seed", "normalization",
        ]

    @pytest.mark.parametrize("overrides", _REJECTED_OVERRIDES)
    def test_validation_rejects(self, overrides):
        (field,) = overrides
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            _tiny_cfg(**overrides)

    def test_bare_scheme_string_is_not_split_into_letters(self):
        with pytest.raises(ValueError, match=r"^schemes must be a list of scheme names, got 'dft'"):
            _tiny_cfg(schemes="dft")

    @settings(max_examples=25, deadline=None)
    @given(
        fields=_valid_config_fields(),
        bad=st.one_of(st.none(), st.sampled_from(_REJECTED_OVERRIDES)),
    )
    def test_config_is_modelled_or_rejected(self, fields, bad):
        if bad is not None:
            (field,) = bad
            with pytest.raises(ValueError, match=rf"\b{field}\b"):
                harness.ExperimentConfig(**{**fields, **bad})
            return
        cfg = harness.ExperimentConfig(**fields)
        # runner-specific domains, checked in this order: fig2 needs three
        # realizations, fig3 two RF chains and a trial cap no lower than trials
        out_of_domain = {
            harness.run_fig2: [("trials", cfg.trials < 3)],
            harness.run_fig3: [
                ("n_antennas", cfg.n_antennas != 4),
                ("max_trials", cfg.trials > cfg.max_trials),
            ],
        }
        with tempfile.TemporaryDirectory() as out:
            for runner in (
                harness.run_table1, harness.run_fig1, harness.run_fig2, harness.run_fig3
            ):
                rejected = [f for f, bad in out_of_domain.get(runner, []) if bad]
                if rejected:
                    with pytest.raises(ValueError, match=rf"\b{rejected[0]}\b"):
                        runner(cfg, out)
                    continue
                values = [v for row in runner(cfg, out).rows for v in row]
                numbers = [v for v in values if isinstance(v, (int, float, np.number))]
                assert all(math.isfinite(v) for v in numbers), runner.__name__

    @pytest.mark.parametrize("schemes", [("dft",), ("hadamard",), ("dft", "hadamard")])
    def test_nrf_fixed_without_bpr(self, schemes):
        assert _tiny_cfg(schemes=schemes).n_rf == 2
        with pytest.raises(ValueError, match=r"\bn_rf\b"):
            _tiny_cfg(schemes=schemes, n_rf=4)

    def test_json_roundtrip(self, tmp_path):
        cfg = _tiny_cfg()
        path = tmp_path / "config.json"
        cfg.to_json(path)
        restored = harness.ExperimentConfig.from_dict(harness.config_fields(path))
        assert restored == cfg
        assert restored.content_hash() == cfg.content_hash()

    def test_numpy_integers_are_stored_as_python_ints(self, tmp_path):
        # numpy integers pass validation; kept as they came, they broke the
        # JSON of the hash, the config file and the manifest
        plain = _tiny_cfg(trials=4000, seed=3)
        mixed = _tiny_cfg(trials=np.int64(4000), seed=np.uint64(3), n_antennas=np.int32(4))
        assert mixed.to_dict() == plain.to_dict()
        assert all(type(getattr(mixed, name)) is int for name in harness._INT_FIELDS)
        assert mixed.content_hash() == plain.content_hash()
        mixed.to_json(tmp_path / "mixed.json")
        plain.to_json(tmp_path / "plain.json")
        assert (tmp_path / "mixed.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
        harness.run_recorded(mixed, tmp_path / "run", (harness.run_table1,))
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config_sha256"] == plain.content_hash()
        assert list(manifest["files"]) == ["table1.csv"]

    def test_malformed_json_names_the_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"seed": 1,')
        with pytest.raises(ValueError, match="config.json") as info:
            harness.ExperimentConfig.from_dict(harness.config_fields(path))
        assert isinstance(info.value.__cause__, json.JSONDecodeError)

    # the removed knobs, and a typo, are rejected by name
    @pytest.mark.parametrize(
        "key",
        [
            "n_receive", "carrier_frequency_hz", "noise_variance", "n_antenas",
            "theta_points", "spacing_over_wavelength", "include_array_gain",
        ],
    )
    def test_from_dict_rejects_unknown_keys(self, key):
        data = {**_tiny_cfg().to_dict(), key: 1}
        with pytest.raises(ValueError, match=rf"\b{key}\b"):
            harness.ExperimentConfig.from_dict(data)

    def test_hash_changes_with_seed(self):
        assert _tiny_cfg(seed=1).content_hash() != _tiny_cfg(seed=2).content_hash()


def _grid_index(grid, phi):
    """Positions of the angles ``phi`` in ``grid``; each must be a value of it."""
    hits = grid[:, None] == np.asarray(phi)[None, :]
    assert hits.any(axis=0).all(), phi
    return hits.argmax(axis=0)


def _assert_greedy_matches_reference(h, q, idx, rows):
    """The kernel's grid indices ``idx`` for the given rows of ``h`` are
    the scalar reference's, and so is the realized ``||F^H h||^2``."""
    grids = phase_opt.block_grids(q)
    rotated = beamformer.bpr_rotated_sum(q, h, *idx)
    for i in rows:
        ref_phi1, ref_phi2, _, _, _ = greedy_blockwise_reference(h[i], *grids)
        np.testing.assert_array_equal(idx[0, i], _grid_index(grids[0], ref_phi1))
        np.testing.assert_array_equal(idx[1, i], _grid_index(grids[1], ref_phi2))
        bf = beamformer.build(beamformer.BPR_REAL, q, ref_phi1, ref_phi2)
        want = np.sum(np.abs(beamformer.equivalent_channel(bf, h[i])) ** 2)
        scale = beamformer.bpr_scale(beamformer.BPR_REAL, q)
        assert np.sum(np.abs(scale * rotated[i]) ** 2) == pytest.approx(want, rel=1e-12)


class TestBatchKernels:
    def test_blocks_cover_total_with_keyed_substreams(self):
        blocks = list(harness._blocks(40000, 11, 7))
        assert [n for n, _ in blocks] == [16384, 16384, 7232]
        for b, (_, rng) in enumerate(blocks):
            assert np.array_equal(rng.random(8), substream(11, 7, b).random(8))

    def test_batch_greedy_matches_scalar(self):
        for q in (1, 2, 3, 4):
            rng = substream(q, 60)
            n = 2**q
            h = (rng.standard_normal((200, n)) + 1j * rng.standard_normal((200, n))) / np.sqrt(2)
            idx = harness._batch_greedy_phases(h, q)
            np.testing.assert_array_equal(idx, phase_opt.greedy_bpr_indices(h, q))
            _assert_greedy_matches_reference(h, q, idx, range(200))

    @pytest.mark.parametrize("q", [3, 4])
    def test_batch_greedy_matches_scalar_across_tiles(self, q):
        # two full row tiles and a short last one; every other row draws its
        # elements from {1, j, -1, -j}, so equal scores across elements are
        # common and the order in which unplaced elements are scanned shows
        n = 2**q
        tile = phase_opt._TILE_ENTRIES // n
        b = 2 * tile + 300
        rng = substream(q, 63)
        h = (rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))) / np.sqrt(2)
        h[1::2] = 1j ** rng.integers(0, 4, (b // 2, n))
        idx = phase_opt.greedy_bpr_indices(h, q)
        _assert_greedy_matches_reference(h, q, idx, [tile - 1, tile, 2 * tile - 1, *range(2 * tile, b)])

    @pytest.mark.parametrize("scheme", ["dft", "hadamard", "bpr-real", "bpr-complex"])
    def test_batch_equivalent_channels_match_scalar(self, scheme):
        # a fixed scheme's F^H h comes from the batch kernel, a blockwise
        # one's from the scaled rotated sum of the greedy's phases
        cfg = _tiny_cfg(schemes=("dft", "hadamard", "bpr-real", "bpr-complex"))
        rng = substream(0, 61)
        h = (rng.standard_normal((100, 4)) + 1j * rng.standard_normal((100, 4))) / np.sqrt(2)
        grid1, grid2 = phase_opt.block_grids(2)
        idx1, idx2 = harness._batch_greedy_phases(h, 2)
        if scheme in beamformer.BPR_SCHEMES:
            batch = beamformer.bpr_scale(scheme, 2) * beamformer.bpr_rotated_sum(2, h, idx1, idx2)
        else:
            batch = harness._batch_equivalent_channels(scheme, h, cfg)
        gains = _stage_gains(cfg, (scheme,), h)[scheme]
        for i in range(100):
            bf = beamformer.build(scheme, 2, grid1[idx1[i]], grid2[idx2[i]])
            expected = beamformer.equivalent_channel(bf, h[i])
            np.testing.assert_allclose(batch[i], expected, atol=1e-11)
            assert gains[i] == pytest.approx(np.vdot(expected, expected).real, rel=1e-12)

    @pytest.mark.parametrize("sweep", ["quadratic_forms", "ber_grid"])
    def test_one_rotated_sum_per_block(self, monkeypatch, sweep):
        calls = []
        rotated_sum = beamformer.bpr_rotated_sum

        def counting(q, h, idx1, idx2):
            # the greedy hands over grid indices, not angles
            assert idx1.dtype.kind == idx2.dtype.kind == "i"
            calls.append(h)
            return rotated_sum(q, h, idx1, idx2)

        monkeypatch.setattr(beamformer, "bpr_rotated_sum", counting)
        n = harness.TRIAL_BLOCK + 100
        cfg = _tiny_cfg(
            schemes=beamformer.SCHEMES, snr_grid_db=(10.0,), trials=n, max_trials=n
        )
        getattr(harness, sweep)(cfg)
        rows = [h.shape[0] for h in calls]
        if sweep == "quadratic_forms":
            # fig2 and fig3 share one stage, which runs each block in row
            # tiles, one rotated sum each; fig2 computes whole tiles
            assert rows == _stage_tiles(cfg, [harness.TRIAL_BLOCK, 100])
            return
        # fig3: one rotated sum per tile, on exactly the rows whose floor
        # does not clear the limit, both recomputed here from the block's
        # channel and link draws
        expected = []
        amplitudes = [harness._link_amplitude(cfg, s, 10.0) for s in beamformer.BPR_SCHEMES]
        scale = min(
            a * a * abs(beamformer.bpr_scale(s, 2)) ** 2
            for a, s in zip(amplitudes, beamformer.BPR_SCHEMES)
        )
        tile = harness._STAGE_ENTRIES // cfg.n_antennas
        for b, (size, rng) in enumerate(harness._blocks(n, cfg.seed, harness._PURPOSE_FIG3_CHANNEL)):
            h = _block_rows(cfg, size, rng)
            link = harness._link_draw(size, cfg.modulation, substream(cfg.seed, harness._PURPOSE_FIG3, b))
            limit = link[2].max(axis=1) ** 2 / scale
            # the Sylvester sums of q = 2: W = [[1, 1], [1, -1]]
            a = np.abs(np.stack([h[:, 0] + h[:, 1], h[:, 0] - h[:, 1]], axis=1))
            c = np.abs(np.stack([h[:, 2] + h[:, 3], h[:, 2] - h[:, 3]], axis=1))
            floor = np.sum((a - c) ** 2, axis=1) - 1e-11 * np.sum(a**2 + c**2, axis=1)
            keep = ~(limit < floor * (1.0 - 1e-5))
            expected += [h[s : s + tile][keep[s : s + tile]] for s in range(0, size, tile)]
        assert rows == [len(want) for want in expected]
        for got, want in zip(calls, expected):
            np.testing.assert_array_equal(got, want)
        # the gate both skips rows and keeps some
        assert 0 < sum(rows) < n

    def test_ber_block_matches_scalar_pipeline(self):
        points = stbc.make_constellation(16)
        labels = label_rows(16)
        rng_data = substream(0, 62)
        h_eq = (rng_data.standard_normal((64, 2)) + 1j * rng_data.standard_normal((64, 2))) / np.sqrt(2)
        gain = np.sum(np.abs(h_eq) ** 2, axis=1)
        link = harness._link_draw(64, 16, substream(9, 0))

        # replay the shared draw: label indices, then the real and imaginary
        # parts of the unit noise z. The received noise U^H z combines to z,
        # with U = [[g1, conj(g2)], [g2, -conj(g1)]] / ||h_eq||, and every
        # amplitude decodes the same draw, row by row by exhaustive ML
        rng = substream(9, 0)
        sent = rng.integers(0, 16, (64, 2), dtype=np.uint8)
        z = (rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))) / np.sqrt(2.0)
        np.testing.assert_array_equal(link[0], sent)
        np.testing.assert_array_equal(link[1], z)
        bits = pair_label_rows(sent, 16)
        g1, g2 = (h_eq / np.sqrt(gain)[:, None]).T
        noise = np.stack(
            [np.conj(g1) * z[:, 0] + np.conj(g2) * z[:, 1], np.conj(g2 * z[:, 0] - g1 * z[:, 1])],
            axis=1,
        )
        np.testing.assert_allclose(unit_noise(h_eq, noise), z, atol=1e-14)
        m = len(points)
        sym1, sym2 = np.divmod(np.arange(m * m), m)
        codewords = np.array(
            [
                [[points[a], -np.conj(points[b])],
                 [points[b], np.conj(points[a])]]
                for a, b in zip(sym1, sym2)
            ]
        )
        for amplitude in (1.7, 4.0):
            block_errors = harness._ber_block(gain, points, amplitude, link)
            assert type(block_errors) is int
            errors = 0
            for i in range(64):
                codeword = codewords[sent[i, 0] * m + sent[i, 1]]
                y = amplitude * (np.conj(h_eq[i]) @ codeword) + noise[i]
                best = ml_decode_index(y, h_eq[i], codewords, amplitude)
                decoded = np.concatenate([labels[sym1[best]], labels[sym2[best]]])
                errors += int(np.count_nonzero(decoded != bits[i]))
            assert block_errors == errors
            assert errors > 0

    # eq1 and eq10 link amplitudes of dft and bpr-real from 0 to 40 dB
    _AMPLITUDES = [
        stbc.link_amplitude(10.0 ** (db / 10.0), beamformer.kappa(scheme, 2), norm, 4, 3)
        for db in range(0, 45, 5)
        for scheme in ("dft", "bpr-real")
        for norm in stbc.NORM_MODES
    ]

    @pytest.mark.parametrize("order", [2, 4, 16, 64])
    def test_ber_block_counts_the_explicit_link_error_for_error(self, order):
        # the explicit path: label indices, the codeword, the received rows
        # A h_eq^H S + n, combining and demapping every symbol. The link
        # gets the same labels and z = U (n1, conj(n2)) of the same noise,
        # and reads only ||h_eq||^2 of the channel
        points = stbc.make_constellation(order)
        cfg = _tiny_cfg(schemes=beamformer.SCHEMES, modulation=order)
        skipped = errors = 0
        for b in range(20):
            kind = channel.CHANNEL_KINDS[b % 2]
            scheme = cfg.schemes[b % 4]
            h = _block_rows(harness.ExperimentConfig(channel_kind=kind), 1024, substream(b, 71))
            h[::97] = 0.0
            gain = _stage_gains(cfg, (scheme,), h)[scheme]
            if scheme in beamformer.BPR_SCHEMES:
                rotated = beamformer.bpr_rotated_sum(2, h, *harness._batch_greedy_phases(h, 2))
                h_eq = beamformer.bpr_scale(scheme, 2) * rotated
                norm = abs(beamformer.bpr_scale(scheme, 2)) ** 2 * harness._row_norms(rotated)
            else:
                h_eq = harness._batch_equivalent_channels(scheme, h, cfg)
                norm = harness._row_norms(h_eq)
            np.testing.assert_array_equal(gain, norm)
            assert np.all(gain[::97] == 0.0)
            # the link's own stream: label indices, then the unit noise's
            # real parts, then its imaginary parts
            drawn = harness._link_draw(1024, order, substream(b, 72, order))
            rng = substream(b, 72, order)
            sent = rng.integers(0, order, (1024, 2), dtype=np.uint8)
            s = alamouti_codeword(points[sent[:, 0]], points[sent[:, 1]])
            clean, noise = received_parts(s, h_eq, rng)
            np.testing.assert_array_equal(drawn[0], sent)
            assert drawn[0].dtype == np.uint8
            np.testing.assert_array_equal(drawn[1], noise)
            link = harness._link_draw(1024, order, _Replay(sent, unit_noise(h_eq, noise)))
            for amplitude in self._AMPLITUDES:
                decoded = decode_alamouti(amplitude * clean + noise, h_eq, points, amplitude)
                want = int(stbc.hamming_distance(sent, decoded).sum())
                assert harness._ber_block(gain, points, amplitude, link) == want, (b, amplitude)
                errors += want
                skipped += int(np.count_nonzero(link[2] < amplitude * np.sqrt(gain)[:, None]))
        # both branches of the reach rule ran
        assert errors > 0 and skipped > 0

    @pytest.mark.parametrize("order", [2, 4, 16, 64])
    def test_reach_rule_at_the_decision_boundaries(self, monkeypatch, order):
        # on gain-1 rows, unit noise of (1 +- 1e-6) half spacings at
        # amplitude A, inward and outward along each axis, on every point:
        # inner levels cross into a neighbour's cell, edge levels pushed
        # outward stay, and each count equals a full demap. Then on every
        # point, noise of half a half spacing along the real axis and 100
        # along the imaginary one, which a BPSK decision does not read.
        # Row 0 has zero gain and decodes to label 0.
        points = stbc.make_constellation(order)
        half = 1.0 if order == 2 else 1.0 / np.sqrt(2.0 * (order - 1) / 3.0)
        amplitude = 3.7
        shifts = [
            sign * factor * half * amplitude * axis
            for sign in (1, -1)
            for factor in (1 - 1e-6, 1 + 1e-6)
            for axis in (1, 1j)
        ]
        labels, offsets = np.meshgrid(np.arange(order), shifts, indexing="ij")
        far = np.full(order, (0.5 + 100j) * half * amplitude)
        sent = np.concatenate([labels.ravel(), np.arange(order)]).reshape(-1, 2)
        z = np.concatenate([offsets.ravel(), far]).reshape(-1, 2)
        gain = np.ones(sent.shape[0])
        gain[0] = 0.0
        link = harness._link_draw(sent.shape[0], order, _Replay(sent.astype(np.uint8), z))
        np.testing.assert_array_equal(link[0], sent)
        demap, seen = stbc.demap, []

        def recording(symbol, order):
            seen.append(symbol)
            return demap(symbol, order)

        monkeypatch.setattr(stbc, "demap", recording)
        got = harness._ber_block(gain, points, amplitude, link)
        decided = demap(points[sent] + z / amplitude, order)
        decided[0] = 0
        want = int(stbc.hamming_distance(sent, decided).sum())
        assert got == want
        assert 0 < want < sent.size * stbc.bits_per_symbol(order)
        far_demapped = sum(int(np.count_nonzero(np.abs(x.imag) > 50.0 * half)) for x in seen)
        assert far_demapped == (0 if order == 2 else order)

    def test_ber_block_matches_the_explicit_link_in_distribution(self):
        # fixed points: one block of dft F^H h rows for each order, at eq1
        # amplitudes of 0, 10 and 20 dB. The explicit link and the
        # production link each draw on their own stream. A codeword's error
        # fraction lies in [0, 1], so its variance is at most its mean, and
        # two BERs over n codewords each differ with a standard error of at
        # most sqrt((ber_a + ber_b) / n). Every point must agree at a
        # family-wise level of 1e-3 (Bonferroni over the 12 points).
        n = harness.TRIAL_BLOCK
        cfg = _tiny_cfg(schemes=("dft",))
        h = _block_rows(cfg, n, substream(0, 73))
        h_eq = beamformer.equivalent_channel(beamformer.build("dft", 2), h)
        gain = _stage_gains(cfg, ("dft",), h)["dft"]
        amplitudes = [
            stbc.link_amplitude(10.0 ** (db / 10), 1.0, "eq1", 4, 3) for db in (0, 10, 20)
        ]
        critical = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * 4 * len(amplitudes)))
        for order in stbc.SUPPORTED_ORDERS:
            points = stbc.make_constellation(order)
            bits_per_cw = 2 * stbc.bits_per_symbol(order)
            rng = substream(0, 74, order)
            sent = rng.integers(0, order, (n, 2))
            s = alamouti_codeword(points[sent[:, 0]], points[sent[:, 1]])
            clean, noise = received_parts(s, h_eq, rng)
            link = harness._link_draw(n, order, substream(0, 75, order))
            for amplitude in amplitudes:
                decoded = decode_alamouti(amplitude * clean + noise, h_eq, points, amplitude)
                explicit = stbc.hamming_distance(sent, decoded).sum() / (n * bits_per_cw)
                reduced = harness._ber_block(gain, points, amplitude, link) / (n * bits_per_cw)
                assert explicit > 0 and reduced > 0, (order, amplitude)
                z = (explicit - reduced) / np.sqrt((explicit + reduced) / n)
                assert abs(z) < critical, (order, amplitude, explicit, reduced)

    @pytest.mark.parametrize("order", stbc.SUPPORTED_ORDERS)
    def test_link_labels_are_uniform(self, order):
        # the two labels of 2**16 codewords against the uniform law on the
        # M labels: a chi-square test at a family-wise level of 1e-3
        # (Bonferroni over the four orders)
        sent, _, _ = harness._link_draw(2**16, order, substream(order, 94))
        counts = np.bincount(sent.ravel(), minlength=order)
        assert counts.size == order
        expected = sent.size / order
        statistic = np.sum((counts - expected) ** 2 / expected)
        assert statistic < chi2.isf(1e-3 / len(stbc.SUPPORTED_ORDERS), order - 1), counts

    @pytest.mark.parametrize("kind", channel.CHANNEL_KINDS)
    @pytest.mark.parametrize("n_antennas", [4, 16])
    def test_every_gain_is_one_row_norm(self, kind, n_antennas):
        # over several stage tiles and zero rows: a fixed scheme's gain is
        # the row norm of its F^H h, bit for bit, and one rotated sum's norm
        # serves both golden variants, so their gains stand in the ratio of
        # their |bpr_scale|^2 on every row
        cfg = _tiny_cfg(
            schemes=beamformer.SCHEMES, channel_kind=kind, n_antennas=n_antennas,
            n_rf=n_antennas // 2,
        )
        h = _block_rows(cfg, harness.TRIAL_BLOCK, substream(n_antennas, 95))
        h[::331] = 0.0
        gains = _stage_gains(cfg, cfg.schemes, h)
        for scheme in ("dft", "hadamard"):
            f_h = beamformer.equivalent_channel(beamformer.build(scheme, cfg.q), h)
            assert gains[scheme].tobytes() == harness._row_norms(f_h).tobytes(), scheme
        real, complex_ = (gains[scheme] for scheme in beamformer.BPR_SCHEMES)
        ratio = (
            abs(beamformer.bpr_scale(beamformer.BPR_REAL, cfg.q)) ** 2
            / abs(beamformer.bpr_scale(beamformer.BPR_COMPLEX, cfg.q)) ** 2
        )
        zero = real == 0.0
        np.testing.assert_array_equal(zero, complex_ == 0.0)
        assert zero[::331].all() and not zero.all()
        np.testing.assert_allclose(real[~zero] / complex_[~zero], ratio, rtol=1e-15, atol=0.0)


def _gate_block(kind, order, seed):
    """A config with every scheme, one block of its channels (every 331st
    row zero) and one link draw of the given order."""
    cfg = _tiny_cfg(schemes=beamformer.SCHEMES, channel_kind=kind, modulation=order)
    n = harness.TRIAL_BLOCK
    h = _block_rows(cfg, n, substream(seed, 90))
    h[::331] = 0.0
    return cfg, h, harness._link_draw(n, order, substream(seed, 91, order))


def _active(cfg, snrs):
    """``ber_grid``'s running points: each (scheme, dB) with its amplitude."""
    return [
        harness.BerPoint(scheme, db, harness._link_amplitude(cfg, scheme, db))
        for scheme, db in snrs
    ]


class TestGainGate:
    """fig3's stage runs the greedy only on rows that an active blockwise
    point can demap; the blockwise gains of the other rows read +inf."""

    def test_no_blockwise_point_sets_no_limit(self):
        cfg, h, link = _gate_block("rayleigh", 4, 0)
        assert harness._gain_limits(cfg, _active(cfg, [("dft", 10.0)]), link[2]) is None

    @pytest.mark.parametrize("kind", channel.CHANNEL_KINDS)
    @pytest.mark.parametrize("limit_at", [0.0, 10.0, 17.5, 30.0, "inf", "inf-but-one"])
    def test_gated_gains_equal_the_full_stage_on_computed_rows(self, kind, limit_at):
        # the limits of every scheme running at one SNR; or an infinite
        # limit, which keeps every row, with or without a limit of -1 on
        # one row of the second tile, which skips that row alone
        cfg, h, link = _gate_block(kind, 4, 1)
        if isinstance(limit_at, float):
            active = _active(cfg, [(scheme, limit_at) for scheme in cfg.schemes])
            limit = harness._gain_limits(cfg, active, link[2])
        else:
            limit = np.full(h.shape[0], np.inf)
            if limit_at == "inf-but-one":
                limit[harness._STAGE_ENTRIES // cfg.n_antennas + 5] = -1.0
        full = _stage_gains(cfg, cfg.schemes, h)
        gated = _stage_gains(cfg, cfg.schemes, h, limit)
        floor = beamformer.bpr_floor(2, h)
        computed = ~(limit < floor * (1.0 - harness._GAIN_MARGIN))
        for scheme in cfg.schemes:
            if scheme in beamformer.BPR_SCHEMES:
                np.testing.assert_array_equal(gated[scheme][computed], full[scheme][computed])
                assert np.all(gated[scheme][~computed] == np.inf)
            else:
                np.testing.assert_array_equal(gated[scheme], full[scheme])
        # zero rows are always computed; the limits of running points skip
        # some rows, and an infinite limit none but the row set to -1
        assert computed[::331].all()
        skipped = np.count_nonzero(~computed)
        if isinstance(limit_at, float):
            assert skipped > 0
        else:
            assert skipped == (limit_at == "inf-but-one")

    @pytest.mark.parametrize("kind", channel.CHANNEL_KINDS)
    @pytest.mark.parametrize("order", [4, 64])
    @pytest.mark.parametrize("snr_real,snr_complex", [(0.0, 10.0), (17.5, 5.0), (30.0, 20.0)])
    def test_counts_on_gated_gains_equal_those_on_full_gains(
        self, kind, order, snr_real, snr_complex
    ):
        # bpr-real and bpr-complex run at different SNRs; every amplitude
        # from the smallest one the limit serves upward counts the same
        # errors on gated gains as on full ones, right at that amplitude
        # and just above it included
        cfg, h, link = _gate_block(kind, order, 2)
        active = _active(cfg, [("bpr-real", snr_real), ("bpr-complex", snr_complex)])
        limit = harness._gain_limits(cfg, active, link[2])
        full = _stage_gains(cfg, beamformer.BPR_SCHEMES, h)
        gated = _stage_gains(cfg, beamformer.BPR_SCHEMES, h, limit)
        assert any(np.isinf(g).any() for g in gated.values())
        points = stbc.make_constellation(order)
        smallest = min(
            p.amplitude**2 * abs(beamformer.bpr_scale(p.scheme, 2)) ** 2
            for p in active
        )
        errors = 0
        for p in active:
            amp = p.amplitude
            scale = abs(beamformer.bpr_scale(p.scheme, 2))
            base = np.sqrt(smallest) / scale
            for a in [amp, *(base * f for f in (1.0, 1 + 1e-12, 1 + 1e-6, 1.001, 1.5, 4.0, 30.0))]:
                want = harness._ber_block(full[p.scheme], points, a, link)
                assert harness._ber_block(gated[p.scheme], points, a, link) == want, (p.scheme, a)
                errors += want
        assert errors > 0

    @pytest.mark.parametrize("order", [4, 64])
    def test_counts_hold_on_rows_whose_gain_sits_on_the_floor(self, order):
        # with a zero bottom block, ||rotated sum||^2 is the floor's F for
        # any phases. Each row is scaled so that, at the point's amplitude,
        # its widest reach lies from 3e-5 to 1e-2 beyond its edge, or as far
        # inside it: the rows beyond are demapped, many in error, and only
        # the margins keep the gate from skipping them
        cfg = _tiny_cfg(schemes=("bpr-real",), modulation=order)
        n = 4096
        rng = substream(order, 92)
        h = np.array(channel.sample_rayleigh_batch(n, 4, rng))
        h[:, 2:] = 0.0
        link = harness._link_draw(n, order, substream(order, 93))
        active = _active(cfg, [("bpr-real", 10.0)])
        (point,) = active
        amp = point.amplitude
        scale = abs(beamformer.bpr_scale(beamformer.BPR_REAL, 2)) ** 2
        norm = np.sum(np.abs(beamformer.bpr_block_sums(2, h)[0]) ** 2, axis=1)
        offset = rng.choice([-1, 1], n) * 10.0 ** rng.uniform(-4.5, -2.0, n)
        target = link[2].max(axis=1) ** 2 * (1.0 - offset)
        h *= np.sqrt(target / (amp**2 * scale * norm))[:, None]
        limit = harness._gain_limits(cfg, active, link[2])
        full = _stage_gains(cfg, cfg.schemes, h)["bpr-real"]
        gated = _stage_gains(cfg, cfg.schemes, h, limit)["bpr-real"]
        points = stbc.make_constellation(order)
        want = harness._ber_block(full, points, amp, link)
        assert want > 0
        assert harness._ber_block(gated, points, amp, link) == want
        # the rows inside their edge are skipped, those beyond it kept
        np.testing.assert_array_equal(np.isinf(gated), offset < 0.0)


# the names that the benchmark's traced run wraps, with the arguments that
# its observers read by name (perfbench/spans.py) and the type each must
# have: an observer counts an int's value and an array's rows, shape[0]
_TRACED_READS = (
    (channel, "sample_mmwave_batch", {"n_trials": int}),
    (channel, "sample_rayleigh_batch", {"n_trials": int}),
    (harness, "_batch_greedy_phases", {"h": np.ndarray, "q": int}),
    (harness, "_batch_equivalent_channels", {"h": np.ndarray}),
    (harness, "_ber_block", {"h_eq": np.ndarray}),
)


class TestTracedNames:
    def test_benchmark_wrap_targets_keep_their_names(self, tmp_path, monkeypatch):
        calls = {name: [] for _, name, _ in _TRACED_READS}
        ber_results = []

        def counting(fn, name, reads):
            sig = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs).arguments
                result = fn(*args, **kwargs)
                # each read argument by name, as its observer reads it
                seen = {}
                for arg, kind in reads.items():
                    value = bound.get(arg)
                    ok = isinstance(value, kind) and not isinstance(value, bool)
                    if ok and kind is np.ndarray:
                        ok = value.ndim >= 1
                    seen[arg] = ok
                if name == "_batch_equivalent_channels":
                    # the rows counted are the rows whose F^H h was formed
                    seen["rows"] = result.shape[0] == bound["h"].shape[0]
                calls[name].append(seen)
                if name == "_ber_block":
                    ber_results.append(result)
                return result

            return wrapper

        for module, name, reads in _TRACED_READS:
            monkeypatch.setattr(module, name, counting(getattr(module, name), name, reads))
        for kind in channel.CHANNEL_KINDS:
            harness.run_all(_tiny_cfg(channel_kind=kind), tmp_path / kind)
        for _, name, reads in _TRACED_READS:
            assert calls[name], f"{name} was never called"
            for seen in calls[name]:
                assert all(seen.values()), (name, seen)
        assert all(type(errors) is int for errors in ber_results)


@pytest.mark.parametrize("name", ["table1", "fig1", "fig2", "fig3"])
def test_runner_makes_its_directory_and_writes_its_csv(tmp_path, name):
    # each runner called alone, into a nested directory not made yet
    out = tmp_path / "a" / "b"
    res = getattr(harness, f"run_{name}")(_tiny_cfg(), out)
    assert res.name == name
    assert res.path == out / f"{name}.csv"
    assert res.path.read_text().count("\n") == len(res.rows) + 1


class TestTable1:
    def test_values_and_file(self, tmp_path):
        cfg = _tiny_cfg()
        res = harness.run_table1(cfg, tmp_path)
        values = {row[0]: row[2] for row in res.rows}
        assert values["dft"] == pytest.approx(0.25)
        assert values["hadamard"] == pytest.approx(0.25)
        assert values["bpr-real"] == pytest.approx(0.5236, abs=5e-4)
        assert values["bpr-complex"] == pytest.approx(1 / 3)
        text = res.path.read_text().splitlines()
        assert text[0] == "scheme,q,kappa,xi"
        assert len(text) == 5

    def test_q3_matches_constructed_entries(self, tmp_path):
        cfg = _tiny_cfg(n_antennas=8, n_rf=4)
        res = harness.run_table1(cfg, tmp_path)
        values = {row[0]: row[2] for row in res.rows}
        rng = substream(0, 63)
        for scheme in beamformer.SCHEMES:
            phases = ()
            if scheme in beamformer.BPR_SCHEMES:
                phases = (rng.uniform(0, 2 * np.pi, 4), rng.uniform(0, 2 * np.pi, 4))
            bf = beamformer.build(scheme, 3, *phases)
            measured = np.abs(bf) ** 2
            np.testing.assert_allclose(measured, values[scheme], atol=1e-12)


class TestFig1:
    def test_rows_and_spread(self, tmp_path):
        cfg = _tiny_cfg()
        res = harness.run_fig1(cfg, tmp_path)
        header = res.path.read_text().splitlines()[0]
        assert header == "scheme,column,theta_rad,gain,spread_rad"
        assert len(res.rows) == 2 * 2 * harness.FIG1_ANGLES  # schemes x columns x grid
        gains = np.array([row[3] for row in res.rows])
        assert np.all(gains >= 0)
        spreads = {(row[0], row[1]): row[4] for row in res.rows}
        assert all(s > 0 for s in spreads.values())

    @pytest.mark.parametrize(
        "schemes,calls",
        [(("dft", "hadamard", "bpr-real", "bpr-complex"), 1), (("dft", "hadamard"), 0)],
    )
    def test_one_greedy_for_both_bpr_schemes(self, tmp_path, monkeypatch, schemes, calls):
        seen, picked = [], []
        greedy = harness._batch_greedy_phases

        def counting(h, q):
            seen.append(h.shape)
            picked.append(greedy(h, q))
            return picked[-1]

        monkeypatch.setattr(harness, "_batch_greedy_phases", counting)
        cfg = _tiny_cfg(schemes=schemes)
        res = harness.run_fig1(cfg, tmp_path)
        assert seen == [(1, 4)] * calls
        if calls:
            # the note states the grid angles of the greedy's indices
            (note,) = res.notes
            found = re.findall(r"phi[12] = \[([^\]]*)\] rad", note)
            assert len(found) == 2
            for grid, i, angles in zip(phase_opt.block_grids(2), picked[0][:, 0], found):
                stated = [float(a) for a in angles.split(", ")]
                np.testing.assert_allclose(stated, grid[i], rtol=1e-5, atol=1e-5)
        else:
            # no greedy runs, so no note claims one
            assert res.notes == []
        for scheme in set(schemes) & set(beamformer.BPR_SCHEMES):
            # the patterns use the grid angles of the greedy's indices
            phases = [grid[i] for grid, i in zip(phase_opt.block_grids(2), picked[0][:, 0])]
            gains, _ = analysis.beamspace_pattern(
                beamformer.build(scheme, 2, *phases),
                np.linspace(-np.pi / 2, np.pi / 2, harness.FIG1_ANGLES),
            )
            rows = [row[3] for row in res.rows if row[0] == scheme and row[1] == 0]
            assert rows == list(gains[:, 0])


class TestFig2:
    def test_shape_and_pairing(self, tmp_path):
        cfg = _tiny_cfg(trials=4000)
        res = harness.run_fig2(cfg, tmp_path)
        assert len(res.rows) == len(cfg.schemes) * len(cfg.snr_grid_db)
        by_scheme = {
            s: [r for r in res.rows if r[0] == s] for s in cfg.schemes
        }
        # rates increase with SNR for every scheme
        for rows in by_scheme.values():
            vals = [r[4] for r in rows]
            assert vals == sorted(vals)
        # paired comparison at the top SNR point: blockwise beats dft
        top = {s: by_scheme[s][-1][4] for s in cfg.schemes}
        assert top["bpr-real"] > top["dft"]

    def test_rate_carries_the_array_gain(self, tmp_path):
        # each point is the regression estimate of the rate at P*N_t/L on
        # the control ||h||^2, of exact mean N_t*L
        cfg = _tiny_cfg(trials=1000)
        res = harness.run_fig2(cfg, tmp_path / "eq1")
        quad_forms, energy = harness.quadratic_forms(cfg)
        x = energy - energy.mean()
        for scheme, _, _, gamma0_db, value, half, n in res.rows:
            snr = 10.0 ** (gamma0_db / 10.0) * (cfg.n_antennas / cfg.n_paths)
            rate = np.log2(1.0 + snr * quad_forms[scheme])
            y = rate - rate.mean()
            beta = np.sum(x * y) / np.sum(x * x)
            want = rate.mean() - beta * (energy.mean() - 12.0)
            residual = np.sum(y * y) - beta * np.sum(x * y)
            assert value == pytest.approx(want, rel=1e-14)
            assert half == pytest.approx(analysis.Z95 * np.sqrt(residual / (n - 2) / n), rel=1e-12)
            assert n == cfg.trials
        assert "rate uses P*N_t/L = P*1.33333" in res.notes
        # the rate reads no normalization mode, so fig2 names none and its
        # bytes do not depend on it
        assert not any("normalization" in n for n in res.notes)
        r_eq10 = harness.run_fig2(_tiny_cfg(trials=1000, normalization="eq10"), tmp_path / "eq10")
        assert r_eq10.path.read_bytes() == res.path.read_bytes()

    @pytest.mark.parametrize(
        "schemes,blocks",
        [(("dft", "bpr-real", "bpr-complex"), 2), (("dft", "hadamard"), 0)],
    )
    def test_one_greedy_per_block_for_both_bpr_schemes(self, monkeypatch, schemes, blocks):
        # one greedy per stage tile serves both blockwise schemes: the rows
        # it sees are each block's tiles in order, and they cover the trials
        seen = []
        greedy = harness._batch_greedy_phases

        def counting(h, q):
            seen.append(h.shape[0])
            return greedy(h, q)

        monkeypatch.setattr(harness, "_batch_greedy_phases", counting)
        cfg = _tiny_cfg(trials=harness.TRIAL_BLOCK + 100, schemes=schemes)
        harness.quadratic_forms(cfg)
        assert seen == _stage_tiles(cfg, [harness.TRIAL_BLOCK, 100][:blocks])
        assert sum(seen) == (cfg.trials if blocks else 0)

    @pytest.mark.parametrize("n_antennas", [4, 16])
    def test_stage_tiling_changes_no_bit(self, monkeypatch, n_antennas):
        # two blocks and a short one, in stage tiles of 1000 rows, of the
        # default size and of more than a block
        cfg = _tiny_cfg(
            n_antennas=n_antennas, n_rf=n_antennas // 2, schemes=beamformer.SCHEMES,
            trials=2 * harness.TRIAL_BLOCK + 100,
        )
        want, want_energy = harness.quadratic_forms(cfg)
        for rows in (1000, harness.TRIAL_BLOCK + 1):
            monkeypatch.setattr(harness, "_STAGE_ENTRIES", rows * n_antennas)
            got, energy = harness.quadratic_forms(cfg)
            assert energy.tobytes() == want_energy.tobytes(), rows
            for scheme in cfg.schemes:
                assert got[scheme].tobytes() == want[scheme].tobytes(), (rows, scheme)

    def test_stage_streams_its_blocks_in_bounded_memory(self):
        # fig2-array16's config, N = 16, at 32768 and 65536 draws. The stage
        # forms each tile's rows from the block's paths, so its peak less
        # its output (the gains and the energies) stays under 4.5 MiB, and a block more changes it by
        # at most 64 KiB. A stage that drew each block's 4 MiB of channel
        # rows whole read 8.4 MiB.
        transient = []
        for trials in (2 * harness.TRIAL_BLOCK, 4 * harness.TRIAL_BLOCK):
            cfg = harness.ExperimentConfig(n_antennas=16, n_rf=8, trials=trials)
            tracemalloc.start()
            try:
                out, energy = harness.quadratic_forms(cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            transient.append(peak - energy.nbytes - sum(qf.nbytes for qf in out.values()))
        assert max(transient) <= 4.5 * 2**20, transient
        assert abs(transient[1] - transient[0]) <= 64 * 2**10, transient

    def test_stage_memory_stays_within_three_blocks(self):
        # fig2-array16's config: N = 16, 32768 mmwave draws in two blocks
        # of 4 MiB of channel entries. The output, gains and energies, takes
        # under a third of a block, a draw under two blocks, and the staged
        # block with one tile's work under two. A stage that holds the phases, the rotated sums and the
        # four F^H h of a whole block, beside the next draw, peaked at 18 MiB.
        cfg = harness.ExperimentConfig(n_antennas=16, n_rf=8, trials=2 * harness.TRIAL_BLOCK)
        budget = 3 * harness.TRIAL_BLOCK * cfg.n_antennas * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            harness.quadratic_forms(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < budget, (peak, budget)

    @pytest.mark.parametrize("kind", channel.CHANNEL_KINDS)
    def test_energy_is_each_realization_norm(self, kind):
        # the stage writes ||h||^2 of every realization, over two blocks
        cfg = _tiny_cfg(
            channel_kind=kind, n_antennas=16, n_rf=8, trials=harness.TRIAL_BLOCK + 100
        )
        _, energy = harness.quadratic_forms(cfg)
        rows = np.concatenate([
            _block_rows(cfg, n, rng)
            for n, rng in harness._blocks(cfg.trials, cfg.seed, harness._PURPOSE_FIG2)
        ])
        np.testing.assert_allclose(energy, np.linalg.norm(rows, axis=1) ** 2, rtol=1e-13)
        # a row's energy has the same bits in a tile of one row
        alone = [harness._row_norms(rows[i : i + 1])[0] for i in range(0, cfg.trials, 97)]
        assert np.array(alone).tobytes() == energy[::97].tobytes()

    @pytest.mark.parametrize("kind,mu", [("mmwave", 12.0), ("rayleigh", 4.0)])
    def test_telemetry_names_the_control(self, tmp_path, kind, mu):
        cfg = _tiny_cfg(channel_kind=kind, trials=3000)
        res = harness.run_fig2(cfg, tmp_path)
        control = res.telemetry["control"]
        assert control["exact_mean"] == mu
        # the sample mean of ||h||^2 lies near its exact mean
        assert abs(control["sample_mean"] - mu) < 0.1 * mu
        assert f"each mean is regressed on the control ||h||^2, of exact mean {mu:g}" in res.notes
        points = res.telemetry["points"]
        assert [(p["scheme"], p["gamma0_db"]) for p in points] == [r[:1] + r[3:4] for r in res.rows]
        for p, row in zip(points, res.rows):
            # the control tracks every rate, so the slope is positive and
            # the regression interval is narrower than the plain one
            assert p["beta"] > 0
            assert 0 < row[5] < p["plain_half_width"]
        json.dumps(res.telemetry)

    def test_interval_covers_the_long_run_mean(self, tmp_path):
        # 200 seeds of a 256-draw fig2, 4 points each, against a 2**17-draw
        # mean whose own standard error is under 3% of a half-width. A
        # point's miss count is Binomial(200, 0.05) if its interval holds;
        # it must lie in [lo, hi], each tail of that law outside it holding
        # at most 1e-3 / 8, a family-wise level of 1e-3 over both tails of
        # 4 points (Bonferroni). Over 2000 seeds the points missed 4.4-5.2%
        # of the time. Dropping the sqrt(1/n) of the half-width makes every
        # interval sqrt(256) times wider, so no point is ever missed, which
        # the region rejects: the check has power both ways.
        base = dict(snr_grid_db=(0.0, 20.0), schemes=("dft", "bpr-real"))
        long_run = harness.run_fig2(_tiny_cfg(trials=2**17, seed=10**6, **base), tmp_path / "ref")
        truth = np.array([row[4] for row in long_run.rows])
        seeds, alpha = 200, 1e-3
        lo = int(binom.ppf(alpha / 8, seeds, 0.05))
        hi = int(binom.isf(alpha / 8, seeds, 0.05))
        misses = np.zeros(len(truth), dtype=int)
        wide_misses = np.zeros(len(truth), dtype=int)
        for seed in range(seeds):
            res = harness.run_fig2(_tiny_cfg(trials=256, seed=seed, **base), tmp_path / str(seed))
            value = np.array([row[4] for row in res.rows])
            half = np.array([row[5] for row in res.rows])
            misses += np.abs(value - truth) > half
            wide_misses += np.abs(value - truth) > half * np.sqrt(256)
        assert np.all((lo <= misses) & (misses <= hi)), (misses, lo, hi)
        assert not np.all((lo <= wide_misses) & (wide_misses <= hi)), wide_misses

    def test_shared_greedy_matches_single_scheme_runs(self):
        array8 = dict(trials=3000, n_antennas=8, n_rf=4)
        both, _ = harness.quadratic_forms(
            _tiny_cfg(schemes=("bpr-real", "bpr-complex"), **array8)
        )
        for scheme in ("bpr-real", "bpr-complex"):
            alone, _ = harness.quadratic_forms(_tiny_cfg(schemes=(scheme,), **array8))
            np.testing.assert_array_equal(both[scheme], alone[scheme])

    def test_rejects_single_realization(self, tmp_path):
        # a fitted slope leaves n - 2 degrees of freedom to the residual, so
        # one or two realizations give no half width
        for trials in (1, 2):
            cfg = _tiny_cfg(trials=trials)
            for runner in (harness.run_fig2, harness.run_all):
                out = tmp_path / f"{runner.__name__}-{trials}"
                with pytest.raises(ValueError, match=r"\btrials >= 3\b"):
                    runner(cfg, out)
                assert not out.exists()
            with pytest.raises(ValueError, match=r"\btrials\b"):
                harness.quadratic_forms(cfg)
        assert len(harness.run_fig2(_tiny_cfg(trials=3), tmp_path / "three").rows) == 6


class TestFig3:
    def test_smoke_both_modes(self, tmp_path):
        for mode in ("eq1", "eq10"):
            cfg = _tiny_cfg(normalization=mode)
            res = harness.run_fig3(cfg, tmp_path / mode)
            assert len(res.rows) == len(cfg.schemes) * len(cfg.snr_grid_db)
            for row in res.rows:
                assert 0.0 <= row[4] <= 0.5 + 1e-9
                assert row[5] > 0
                assert row[6] >= cfg.trials
            assert any(f"normalization={mode}" in n for n in res.notes)
            # every cell must be a plain parseable number or bare string
            for line in res.path.read_text().splitlines()[1:]:
                scheme, mod, metric, *numbers = line.split(",")
                assert all(float(v) == float(v) for v in numbers)

    def test_noiseless_debug_mode_is_error_free(self, tmp_path):
        # unit noise is swamped at these SNRs, so every detection is right
        cfg = _tiny_cfg(
            snr_grid_db=(280.0, 290.0, 300.0), trials=500, max_trials=500, target_errors=1
        )
        res = harness.run_fig3(cfg, tmp_path)
        assert all(row[4] == 0.0 for row in res.rows)

    def test_capped_points_are_noted(self, tmp_path):
        # 4-QAM at 0 dB meets the error target in one block; at 30 dB the
        # points run to the cap, and at 280 dB they see no error at all
        cfg = _tiny_cfg(**{**self._MIXED_STOPS, "snr_grid_db": (0.0, 30.0, 280.0)})
        res = harness.run_fig3(cfg, tmp_path)
        capped = [p for p in res.telemetry["points"] if p["stop"] == "cap"]
        notes = [n for n in res.notes if n.startswith("capped at max_trials")]
        assert len(notes) == len(capped) == 4
        for p, note in zip(capped, notes):
            assert f"{p['scheme']} {p['gamma0_db']:g} dB" in note
            errors = f"{p['bit_errors']} bit error{'' if p['bit_errors'] == 1 else 's'}"
            assert f"{errors} in {p['trials']} codewords" in note
            bounded = f"BER < 3/{cfg.max_trials} = {3 / cfg.max_trials:.3g} at 95%"
            assert (bounded in note) == (p["bit_errors"] == 0)
        assert {p["gamma0_db"] for p in capped if p["bit_errors"] == 0} == {280.0}

    def test_overwhelming_noise_gives_coin_flips(self, tmp_path):
        cfg = _tiny_cfg(
            snr_grid_db=(-90.0,),
            trials=4000,
            max_trials=4000,
            target_errors=1,
        )
        res = harness.run_fig3(cfg, tmp_path)
        for row in res.rows:
            assert row[4] == pytest.approx(0.5, abs=0.03)

    def test_stopping_rule_extends_for_errors(self, tmp_path):
        # deep-SNR point must run past `trials` until the error target
        cfg = _tiny_cfg(
            snr_grid_db=(30.0,),
            schemes=("bpr-real",),
            trials=1000,
            target_errors=200,
            max_trials=600_000,
            modulation=4,
        )
        res = harness.run_fig3(cfg, tmp_path)
        row = res.rows[0]
        assert row[6] > 1000 or row[4] * row[6] * 4 >= 200

    @pytest.mark.parametrize(
        "trials,target_errors,max_trials,expected",
        [(1, 0, 40000, 16384), (1, 10**9, 20000, 20000), (16385, 0, 40000, 32768)],
    )
    def test_stopping_rule_counts_whole_blocks(self, trials, target_errors, max_trials, expected):
        # one block always runs; then stop at the first block boundary that
        # meets both targets, or at the cap
        cfg = _tiny_cfg(
            snr_grid_db=(0.0,), schemes=("dft",), trials=trials,
            target_errors=target_errors, max_trials=max_trials,
        )
        assert harness._ber_point(cfg, "dft", 0.0)[2] == expected

    # 4-QAM: the 0 dB points meet the error target in one block, and the
    # 30 dB points run past `trials` to the cap
    _MIXED_STOPS = dict(
        snr_grid_db=(0.0, 30.0), trials=2000, target_errors=150, max_trials=40000,
    )

    def test_point_equals_its_grid_row(self):
        # with every scheme, a lone blockwise point's gate limit differs from
        # the grid's in the golden variant's scale as well as in amplitude
        for schemes in (("dft", "bpr-real"), beamformer.SCHEMES):
            cfg = _tiny_cfg(schemes=schemes, **self._MIXED_STOPS)
            grid = harness.ber_grid(cfg)
            assert {p.stop for p in grid} == {"target", "cap"}
            assert len({p.blocks for p in grid}) > 1
            for p in grid:
                alone = harness._ber_point(cfg, p.scheme, p.gamma0_db)
                assert alone == (p.ber, p.half_width, p.trials), (schemes, p.scheme)

    @pytest.mark.parametrize(
        "schemes,overrides,draws,greedy_runs",
        [
            (("dft", "bpr-real"), {}, 3, 3),
            (("dft", "hadamard"), {}, 3, 0),
            # the blockwise 30 dB point meets its target first
            (("hadamard", "bpr-real"), {"target_errors": 5, "max_trials": 80000}, 5, 1),
        ],
    )
    def test_one_channel_draw_and_greedy_per_block(
        self, tmp_path, monkeypatch, schemes, overrides, draws, greedy_runs
    ):
        cfg = _tiny_cfg(schemes=schemes, **{**self._MIXED_STOPS, **overrides})
        calls = {"sample_mmwave_batch": 0, "_batch_greedy_phases": 0}
        for module, name in ((channel, "sample_mmwave_batch"), (harness, "_batch_greedy_phases")):
            def counting(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counting)
        res = harness.run_fig3(cfg, tmp_path)
        blocks = {scheme: [] for scheme in schemes}
        for p in res.telemetry["points"]:
            blocks[p["scheme"]].append(p["blocks"])
        # channels are drawn once per block for as long as any point runs
        most = max(max(b) for b in blocks.values())
        assert calls["sample_mmwave_batch"] == res.telemetry["channel_blocks"] == most == draws
        # the greedy runs once per stage tile of each block while a
        # blockwise point runs
        bpr = [max(b) for s, b in blocks.items() if s in beamformer.BPR_SCHEMES]
        assert max(bpr, default=0) == greedy_runs
        sizes = [n for n, _ in harness._blocks(cfg.max_trials, cfg.seed, 0)][:greedy_runs]
        assert calls["_batch_greedy_phases"] == len(_stage_tiles(cfg, sizes))

    @pytest.mark.parametrize(
        "schemes,overrides",
        [
            (("dft", "bpr-real"), {}),
            (("hadamard", "bpr-real"), {"target_errors": 5, "max_trials": 80000}),
        ],
    )
    def test_one_link_draw_per_scheme_and_block(self, monkeypatch, schemes, overrides):
        # every point of every scheme shares one label and noise draw per
        # block, keyed by the block alone, for as long as any point runs
        cfg = _tiny_cfg(schemes=schemes, **{**self._MIXED_STOPS, **overrides})
        draws = []
        link_draw = harness._link_draw

        def counting(n, order, rng):
            draws.append((n, order, rng.bit_generator.state))
            return link_draw(n, order, rng)

        monkeypatch.setattr(harness, "_link_draw", counting)
        grid = harness.ber_grid(cfg)
        n_blocks = max(p.blocks for p in grid)
        sizes = [n for n, _ in harness._blocks(cfg.max_trials, cfg.seed, 0)]
        expected = [
            (n, cfg.modulation, substream(cfg.seed, harness._PURPOSE_FIG3, b).bit_generator.state)
            for b, n in enumerate(sizes[:n_blocks])
        ]
        assert draws == expected
        assert len({p.blocks for p in grid if p.scheme == schemes[0]}) > 1

    def test_manifest_records_each_point(self, tmp_path):
        cfg = _tiny_cfg(**self._MIXED_STOPS)
        harness.run_recorded(cfg, tmp_path, (harness.run_fig3,))
        telemetry = json.loads((tmp_path / "manifest.json").read_text())["telemetry"]["fig3"]
        lines = (tmp_path / "fig3.csv").read_text().splitlines()[1:]
        assert len(telemetry["points"]) == len(lines)
        bits_per_cw = 2 * stbc.bits_per_symbol(cfg.modulation)
        for point, line in zip(telemetry["points"], lines):
            scheme, _, _, gamma0_db, value, _, n_trials = line.split(",")
            assert (point["scheme"], point["gamma0_db"]) == (scheme, float(gamma0_db))
            assert point["trials"] == int(n_trials)
            assert point["blocks"] == -(-point["trials"] // harness.TRIAL_BLOCK)
            assert point["bit_errors"] / (point["trials"] * bits_per_cw) == float(value)
            met = point["trials"] >= cfg.trials and point["bit_errors"] >= cfg.target_errors
            assert point["stop"] == ("target" if met else "cap")
            if not met:
                assert point["trials"] == cfg.max_trials
        assert {p["stop"] for p in telemetry["points"]} == {"target", "cap"}
        assert telemetry["channel_blocks"] == max(p["blocks"] for p in telemetry["points"])

    @pytest.mark.parametrize("norm", ["eq1", "eq10"])
    def test_manifest_records_radiated_power(self, tmp_path, norm):
        cfg = _tiny_cfg(
            schemes=beamformer.SCHEMES, normalization=norm, snr_grid_db=(0.0,),
            trials=500, max_trials=500,
        )
        harness.run_recorded(cfg, tmp_path, (harness.run_fig3,))
        power = json.loads((tmp_path / "manifest.json").read_text())["telemetry"]["fig3"][
            "radiated_power"
        ]
        assert set(power) == set(beamformer.SCHEMES)
        for scheme in beamformer.SCHEMES:
            f = beamformer.build(scheme, cfg.q, np.zeros(2), np.zeros(2))
            frobenius_sq = float(np.sum(np.abs(f) ** 2))
            kappa = beamformer.kappa(scheme, cfg.q) if norm == "eq10" else 1.0
            assert power[scheme] == pytest.approx(kappa * frobenius_sq, rel=1e-12)
        if norm == "eq1":
            expected = {"dft": 2.0, "hadamard": 2.0, "bpr-real": 4.19, "bpr-complex": 2.67}
            assert power == pytest.approx(expected, abs=0.005)

    def test_rejects_cap_below_minimum_trials(self, tmp_path):
        # a cap below the minimum would cut every point short of `trials`
        cfg = _tiny_cfg(trials=40000, max_trials=20000)
        for runner in (harness.run_fig3, harness.run_all):
            out = tmp_path / runner.__name__
            with pytest.raises(ValueError, match=r"\bmax_trials\b"):
                runner(cfg, out)
            assert not out.exists()
        # fig2 has no cap and runs all 40000 realizations
        res = harness.run_fig2(cfg, tmp_path / "fig2")
        assert {row[6] for row in res.rows} == {40000}

    @pytest.mark.parametrize("n_antennas", [2, 8])
    def test_rejects_arrays_without_two_chains(self, tmp_path, n_antennas):
        cfg = _tiny_cfg(n_antennas=n_antennas, n_rf=n_antennas // 2, trials=500)
        for runner in (harness.run_fig3, harness.run_all):
            out = tmp_path / runner.__name__
            with pytest.raises(ValueError, match="n_antennas"):
                runner(cfg, out)
            assert not out.exists()
        # the config itself stays valid for the other runners
        assert len(harness.run_fig2(cfg, tmp_path / "fig2").rows) == 6


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _tiny_cfg(trials=1000, max_trials=2000)
        a = tmp_path / "a"
        b = tmp_path / "b"
        harness.run_all(cfg, a)
        harness.run_all(cfg, b)
        for name in ("table1.csv", "fig1.csv", "fig2.csv", "fig3.csv", "config.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_changes_output(self, tmp_path):
        r1 = harness.run_fig3(_tiny_cfg(seed=1), tmp_path / "s1")
        r2 = harness.run_fig3(_tiny_cfg(seed=2), tmp_path / "s2")
        assert r1.path.read_bytes() != r2.path.read_bytes()

    # pinned bytes of each kind of value a runner writes: None is an empty
    # field, and a Python or numpy float the shortest text of its double
    @pytest.mark.parametrize(
        "value,text",
        [
            (None, ""), (3, "3"), (np.int64(3), "3"), (np.uint8(7), "7"), (0.1, "0.1"),
            (np.float64(0.1), "0.1"), (-0.0, "-0.0"), (math.nan, "nan"), (math.inf, "inf"),
            (-math.inf, "-inf"), (5e-324, "5e-324"), (1e16, "1e+16"), ("dft", "dft"),
        ],
    )
    def test_csv_value_text(self, tmp_path, value, text):
        path = tmp_path / "one.csv"
        harness._write_csv(path, "a,b", [(value, "x")])
        assert path.read_bytes() == f"a,b\n{text},x\n".encode()

    # SHA-256 of CLI outputs recorded before a change meant to leave every
    # output unchanged; such a change must keep them. The fig3 pins but
    # BPSK's were last re-recorded when the link came to draw label indices
    # and its noise with the channel's CN(0, 1) sampler, and the fig2 pins
    # when every gain became one row norm and the residual a sum of
    # squared terms. The runs cover the
    # criterion-9 command, Rayleigh 4-QAM with the stopping rule past one
    # block, q=4 greedy with hadamard and bpr-complex (in one block and in
    # two, where the rounding of bpr-real at 0 dB shows a change in the
    # layout of the greedy's phases), 16-QAM under eq10, and mmwave fig3 at
    # the default 64-QAM and at BPSK.
    @pytest.mark.parametrize(
        "args,config,pinned",
        [
            pytest.param(
                ("all", "--trials", "600", "--mod", "4", "--snr", "0,10,20",
                 "--scheme", "dft,bpr-real", "--seed", "99"),
                None,
                {
                    "table1.csv": "ee04aad6c99c0f889881ef36ef9cc6e40db340b85f0be38d5aa81b4a80e31f88",
                    "fig1.csv": "bd5ff135c39a8e45660656a420eca3856b4e5b02f2838dbcdbc68c832a75ac63",
                    "fig2.csv": "9f8f1ee338eaf88fe080dd35731557f625f9b317c595fa31acf38aef280db89e",
                    "fig3.csv": "56b4e8b25b5235bbc001fe9fc1a9dc4a58f6d3a89bacb38bdc2273e5fbc7a594",
                },
                id="criterion9",
            ),
            pytest.param(
                ("all", "--channel", "rayleigh", "--mod", "4", "--snr", "0,10",
                 "--trials", "600", "--seed", "3"),
                None,
                {
                    "table1.csv": "ee04aad6c99c0f889881ef36ef9cc6e40db340b85f0be38d5aa81b4a80e31f88",
                    "fig1.csv": "f1e6a5f7ce3a6d178408822f529baab7d4bb42d107c1489c634db9b776ca3926",
                    "fig2.csv": "e3ca247a5fc91687ae15902eca204d0870ad5460a4e2c8171981e8e1965b71b2",
                    "fig3.csv": "580330bf5fdcc5381a4b50b62daf6dd84215b9a69204a804ceb9a5a99d812e76",
                },
                id="rayleigh-4qam",
            ),
            pytest.param(
                ("fig2", "--trials", "2000", "--seed", "2"),
                {"n_antennas": 16, "n_rf": 8},
                {"fig2.csv": "56d2f171fcd16b7bae3652f1af1650ba1efa763168cf2c3aaf534c9bcd47b48f"},
                id="fig2-array16",
            ),
            pytest.param(
                ("fig2", "--trials", "20000", "--seed", "2"),
                {"n_antennas": 16, "n_rf": 8},
                {"fig2.csv": "0266bb029efa59873f983f743ac767ad4d1753af09371ae39e1d62f6ebf09ac2"},
                id="fig2-array16-two-blocks",
            ),
            pytest.param(
                ("fig3", "--mod", "16", "--norm", "eq10", "--snr", "0,15",
                 "--trials", "600", "--seed", "4"),
                None,
                {"fig3.csv": "494e1578d083d15be386823e67d00ed8a8e54ba503b29664c52a9a4533bddaf6"},
                id="fig3-16qam-eq10",
            ),
            pytest.param(
                ("fig3", "--snr", "0,20", "--trials", "600", "--seed", "6"),
                None,
                {"fig3.csv": "7fdc8101fa5755ee9f3aa0d225301fa081fb74493dc2ef385a9cf443cb15944c"},
                id="fig3-mmwave-64qam",
            ),
            pytest.param(
                ("fig3", "--mod", "2", "--snr", "0,10", "--trials", "600", "--seed", "6"),
                None,
                {"fig3.csv": "dfd6211668b039943d12604bc334e6dab4f0258572623564b9e579e0e38ee1a5"},
                id="fig3-mmwave-bpsk",
            ),
        ],
    )
    def test_cli_outputs_match_pinned_hashes(self, tmp_path, args, config, pinned):
        out = tmp_path / "out"
        extra = []
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            extra = ["--config", str(tmp_path / "config.json")]
        proc = subprocess.run(
            [sys.executable, "-m", "beamlink", *args, *extra, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        for name, digest in pinned.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_manifest_hashes_match_files(self, tmp_path):
        cfg = _tiny_cfg(trials=500, max_trials=1000)
        harness.run_all(cfg, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_sha256"] == cfg.content_hash()
        import hashlib

        for name, digest in manifest["files"].items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("verb,runners", [("all", 4), ("fig2", 1)])
    def test_manifest_records_versions_and_runner_times(self, tmp_path, verb, runners):
        args = [verb, "--trials", "500", "--mod", "4", "--snr", "0,10", "--out", str(tmp_path)]
        assert cli.main(args) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["versions"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        times = manifest["runner_wall_s"]
        assert len(times) == runners
        assert {f"{name}.csv" for name in times} == set(manifest["files"])
        assert all(t > 0 for t in times.values())
        assert sum(times.values()) <= manifest["wall_time_s"]
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_manifest_records_process_threads(self, tmp_path, monkeypatch):
        harness.write_manifest(tmp_path, _tiny_cfg(), [], 0.0, {})
        threads = json.loads((tmp_path / "manifest.json").read_text())["process_threads"]
        if os.path.isdir("/proc/self/task"):
            assert threads >= 1
        else:
            assert threads is None

        def no_task_dir(path):
            raise FileNotFoundError(path)

        monkeypatch.setattr(harness.os, "listdir", no_task_dir)
        harness.write_manifest(tmp_path, _tiny_cfg(), [], 0.0, {})
        assert json.loads((tmp_path / "manifest.json").read_text())["process_threads"] is None


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_NUMPY_BLAS = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
_needs_openblas = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or "openblas" not in _NUMPY_BLAS.get("name", ""),
    reason="needs /proc/self/task and numpy on OpenBLAS",
)


def _run_child(*args: str, **env: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on ``args`` that imports this beamlink, with
    none of the variables that set OpenBLAS's thread count but ``env``."""
    paths = [str(Path(harness.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    child_env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    child_env.update(env, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    return proc


def _probe(code: str, *args: str, **env: str):
    """The JSON that the last line of ``code``, run by :func:`_run_child`, prints."""
    return json.loads(_run_child("-c", code, *args, **env).stdout.splitlines()[-1])


# Imports beamlink in a fresh interpreter (after numpy if argv[1] says
# "numpy-first"), runs a small fig3 and fig2, and prints the process's
# threads and what became of os.environ.
_IMPORT_PROBE = """
import json, os, sys
if sys.argv[1] == "numpy-first":
    import numpy
before = dict(os.environ)
writes = []
_set = type(os.environ).__setitem__
type(os.environ).__setitem__ = lambda env, key, value: (writes.append(key), _set(env, key, value))
import beamlink
kept = dict(os.environ) == before
from beamlink import harness
n = 2048
harness.ber_grid(harness.ExperimentConfig(modulation=4, snr_grid_db=(10.0,), trials=n, max_trials=n))
harness.quadratic_forms(harness.ExperimentConfig(trials=n))
print(json.dumps({
    "threads": len(os.listdir("/proc/self/task")),
    "cpus": len(os.sched_getaffinity(0)),
    "environ_kept": kept,
    "writes": writes,
    "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
}))
"""


@_needs_openblas
class TestBlasThreads:
    """``import beamlink`` loads numpy without OpenBLAS's worker threads,
    unless the caller set a thread count or loaded numpy first, and
    leaves ``os.environ`` as it was. pytest loads numpy before beamlink,
    so each case runs in a fresh interpreter."""

    def test_no_worker_thread_by_default(self):
        out = _probe(_IMPORT_PROBE, "beamlink-first")
        assert out["threads"] == 1
        assert out["environ_kept"]
        assert out["OPENBLAS_NUM_THREADS"] is None

    def test_caller_thread_count_is_kept(self):
        out = _probe(_IMPORT_PROBE, "beamlink-first", OPENBLAS_NUM_THREADS="2")
        assert out["environ_kept"] and out["writes"] == []
        assert out["OPENBLAS_NUM_THREADS"] == "2"
        if out["cpus"] >= 2:
            assert out["threads"] >= 2

    def test_numpy_loaded_first_leaves_environ_alone(self):
        out = _probe(_IMPORT_PROBE, "numpy-first")
        assert out["environ_kept"] and out["writes"] == []

    def test_default_run_manifest_reads_one_thread(self, tmp_path):
        _run_child("-m", "beamlink", "fig2", "--trials", "500", "--out", str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["process_threads"] == 1


# Runs fig3's and fig2's block loops in a fresh interpreter and prints, for
# every thread but the main one, the CPU ticks (utime + stime) it spent.
_THREAD_PROBE = """
import json, os, time
from beamlink import harness

def ticks():
    out = {}
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/stat") as f:
            stat = f.read().rsplit(")", 1)[1].split()
        if int(tid) != os.getpid():
            out[int(tid)] = int(stat[11]) + int(stat[12])
    return out

# the BLAS worker that OPENBLAS_NUM_THREADS=2 starts when numpy loads spins
# for about 0.1 s; wait until no thread gains a tick for 0.3 s
before = ticks()
for _ in range(50):
    time.sleep(0.3)
    before, last = ticks(), before
    if before == last:
        break
n = harness.TRIAL_BLOCK
harness.ber_grid(harness.ExperimentConfig(
    modulation=4, snr_grid_db=(10.0,), trials=4 * n, max_trials=4 * n))
harness.quadratic_forms(harness.ExperimentConfig(n_antennas=16, n_rf=8, trials=2 * n))
print(json.dumps([t - before.get(tid, 0) for tid, t in ticks().items()]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_block_loops_keep_other_threads_idle():
    # a threaded BLAS product in the block loop wakes worker threads that
    # spin for a while after each call; the loops run on the main thread.
    # beamlink starts no BLAS worker by default, so the child asks for one
    # and the check still watches a live pool
    growth = _probe(_THREAD_PROBE, OPENBLAS_NUM_THREADS="2")
    assert max(growth, default=0) <= 2, growth


class TestCurveFlags:
    def test_monotonicity_notes(self):
        clean = [(0.0, 0.1, 0.01), (10.0, 0.05, 0.01), (20.0, 0.01, 0.005)]
        assert harness.monotonicity_notes("dft", clean) == []
        noisy_but_ok = [(0.0, 0.05, 0.01), (10.0, 0.055, 0.01)]
        assert harness.monotonicity_notes("dft", noisy_but_ok) == []
        broken = [(0.0, 0.01, 0.001), (10.0, 0.05, 0.001)]
        notes = harness.monotonicity_notes("dft", broken)
        assert len(notes) == 1 and "0->10 dB" in notes[0]


class TestRankingStability:
    def test_sign_stable_across_ten_seed_blocks(self):
        # 10 disjoint 1000-realization blocks: the blockwise-vs-dft rate
        # ordering at 30 dB must not flip in any of them
        gamma30, eff = 1000.0, 4.0 / 3.0
        for block_seed in range(10):
            cfg = _tiny_cfg(
                schemes=("dft", "bpr-real"), trials=1000, seed=block_seed
            )
            qf, _ = harness.quadratic_forms(cfg)
            rates = {s: analysis.spectral_efficiency(qf[s], gamma30 * eff) for s in qf}
            assert (rates["bpr-real"] - rates["dft"]).mean() > 0


class TestGapMeasurement:
    def test_synthetic_curves(self):
        curve_a = [(10.0, 1e-1), (20.0, 1e-2), (30.0, 1e-3)]
        curve_b = [(10.0, 3e-1), (20.0, 3e-2), (30.0, 3e-3)]
        gap = harness.measure_gap_db(curve_a, curve_b, 1e-2)
        # curve_b is 10^0.477 higher, i.e. shifted right by 4.77 dB at slope 1 dec/10 dB
        assert gap == pytest.approx(10 * np.log10(3), abs=1e-9)

    def test_missing_crossing_raises(self):
        with pytest.raises(ValueError):
            harness.measure_gap_db([(0.0, 1e-1), (10.0, 2e-1)], [(0.0, 1.0)], 1e-2)


class TestBpskRayleighSim:
    def test_matches_closed_form_loosely(self):
        gamma_db = 10.0
        ber, lo, hi, n = simulate_bpsk_rayleigh_ber(gamma_db, 40_000, seed=5)
        expected = analysis.mgf_ber_bpsk(10 ** (gamma_db / 10))
        assert n == 40_000
        assert abs(ber - expected) < 5 * np.sqrt(expected * (1 - expected) / n)
        # purpose tag 4's draws, as recorded before the simulator left the package
        assert ber == 1671 / 40_000


class TestConditionalSim:
    def test_eq10_amplitude_definition(self):
        points = stbc.make_constellation(4)
        h_eq = np.array([1.0 + 0j, 0.5 + 0.5j])
        amplitude = stbc.link_amplitude(100.0, 0.25, "eq10", 4, 3)
        # eq10 scales the codeword by sqrt(gamma0 kappa) alone
        assert amplitude == 5.0
        # purpose tag 5's draws: at ||h_eq||^2 A^2 = 37.5 no bit of 8000 flips
        assert simulate_conditional_ber(h_eq, points, amplitude, n_trials=2000, seed=3) == (0, 8000)

    def test_stream_pin(self):
        # purpose tag 5's draws, as recorded when the link came to draw
        # label indices and its noise with the channel's CN(0, 1) sampler
        points = stbc.make_constellation(4)
        amplitude = stbc.link_amplitude(10.0, 0.25, "eq10", 4, 3)
        assert simulate_conditional_ber(
            np.array([1.0 + 0j, 0.5 + 0.5j]), points, amplitude, 20_000, seed=3
        ) == (2108, 80_000)


def _libc_without_mallopt(name):
    return object()


def _libc_not_found(name):
    raise OSError(f"cannot load {name!r}")


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "beamlink", *args],
            capture_output=True,
            text=True,
        )

    def test_import_loads_no_scipy_submodule(self):
        # A fresh interpreter: this test session has scipy.stats and
        # scipy.linalg loaded already through the test oracles.
        probe = (
            "import sys, beamlink.cli; "
            "print(' '.join(m for m in ('scipy', 'scipy.special', 'scipy.linalg', "
            "'scipy.integrate', 'scipy.stats', 'numpy.random') if m in sys.modules))"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["numpy.random"]

    def test_table1_verb(self, tmp_path):
        out = tmp_path / "run"
        proc = self._run("table1", "--out", str(out), "--seed", "7")
        assert proc.returncode == 0, proc.stderr
        assert (out / "table1.csv").exists()
        assert (out / "manifest.json").exists()
        assert (out / "config.json").exists()

    def test_fig3_with_overrides(self, tmp_path):
        out = tmp_path / "run"
        proc = self._run(
            "fig3",
            "--out", str(out),
            "--trials", "500",
            "--mod", "4",
            "--scheme", "dft",
            "--snr", "0,10",
            "--channel", "rayleigh",
            "--norm", "eq10",
            "--seed", "11",
        )
        assert proc.returncode == 0, proc.stderr
        lines = (out / "fig3.csv").read_text().splitlines()
        assert lines[0] == harness.CSV_HEADER
        assert len(lines) == 3
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["normalization"] == "eq10"
        assert cfg["channel_kind"] == "rayleigh"

    def test_invalid_config_returns_error_record(self, tmp_path):
        proc = self._run("fig2", "--out", str(tmp_path), "--scheme", "nonsense")
        assert proc.returncode == 1
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"] == "ValueError"

    def test_config_typo_names_the_key(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_antenas": 4}))
        proc = self._run("table1", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"] == "ValueError"
        assert "n_antenas" in record["message"]

    @pytest.mark.parametrize(
        "content,got",
        [("3", "got int"), ('["n_rf", "seed"]', "got list"), ('{"seed": 1,', "got malformed")],
        ids=["number", "list", "malformed"],
    )
    def test_config_file_must_hold_an_object(self, tmp_path, content, got):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(content)
        proc = self._run("table1", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"] == "ValueError"
        assert str(cfg_path) in record["message"]
        assert f"expected a JSON object, {got}" in record["message"]

    def test_flag_overrides_a_bad_file_field(self, tmp_path):
        # flags overlay the file's fields before the config's one validation
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trials": 0, "seed": 5}))
        out = tmp_path / "out"
        proc = self._run("table1", "--config", str(cfg_path), "--trials", "100", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        saved = json.loads((out / "config.json").read_text())
        assert (saved["trials"], saved["seed"]) == (100, 5)

    def test_bad_file_field_alone_names_the_field(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trials": 0}))
        proc = self._run("table1", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"] == "ValueError"
        assert "trials" in record["message"]
        assert not (tmp_path / "out").exists()

    # every value flag sets one config field, and the config's validation
    # rejects a bad value by that field's name
    @pytest.mark.parametrize(
        "flag,value,field",
        [
            pytest.param("--channel", "foo", "channel_kind", id="channel-foo"),
            pytest.param("--norm", "eq3", "normalization", id="norm-eq3"),
            pytest.param("--mod", "x", "modulation", id="mod-x"),
            pytest.param("--seed", "x", "seed", id="seed-x"),
            pytest.param("--trials", "1e5", "trials", id="trials-1e5"),
            pytest.param("--snr", "0,x", "snr_grid_db", id="0,x"),
            pytest.param("--snr", "0,,5", "snr_grid_db", id="0,,5"),
        ],
    )
    def test_bad_snr_names_the_field(self, tmp_path, flag, value, field):
        proc = self._run("fig3", flag, value, "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"] == "ValueError"
        assert field in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["table1", "fig1", "fig2", "fig3", "all"])
    def test_main_looks_runners_up_at_call_time(self, tmp_path, monkeypatch, verb):
        # the benchmark wraps the runners on harness after cli is imported
        called = []

        def recording(name, runner):
            def wrapper(*args, **kwargs):
                called.append(name)
                return runner(*args, **kwargs)

            return wrapper

        for name in ("run_all", "run_table1", "run_fig1", "run_fig2", "run_fig3"):
            monkeypatch.setattr(harness, name, recording(name, getattr(harness, name)))
        args = [verb, "--trials", "200", "--mod", "4", "--snr", "0", "--out", str(tmp_path)]
        assert cli.main(args) == 0
        if verb == "all":
            assert called == ["run_all", "run_table1", "run_fig1", "run_fig2", "run_fig3"]
        else:
            assert called == [f"run_{verb}"]

    def test_negative_snr_list_after_equals(self, tmp_path):
        # argparse reads "-10,0" after a space as a flag; after "=" it is the value
        assert cli.main(["fig2", "--trials", "200", "--snr=-10,0", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "fig2.csv").read_text().splitlines()[1:]
        assert {float(line.split(",")[3]) for line in lines} == {-10.0, 0.0}

    def test_config_file_reload(self, tmp_path):
        cfg = _tiny_cfg(trials=200, max_trials=400)
        cfg_path = tmp_path / "cfg.json"
        cfg.to_json(cfg_path)
        out = tmp_path / "out"
        proc = self._run("table1", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        reloaded = json.loads((out / "config.json").read_text())
        assert reloaded["seed"] == 123

    @pytest.mark.parametrize("cdll", [_libc_without_mallopt, _libc_not_found])
    def test_main_runs_where_libc_has_no_mallopt(self, tmp_path, monkeypatch, cdll):
        # the heap-top pad is skipped where the C library has no mallopt,
        # or cannot be loaded, and the run goes on as before
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert cli.main(["fig2", "--trials", "200", "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "fig2.csv").read_text().splitlines()) == 1 + 4 * 9

    def test_main_pads_the_heap_top(self, tmp_path, monkeypatch):
        calls = []

        class _Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: _Libc())
        assert cli.main(["table1", "--out", str(tmp_path)]) == 0
        # M_TOP_PAD is glibc's parameter -2
        assert calls == [(-2, 4 << 20)]

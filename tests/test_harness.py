import hashlib
import inspect
import json
import math
import platform
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from beamlink import analysis, beamformer, channel, cli, harness, phase_opt, stbc
from beamlink.rng import substream

from oracles import greedy_blockwise_reference, label_rows, ml_decode_index


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
    {"theta_points": 10},
    {"seed": -1},
    {"spacing_over_wavelength": 0.0},
    {"include_array_gain": "no"},
    {"include_array_gain": 1},
    {"n_rf": 0},
    {"n_antennas": 4.0},
    {"modulation": 64.0},
    {"seed": 1.5},
    {"snr_grid_db": (0.0, 400.0)},
    {"schemes": ()},
    {"schemes": ("dft", "dft")},
    {"spacing_over_wavelength": float("nan")},
    {"spacing_over_wavelength": float("inf")},
    {"spacing_over_wavelength": "0.5"},
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
        include_array_gain=draw(st.booleans()),
        spacing_over_wavelength=draw(st.floats(0.05, 1.0)),
        theta_points=draw(st.integers(361, 1000)),
    )


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = harness.ExperimentConfig()
        assert cfg.q == 2
        assert cfg.n_antennas == 4
        assert cfg.n_rf == 2
        assert cfg.n_paths == 3
        assert cfg.modulation == 64
        assert cfg.spacing_over_wavelength == 0.5

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
        # runner-specific domains, checked in this order: fig2 needs two
        # realizations, fig3 two RF chains and a trial cap no lower than trials
        out_of_domain = {
            harness.run_fig2: [("trials", cfg.trials < 2)],
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
        restored = harness.ExperimentConfig.from_json(path)
        assert restored == cfg
        assert restored.content_hash() == cfg.content_hash()

    def test_malformed_json_names_the_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"seed": 1,')
        with pytest.raises(ValueError, match="config.json") as info:
            harness.ExperimentConfig.from_json(path)
        assert isinstance(info.value.__cause__, json.JSONDecodeError)

    # the removed knobs, and a typo, are rejected by name
    @pytest.mark.parametrize(
        "key", ["n_receive", "carrier_frequency_hz", "noise_variance", "n_antenas"]
    )
    def test_from_dict_rejects_unknown_keys(self, key):
        data = {**_tiny_cfg().to_dict(), key: 1}
        with pytest.raises(ValueError, match=rf"\b{key}\b"):
            harness.ExperimentConfig.from_dict(data)

    def test_hash_changes_with_seed(self):
        assert _tiny_cfg(seed=1).content_hash() != _tiny_cfg(seed=2).content_hash()


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
            phi, slots, gain = phase_opt.greedy_bpr_phases(h, q)
            phi1, phi2 = harness._batch_greedy_phases(h, q)
            np.testing.assert_array_equal(phi1, phi[0])
            np.testing.assert_array_equal(phi2, phi[1])
            grids = phase_opt.block_grids(q)
            for i in range(200):
                ref_phi1, ref_phi2, ref_slots1, ref_slots2, ref_gain = (
                    greedy_blockwise_reference(h[i], *grids)
                )
                np.testing.assert_array_equal(phi[0, i], ref_phi1)
                np.testing.assert_array_equal(phi[1, i], ref_phi2)
                np.testing.assert_array_equal(slots[0, i], ref_slots1)
                np.testing.assert_array_equal(slots[1, i], ref_slots2)
                assert gain[i] == pytest.approx(ref_gain, rel=1e-12)

    @pytest.mark.parametrize("q", [3, 4])
    def test_batch_greedy_matches_scalar_across_tiles(self, q):
        # two full row tiles and a short last one; every other row draws its
        # elements from {1, j, -1, -j}, so equal scores across elements are
        # common and the order in which unplaced elements are scanned shows
        n = 2**q
        tile = phase_opt._TILE_SCORES // (n * n // 2)
        b = 2 * tile + 300
        rng = substream(q, 63)
        h = (rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))) / np.sqrt(2)
        h[1::2] = 1j ** rng.integers(0, 4, (b // 2, n))
        phi, slots, gain = phase_opt.greedy_bpr_phases(h, q)
        grids = phase_opt.block_grids(q)
        edges = [tile - 1, tile, 2 * tile - 1]
        for i in [*edges, *range(2 * tile, b)]:
            ref_phi1, ref_phi2, ref_slots1, ref_slots2, ref_gain = (
                greedy_blockwise_reference(h[i], *grids)
            )
            np.testing.assert_array_equal(phi[0, i], ref_phi1)
            np.testing.assert_array_equal(phi[1, i], ref_phi2)
            np.testing.assert_array_equal(slots[0, i], ref_slots1)
            np.testing.assert_array_equal(slots[1, i], ref_slots2)
            assert gain[i] == pytest.approx(ref_gain, rel=1e-12)

    @pytest.mark.parametrize("scheme", ["dft", "hadamard", "bpr-real", "bpr-complex"])
    def test_batch_equivalent_channels_match_scalar(self, scheme):
        cfg = _tiny_cfg(schemes=("dft", "hadamard", "bpr-real", "bpr-complex"))
        rng = substream(0, 61)
        h = (rng.standard_normal((100, 4)) + 1j * rng.standard_normal((100, 4))) / np.sqrt(2)
        phases = harness._selected_phases((scheme,), h, cfg)
        batch = harness._batch_equivalent_channels(scheme, h, cfg, phases)
        for i in range(100):
            bf = beamformer.build(scheme, 2, *(phi[i] for phi in phases))
            expected = beamformer.equivalent_channel(bf, h[i])
            np.testing.assert_allclose(batch[i], expected, atol=1e-11)

    def test_ber_block_matches_scalar_pipeline(self):
        points = stbc.make_constellation(16)
        labels = label_rows(16)
        rng_data = substream(0, 62)
        h_eq = (rng_data.standard_normal((64, 2)) + 1j * rng_data.standard_normal((64, 2))) / np.sqrt(2)
        amplitude = 1.7

        block_errors = harness._ber_block(h_eq, points, amplitude, substream(9, 0))
        assert type(block_errors) is int

        # replay the identical stream: bits, then the real and imaginary
        # noise parts, and decode each row by exhaustive ML
        rng = substream(9, 0)
        bits = rng.integers(0, 2, (64, 8), dtype=np.uint8)
        noise = (rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))) / np.sqrt(2.0)
        m = len(points)
        sym1, sym2 = np.divmod(np.arange(m * m), m)
        codewords = np.array(
            [
                [[points[a], -np.conj(points[b])],
                 [points[b], np.conj(points[a])]]
                for a, b in zip(sym1, sym2)
            ]
        )
        index = 1 << np.arange(3, -1, -1)
        errors = 0
        for i in range(64):
            sent = codewords[(bits[i, :4] @ index) * m + bits[i, 4:] @ index]
            y = amplitude * (np.conj(h_eq[i]) @ sent) + noise[i]
            best = ml_decode_index(y, h_eq[i], codewords, amplitude)
            decoded = np.concatenate([labels[sym1[best]], labels[sym2[best]]])
            errors += int(np.count_nonzero(decoded != bits[i]))
        assert block_errors == errors


# the names that the benchmark's traced run wraps, with the arguments that
# its observers read by name (perfbench/spans.py)
_TRACED_READS = (
    (channel, "sample_mmwave_batch", ("n_trials",)),
    (channel, "sample_rayleigh_batch", ("n_trials",)),
    (harness, "_batch_greedy_phases", ("h", "q")),
    (harness, "_batch_equivalent_channels", ("h",)),
    (harness, "_ber_block", ("h_eq",)),
)


class TestTracedNames:
    def test_benchmark_wrap_targets_keep_their_names(self, tmp_path, monkeypatch):
        calls = {name: [] for _, name, _ in _TRACED_READS}
        ber_results = []

        def counting(fn, name):
            sig = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                calls[name].append(set(sig.bind(*args, **kwargs).arguments))
                result = fn(*args, **kwargs)
                if name == "_ber_block":
                    ber_results.append(result)
                return result

            return wrapper

        for module, name, _ in _TRACED_READS:
            monkeypatch.setattr(module, name, counting(getattr(module, name), name))
        for kind in channel.CHANNEL_KINDS:
            harness.run_all(_tiny_cfg(channel_kind=kind, theta_points=361), tmp_path / kind)
        for _, name, reads in _TRACED_READS:
            assert calls[name], f"{name} was never called"
            assert all(set(reads) <= bound for bound in calls[name]), name
        assert all(type(errors) is int for errors in ber_results)


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
            if scheme in beamformer.BPR_SCHEMES:
                bf = beamformer.build_bpr_atb(
                    3,
                    beamformer.golden_variant(scheme),
                    rng.uniform(0, 2 * np.pi, 4),
                    rng.uniform(0, 2 * np.pi, 4),
                )
            elif scheme == "dft":
                bf = beamformer.build_dft_atb(3)
            else:
                bf = beamformer.build_hadamard_atb(3)
            measured = np.abs(bf) ** 2
            np.testing.assert_allclose(measured, values[scheme], atol=1e-12)


class TestFig1:
    def test_rows_and_spread(self, tmp_path):
        cfg = _tiny_cfg(theta_points=361)
        res = harness.run_fig1(cfg, tmp_path)
        header = res.path.read_text().splitlines()[0]
        assert header == "scheme,column,theta_rad,gain,spread_rad"
        assert len(res.rows) == 2 * 2 * 361  # schemes x columns x grid
        gains = np.array([row[3] for row in res.rows])
        assert np.all(gains >= 0)
        spreads = {(row[0], row[1]): row[4] for row in res.rows}
        assert all(s > 0 for s in spreads.values())

    @pytest.mark.parametrize(
        "schemes,calls",
        [(("dft", "hadamard", "bpr-real", "bpr-complex"), 1), (("dft", "hadamard"), 0)],
    )
    def test_one_greedy_for_both_bpr_schemes(self, tmp_path, monkeypatch, schemes, calls):
        seen = []
        greedy = harness._batch_greedy_phases

        def counting(h, q):
            seen.append(h.shape)
            return greedy(h, q)

        monkeypatch.setattr(harness, "_batch_greedy_phases", counting)
        harness.run_fig1(_tiny_cfg(theta_points=361, schemes=schemes), tmp_path)
        assert seen == [(1, 4)] * calls


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

    def test_array_gain_flag_changes_rates(self, tmp_path):
        cfg_on = _tiny_cfg(trials=1000, include_array_gain=True)
        cfg_off = _tiny_cfg(trials=1000, include_array_gain=False)
        r_on = harness.run_fig2(cfg_on, tmp_path / "on")
        r_off = harness.run_fig2(cfg_off, tmp_path / "off")
        assert r_on.rows[1][4] > r_off.rows[1][4]
        assert any("include_array_gain" in n for n in r_on.notes)
        # the rate reads no normalization mode, so fig2 names none and its
        # bytes do not depend on it
        assert not any("normalization" in n for n in r_on.notes + r_off.notes)
        r_eq10 = harness.run_fig2(
            _tiny_cfg(trials=1000, include_array_gain=True, normalization="eq10"),
            tmp_path / "eq10",
        )
        assert r_eq10.path.read_bytes() == r_on.path.read_bytes()

    @pytest.mark.parametrize(
        "schemes,calls",
        [(("dft", "bpr-real", "bpr-complex"), 2), (("dft", "hadamard"), 0)],
    )
    def test_one_greedy_per_block_for_both_bpr_schemes(self, monkeypatch, schemes, calls):
        seen = []
        greedy = harness._batch_greedy_phases

        def counting(h, q):
            seen.append(h.shape[0])
            return greedy(h, q)

        monkeypatch.setattr(harness, "_batch_greedy_phases", counting)
        cfg = _tiny_cfg(trials=harness.TRIAL_BLOCK + 100, schemes=schemes)
        harness.quadratic_forms(cfg)
        assert seen == [harness.TRIAL_BLOCK, 100][:calls]

    def test_shared_greedy_matches_single_scheme_runs(self):
        array8 = dict(trials=3000, n_antennas=8, n_rf=4)
        both = harness.quadratic_forms(
            _tiny_cfg(schemes=("bpr-real", "bpr-complex"), **array8)
        )
        for scheme in ("bpr-real", "bpr-complex"):
            alone = harness.quadratic_forms(_tiny_cfg(schemes=(scheme,), **array8))
            np.testing.assert_array_equal(both[scheme], alone[scheme])

    def test_rejects_single_realization(self, tmp_path):
        # one realization has no sample standard deviation, so no half width
        cfg = _tiny_cfg(trials=1)
        for runner in (harness.run_fig2, harness.run_all):
            out = tmp_path / runner.__name__
            with pytest.raises(ValueError, match=r"\btrials\b"):
                runner(cfg, out)
            assert not out.exists()
        with pytest.raises(ValueError, match=r"\btrials\b"):
            harness.quadratic_forms(cfg)


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
        assert harness._ber_point(cfg, 0, 0, 0.0)[2] == expected

    # 4-QAM: the 0 dB points meet the error target in one block, and the
    # 30 dB points run past `trials` to the cap
    _MIXED_STOPS = dict(
        snr_grid_db=(0.0, 30.0), trials=2000, target_errors=150, max_trials=40000,
    )

    def test_point_equals_its_grid_row(self):
        cfg = _tiny_cfg(**self._MIXED_STOPS)
        grid, _ = harness.ber_grid(cfg)
        assert {p.stop for p in grid} == {"target", "cap"}
        assert len({p.blocks for p in grid}) > 1
        for p in grid:
            alone = harness._ber_point(cfg, p.scheme_idx, p.snr_idx, p.gamma0_db)
            assert alone == (p.ber, p.half_width, p.trials)

    @pytest.mark.parametrize(
        "schemes,overrides,draws,greedy_runs",
        [
            (("dft", "bpr-real"), {}, 3, 3),
            (("dft", "hadamard"), {}, 3, 0),
            # the blockwise 30 dB point meets its target first
            (("hadamard", "bpr-real"), {"target_errors": 5, "max_trials": 80000}, 5, 2),
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
        # the greedy runs once per block while a blockwise point runs
        bpr = [max(b) for s, b in blocks.items() if s in beamformer.BPR_SCHEMES]
        assert calls["_batch_greedy_phases"] == max(bpr, default=0) == greedy_runs

    def test_manifest_records_each_point(self, tmp_path):
        cfg = _tiny_cfg(**self._MIXED_STOPS)
        harness.run_recorded(cfg, tmp_path, (harness.run_fig3,))
        telemetry = json.loads((tmp_path / "manifest.json").read_text())["telemetry"]["fig3"]
        lines = (tmp_path / "fig3.csv").read_text().splitlines()[1:]
        assert len(telemetry["points"]) == len(lines)
        bits_per_cw = 2 * stbc.bits_per_symbol(stbc.make_constellation(cfg.modulation))
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

    # SHA-256 of CLI outputs recorded before a change meant to leave every
    # output unchanged; such a change must keep them. The runs cover the
    # criterion-9 command, Rayleigh 4-QAM with the stopping rule past one
    # block, q=4 greedy with hadamard and bpr-complex, 16-QAM under eq10,
    # and mmwave fig3 at the default 64-QAM and at BPSK.
    @pytest.mark.parametrize(
        "args,config,pinned",
        [
            pytest.param(
                ("all", "--trials", "600", "--mod", "4", "--snr", "0,10,20",
                 "--scheme", "dft,bpr-real", "--seed", "99"),
                None,
                {
                    "table1.csv": "ee04aad6c99c0f889881ef36ef9cc6e40db340b85f0be38d5aa81b4a80e31f88",
                    "fig1.csv": "968463a27617eeb7ce09e5b3d18644407a99bcc594ed3ae6101546980d4dcae0",
                    "fig2.csv": "2325caacc42cab651aa404a5201e68e159cdd73693b15d04a707e73e05384995",
                    "fig3.csv": "7eac6d30f0eed3f3feb0d21985cc1584f12b00b8b4568ede5a2bf9af5adb2cf4",
                },
                id="criterion9",
            ),
            pytest.param(
                ("all", "--channel", "rayleigh", "--mod", "4", "--snr", "0,10",
                 "--trials", "600", "--seed", "3"),
                None,
                {
                    "table1.csv": "ee04aad6c99c0f889881ef36ef9cc6e40db340b85f0be38d5aa81b4a80e31f88",
                    "fig1.csv": "0858963ec0d505588426c29c3a427fff2736cbd1d7c50dec7baa103d3ac1b85f",
                    "fig2.csv": "b18e2084c1b4669fc2acf43ec4f41e954e32661b62243839adc2244e45dadd59",
                    "fig3.csv": "99db769ad8eff05d3b727b201310b7a9a1f9ec847f887fa831d4429d7755e952",
                },
                id="rayleigh-4qam",
            ),
            pytest.param(
                ("fig2", "--trials", "2000", "--seed", "2"),
                {"n_antennas": 16, "n_rf": 8},
                {"fig2.csv": "f18f79cff360a543300d718249c5cf8b6fdb86c810b6d63d3f43aae2d669bfb9"},
                id="fig2-array16",
            ),
            pytest.param(
                ("fig3", "--mod", "16", "--norm", "eq10", "--snr", "0,15",
                 "--trials", "600", "--seed", "4"),
                None,
                {"fig3.csv": "40c9ab764dfa64f8ec4f9dbbd39dafafc778e219d1e3c63e200f0bc977ee3f33"},
                id="fig3-16qam-eq10",
            ),
            pytest.param(
                ("fig3", "--snr", "0,20", "--trials", "600", "--seed", "6"),
                None,
                {"fig3.csv": "aa0f35e3b157dea552c95d540675c510f7adcfbfadbece2f2a23a93e155dbf9f"},
                id="fig3-mmwave-64qam",
            ),
            pytest.param(
                ("fig3", "--mod", "2", "--snr", "0,10", "--trials", "600", "--seed", "6"),
                None,
                {"fig3.csv": "2163ed8f85234d7634506be687aa90edb9c6d07f8dba978b83e95f8f39e99181"},
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
            "scipy": scipy.__version__,
        }
        times = manifest["runner_wall_s"]
        assert len(times) == runners
        assert {f"{name}.csv" for name in times} == set(manifest["files"])
        assert all(t > 0 for t in times.values())
        assert sum(times.values()) <= manifest["wall_time_s"]
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


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
            qf = harness.quadratic_forms(cfg)
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
        ber, lo, hi, n = harness.simulate_bpsk_rayleigh_ber(gamma_db, 40_000, seed=5)
        expected = analysis.mgf_ber_bpsk(10 ** (gamma_db / 10))
        assert n == 40_000
        assert abs(ber - expected) < 5 * np.sqrt(expected * (1 - expected) / n)


class TestConditionalSim:
    def test_eq10_amplitude_definition(self):
        points = stbc.make_constellation(4)
        h_eq = np.array([1.0 + 0j, 0.5 + 0.5j])
        amplitude = stbc.link_amplitude(100.0, 0.25, "eq10", True, 4, 3)
        errors, bits = harness.simulate_conditional_ber(
            h_eq, points, amplitude, n_trials=2000, seed=3
        )
        assert bits == 2000 * 4
        assert errors >= 0


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
            "print(' '.join(m for m in ('scipy.special', 'scipy.linalg', 'scipy.integrate', "
            "'scipy.stats', 'numpy.random') if m in sys.modules))"
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
        "content", ["3", '["n_rf", "seed"]', '{"seed": 1,'], ids=["number", "list", "malformed"]
    )
    def test_config_file_must_hold_an_object(self, tmp_path, content):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(content)
        proc = self._run("table1", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"] == "ValueError"
        assert str(cfg_path) in record["message"]
        assert "expected a JSON object" in record["message"]

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

    def test_config_file_reload(self, tmp_path):
        cfg = _tiny_cfg(trials=200, max_trials=400)
        cfg_path = tmp_path / "cfg.json"
        cfg.to_json(cfg_path)
        out = tmp_path / "out"
        proc = self._run("table1", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        reloaded = json.loads((out / "config.json").read_text())
        assert reloaded["seed"] == 123

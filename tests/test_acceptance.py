"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines and measured values.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from beamlink import analysis, beamformer, harness, phase_opt, stbc
from beamlink.channel import plane_wave_sums, sample_mmwave_batch
from beamlink.rng import substream

from oracles import (
    blockwise_bruteforce_gain,
    mpsk_mgf_reference,
    mpsk_printed_form,
    mqam_mgf_reference,
    pair_label_rows,
    random_blockwise_gain,
    rayleigh_q_mgf_reference,
    replay_greedy,
    union_bound_enum,
)
from reference_sims import (
    alamouti_codebook,
    simulate_bpsk_rayleigh_ber,
    simulate_conditional_ber,
)

GAMMA_BAR_GRID = (0.01, 0.1, 1.0, 10.0, 100.0, 1e4)


def _report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion}] {verdict}: {detail}")


def test_criterion_1_power_factor_reproduction(tmp_path):
    start = time.perf_counter()
    res = harness.run_table1(harness.ExperimentConfig(), tmp_path)
    elapsed = time.perf_counter() - start
    values = {row[0]: row[2] for row in res.rows}
    ok = (
        values["dft"] == 0.25
        and values["hadamard"] == 0.25
        and abs(values["bpr-real"] - 0.5236) <= 0.005
        and abs(values["bpr-complex"] - 0.3333) <= 0.005
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"q=2 power factors {values['dft']}, {values['hadamard']}, "
        f"{values['bpr-real']:.4f}, {values['bpr-complex']:.4f} ({elapsed:.2f}s)",
    )
    assert ok


def test_criterion_2_constant_modulus_and_structure():
    start = time.perf_counter()
    worst_modulus = 0.0
    worst_gram = 0.0
    rng = substream(0, 90)
    for q in (1, 2, 3, 4):
        half = 2 ** (q - 1)
        builds = [
            (beamformer.DFT, beamformer.build(beamformer.DFT, q)),
            (beamformer.HADAMARD, beamformer.build(beamformer.HADAMARD, q)),
            (beamformer.BPR_REAL, beamformer.build(
                beamformer.BPR_REAL, q,
                rng.uniform(0, 2 * np.pi, half), rng.uniform(0, 2 * np.pi, half),
            )),
            (beamformer.BPR_COMPLEX, beamformer.build(
                beamformer.BPR_COMPLEX, q,
                rng.uniform(0, 2 * np.pi, half), rng.uniform(0, 2 * np.pi, half),
            )),
        ]
        for scheme, bf in builds:
            expected = beamformer.kappa(scheme, q)
            worst_modulus = max(
                worst_modulus, float(np.max(np.abs(np.abs(bf) ** 2 - expected)))
            )
            if scheme in (beamformer.DFT, beamformer.HADAMARD):
                gram = bf.conj().T @ bf
                worst_gram = max(
                    worst_gram, float(np.max(np.abs(gram - np.eye(half))))
                )
    elapsed = time.perf_counter() - start
    ok = worst_modulus < 1e-10 and worst_gram < 1e-10 and elapsed < 1.0
    _report(
        2,
        ok,
        f"max |entry power - kappa| = {worst_modulus:.2e}, "
        f"max |F^H F - I| = {worst_gram:.2e} over q=1..4 ({elapsed:.2f}s)",
    )
    assert ok


def test_criterion_3_greedy_vs_oracle():
    start = time.perf_counter()
    grids = phase_opt.block_grids(2)
    n_channels = 500
    bounded = 0
    beats_random = 0
    for seed in range(n_channels):
        h = plane_wave_sums(*sample_mmwave_batch(1, 3, substream(seed)), 4)[0]
        _, _, gain = replay_greedy(h[None], phase_opt.greedy_bpr_indices(h[None], 2), *grids)
        exhaustive = blockwise_bruteforce_gain(h, *grids)
        bounded += gain[0] <= exhaustive + 1e-10
        rng = substream(seed, 91)
        baseline = np.mean([random_blockwise_gain(h, *grids, rng) for _ in range(100)])
        beats_random += gain[0] >= baseline
    elapsed = time.perf_counter() - start
    ok = bounded == n_channels and beats_random >= 0.99 * n_channels and elapsed < 10.0
    _report(
        3,
        ok,
        f"greedy <= blockwise optimum in {bounded}/{n_channels}, "
        f">= random-baseline mean in {beats_random}/{n_channels} ({elapsed:.2f}s)",
    )
    assert ok


def test_criterion_4_closed_forms_vs_quadrature():
    start = time.perf_counter()
    worst = 0.0
    printed_discrepancy = 0.0
    for gb in GAMMA_BAR_GRID:
        worst = max(worst, abs(analysis.mgf_ber_bpsk(gb) - rayleigh_q_mgf_reference(1.0, gb)))
        for m in (2, 4, 8):
            ref = mpsk_mgf_reference(gb, m)
            worst = max(worst, abs(analysis.mgf_ber_mpsk(gb, m) - ref))
            printed_discrepancy = max(
                printed_discrepancy,
                abs(mpsk_printed_form(gb, m) - ref),
            )
        for m in (4, 16, 64):
            worst = max(worst, abs(analysis.mgf_ber_mqam(gb, m) - mqam_mgf_reference(gb, m)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 5.0
    _report(
        4,
        ok,
        f"max |closed form - quadrature| = {worst:.2e}; the printed arctangent MPSK "
        f"form (test oracle only) deviates from quadrature by up to "
        f"{printed_discrepancy:.3f} (logged; the package closed form agrees) ({elapsed:.2f}s)",
    )
    assert ok


def test_criterion_5_monte_carlo_vs_closed_form():
    start = time.perf_counter()
    seed = 2025  # fixed; containment is a ~95%-calibration event per point
    n_trials = 200_000
    all_ok = True
    details = []
    for gamma_db in (0.0, 5.0, 10.0, 15.0):
        ber, lo, hi, n = simulate_bpsk_rayleigh_ber(gamma_db, n_trials, seed=seed)
        expected = analysis.mgf_ber_bpsk(10 ** (gamma_db / 10.0))
        contained = lo <= expected <= hi
        all_ok &= contained
        details.append(f"{gamma_db:g}dB sim={ber:.5f} form={expected:.5f}")
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 30.0
    _report(5, ok, "; ".join(details) + f" ({elapsed:.1f}s, {n_trials} trials/point)")
    assert ok


def test_criterion_6_union_and_chernoff_dominance():
    start = time.perf_counter()
    const = stbc.make_constellation(4)
    codewords, pairs = alamouti_codebook(const)
    labels = pair_label_rows(pairs, 4)
    scheme = beamformer.BPR_REAL
    kappa = beamformer.kappa(scheme, 2)
    union_ok = True
    chernoff_ok = True
    details = []
    for ch_seed in (1, 2, 3):
        h = plane_wave_sums(*sample_mmwave_batch(1, 3, substream(ch_seed)), 4)[0]
        idx = phase_opt.greedy_bpr_indices(h[None], 2)[:, 0]
        phi1, phi2 = (grid[i] for grid, i in zip(phase_opt.block_grids(2), idx))
        bf = beamformer.build(beamformer.BPR_REAL, 2, phi1, phi2)
        h_eq = beamformer.equivalent_channel(bf, h)
        for gamma_db in (0.0, 4.0, 8.0, 12.0):
            gamma0 = 10 ** (gamma_db / 10.0)
            bound = analysis.union_bound_ber(h_eq, const, gamma0, kappa)
            # the closed form counts every one of the 240 ordered pairs
            assert bound == pytest.approx(
                union_bound_enum(h_eq, codewords, labels, gamma0, kappa), rel=1e-9
            )
            amplitude = stbc.link_amplitude(gamma0, kappa, "eq10", 4, 3)
            errors, bits = simulate_conditional_ber(
                h_eq, const, amplitude, n_trials=200_000, seed=1000 + ch_seed
            )
            lo, _ = analysis.wilson_interval(errors, bits)
            if bound < lo:
                union_ok = False
                details.append(f"union violated at seed {ch_seed}, {gamma_db} dB")
            for k in range(16):
                for l in range(16):
                    if k == l:
                        continue
                    err = codewords[k] - codewords[l]
                    if analysis.chernoff_pep(h_eq, err, gamma0, kappa) < analysis.pairwise_q_term(
                        h_eq, err, gamma0, kappa
                    ):
                        chernoff_ok = False
    elapsed = time.perf_counter() - start
    ok = union_ok and chernoff_ok and elapsed < 60.0
    _report(
        6,
        ok,
        f"union bound >= simulated BER and Chernoff >= exact Q term at all "
        f"3 channels x 4 SNR points x 240 pairs ({elapsed:.1f}s)"
        + ("; " + "; ".join(details) if details else ""),
    )
    assert ok


def test_criterion_7_ber_gap_reproduction():
    start = time.perf_counter()
    grids = {
        "eq1": tuple(float(v) for v in range(6, 31, 3)),
        "eq10": tuple(float(v) for v in range(10, 39, 4)),
    }
    gaps = {}
    for mode, grid in grids.items():
        cfg = harness.ExperimentConfig(
            schemes=("dft", "bpr-real"),
            snr_grid_db=grid,
            modulation=64,
            trials=30_000,
            target_errors=100,
            max_trials=300_000,
            seed=2024,
            normalization=mode,
        )
        grid, _ = harness.ber_grid(cfg)
        curves = {s: [(p.gamma0_db, p.ber) for p in grid if p.scheme == s] for s in cfg.schemes}
        gaps[mode] = harness.measure_gap_db(curves["bpr-real"], curves["dft"], 1e-2)
    elapsed = time.perf_counter() - start
    ok = gaps["eq1"] >= 1.0 and gaps["eq10"] >= 1.0 and elapsed < 600.0
    _report(
        7,
        ok,
        f"BER=1e-2 gap (bpr-real ahead of dft): eq1 {gaps['eq1']:.2f} dB, "
        f"eq10 {gaps['eq10']:.2f} dB; floor 1.0 dB, nominal claim 2 dB ({elapsed:.1f}s)",
    )
    assert ok


def test_criterion_8_spectral_efficiency_ordering(tmp_path):
    start = time.perf_counter()
    cfg = harness.ExperimentConfig(
        snr_grid_db=(0.0, 10.0, 20.0, 30.0),
        trials=10_000,
        seed=30,
    )
    quad_forms, _ = harness.quadratic_forms(cfg)
    gamma30 = 10.0**3
    eff = cfg.n_antennas / cfg.n_paths
    rates = {
        s: analysis.spectral_efficiency(quad_forms[s], gamma30 * eff) for s in cfg.schemes
    }

    def separated(a, b):
        d = rates[a] - rates[b]
        return d.mean() > 3.0 * d.std(ddof=1) / np.sqrt(d.size), d.mean()

    ok_rc, _ = separated("bpr-real", "bpr-complex")
    ok_cd, _ = separated("bpr-complex", "dft")
    ok_rd, gap = separated("bpr-real", "dft")
    elapsed = time.perf_counter() - start
    ok = ok_rc and ok_cd and ok_rd and abs(gap - 1.8) <= 1.0 and elapsed < 120.0
    _report(
        8,
        ok,
        f"30 dB ordering real > complex > dft holds with 3-sigma separation over "
        f"{cfg.trials} paired realizations; real-dft gap {gap:.2f} bits/s/Hz vs "
        f"1.8 +/- 1.0 (array-gain factor on, eq1) ({elapsed:.1f}s)",
    )
    assert ok


def test_criterion_9_determinism(tmp_path):
    start = time.perf_counter()
    args = [
        sys.executable, "-m", "beamlink", "all",
        "--trials", "600", "--mod", "4", "--snr", "0,10,20",
        "--scheme", "dft,bpr-real", "--seed", "99",
    ]
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for d in dirs:
        proc = subprocess.run(
            [*args, "--out", str(d)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
    identical = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in ("table1.csv", "fig1.csv", "fig2.csv", "fig3.csv", "config.json")
    )
    elapsed = time.perf_counter() - start
    ok = identical and elapsed < 120.0
    _report(
        9,
        ok,
        f"rerun of the same CLI command produced byte-identical CSV outputs ({elapsed:.1f}s)",
    )
    assert ok

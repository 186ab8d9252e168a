#!/usr/bin/env python3
"""beamlink benchmark: time a figure workload end to end, or trace its layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a beamlink checkout; the program is taken from
``src`` and each repetition runs ``beamlink.cli.main`` in a fresh
interpreter (a closed loop with one caller, BLAS threads left as the
environment sets them). Scratch output goes to ``.perfbench_out``.

``--trace 0`` repeats the workload untraced, each time in a fresh
interpreter, while the next repetition is expected to end within
``--seconds`` (at least once), and reports medians of the end-to-end
metrics.

``--trace 1`` runs the workload once untraced and once traced, checks
that the traced run's layer self times add up to its wall time and that
its CSVs equal the untraced ones, and reports the per-layer metrics.

Every sweep point written is checked against the stored reference (see
``check.py``). The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import check

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_ROOT = Path(".perfbench_out")

REP_TIMEOUT_S = 160.0
REFERENCE_SEED = 0
TRIAL_BLOCK = 16384
SELF_TIME_TOLERANCE_S = 1e-6


class BenchError(RuntimeError):
    """The benchmark cannot give a trustworthy result."""


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    config: dict | None
    # minimum trials per sweep point, passed as --trials
    trials: int
    sweeps: tuple[str, ...]
    # layers the traced run must see called
    layers: tuple[str, ...]
    # (layer, kernel, ROADMAP baseline in ms per 16384-trial block, if it has one)
    baselines: tuple[tuple[str, str, float | None], ...]


ALL_LAYERS = ("cli", "channel", "phase_opt", "beamformer", "stbc", "analysis", "harness", "io")

WORKLOADS = {
    "fig3-mmwave-64qam": Workload(
        args=("fig3", "--snr", "0,20,35"),
        config=None,
        trials=100_000,
        sweeps=("fig3",),
        layers=ALL_LAYERS,
        baselines=(
            ("channel", "mmwave sampling", 18.0),
            ("phase_opt", "batched greedy, q=2", 25.0),
            ("stbc", "_ber_block, 64-QAM", 26.0),
        ),
    ),
    "fig2-array16": Workload(
        args=("fig2",),
        config={"n_antennas": 16, "n_rf": 8},
        trials=32_768,
        sweeps=("fig2",),
        layers=("cli", "channel", "phase_opt", "beamformer", "harness", "io"),
        baselines=(
            ("channel", "mmwave sampling, N=16", None),
            ("phase_opt", "batched greedy, q=4", 600.0),
        ),
    ),
    "all-rayleigh-4qam": Workload(
        args=("all", "--channel", "rayleigh", "--mod", "4", "--snr", "0,10,17.5"),
        config=None,
        trials=100_000,
        sweeps=("fig2", "fig3"),
        layers=ALL_LAYERS,
        baselines=(
            ("channel", "rayleigh sampling", 3.8),
            ("phase_opt", "batched greedy, q=2", 25.0),
            ("stbc", "_ber_block, 4-QAM", 7.5),
        ),
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "ci_rel_halfwidth_p50": "share",
    "ok_share": "share",
}


@dataclass
class Rep:
    """One launch of the command in a fresh interpreter."""

    out_dir: Path
    exit_code: int
    elapsed_s: float
    setup_s: float | None
    runner_s: float
    cpu_s: float
    peak_rss_mib: float
    report: dict


def launch(name: str, seed: int, mode: str, out_dir: Path) -> Rep:
    """Run workload ``name`` once in a child interpreter and wait for it."""
    workload = WORKLOADS[name]
    out_dir.mkdir(parents=True)
    args = [*workload.args, "--trials", str(workload.trials), "--seed", str(seed), "--out", str(out_dir)]
    if workload.config is not None:
        config_path = out_dir / "workload_config.json"
        config_path.write_text(json.dumps(workload.config))
        args += ["--config", str(config_path)]
    report_path = out_dir / "report.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, str(report_path), "--", *args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path("src").resolve()), env.get("PYTHONPATH")]))
    with open(out_dir / "child.log", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env)
        watchdog = threading.Timer(REP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        elapsed = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = json.loads(report_path.read_text()) if report_path.is_file() else {}
    if "error" in report:
        raise BenchError(report["error"])
    first_call = report.get("first_runner_monotonic")
    return Rep(
        out_dir=out_dir,
        exit_code=proc.returncode if proc.returncode else report.get("exit_code", 1),
        elapsed_s=elapsed,
        setup_s=None if first_call is None else first_call - start,
        runner_s=report.get("runner_s", 0.0),
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mib=usage.ru_maxrss / 1024.0,
        report=report,
    )


def check_rep(name: str, rep: Rep) -> tuple[int, list[str]]:
    """Points attempted and failure messages; a crashed run fails every point."""
    workload = WORKLOADS[name]
    attempted, failures = check.check_sweeps(
        rep.out_dir, REFERENCE_DIR / name, workload.sweeps, workload.trials
    )
    if rep.exit_code != 0:
        log = (rep.out_dir / "child.log").read_text(errors="replace")[-2000:]
        return attempted, [f"run exited with code {rep.exit_code}: {log}"] * attempted
    return attempted, failures


def run_untraced(name: str, seed: int, seconds: float, out: Path) -> tuple[dict, int, list[str], dict]:
    reps: list[Rep] = []
    start = time.monotonic()
    while True:
        rep = launch(name, seed, "plain", out / f"rep{len(reps)}")
        reps.append(rep)
        if time.monotonic() - start + rep.elapsed_s > seconds:
            break
    attempted, failures = 0, []
    for rep in reps:
        n, bad = check_rep(name, rep)
        attempted += n
        failures += bad
    good = [rep for rep in reps if rep.exit_code == 0]
    if not good:
        raise BenchError(f"every run of {name} failed: {failures[:1]}")
    sweeps = WORKLOADS[name].sweeps
    metrics = {
        "setup_s": median(r.setup_s for r in good),
        "wall_s": median(r.runner_s for r in good),
        "cpu_s": median(r.cpu_s for r in good),
        "peak_rss_mib": median(r.peak_rss_mib for r in good),
        "ci_rel_halfwidth_p50": median(check.ci_rel_halfwidth_p50(r.out_dir, sweeps) for r in good),
        "ok_share": (attempted - len(failures)) / attempted,
    }
    detail = {
        "repetitions": len(reps),
        "setup_samples_s": [r.setup_s for r in good],
        "wall_samples_s": [r.runner_s for r in good],
        "env": good[0].report["env"],
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, attempted, failures, detail


def _per_block_ms(layer: dict) -> float:
    return 1000.0 * layer["self_s"] * TRIAL_BLOCK / layer["rows"] if layer["rows"] else 0.0


def layer_metrics(name: str, plain: Rep, traced: Rep, sha_match: bool) -> dict:
    """Per-layer metrics of one traced run, after its integrity checks."""
    workload = WORKLOADS[name]
    report = traced.report
    layers = report["layers"]
    idle = [layer for layer in workload.layers if layers[layer]["calls"] == 0]
    if idle:
        raise BenchError(f"{name}: layers recorded no calls: {idle}")
    self_total = sum(layer["self_s"] for layer in layers.values())
    if abs(self_total - report["root_s"]) > SELF_TIME_TOLERANCE_S:
        raise BenchError(
            f"layer self times sum to {self_total!r} s but the traced run took {report['root_s']!r} s"
        )
    points = check.sweep_points(traced.out_dir, workload.sweeps)
    n_trials = [int(p["n_trials"]) for p in points]
    point_s = report["point_s"]
    ch, po, bf, st, an = (layers[k] for k in ("channel", "phase_opt", "beamformer", "stbc", "analysis"))
    return {
        "channel.calls": (ch["calls"], "count"),
        "channel.rows": (ch["rows"], "count"),
        "channel.self_s": (ch["self_s"], "s"),
        "channel.ms_per_block": (_per_block_ms(ch), "ms"),
        "phase_opt.calls": (po["calls"], "count"),
        "phase_opt.rows": (po["rows"], "count"),
        "phase_opt.self_s": (po["self_s"], "s"),
        "phase_opt.ms_per_block": (_per_block_ms(po), "ms"),
        "phase_opt.evals": (report["greedy_evals"], "count"),
        "beamformer.calls": (bf["calls"], "count"),
        "beamformer.self_s": (bf["self_s"], "s"),
        "beamformer.ms_per_block": (_per_block_ms(bf), "ms"),
        "stbc.calls": (st["calls"], "count"),
        "stbc.rows": (st["rows"], "count"),
        "stbc.self_s": (st["self_s"], "s"),
        "stbc.ms_per_block": (_per_block_ms(st), "ms"),
        "stbc.bit_errors": (report["counters"].get("bit_errors", 0), "count"),
        "analysis.calls": (an["calls"], "count"),
        "analysis.self_s": (an["self_s"], "s"),
        "harness.points": (len(points), "count"),
        "harness.blocks": (report["counters"].get("blocks", 0), "count"),
        "harness.trials": (sum(n_trials), "count"),
        "harness.points_capped": (sum(n == check.MAX_TRIALS for n in n_trials), "count"),
        "harness.trial_yield": (workload.trials * len(points) / sum(n_trials), "share"),
        "harness.point_s_p50": (median(point_s) if point_s else 0.0, "s"),
        "harness.point_s_max": (max(point_s, default=0.0), "s"),
        "harness.self_s": (layers["harness"]["self_s"], "s"),
        "harness.io_s": (layers["io"]["self_s"], "s"),
        "harness.csv_bytes": (sum(p.stat().st_size for p in traced.out_dir.glob("*.csv")), "bytes"),
        "harness.csv_sha256_match": (int(sha_match), "flag"),
        "cli.self_s": (layers["cli"]["self_s"], "s"),
        "trace.overhead_s": (traced.runner_s - plain.runner_s, "s"),
    }


def kernel_table(name: str, metrics: dict) -> list[str]:
    lines = [f"block kernels of {name} (ms per {TRIAL_BLOCK}-trial block, self time):"]
    for layer, kernel, baseline in WORKLOADS[name].baselines:
        measured = metrics[f"{layer}.ms_per_block"][0]
        reference = "-" if baseline is None else f"{baseline:.1f}"
        lines.append(f"  {kernel:<24} {measured:9.2f}   baseline {reference:>7}")
    return lines


def run_traced(name: str, seed: int, out: Path) -> tuple[dict, int, list[str], dict]:
    plain = launch(name, seed, "plain", out / "plain")
    traced = launch(name, seed, "trace", out / "traced")
    reps = [plain, traced]
    for rep in reps:
        if rep.exit_code != 0:
            raise BenchError(f"{rep.out_dir.name} run of {name} exited with code {rep.exit_code}")
    hashes = check.sha256_by_file(plain.out_dir)
    if check.sha256_by_file(traced.out_dir) != hashes:
        raise BenchError(f"{name}: traced CSVs differ from the untraced ones")
    if seed != REFERENCE_SEED:
        ref_rep = launch(name, REFERENCE_SEED, "plain", out / "reference-seed")
        reps.append(ref_rep)
        hashes = check.sha256_by_file(ref_rep.out_dir)
    stored = json.loads((REFERENCE_DIR / name / "sha256.json").read_text())
    attempted, failures = 0, []
    for rep in reps:
        n, bad = check_rep(name, rep)
        attempted += n
        failures += bad
    metrics = layer_metrics(name, plain, traced, hashes == stored)
    detail = {"env": traced.report["env"], "kernels": kernel_table(name, metrics)}
    return metrics, attempted, failures, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not Path("src/beamlink/cli.py").is_file():
        print("perfbench: no beamlink source under ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    out = OUT_ROOT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        if args.trace:
            metrics, attempted, failures, detail = run_traced(args.workload, args.seed, out)
        else:
            metrics, attempted, failures, detail = run_untraced(args.workload, args.seed, args.seconds, out)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for line in detail.pop("kernels", []):
        print(line)
    print("env: " + json.dumps(detail["env"], sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    (out / "result.json").write_text(json.dumps({**result, "detail": detail}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark; they run without executing a workload.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(REPO / "src"))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

MANIFEST = json.loads((REPO / "BENCHMARK.json").read_text())


def _copy_reference(tmp_path: Path, name: str) -> Path:
    out = tmp_path / name
    shutil.copytree(run.REFERENCE_DIR / name, out)
    return out


def _rewrite_row(path: Path, row_index: int, column: str, value: str) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row_index + 1].split(",")
    cells[header.index(column)] = value
    lines[row_index + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


# output check


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_reference_outputs_pass_the_check(tmp_path, name):
    out = _copy_reference(tmp_path, name)
    workload = run.WORKLOADS[name]
    attempted, failures = check.check_sweeps(out, run.REFERENCE_DIR / name, workload.sweeps, workload.trials)
    assert attempted == len(check.sweep_points(out, run.WORKLOADS[name].sweeps)) > 0
    assert failures == []


@pytest.mark.parametrize(
    "column, transform, reason",
    [
        ("value", lambda v: repr(float(v) * 1.5), "more than"),
        ("value", lambda v: "nan", "not finite"),
        ("value", lambda v: "1.5", "outside [0, 1]"),
        ("n_trials", lambda v: "50000", "below"),
    ],
)
def test_output_check_flags_a_perturbed_csv(tmp_path, column, transform, reason):
    name = "fig3-mmwave-64qam"
    out = _copy_reference(tmp_path, name)
    path = out / "fig3.csv"
    row = 6  # bpr-real at 0 dB
    original = path.read_text().splitlines()[row + 1].split(",")
    header = path.read_text().splitlines()[0].split(",")
    _rewrite_row(path, row, column, transform(original[header.index(column)]))
    attempted, failures = check.check_sweeps(out, run.REFERENCE_DIR / name, ("fig3",), 100_000)
    assert len(failures) == 1
    assert reason in failures[0], failures


def test_output_check_accepts_capped_points(tmp_path):
    out = _copy_reference(tmp_path, "fig3-mmwave-64qam")
    _rewrite_row(out / "fig3.csv", 3, "n_trials", str(check.MAX_TRIALS))
    _, failures = check.check_sweeps(out, run.REFERENCE_DIR / "fig3-mmwave-64qam", ("fig3",), 100_000)
    assert failures == []


def test_missing_sweep_file_fails_every_point(tmp_path):
    out = _copy_reference(tmp_path, "fig3-mmwave-64qam")
    (out / "fig3.csv").unlink()
    attempted, failures = check.check_sweeps(out, run.REFERENCE_DIR / "fig3-mmwave-64qam", ("fig3",), 100_000)
    assert len(failures) == attempted > 0


# traced-run integrity


def test_missing_wrap_target_raises_and_wraps_nothing():
    original = json.dumps
    targets = [spans.Target("json", "dumps", "io"), spans.Target("json", "no_such_kernel", "stbc")]
    with pytest.raises(spans.WrapTargetMissing, match="json.no_such_kernel"):
        spans.install(spans.Tracer(), targets)
    assert json.dumps is original


def test_missing_wrap_module_raises():
    with pytest.raises(spans.WrapTargetMissing):
        spans.install(spans.Tracer(), [spans.Target("beamlink.no_such_module", "f", "stbc")])


def test_every_wrap_target_exists():
    for target in spans.runner_targets() + spans.layer_targets():
        assert callable(getattr(importlib.import_module(target.module), target.attr)), target


def test_self_times_add_up_to_the_root_span():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(spans.Target("m", "inner", "stbc"), lambda: None)
    outer = tracer.wrap(spans.Target("m", "outer", "harness"), lambda: (inner(), inner()))
    root = tracer.wrap(spans.Target("m", "main", "cli"), lambda: outer())
    root()
    # root 0..7, outer 1..6, inner 2..3 and 4..5
    assert tracer.root_s == 7.0
    assert tracer.layers["stbc"].self_s == 2.0
    assert tracer.layers["harness"].self_s == 3.0
    assert tracer.layers["cli"].self_s == 2.0
    assert sum(s.self_s for s in tracer.layers.values()) == tracer.root_s


def _fake_traced(tmp_path: Path, name: str, calls: int = 1) -> tuple[run.Rep, run.Rep]:
    out = _copy_reference(tmp_path, name)
    layers = {k: {"calls": calls, "rows": run.TRIAL_BLOCK, "self_s": 0.25} for k in run.ALL_LAYERS}
    report = {
        "layers": layers,
        "root_s": 0.25 * len(layers),
        "counters": {"blocks": 1, "bit_errors": 3},
        "point_s": [0.1, 0.2],
        "greedy_evals": 40,
    }
    rep = run.Rep(out, 0, 2.0, 1.0, report["root_s"], 2.0, 100.0, report)
    return rep, rep


def test_layer_without_calls_fails_loudly(tmp_path):
    plain, traced = _fake_traced(tmp_path, "fig3-mmwave-64qam", calls=0)
    with pytest.raises(run.BenchError, match="no calls"):
        run.layer_metrics("fig3-mmwave-64qam", plain, traced, True)


def test_self_time_mismatch_fails_loudly(tmp_path):
    plain, traced = _fake_traced(tmp_path, "fig3-mmwave-64qam")
    traced.report["root_s"] += 0.01
    with pytest.raises(run.BenchError, match="sum to"):
        run.layer_metrics("fig3-mmwave-64qam", plain, traced, True)


# names shared with BENCHMARK.json


def test_workload_names_match_the_manifest():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_metric_names_and_units_match_the_manifest():
    printed = run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == printed


def test_per_layer_metric_names_and_units_match_the_manifest(tmp_path):
    plain, traced = _fake_traced(tmp_path, "all-rayleigh-4qam")
    printed = run.layer_metrics("all-rayleigh-4qam", plain, traced, True)
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == {k: u for k, (_, u) in printed.items()}


def test_command_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *MANIFEST["command"][1:], "--workload", "fig2-array16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

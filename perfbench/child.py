"""Run one beamlink command in a fresh interpreter and write a JSON report.

    python3 perfbench/child.py MODE REPORT -- BEAMLINK_ARGS...

MODE is ``plain`` (time the runners and nothing else: the untraced run)
or ``trace`` (also record a span around every layer kernel).

The command runs through the public ``beamlink.cli.main`` entry. The
caller puts the program's ``src`` directory on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import spans

MODES = ("plain", "trace")


def environment() -> dict:
    """Library versions, core count, BLAS build and thread settings."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var)
    return env


def _layer_report(tracer: spans.Tracer) -> dict:
    from beamlink import phase_opt

    evals_per_row = dict(phase_opt.complexity_probe(sorted(tracer.greedy_rows_by_q)))
    return {
        "layers": {name: vars(stats) for name, stats in tracer.layers.items()},
        "counters": tracer.counters,
        "point_s": tracer.point_s,
        "greedy_evals": sum(evals_per_row[q] * rows for q, rows in tracer.greedy_rows_by_q.items()),
    }


def main(argv: list[str]) -> int:
    mode, report_path, sep, *beamlink_args = argv
    if mode not in MODES or sep != "--":
        raise SystemExit(f"usage: child.py {{{','.join(MODES)}}} REPORT -- ARGS...")
    report_path = Path(report_path)
    tracer = spans.Tracer()
    targets = spans.runner_targets()
    if mode == "trace":
        targets += spans.layer_targets()
    try:
        spans.install(tracer, targets)
    except spans.WrapTargetMissing as exc:
        report_path.write_text(json.dumps({"error": f"wrap target missing: {exc}"}))
        return 3

    from beamlink import cli

    exit_code = cli.main(beamlink_args)
    report = {
        "exit_code": exit_code,
        "first_runner_monotonic": tracer.first_runner_monotonic,
        "runner_s": tracer.runner_s,
        "root_s": tracer.root_s,
        "env": environment(),
    }
    if mode == "trace":
        report.update(_layer_report(tracer))
    report_path.write_text(json.dumps(report))
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Regenerate the stored reference outputs of every workload.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a checkout of the code the references should
describe. For each workload it runs the command once at the reference
seed, copies the sweep CSVs to ``reference/<workload>/`` and records the
SHA-256 of every CSV the run wrote in ``reference/<workload>/sha256.json``.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
import run


def main(names: list[str]) -> int:
    for name in names or sorted(run.WORKLOADS):
        out = run.OUT_ROOT / f"reference-{name}"
        shutil.rmtree(out, ignore_errors=True)
        rep = run.launch(name, run.REFERENCE_SEED, "plain", out)
        if rep.exit_code != 0:
            print(f"{name}: run exited with code {rep.exit_code}", file=sys.stderr)
            return 1
        dest = run.REFERENCE_DIR / name
        dest.mkdir(parents=True, exist_ok=True)
        for sweep in run.WORKLOADS[name].sweeps:
            shutil.copyfile(out / f"{sweep}.csv", dest / f"{sweep}.csv")
        hashes = check.sha256_by_file(out)
        (dest / "sha256.json").write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
        print(f"{name}: {rep.runner_s:.2f} s, {len(hashes)} CSV files -> {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Output check for the sweep CSVs a workload writes.

A sweep point fails if

* its value or CI half-width is not finite, or a BER lies outside [0, 1];
* its ``n_trials`` is below the configured minimum without reaching the
  trial cap;
* it is missing, or it differs from its reference point by more than
  the standard errors of both allow, at family-wise level
  :data:`FAMILY_WISE_ALPHA` over all points of one run (Bonferroni).

The comparison treats the point and its reference as independent
estimates, so it holds for any seed, and an estimator that gives the
same expectation with another spread still passes. Exact equality of
the files is reported apart from this check, by :func:`sha256_by_file`.

The standard error of a mean spectral efficiency is its CSV half-width
over :data:`Z95`. For a BER the CSV's Wilson half-width is too narrow:
it treats the 2 log2(M) bits of a codeword as independent, but they
share one channel draw and err together (over ten seeds of the default
fig3, 20% of points fell outside it instead of 5%). The check uses
``sqrt(ber / n_trials)`` instead, a bound that holds for any estimator
that averages a per-trial error fraction in [0, 1] over independent
trials, since such a fraction has variance at most its mean.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path
from statistics import NormalDist, median

Z95 = 1.959963984540054
FAMILY_WISE_ALPHA = 1e-4

# ExperimentConfig.max_trials, which no workload overrides
MAX_TRIALS = 10_000_000


def read_points(path: Path) -> dict[tuple, dict]:
    """Sweep CSV rows keyed by (scheme, modulation, metric, gamma0_db)."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {
        (r["scheme"], r["modulation"], r["metric"], float(r["gamma0_db"])): r for r in rows
    }


def critical_z(n_points: int, alpha: float = FAMILY_WISE_ALPHA) -> float:
    """Two-sided Bonferroni threshold for ``n_points`` comparisons."""
    return NormalDist().inv_cdf(1.0 - alpha / (2.0 * max(n_points, 1)))


def standard_error(point: dict) -> float:
    if point["metric"] == "ber":
        return math.sqrt(float(point["value"]) / int(point["n_trials"]))
    return float(point["ci_half_width"]) / Z95


def point_failure(point: dict, ref: dict, z: float, min_trials: int) -> str | None:
    """Why one sweep point fails the check, or None if it passes."""
    value = float(point["value"])
    half = float(point["ci_half_width"])
    if not (math.isfinite(value) and math.isfinite(half)):
        return "value or CI not finite"
    if point["metric"] == "ber" and not 0.0 <= value <= 1.0:
        return f"BER {value} outside [0, 1]"
    n_trials = int(point["n_trials"])
    if n_trials < min_trials and n_trials != MAX_TRIALS:
        return f"n_trials {n_trials} below {min_trials} without reaching the cap"
    sigma = math.hypot(standard_error(point), standard_error(ref))
    gap = abs(value - float(ref["value"]))
    if gap > z * sigma:
        return f"differs from reference by {gap:.4g}, more than {z:.2f} sigma = {z * sigma:.4g}"
    return None


def check_sweeps(
    out_dir: Path, ref_dir: Path, sweeps: tuple[str, ...], min_trials: int
) -> tuple[int, list[str]]:
    """Check every reference point of the named sweeps in ``out_dir``.

    Returns (points attempted, failure messages); a missing point or
    file fails every point the reference has for it.
    """
    pairs = []
    for name in sweeps:
        ref = read_points(ref_dir / f"{name}.csv")
        path = out_dir / f"{name}.csv"
        got = read_points(path) if path.is_file() else {}
        pairs += [(name, key, got.get(key), ref_point) for key, ref_point in ref.items()]
    z = critical_z(len(pairs))
    failures = []
    for name, key, point, ref_point in pairs:
        reason = "missing" if point is None else point_failure(point, ref_point, z, min_trials)
        if reason is not None:
            failures.append(f"{name} {key}: {reason}")
    return len(pairs), failures


def ci_rel_halfwidth_p50(out_dir: Path, sweeps: tuple[str, ...]) -> float:
    """Median over sweep points of CI half-width / value, taken per sweep
    file; the least accurate file's median is returned."""
    medians = []
    for name in sweeps:
        points = read_points(out_dir / f"{name}.csv").values()
        medians.append(
            median(float(p["ci_half_width"]) / float(p["value"]) for p in points if float(p["value"]) > 0)
        )
    return max(medians)


def sha256_by_file(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.glob("*.csv"))
    }


def sweep_points(out_dir: Path, sweeps: tuple[str, ...]) -> list[dict]:
    return [p for name in sweeps for p in read_points(out_dir / f"{name}.csv").values()]

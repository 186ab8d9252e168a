"""Experiment runner: seeded sweeps, table/figure data files, manifests.

Every run writes CSV files plus a ``manifest.json`` holding the config,
its content hash, the SHA-256 of each data file, the wall time of each
runner, the python, numpy and scipy versions and each runner's
telemetry. All randomness flows through :func:`beamlink.rng.substream`
keyed by (purpose, indices, block), so reruns with the same config and
seed produce byte-identical CSV output.

Sweeps run in fixed-size trial blocks, and every point of a sweep sees
the same channel draws. fig2 and fig3 draw block b's channels once from
their own substream, run one greedy selection on them if a blockwise
scheme needs it and form ``F^H h`` once per scheme. fig3's bits and
noise come from a second stream per (scheme, SNR, block), so a point's
result does not depend on which other points are still running, and
its stopping rule only decides how many blocks it joins. Each block is
one call of each batched layer kernel; the harness holds no copy of
their math.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from numbers import Real
from pathlib import Path

import numpy as np
import scipy

from . import analysis, beamformer, channel, phase_opt, stbc
from .rng import substream

# substream purpose tags
_PURPOSE_FIG1 = 1
_PURPOSE_FIG2 = 2
_PURPOSE_FIG3 = 3
_PURPOSE_BPSK_CHECK = 4
_PURPOSE_CONDITIONAL = 5
_PURPOSE_FIG3_CHANNEL = 6

TRIAL_BLOCK = 16384

CSV_HEADER = "scheme,modulation,metric,gamma0_db,value,ci_half_width,n_trials"

DEFAULT_SNR_GRID_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
# no physical link lies beyond this; near 3080 dB, 10**(snr/10) overflows a float
MAX_ABS_SNR_DB = 300.0


@dataclass
class ExperimentConfig:
    """Sweep configuration; defaults match the reference simulation setup
    (4 transmit antennas, 1 receive antenna, 2 time slots / RF chains,
    3 paths, half-wavelength spacing, 64-QAM).

    The link is MISO with unit noise variance, so the SNR axis
    gamma0 = P / sigma^2 alone sets the operating point, and the
    narrow-band steering depends only on ``spacing_over_wavelength``.
    """

    n_antennas: int = 4
    n_rf: int = 2
    n_paths: int = 3
    snr_grid_db: tuple[float, ...] = DEFAULT_SNR_GRID_DB
    modulation: int = 64
    schemes: tuple[str, ...] = beamformer.SCHEMES
    channel_kind: str = channel.MMWAVE
    trials: int = 100_000
    target_errors: int = 100
    max_trials: int = 10_000_000
    seed: int = 0
    normalization: str = stbc.NORM_EQ1
    include_array_gain: bool = True
    spacing_over_wavelength: float = 0.5
    theta_points: int = 721

    def __post_init__(self) -> None:
        snrs = _items("snr_grid_db", self.snr_grid_db, Real, "numbers")
        self.snr_grid_db = tuple(float(v) for v in snrs)
        self.schemes = _items("schemes", self.schemes, str, "scheme names")
        self.validate()

    @property
    def q(self) -> int:
        return int(np.log2(self.n_antennas))

    @property
    def steering(self) -> channel.SteeringConfig:
        return channel.SteeringConfig(spacing_over_wavelength=self.spacing_over_wavelength)

    def validate(self) -> None:
        for name in (
            "n_antennas", "n_rf", "n_paths", "modulation",
            "trials", "max_trials", "target_errors", "seed", "theta_points",
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        n = self.n_antennas
        if n < 2 or n & (n - 1):
            raise ValueError("n_antennas must be a power of two, at least 2")
        if self.n_rf != n // 2:
            raise ValueError(f"n_rf must equal n_antennas / 2 = {n // 2}, got {self.n_rf}")
        if not isinstance(self.include_array_gain, bool):
            raise ValueError(f"include_array_gain must be a bool, got {self.include_array_gain!r}")
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must be nonempty")
        if not all(abs(v) <= MAX_ABS_SNR_DB for v in self.snr_grid_db):
            raise ValueError(f"snr_grid_db values must lie within +-{MAX_ABS_SNR_DB:g} dB")
        if any(b <= a for a, b in zip(self.snr_grid_db, self.snr_grid_db[1:])):
            raise ValueError("snr_grid_db must be strictly increasing")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.max_trials < 1:
            raise ValueError("max_trials must be at least 1")
        if self.target_errors < 0:
            raise ValueError("target_errors must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.theta_points < 361:
            raise ValueError("theta_points must be at least 361")
        # raises a ValueError naming spacing_over_wavelength unless finite and positive
        channel.SteeringConfig(self.spacing_over_wavelength)
        if self.modulation not in stbc.SUPPORTED_ORDERS:
            raise ValueError(f"unsupported modulation order {self.modulation}")
        if not self.schemes:
            raise ValueError("schemes must be nonempty")
        unknown = set(self.schemes) - set(beamformer.SCHEMES)
        if unknown:
            raise ValueError(f"unknown schemes: {sorted(unknown)}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ValueError(f"schemes must not repeat, got {list(self.schemes)}")
        if self.channel_kind not in channel.CHANNEL_KINDS:
            raise ValueError(f"unknown channel_kind {self.channel_kind!r}")
        if self.normalization not in stbc.NORM_MODES:
            raise ValueError(f"unknown normalization mode {self.normalization!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        text = Path(path).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"config file {path}: expected a JSON object, got malformed JSON ({exc})"
            ) from exc
        if not isinstance(data, dict):
            raise ValueError(
                f"config file {path}: expected a JSON object, got {type(data).__name__}"
            )
        return cls.from_dict(data)

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _items(name: str, value, kind: type, what: str) -> tuple:
    """``value`` as a tuple, if it is a list, tuple or array of ``kind`` (not bool)."""
    if not isinstance(value, (list, tuple, np.ndarray)) or not all(
        isinstance(v, kind) and not isinstance(v, bool) for v in value
    ):
        raise ValueError(f"{name} must be a list of {what}, got {value!r}")
    return tuple(value)


# ---------------------------------------------------------------------------
# per-block pipeline over the layer kernels


def _blocks(total: int, seed: int, *key: int):
    """Yield ``(n, rng)`` for the trial blocks that cover ``total`` trials.

    Every block holds ``TRIAL_BLOCK`` trials except a shorter last one,
    and block b draws from ``substream(seed, *key, b)`` however many
    blocks a caller consumes.
    """
    for b, start in enumerate(range(0, total, TRIAL_BLOCK)):
        yield min(TRIAL_BLOCK, total - start), substream(seed, *key, b)


def _sample_channels(cfg: ExperimentConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    if cfg.channel_kind == channel.MMWAVE:
        return channel.sample_mmwave_batch(n, cfg.n_paths, cfg.n_antennas, cfg.steering, rng)
    return channel.sample_rayleigh_batch(n, cfg.n_antennas, rng)


def _batch_greedy_phases(h: np.ndarray, q: int) -> np.ndarray:
    """``(phi1, phi2)`` per row of ``h``: the ``phi`` of :func:`phase_opt.greedy_bpr_phases`."""
    return phase_opt.greedy_bpr_phases(h, q)[0]


def _selected_phases(
    schemes: tuple[str, ...], h: np.ndarray, cfg: ExperimentConfig
) -> np.ndarray | tuple[()]:
    """Greedy ``(phi1, phi2)`` per row of ``h`` if any of ``schemes`` is
    blockwise, else ``()``. The selection does not depend on the golden
    variant, so one serves every blockwise scheme on the same rows."""
    if any(scheme in beamformer.BPR_SCHEMES for scheme in schemes):
        return _batch_greedy_phases(h, cfg.q)
    return ()


def _batch_equivalent_channels(
    scheme: str, h: np.ndarray, cfg: ExperimentConfig, phases: np.ndarray | tuple[()]
) -> np.ndarray:
    """Per-row equivalent channels ``F^H h``; the blockwise schemes use the
    per-row ``phases`` from :func:`_selected_phases`."""
    if scheme in beamformer.BPR_SCHEMES:
        variant = beamformer.golden_variant(scheme)
        return beamformer.bpr_equivalent_channels(cfg.q, variant, h, *phases)
    return beamformer.equivalent_channel(beamformer.build(scheme, cfg.q), h)


def _ber_block(
    h_eq: np.ndarray, points: np.ndarray, amplitude: float, rng: np.random.Generator
) -> int:
    """Simulate one block of codewords over the given equivalent channels
    at unit noise variance and return the bit error count."""
    k = stbc.bits_per_symbol(points)
    bits = rng.integers(0, 2, (h_eq.shape[0], 2 * k), dtype=np.uint8)
    sent = stbc.label_index(bits.reshape(-1, 2, k))
    s = stbc.alamouti_codeword(points[sent[:, 0]], points[sent[:, 1]])
    y = stbc.transmit_receive(s, h_eq, rng, amplitude)
    decoded = stbc.decode_alamouti(y, h_eq, points, amplitude)
    return int(stbc.hamming_distance(sent, decoded).sum())


@dataclass
class BerPoint:
    """Stopping-rule Monte-Carlo tally of one fig3 (scheme, SNR) point."""

    scheme_idx: int
    snr_idx: int
    scheme: str
    gamma0_db: float
    blocks: int = 0
    trials: int = 0
    bit_errors: int = 0
    # "target" once trials and target_errors are both met, "cap" if max_trials came first
    stop: str | None = None
    ber: float = float("nan")
    half_width: float = float("nan")


def ber_grid(
    cfg: ExperimentConfig, cells: list[tuple[int, int, float]] | None = None
) -> tuple[list[BerPoint], int]:
    """Run the stopping-rule Monte Carlo for fig3 points on shared channels.

    ``cells`` lists ``(scheme_idx, snr_idx, gamma0_db)``; by default every
    scheme at every SNR of ``cfg``, scheme-major. Block b draws its
    channels once from ``(seed, FIG3_CHANNEL, b)``, runs one greedy
    selection if a still-active scheme is blockwise and forms ``F^H h``
    once per active scheme. Each active point then runs the block on its
    own stream ``(seed, FIG3, scheme_idx, snr_idx, b)``. A point leaves
    after the block that meets both the minimum trial count and the
    target error count, or at the trial cap; at least one block runs.

    Returns the points, with their Wilson half-widths, and the number of
    channel blocks drawn.
    """
    _check_fig3(cfg)
    points = stbc.make_constellation(cfg.modulation)
    if cells is None:
        cells = [
            (si, gi, g)
            for si in range(len(cfg.schemes))
            for gi, g in enumerate(cfg.snr_grid_db)
        ]
    grid = [BerPoint(si, gi, cfg.schemes[si], g) for si, gi, g in cells]
    # (point, link amplitude) for each point still running
    active = [(p, _link_amplitude(cfg, p.scheme, p.gamma0_db)) for p in grid]
    n_blocks = 0
    for b, (n, rng) in enumerate(_blocks(cfg.max_trials, cfg.seed, _PURPOSE_FIG3_CHANNEL)):
        h = _sample_channels(cfg, n, rng)
        n_blocks += 1
        schemes = tuple(dict.fromkeys(p.scheme for p, _ in active))
        phases = _selected_phases(schemes, h, cfg)
        for scheme in schemes:
            h_eq = _batch_equivalent_channels(scheme, h, cfg, phases)
            for p, amp in active:
                if p.scheme != scheme:
                    continue
                block_rng = substream(cfg.seed, _PURPOSE_FIG3, p.scheme_idx, p.snr_idx, b)
                p.bit_errors += _ber_block(h_eq, points, amp, block_rng)
                p.trials += n
                p.blocks += 1
                if p.trials >= cfg.trials and p.bit_errors >= cfg.target_errors:
                    p.stop = "target"
        active = [(p, amp) for p, amp in active if p.stop is None]
        if not active:
            break
    bits_per_cw = 2 * stbc.bits_per_symbol(points)
    for p in grid:
        p.stop = p.stop or "cap"
        n_bits = p.trials * bits_per_cw
        lo, hi = analysis.wilson_interval(p.bit_errors, n_bits)
        p.ber, p.half_width = p.bit_errors / n_bits, (hi - lo) / 2.0
    return grid, n_blocks


def _link_amplitude(cfg: ExperimentConfig, scheme: str, gamma0_db: float) -> float:
    return stbc.link_amplitude(
        10.0 ** (gamma0_db / 10.0), beamformer.kappa(scheme, cfg.q), cfg.normalization,
        cfg.include_array_gain, cfg.n_antennas, cfg.n_paths,
    )


def _ber_point(
    cfg: ExperimentConfig, scheme_idx: int, snr_idx: int, gamma0_db: float
) -> tuple[float, float, int]:
    """One (scheme, SNR) point of :func:`ber_grid`, on the same draws.

    Returns (ber, wilson_half_width, codeword_trials), equal bit for bit
    to that point's row of the whole grid.
    """
    (p,), _ = ber_grid(cfg, [(scheme_idx, snr_idx, gamma0_db)])
    return p.ber, p.half_width, p.trials


# ---------------------------------------------------------------------------
# output plumbing


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, header: str, rows: list[tuple]) -> None:
    lines = [header]
    lines += [",".join(_format(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class SweepResult:
    """Rows produced by one runner plus the file it was written to."""

    name: str
    path: Path
    rows: list[tuple]
    notes: list[str] = field(default_factory=list)
    telemetry: dict = field(default_factory=dict)


def write_manifest(
    out_dir: Path,
    cfg: ExperimentConfig,
    results: list[SweepResult],
    wall_s: float,
    runner_wall_s: dict[str, float],
) -> Path:
    manifest = {
        "config": cfg.to_dict(),
        "config_sha256": cfg.content_hash(),
        "files": {r.path.name: _sha256(r.path) for r in results},
        "notes": {r.name: r.notes for r in results if r.notes},
        "runner_wall_s": runner_wall_s,
        "telemetry": {r.name: r.telemetry for r in results if r.telemetry},
        "versions": {
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "wall_time_s": wall_s,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# runners


def run_table1(cfg: ExperimentConfig, out_dir: str | Path) -> SweepResult:
    """Per-entry power factor of every scheme at the configured q."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    q = cfg.q
    rows = []
    for scheme in beamformer.SCHEMES:
        xi_val = (
            beamformer.xi(q, beamformer.golden_variant(scheme).n_root)
            if scheme in beamformer.BPR_SCHEMES
            else None
        )
        rows.append((scheme, q, beamformer.kappa(scheme, q), xi_val))
    path = out_dir / "table1.csv"
    _write_csv(path, "scheme,q,kappa,xi", rows)
    return SweepResult(name="table1", path=path, rows=rows)


def run_fig1(cfg: ExperimentConfig, out_dir: str | Path) -> SweepResult:
    """Beamspace gain of every beamformer column over a departure grid.

    The blockwise schemes are channel dependent; their patterns use the
    greedy selection for one seeded channel draw, recorded in the notes.
    One selection serves both blockwise schemes, as in fig2.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    theta = np.linspace(-np.pi / 2, np.pi / 2, cfg.theta_points)
    h = _sample_channels(cfg, 1, substream(cfg.seed, _PURPOSE_FIG1))
    phases = _selected_phases(cfg.schemes, h, cfg)
    rows = []
    notes = ["blockwise patterns use greedy phases for one seeded channel draw"]
    for scheme in cfg.schemes:
        bf = beamformer.build(scheme, cfg.q, *(phi[0] for phi in phases))
        gains, spread = analysis.beamspace_pattern(bf, theta, cfg.steering)
        rows += [
            (scheme, k, float(t), float(g), float(spread[k]))
            for k in range(bf.shape[1])
            for t, g in zip(theta, gains[:, k])
        ]
    path = out_dir / "fig1.csv"
    _write_csv(path, "scheme,column,theta_rad,gain,spread_rad", rows)
    return SweepResult(name="fig1", path=path, rows=rows, notes=notes)


def run_fig2(cfg: ExperimentConfig, out_dir: str | Path) -> SweepResult:
    """Average spectral efficiency of each scheme over the SNR grid.

    One common set of channel realizations is shared by all schemes
    (paired comparison); each realization gets one greedy phase
    selection, shared by both blockwise schemes. The confidence half
    width is 1.96 sigma of the sample mean.
    """
    quad_forms = quadratic_forms(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    eff_scale = cfg.n_antennas / cfg.n_paths if cfg.include_array_gain else 1.0
    rows = []
    for scheme in cfg.schemes:
        qf = quad_forms[scheme]
        for gamma0_db in cfg.snr_grid_db:
            gamma0 = 10.0 ** (gamma0_db / 10.0)
            rates = analysis.spectral_efficiency(qf, gamma0 * eff_scale)
            half = 1.959963984540054 * rates.std(ddof=1) / np.sqrt(rates.size)
            rows.append(
                (scheme, None, "spectral_efficiency_bits", gamma0_db,
                 float(rates.mean()), float(half), int(rates.size))
            )
    path = out_dir / "fig2.csv"
    _write_csv(path, CSV_HEADER, rows)
    notes = [f"include_array_gain={cfg.include_array_gain} (rate uses P*{eff_scale:g})"]
    return SweepResult(name="fig2", path=path, rows=rows, notes=notes)


def quadratic_forms(cfg: ExperimentConfig) -> dict[str, np.ndarray]:
    """fig2's ``||F^H h||^2`` per realization for each scheme, on the
    ``trials`` channel draws that every scheme shares."""
    _check_fig2(cfg)
    quad_forms: dict[str, np.ndarray] = {s: np.empty(cfg.trials) for s in cfg.schemes}
    done = 0
    for n, rng in _blocks(cfg.trials, cfg.seed, _PURPOSE_FIG2):
        h = _sample_channels(cfg, n, rng)
        phases = _selected_phases(cfg.schemes, h, cfg)
        for scheme in cfg.schemes:
            h_eq = _batch_equivalent_channels(scheme, h, cfg, phases)
            quad_forms[scheme][done : done + n] = np.sum(np.abs(h_eq) ** 2, axis=1)
        done += n
    return quad_forms


def monotonicity_notes(scheme: str, curve: list[tuple[float, float, float]]) -> list[str]:
    """Flag adjacent (snr_db, ber, half_width) points whose increase
    exceeds the combined confidence."""
    notes = []
    for (d0, b0, h0), (d1, b1, h1) in zip(curve, curve[1:]):
        if b1 - h1 > b0 + h0:
            notes.append(f"non-monotone beyond confidence: {scheme} {d0:g}->{d1:g} dB")
    return notes


def _check_fig2(cfg: ExperimentConfig) -> None:
    # the confidence half width is a sample standard deviation
    if cfg.trials < 2:
        raise ValueError(f"fig2 requires trials >= 2 realizations, got {cfg.trials}")


def _check_fig3(cfg: ExperimentConfig) -> None:
    # Alamouti needs 2 RF chains, and every beamformer has n_antennas / 2 columns
    if cfg.n_antennas != 4:
        raise ValueError(f"fig3 requires n_antennas=4 (2 RF chains), got {cfg.n_antennas}")
    # a point stops at max_trials, so a lower cap would cut its minimum trials short
    if cfg.trials > cfg.max_trials:
        raise ValueError(
            f"fig3 requires max_trials >= trials = {cfg.trials}, got {cfg.max_trials}"
        )


def run_fig3(cfg: ExperimentConfig, out_dir: str | Path) -> SweepResult:
    """Monte-Carlo bit error rate of each scheme over the SNR grid, on
    channel draws shared by every point (:func:`ber_grid`)."""
    grid, n_blocks = ber_grid(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [
        (p.scheme, cfg.modulation, "ber", p.gamma0_db, p.ber, p.half_width, p.trials)
        for p in grid
    ]
    notes = [f"normalization={cfg.normalization}"]
    for scheme in cfg.schemes:
        curve = [(p.gamma0_db, p.ber, p.half_width) for p in grid if p.scheme == scheme]
        notes.extend(monotonicity_notes(scheme, curve))
    telemetry = {
        "channel_blocks": n_blocks,
        "points": [
            {
                k: getattr(p, k)
                for k in ("scheme", "gamma0_db", "blocks", "trials", "bit_errors", "stop")
            }
            for p in grid
        ],
    }
    path = out_dir / "fig3.csv"
    _write_csv(path, CSV_HEADER, rows)
    return SweepResult(name="fig3", path=path, rows=rows, notes=notes, telemetry=telemetry)


def run_recorded(
    cfg: ExperimentConfig,
    out_dir: str | Path,
    runners: tuple[Callable[[ExperimentConfig, Path], SweepResult], ...],
) -> list[SweepResult]:
    """Run ``runners`` in order into ``out_dir``, then write the config
    snapshot and a manifest with the wall time of each runner."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    results = []
    runner_wall_s = {}
    for runner in runners:
        runner_start = time.perf_counter()
        results.append(runner(cfg, out_dir))
        runner_wall_s[results[-1].name] = time.perf_counter() - runner_start
    cfg.to_json(out_dir / "config.json")
    write_manifest(out_dir, cfg, results, time.perf_counter() - start, runner_wall_s)
    return results


def run_all(cfg: ExperimentConfig, out_dir: str | Path) -> list[SweepResult]:
    _check_fig2(cfg)
    _check_fig3(cfg)
    return run_recorded(cfg, out_dir, (run_table1, run_fig1, run_fig2, run_fig3))


# ---------------------------------------------------------------------------
# validation utilities


def measure_gap_db(
    curve_a: list[tuple[float, float]],
    curve_b: list[tuple[float, float]],
    target_ber: float,
) -> float:
    """Horizontal distance (dB) between two BER curves at a target level.

    Each curve is a list of (gamma0_db, ber) points; the crossing SNR is
    found by linear interpolation of log10(ber) against dB. Positive
    output means curve_a reaches the target at a lower SNR than curve_b.
    """
    return _crossing_snr(curve_b, target_ber) - _crossing_snr(curve_a, target_ber)


def _crossing_snr(curve: list[tuple[float, float]], target: float) -> float:
    pts = sorted((snr, ber) for snr, ber in curve if ber > 0)
    log_t = np.log10(target)
    for (s0, b0), (s1, b1) in zip(pts, pts[1:]):
        l0, l1 = np.log10(b0), np.log10(b1)
        if (l0 - log_t) * (l1 - log_t) <= 0 and l0 != l1:
            return s0 + (s1 - s0) * (l0 - log_t) / (l0 - l1)
    raise ValueError(f"curve does not cross BER {target}")


def simulate_bpsk_rayleigh_ber(
    gamma_bar_db: float, n_trials: int, seed: int = 0
) -> tuple[float, float, float, int]:
    """Monte-Carlo BPSK error rate over a scalar Rayleigh channel.

    Each trial sends one symbol through stbc's link, ``y = A h s + z``,
    and detects it from ``conj(h) y``; ``A = sqrt(gamma_bar / 2)`` makes
    that statistic's SNR exponential with mean ``gamma_bar``, matching
    the closed form :func:`beamlink.analysis.mgf_ber_bpsk`. Returns
    (ber, wilson_lo, wilson_hi, n_trials).
    """
    points = stbc.make_constellation(2)
    amplitude = np.sqrt(10.0 ** (gamma_bar_db / 10.0) / 2.0)
    errors = 0
    for n, rng in _blocks(n_trials, seed, _PURPOSE_BPSK_CHECK):
        h = channel.sample_rayleigh_batch(n, 1, rng)
        sent = rng.integers(0, 2, n)
        # transmit_receive applies conj of its channel argument
        y = stbc.transmit_receive(points[sent][:, None, None], h.conj(), rng, amplitude)
        detected = stbc.demap(h.conj() * y, points)
        errors += int(stbc.hamming_distance(sent, detected[:, 0]).sum())
    lo, hi = analysis.wilson_interval(errors, n_trials)
    return errors / n_trials, lo, hi, n_trials


def simulate_conditional_ber(
    h_eq: np.ndarray, points: np.ndarray, amplitude: float, n_trials: int, seed: int = 0
) -> tuple[int, int]:
    """Error count for a fixed equivalent channel and link amplitude
    (noise-only randomness).

    Returns (bit_errors, total_bits); used to compare simulation against
    the conditional union bound.
    """
    errors = 0
    for n, rng in _blocks(n_trials, seed, _PURPOSE_CONDITIONAL):
        h_rows = np.broadcast_to(np.asarray(h_eq), (n, 2))
        errors += _ber_block(h_rows, points, amplitude, rng)
    return errors, n_trials * 2 * stbc.bits_per_symbol(points)

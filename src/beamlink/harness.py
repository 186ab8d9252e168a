"""Experiment runner: seeded sweeps, table/figure data files, manifests.

Every run writes CSV files plus a ``manifest.json`` holding the config,
its content hash, the SHA-256 of each data file, the wall time of each
runner, the python and numpy versions and each runner's telemetry. All
randomness flows through :func:`beamlink.rng.substream` keyed by
(purpose, indices, block), so reruns with the same config and seed
produce byte-identical CSV output.

Sweeps run in fixed-size trial blocks, and every point of a sweep sees
the same channel draws. fig2 and fig3 draw block b's channels once from
their own substream, as a function of a row slice
(:func:`_sample_channels`): a geometric block keeps only its paths, and
the rows of a slice are formed from that slice's paths
(:func:`channel.plane_wave_sums`); a Rayleigh block's rows are its
draws. One block stage, :func:`_block_gains`, reduces the block to
``||F^H h||^2`` per row and scheme, in row tiles, and writes the gains
into arrays its caller passes: it forms one tile's rows, runs one
greedy selection on them if a blockwise scheme needs it, then ``F^H h``
once per scheme. The greedy hands its grid indices to the rotated sum
(:func:`beamformer.bpr_rotated_sum`), and the two blockwise schemes
differ only in a scalar, so one rotated sum per tile serves both. The
stage never holds a block of ``F^H h``, nor a block of geometric
channel rows; each tile is released before the next is formed, and
each block before the next is drawn. Every ``F^H h`` is summed antenna
by antenna, so no BLAS call runs in the block loop. fig2's stage also
writes each row's ``||h||^2``, the control of its regression estimate,
and :func:`quadratic_forms` returns it beside the gains (:func:`run_fig2`).
No BLAS worker thread spins beside it either: the package root,
``beamlink/__init__.py``, loads numpy with one OpenBLAS thread unless
the caller sets a count, and the manifest records the process's thread
count (``process_threads``).

fig3's link needs nothing of a row but its gain: Alamouti combining
turns each symbol into ``s + z / (A ||F^H h||)`` with unit noise ``z``,
whatever ``F^H h`` is. So block b makes one draw of bits and unit noise
from a second stream, and that draw serves every point, of every scheme
and SNR, at the point's own gain and link amplitude. It is kept with
each symbol's reach (:func:`stbc.noise_reach`), so a point demaps only
the symbols that its gain and amplitude let the noise carry to a
decision boundary. The points are therefore correlated, while each
point's interval holds on its own. A point's result does not depend on
which other points are still running, and its stopping rule only
decides how many blocks it joins. Each fig3 block and each stage tile
is one call of each batched layer kernel; the harness holds no copy of
their math.

fig3 draws a block's link before its stage, so the stage runs the
greedy only on rows that a blockwise decision can read. Unit rotations
give ``|r1 a_k + r2 b_k| >= ||a_k| - |b_k||`` for the Sylvester sums
``a = h_top W`` and ``b = h_bot W``, so ``F = sum_k (|a_k| - |b_k|)^2``
bounds every rotated sum from below (:func:`beamformer.bpr_floor`, which
forms the sums, as the rotated sum does). A row whose floor, less
margins that exceed its rounding and the 1e-9 edge of the reach rule by
more than 10^3, clears its largest reach
squared over the smallest ``A^2 |bpr_scale|^2`` among the running
blockwise points is demapped by none of them. Its blockwise gains read
``+inf``, which the reach rule skips as it would the true gains, so
every output keeps its bits (:func:`_block_gains`, :func:`_gain_limits`).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields, replace
from numbers import Real
from pathlib import Path

import numpy as np

from . import analysis, beamformer, channel, phase_opt, stbc
from .rng import substream

# substream purpose tags
_PURPOSE_FIG1 = 1
_PURPOSE_FIG2 = 2
_PURPOSE_FIG3 = 3
# 4 and 5 key the reference simulators of tests/reference_sims.py
_PURPOSE_FIG3_CHANNEL = 6

TRIAL_BLOCK = 16384
# channel entries in one row tile of the block stage of fig2 and fig3:
# 2048 rows at N = 16, 8192 at N = 4
_STAGE_ENTRIES = 2**15

CSV_HEADER = "scheme,modulation,metric,gamma0_db,value,ci_half_width,n_trials"

DEFAULT_SNR_GRID_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
# departure angles of fig1's grid over [-pi/2, pi/2]: a quarter-degree step
FIG1_ANGLES = 721
# no physical link lies beyond this; near 3080 dB, 10**(snr/10) overflows a float
MAX_ABS_SNR_DB = 300.0

_INT_FIELDS = (
    "n_antennas", "n_rf", "n_paths", "modulation", "trials", "max_trials", "target_errors", "seed",
)


@dataclass
class ExperimentConfig:
    """Sweep configuration; defaults match the reference simulation setup
    (4 transmit antennas, 1 receive antenna, 2 time slots / RF chains,
    3 paths, 64-QAM).

    The link is MISO with unit noise variance, so the SNR axis
    gamma0 = P / sigma^2 alone sets the operating point. The array is
    half-wavelength (:data:`channel.SPACING`), fig1 evaluates
    :data:`FIG1_ANGLES` angles, and the eq1 link and fig2's rate carry
    the array gain ``N_t / L``; none of these is a field.
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

    def __post_init__(self) -> None:
        snrs = _items("snr_grid_db", self.snr_grid_db, Real, "numbers")
        self.snr_grid_db = tuple(float(v) for v in snrs)
        self.schemes = _items("schemes", self.schemes, str, "scheme names")
        self.validate()
        # a numpy integer would pass validate but not json.dumps
        for name in _INT_FIELDS:
            setattr(self, name, int(getattr(self, name)))

    @property
    def q(self) -> int:
        return int(np.log2(self.n_antennas))

    def validate(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        n = self.n_antennas
        if n < 2 or n & (n - 1):
            raise ValueError("n_antennas must be a power of two, at least 2")
        if self.n_rf != n // 2:
            raise ValueError(f"n_rf must equal n_antennas / 2 = {n // 2}, got {self.n_rf}")
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


def _sample_channels(
    cfg: ExperimentConfig, n: int, rng: np.random.Generator
) -> Callable[[slice], np.ndarray]:
    """Draw ``n`` channels from ``rng`` and return their rows as a function
    of a row slice: a geometric block keeps only its paths and forms a
    slice's rows from them (:func:`channel.plane_wave_sums`), a Rayleigh
    block slices its drawn rows."""
    if cfg.channel_kind == channel.MMWAVE:
        gains, angles = channel.sample_mmwave_batch(n, cfg.n_paths, rng)
        return lambda rows: channel.plane_wave_sums(gains[rows], angles[rows], cfg.n_antennas)
    h = channel.sample_rayleigh_batch(n, cfg.n_antennas, rng)
    return lambda rows: h[rows]


def _batch_greedy_phases(h: np.ndarray, q: int) -> np.ndarray:
    """``(idx1, idx2)`` per row of ``h``: :func:`phase_opt.greedy_bpr_indices`."""
    return phase_opt.greedy_bpr_indices(h, q)


def _batch_equivalent_channels(
    scheme: str, h: np.ndarray, cfg: ExperimentConfig, rotated: np.ndarray | None
) -> np.ndarray:
    """Per-row equivalent channels ``F^H h``; the blockwise schemes scale
    ``rotated``, the rows' :func:`beamformer.bpr_rotated_sum`."""
    if scheme in beamformer.BPR_SCHEMES:
        return beamformer.bpr_scale(scheme, cfg.q) * rotated
    return beamformer.equivalent_channel(beamformer.build(scheme, cfg.q), h)


# relative margin of fig3's gate (_block_gains): it absorbs the 1e-9 edge
# of _ber_block and the rounding of the gains, the limits and the edges
_GAIN_MARGIN = 1e-5


def _block_gains(
    cfg: ExperimentConfig,
    channels: Callable[[slice], np.ndarray],
    gains: dict[str, np.ndarray],
    limit: np.ndarray | None = None,
    energy: np.ndarray | None = None,
) -> None:
    """The block stage of fig2 and fig3: for each scheme in ``gains``,
    writes ``||F^H h||^2`` per row of one block into ``gains[scheme]``, an
    array of the block's length that the caller passes.

    ``channels`` gives the rows of a row slice of the block
    (:func:`_sample_channels`). The block runs in row tiles of
    ``_STAGE_ENTRIES`` channel entries (2048 rows at N = 16, 8192 at
    N = 4), and only the current tile's rows are ever formed. If any
    scheme is blockwise, one greedy selection and one
    :func:`beamformer.bpr_rotated_sum` run on each tile; neither depends
    on the golden variant, so they serve every blockwise scheme. Each
    scheme's ``F^H h`` is reduced to its squared row norms at once, so no
    stage output but the gains is ever held for a whole block. Every
    kernel of the stage works row by row, so no bit of the result depends
    on the tiling.

    fig3 passes a ``limit`` per row (:func:`_gain_limits`): an unscaled
    ``||rotated sum||^2`` above which no running blockwise point can
    demap the row. Each tile then skips each row whose limit lies below
    ``(1 - 1e-5)`` times its :func:`beamformer.bpr_floor`, a floor under
    the computed ``||rotated sum||^2`` whatever the greedy picks. The
    greedy and the rotated sum run on a gathered copy of the other rows,
    still one call each per tile, with no rows if none is left; the
    rotated sum forms their Sylvester sums again, with the bits the floor
    read. The blockwise gains of a skipped row are left as the caller
    set them, and fig3 sets ``+inf``; every other gain keeps its bits.
    The margin ``1e-5`` exceeds the ``2e-9`` that ``_ber_block``'s 1e-9
    edge takes off a squared gain by 5000 times, and the rounding of the
    scaled gains, of the limits and of the edges, a few ``u = 2**-53``,
    by far more. So a skipped row's symbols lie strictly inside their
    cells at every running blockwise point, as with a gain of ``+inf``:
    its count is 0 either way. fig2 passes no limit and computes every
    row.

    fig2 also passes ``energy``, an array of the block's length, and each
    tile writes its rows' ``||h||^2`` into it (:func:`_row_energy`) while
    the rows are live, so the channel is still formed once per tile; fig3
    passes none.
    """
    n = len(next(iter(gains.values())))
    blockwise = any(scheme in beamformer.BPR_SCHEMES for scheme in gains)
    tile = max(1, _STAGE_ENTRIES // cfg.n_antennas)
    for start in range(0, n, tile):
        rows = slice(start, start + tile)
        part = gated = channels(rows)
        if energy is not None:
            energy[rows] = _row_energy(part)
        near, rotated = slice(None), None
        if blockwise and limit is not None:
            skip = limit[rows] < beamformer.bpr_floor(cfg.q, part) * (1.0 - _GAIN_MARGIN)
            near = np.flatnonzero(~skip)
            gated = part[near]
        if blockwise:
            rotated = beamformer.bpr_rotated_sum(cfg.q, gated, *_batch_greedy_phases(gated, cfg.q))
        for scheme, out in gains.items():
            bpr = scheme in beamformer.BPR_SCHEMES
            h_eq = _batch_equivalent_channels(scheme, gated if bpr else part, cfg, rotated)
            out[rows][near if bpr else slice(None)] = np.sum(np.abs(h_eq) ** 2, axis=1)
        # the tile is released before the next one is formed
        del part, gated, rotated, h_eq


def _row_energy(h: np.ndarray) -> np.ndarray:
    """``||h||^2`` per row of ``h``, summed antenna by antenna, so that no
    bit depends on the number of rows or their layout."""
    out = np.zeros(h.shape[0])
    for m in range(h.shape[1]):
        col = h[:, m]
        out += col.real * col.real
        out += col.imag * col.imag
    return out


def _link_draw(
    n: int, order: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block's link draw for ``n`` codewords of the order-M
    constellation: ``(sent, z, reach)``, each of shape ``(n, 2)``.

    ``rng`` gives the bits of each codeword, then the real and then the
    imaginary parts of its two symbols' unit noise ``z``. ``sent`` holds
    the symbols' label indices, and ``reach`` is :func:`stbc.noise_reach`
    of ``z``. The draw reads no channel: Alamouti combining over any
    ``h_eq = (g1, g2)`` turns the received noise ``(n1, n2)`` into
    ``z / ||h_eq||`` with ``z = U (n1, conj(n2))``, and
    ``U = [[g1, conj(g2)], [g2, -conj(g1)]] / ||h_eq||`` is unitary, so
    ``z`` is unit noise whatever ``h_eq`` is (Alamouti, IEEE JSAC 1998).
    """
    k = stbc.bits_per_symbol(order)
    bits = rng.integers(0, 2, (n, 2 * k), dtype=np.uint8)
    sent = stbc.label_index(bits.reshape(n, 2, k)).astype(np.uint8)
    z = np.empty(sent.shape, dtype=np.complex128)
    np.multiply(rng.standard_normal(sent.shape), np.sqrt(0.5), out=z.real)
    np.multiply(rng.standard_normal(sent.shape), np.sqrt(0.5), out=z.imag)
    return sent, z, stbc.noise_reach(z, order)


def _ber_block(
    h_eq: np.ndarray,
    points: np.ndarray,
    amplitude: float,
    link: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> int:
    """Bit error count of one block of codewords at link ``amplitude`` and
    unit noise variance, given each row's gain ``h_eq = ||F^H h||^2`` and
    the block's :func:`_link_draw` ``link``.

    Combining gives each symbol as ``s + z / (A ||F^H h||)``. Only a
    symbol whose reach is at least ``A ||F^H h||``, less 1e-9 of it for
    the rounding of that sum, is demapped; any other lies strictly
    inside its own decision cell. A row of zero gain decodes to label
    index 0.
    """
    sent, z, reach = link
    edge = amplitude * np.sqrt(h_eq)
    near = np.flatnonzero(reach >= (edge * (1.0 - 1e-9))[:, None])
    sent, z, edge = sent.ravel()[near], z.ravel()[near], edge[near >> 1]
    zero = edge == 0.0
    decided = stbc.demap(points[sent] + z / np.where(zero, 1.0, edge), len(points))
    decided[zero] = 0
    return int(stbc.hamming_distance(sent, decided).sum())


@dataclass
class BerPoint:
    """Stopping-rule Monte-Carlo tally of one fig3 (scheme, SNR) point at its link amplitude."""

    scheme: str
    gamma0_db: float
    amplitude: float
    blocks: int = 0
    trials: int = 0
    bit_errors: int = 0
    # "target" once trials and target_errors are both met, "cap" if max_trials came first
    stop: str | None = None
    ber: float = float("nan")
    half_width: float = float("nan")


def _gain_limits(
    cfg: ExperimentConfig, active: list[BerPoint], reach: np.ndarray
) -> np.ndarray | None:
    """The per-row gate of :func:`_block_gains` for one fig3 block, or
    None if no blockwise point runs: each row's largest symbol ``reach``,
    squared, over the smallest ``A^2 |bpr_scale|^2`` among the ``active``
    blockwise points. A point demaps a symbol only if its reach is at
    least ``A ||F^H h||`` (:func:`_ber_block`), and a blockwise
    ``||F^H h||^2`` is ``|bpr_scale|^2 ||rotated sum||^2``, so no running
    blockwise point demaps a row whose rotated sum clears its limit.
    """
    scales = [
        p.amplitude * p.amplitude * abs(beamformer.bpr_scale(p.scheme, cfg.q)) ** 2
        for p in active
        if p.scheme in beamformer.BPR_SCHEMES
    ]
    if not scales:
        return None
    widest = np.maximum(reach[:, 0], reach[:, 1])
    return widest * widest / min(scales)


def ber_grid(cfg: ExperimentConfig) -> tuple[list[BerPoint], int]:
    """Run the stopping-rule Monte Carlo for every fig3 point of ``cfg``,
    each scheme at each SNR, scheme-major, on shared draws.

    Block b draws its channels once from ``(seed, FIG3_CHANNEL, b)`` and
    one :func:`_link_draw` of bits and unit noise from ``(seed, FIG3,
    b)``. It reduces the channels to each still-active scheme's
    ``||F^H h||^2`` per row (:func:`_block_gains`), and every active
    point, of every scheme, decodes the link draw at its own gain and
    link amplitude (:func:`_ber_block`). So all points share channels,
    bits and noise: they are correlated, while each point's interval
    holds on its own. The link is drawn first, so that the stage can
    skip the greedy on rows that no running blockwise point can demap
    (:func:`_gain_limits`); no count changes.
    A point leaves after the block that meets both the minimum trial
    count and the target error count, or at the trial cap; at least one
    block runs.

    Returns the points, with their Wilson half-widths, and the number of
    channel blocks drawn.
    """
    _check_fig3(cfg)
    points = stbc.make_constellation(cfg.modulation)
    grid = [
        BerPoint(scheme, g, _link_amplitude(cfg, scheme, g))
        for scheme in cfg.schemes
        for g in cfg.snr_grid_db
    ]
    active = grid  # the points still running
    n_blocks = 0
    for b, (n, rng) in enumerate(_blocks(cfg.max_trials, cfg.seed, _PURPOSE_FIG3_CHANNEL)):
        n_blocks += 1
        schemes = tuple(dict.fromkeys(p.scheme for p in active))
        link = _link_draw(n, cfg.modulation, substream(cfg.seed, _PURPOSE_FIG3, b))
        limit = _gain_limits(cfg, active, link[2])
        gains = {scheme: np.full(n, np.inf) for scheme in schemes}
        _block_gains(cfg, _sample_channels(cfg, n, rng), gains, limit)
        for p in active:
            p.bit_errors += _ber_block(gains[p.scheme], points, p.amplitude, link)
            p.trials += n
            p.blocks += 1
            if p.trials >= cfg.trials and p.bit_errors >= cfg.target_errors:
                p.stop = "target"
        active = [p for p in active if p.stop is None]
        if not active:
            break
    bits_per_cw = 2 * stbc.bits_per_symbol(cfg.modulation)
    for p in grid:
        p.stop = p.stop or "cap"
        n_bits = p.trials * bits_per_cw
        lo, hi = analysis.wilson_interval(p.bit_errors, n_bits)
        p.ber, p.half_width = p.bit_errors / n_bits, (hi - lo) / 2.0
    return grid, n_blocks


def radiated_power(cfg: ExperimentConfig, scheme: str) -> float:
    """Power the scheme's codeword radiates per unit symbol energy.

    Every entry of the ``n_antennas x n_rf`` beamformer F has power
    ``kappa``, so ``||F||_F^2 = kappa * n_antennas * n_rf``. Under
    ``eq1`` the codeword is ``F S`` and radiates ``||F||_F^2``; under
    ``eq10`` it is also scaled by ``sqrt(kappa)`` and radiates
    ``kappa ||F||_F^2``.
    """
    kappa = beamformer.kappa(scheme, cfg.q)
    frobenius_sq = kappa * cfg.n_antennas * cfg.n_rf
    return kappa * frobenius_sq if cfg.normalization == stbc.NORM_EQ10 else frobenius_sq


def _link_amplitude(cfg: ExperimentConfig, scheme: str, gamma0_db: float) -> float:
    return stbc.link_amplitude(
        10.0 ** (gamma0_db / 10.0), beamformer.kappa(scheme, cfg.q), cfg.normalization,
        cfg.n_antennas, cfg.n_paths,
    )


def _ber_point(cfg: ExperimentConfig, scheme: str, gamma0_db: float) -> tuple[float, float, int]:
    """One (scheme, SNR) point of :func:`ber_grid`, on the same draws:
    :func:`ber_grid` of ``cfg`` with that scheme and SNR alone.

    Returns (ber, wilson_half_width, codeword_trials), equal bit for bit
    to that point's row of the whole grid.
    """
    (p,), _ = ber_grid(replace(cfg, schemes=(scheme,), snr_grid_db=(gamma0_db,)))
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


def _written(
    out_dir: str | Path, name: str, header: str, rows: list[tuple], **extra
) -> SweepResult:
    """Write ``rows`` under ``header`` to ``<out_dir>/<name>.csv``, making
    the directory if needed, and return them as runner ``name``'s result;
    ``extra`` holds its notes and telemetry."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.csv"
    _write_csv(path, header, rows)
    return SweepResult(name=name, path=path, rows=rows, **extra)


def _process_threads() -> int | None:
    """OS threads of this process (entries of ``/proc/self/task``), or None
    where that directory does not exist."""
    try:
        return len(os.listdir("/proc/self/task"))
    except FileNotFoundError:
        return None


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
        "process_threads": _process_threads(),
        "runner_wall_s": runner_wall_s,
        "telemetry": {r.name: r.telemetry for r in results if r.telemetry},
        "versions": {
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
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
    q = cfg.q
    rows = []
    for scheme in beamformer.SCHEMES:
        xi_val = beamformer.xi(scheme, q) if scheme in beamformer.BPR_SCHEMES else None
        rows.append((scheme, q, beamformer.kappa(scheme, q), xi_val))
    return _written(out_dir, "table1", "scheme,q,kappa,xi", rows)


def run_fig1(cfg: ExperimentConfig, out_dir: str | Path) -> SweepResult:
    """Beamspace gain of every beamformer column over a departure grid.

    The blockwise schemes are channel dependent; their patterns use the
    greedy selection for one seeded channel draw, and a note gives its
    grid angles ``phi1`` and ``phi2``. One selection serves both blockwise
    schemes, as in fig2.
    """
    theta = np.linspace(-np.pi / 2, np.pi / 2, FIG1_ANGLES)
    h = _sample_channels(cfg, 1, substream(cfg.seed, _PURPOSE_FIG1))(slice(None))
    phases = ()
    notes = []
    if any(scheme in beamformer.BPR_SCHEMES for scheme in cfg.schemes):
        idx = _batch_greedy_phases(h, cfg.q)[:, 0]
        phases = [grid[i] for grid, i in zip(phase_opt.block_grids(cfg.q), idx)]
        phi1, phi2 = (", ".join(f"{a:.6g}" for a in phi) for phi in phases)
        notes.append(
            "blockwise patterns use the greedy phases of one seeded channel draw:"
            f" phi1 = [{phi1}] rad, phi2 = [{phi2}] rad"
        )
    rows = []
    for scheme in cfg.schemes:
        bf = beamformer.build(scheme, cfg.q, *phases)
        gains, spread = analysis.beamspace_pattern(bf, theta)
        rows += [
            (scheme, k, float(t), float(g), float(spread[k]))
            for k in range(bf.shape[1])
            for t, g in zip(theta, gains[:, k])
        ]
    return _written(out_dir, "fig1", "scheme,column,theta_rad,gain,spread_rad", rows, notes=notes)


def run_fig2(cfg: ExperimentConfig, out_dir: str | Path) -> SweepResult:
    """Average spectral efficiency of each scheme over the SNR grid.

    One common set of channel realizations is shared by all schemes
    (paired comparison); each realization gets one greedy phase
    selection, shared by both blockwise schemes. Each point's mean is
    the regression (control-variate) estimate on the channel energy
    ``X = ||h||^2``, whose exact mean is known
    (:func:`channel.mean_energy`; :func:`analysis.regression_means`):
    ``X`` tracks every scheme's rate, so the estimate keeps the plain
    mean's expectation with a narrower spread. The confidence half width
    is 1.96 sigma of the regression residual's mean. The telemetry
    holds the control's exact and sample means and, per point, the
    slope ``beta`` and the plain sample mean's half width.
    """
    quad_forms, energy = quadratic_forms(cfg)
    eff_scale = cfg.n_antennas / cfg.n_paths
    mu = channel.mean_energy(cfg.channel_kind, cfg.n_antennas, cfg.n_paths)
    points = [(scheme, g) for scheme in cfg.schemes for g in cfg.snr_grid_db]
    rates = (
        analysis.spectral_efficiency(quad_forms[scheme], 10.0 ** (g / 10.0) * eff_scale)
        for scheme, g in points
    )
    estimates = analysis.regression_means(rates, energy, mu)
    rows = [
        (scheme, None, "spectral_efficiency_bits", g, mean, half, cfg.trials)
        for (scheme, g), (mean, half, _, _) in zip(points, estimates)
    ]
    notes = [
        f"rate uses P*N_t/L = P*{eff_scale:g}",
        f"each mean is regressed on the control ||h||^2, of exact mean {mu:g}",
    ]
    telemetry = {
        "control": {
            "name": "||h||^2",
            "exact_mean": mu,
            "sample_mean": float(energy.mean()),
        },
        "points": [
            {"scheme": scheme, "gamma0_db": g, "beta": beta, "plain_half_width": plain}
            for (scheme, g), (_, _, beta, plain) in zip(points, estimates)
        ],
    }
    return _written(out_dir, "fig2", CSV_HEADER, rows, notes=notes, telemetry=telemetry)


def quadratic_forms(cfg: ExperimentConfig) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """fig2's ``||F^H h||^2`` per realization for each scheme, on the
    ``trials`` channel draws that every scheme shares, and each
    realization's ``||h||^2``, the control of fig2's estimate:
    ``(forms, energy)``.

    Each block of draws passes through the block stage,
    :func:`_block_gains`, which writes its gains and energies straight
    into the block's slices of the result, and is released before the
    next one is drawn.
    """
    _check_fig2(cfg)
    energy = np.empty(cfg.trials)
    quad_forms: dict[str, np.ndarray] = {s: np.empty(cfg.trials) for s in cfg.schemes}
    done = 0
    for n, rng in _blocks(cfg.trials, cfg.seed, _PURPOSE_FIG2):
        block = {scheme: qf[done : done + n] for scheme, qf in quad_forms.items()}
        _block_gains(cfg, _sample_channels(cfg, n, rng), block, energy=energy[done : done + n])
        done += n
    return quad_forms, energy


def monotonicity_notes(scheme: str, curve: list[tuple[float, float, float]]) -> list[str]:
    """Flag adjacent (snr_db, ber, half_width) points whose increase
    exceeds the combined confidence.

    fig3's points share channels, bits and noise, so adjacent
    estimates differ by less than independent ones would, and the sum
    of the two half-widths overstates the spread of their difference:
    the check is conservative, and a flag is the stronger evidence.
    """
    notes = []
    for (d0, b0, h0), (d1, b1, h1) in zip(curve, curve[1:]):
        if b1 - h1 > b0 + h0:
            notes.append(f"non-monotone beyond confidence: {scheme} {d0:g}->{d1:g} dB")
    return notes


def _capped_notes(grid: list[BerPoint]) -> list[str]:
    """One note per fig3 point stopped at ``max_trials``, with its bit
    errors and codewords.

    A capped point with no bit error has no measured BER: with no
    codeword error in n codewords, the codeword error rate, and so the
    BER beneath it, is below ``3/n`` at 95% confidence (the rule of three).
    """
    notes = []
    for p in grid:
        if p.stop != "cap":
            continue
        note = (
            f"capped at max_trials: {p.scheme} {p.gamma0_db:g} dB, "
            f"{p.bit_errors} bit error{'' if p.bit_errors == 1 else 's'} in {p.trials} codewords"
        )
        if p.bit_errors == 0:
            note += f"; BER < 3/{p.trials} = {3 / p.trials:.3g} at 95% (rule of three), not measured"
        notes.append(note)
    return notes


def _check_fig2(cfg: ExperimentConfig) -> None:
    # the half width is the residual deviation of a fitted slope, on n - 2 degrees of freedom
    if cfg.trials < 3:
        raise ValueError(f"fig2 requires trials >= 3 realizations, got {cfg.trials}")


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
    rows = [
        (p.scheme, cfg.modulation, "ber", p.gamma0_db, p.ber, p.half_width, p.trials)
        for p in grid
    ]
    notes = [
        f"normalization={cfg.normalization}",
        "every point of every scheme shares channels, bits and noise; each CI holds per point, "
        "and the non-monotone flags below are conservative",
    ]
    for scheme in cfg.schemes:
        curve = [(p.gamma0_db, p.ber, p.half_width) for p in grid if p.scheme == scheme]
        notes.extend(monotonicity_notes(scheme, curve))
    notes.extend(_capped_notes(grid))
    telemetry = {
        "channel_blocks": n_blocks,
        "radiated_power": {scheme: radiated_power(cfg, scheme) for scheme in cfg.schemes},
        "points": [
            {
                k: getattr(p, k)
                for k in ("scheme", "gamma0_db", "blocks", "trials", "bit_errors", "stop")
            }
            for p in grid
        ],
    }
    return _written(out_dir, "fig3", CSV_HEADER, rows, notes=notes, telemetry=telemetry)


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
# BER curve gaps


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

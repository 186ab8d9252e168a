"""Span accounting for the benchmark's traced run.

Layers are timed from outside the program: :func:`install` replaces a
module attribute that the runners call with a wrapper that records a
span around the original function. A span's self time is its duration
minus the durations of the spans opened inside it, so the self times of
all layers add up to the duration of the outermost span.

Each target names the attribute to wrap and the layer its time counts
under. When a kernel moves to another module, only the target changes;
the layer and metric names stay.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass, field


class WrapTargetMissing(RuntimeError):
    """A wrap target no longer exists, so its layer would read zero."""


@dataclass
class LayerStats:
    calls: int = 0
    rows: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Collects spans in memory; one instance per traced process."""

    clock: object = time.perf_counter
    layers: dict[str, LayerStats] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    point_s: list[float] = field(default_factory=list)
    greedy_rows_by_q: dict[int, int] = field(default_factory=dict)
    runner_s: float = 0.0
    root_s: float = 0.0
    first_runner_monotonic: float | None = None
    _stack: list[list] = field(default_factory=list)

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def inside(self, *names: str) -> bool:
        return any(frame[0] in names for frame in self._stack)

    def wrap(self, target: "Target", fn):
        sig = inspect.signature(fn)
        layer = self.layers.setdefault(target.layer, LayerStats())

        def wrapper(*args, **kwargs):
            if target.runner and self.first_runner_monotonic is None:
                self.first_runner_monotonic = time.monotonic()
            self._stack.append([target.attr, 0.0])
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                _, child_s = self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += duration
                else:
                    self.root_s += duration
                layer.calls += 1
                layer.self_s += duration - child_s
                if target.runner and not self.inside(*RUNNERS):
                    self.runner_s += duration
            if target.observe is not None:
                target.observe(self, layer, duration, sig.bind(*args, **kwargs).arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    layer: str
    observe: object = None
    runner: bool = False


# observers: count the work a call did, from its arguments and result


def _sampler(tracer, layer, duration, args, result):
    layer.rows += int(args["n_trials"])
    if tracer.inside("run_fig2", "run_fig3"):
        tracer.count("blocks", 1)


def _greedy(tracer, layer, duration, args, result):
    rows = int(args["h"].shape[0])
    q = int(args["q"])
    layer.rows += rows
    tracer.greedy_rows_by_q[q] = tracer.greedy_rows_by_q.get(q, 0) + rows


def _equivalent(tracer, layer, duration, args, result):
    layer.rows += int(args["h"].shape[0])


def _ber_block(tracer, layer, duration, args, result):
    layer.rows += int(args["h_eq"].shape[0])
    tracer.count("bit_errors", result)


def _ber_point(tracer, layer, duration, args, result):
    tracer.point_s.append(duration)


RUNNERS = ("run_all", "run_table1", "run_fig1", "run_fig2", "run_fig3")


def runner_targets() -> list[Target]:
    """The runners that ``beamlink.cli.main`` dispatches to."""
    return [Target("beamlink.harness", name, "harness", runner=True) for name in RUNNERS]


def layer_targets() -> list[Target]:
    """Every layer kernel the runners call, with the layer it counts under."""
    return [
        Target("beamlink.cli", "main", "cli"),
        Target("beamlink.channel", "sample_mmwave_batch", "channel", _sampler),
        Target("beamlink.channel", "sample_rayleigh_batch", "channel", _sampler),
        Target("beamlink.harness", "_batch_greedy_phases", "phase_opt", _greedy),
        Target("beamlink.harness", "_batch_equivalent_channels", "beamformer", _equivalent),
        Target("beamlink.harness", "_ber_block", "stbc", _ber_block),
        Target("beamlink.analysis", "wilson_interval", "analysis"),
        Target("beamlink.analysis", "beamspace_pattern", "analysis"),
        Target("beamlink.harness", "_ber_point", "harness", _ber_point),
        Target("beamlink.harness", "_write_csv", "io"),
        Target("beamlink.harness", "write_manifest", "io"),
    ]


def install(tracer: Tracer, targets: list[Target]) -> None:
    """Replace each target attribute with a span-recording wrapper.

    Raises :class:`WrapTargetMissing` before wrapping anything if a
    target module or attribute does not exist.
    """
    resolved = []
    for target in targets:
        try:
            module = importlib.import_module(target.module)
        except ImportError as exc:
            raise WrapTargetMissing(f"{target.module}.{target.attr}: {exc}") from exc
        fn = getattr(module, target.attr, None)
        if not callable(fn):
            raise WrapTargetMissing(f"{target.module}.{target.attr} is not a callable attribute")
        resolved.append((module, target, fn))
    for module, target, fn in resolved:
        setattr(module, target.attr, tracer.wrap(target, fn))

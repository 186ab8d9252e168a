"""Command-line entry point.

Verbs map one-to-one onto the harness runners; every run writes its
config snapshot, CSV outputs and a manifest into the output directory.
Failures print a machine-readable error record to stderr and exit
nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="root seed (u64)")
    parser.add_argument("--out", type=Path, default=Path("runs/latest"), help="output directory")
    parser.add_argument("--trials", type=int, default=None, help="trials per sweep point")
    parser.add_argument(
        "--scheme", type=str, default=None,
        help="comma-separated scheme list (dft,hadamard,bpr-real,bpr-complex)",
    )
    parser.add_argument("--mod", type=int, default=None, help="constellation order M")
    parser.add_argument("--channel", choices=["mmwave", "rayleigh"], default=None)
    parser.add_argument("--norm", choices=["eq1", "eq10"], default=None)
    parser.add_argument("--snr", type=str, default=None, help="comma-separated SNR grid in dB")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamlink",
        description="Link-level analog beamforming experiments (CSV output)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, doc in (
        ("table1", "per-entry power factors of all schemes"),
        ("fig1", "beamspace patterns over a departure-angle grid"),
        ("fig2", "average spectral efficiency vs SNR"),
        ("fig3", "Monte-Carlo bit error rate vs SNR"),
        ("all", "run every experiment into one directory"),
    ):
        p = sub.add_parser(verb, help=doc)
        _add_common_options(p)
    return parser


def config_from_args(args: argparse.Namespace) -> harness.ExperimentConfig:
    if args.config is not None:
        cfg = harness.ExperimentConfig.from_json(args.config)
    else:
        cfg = harness.ExperimentConfig()
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.scheme is not None:
        overrides["schemes"] = tuple(s.strip() for s in args.scheme.split(",") if s.strip())
    if args.mod is not None:
        overrides["modulation"] = args.mod
    if args.channel is not None:
        overrides["channel_kind"] = args.channel
    if args.norm is not None:
        overrides["normalization"] = args.norm
    if args.snr is not None:
        try:
            overrides["snr_grid_db"] = tuple(float(v) for v in args.snr.split(","))
        except ValueError:
            raise ValueError(
                f"snr_grid_db: --snr must be comma-separated numbers in dB, got {args.snr!r}"
            ) from None
    if overrides:
        data = cfg.to_dict()
        data.update(overrides)
        cfg = harness.ExperimentConfig.from_dict(data)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.verb == "all":
            results = harness.run_all(cfg, args.out)
        else:
            runner = {
                "table1": harness.run_table1,
                "fig1": harness.run_fig1,
                "fig2": harness.run_fig2,
                "fig3": harness.run_fig3,
            }[args.verb]
            results = harness.run_recorded(cfg, args.out, (runner,))
        for res in results:
            print(f"{res.name}: {len(res.rows)} rows -> {res.path}")
            for note in res.notes:
                print(f"  note: {note}")
        return 0
    except Exception as exc:  # argparse errors exit on their own
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

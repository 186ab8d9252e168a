"""Command-line entry point.

Verbs map one-to-one onto the harness runners; every run writes its
config snapshot, CSV outputs and a manifest into the output directory.
Each value flag sets one config field, and the config's own validation
is the only check of its value. Failures print a machine-readable error
record to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import beamformer, channel, harness, stbc


def _number(kind: type):
    def parse(text: str):
        try:
            return kind(text)
        except ValueError:
            return text  # for the config to reject by the field's name

    return parse


def _comma_list(parse):
    return lambda text: tuple(parse(v.strip()) for v in text.split(","))


# flag -> (config field, parser of the flag's text, help)
_FLAGS = {
    "--seed": ("seed", _number(int), "root seed (u64)"),
    "--trials": ("trials", _number(int), "trials per sweep point"),
    "--scheme": (
        "schemes", _comma_list(str), f"comma-separated schemes ({','.join(beamformer.SCHEMES)})"
    ),
    "--mod": ("modulation", _number(int), "constellation order M"),
    "--channel": ("channel_kind", str, f"channel model ({', '.join(channel.CHANNEL_KINDS)})"),
    "--norm": ("normalization", str, f"link normalization ({', '.join(stbc.NORM_MODES)})"),
    "--snr": ("snr_grid_db", _comma_list(_number(float)), "comma-separated SNR grid in dB"),
}

_VERBS = {
    "table1": "per-entry power factors of all schemes",
    "fig1": "beamspace patterns over a departure-angle grid",
    "fig2": "average spectral efficiency vs SNR",
    "fig3": "Monte-Carlo bit error rate vs SNR",
    "all": "run every experiment into one directory",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="JSON config file")
    common.add_argument("--out", type=Path, default=Path("runs/latest"), help="output directory")
    for flag, (name, _, doc) in _FLAGS.items():
        common.add_argument(flag, dest=name, default=None, help=doc)
    parser = argparse.ArgumentParser(
        prog="beamlink",
        description="Link-level analog beamforming experiments (CSV output)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, doc in _VERBS.items():
        sub.add_parser(verb, help=doc, parents=[common])
    return parser


def config_from_args(args: argparse.Namespace) -> harness.ExperimentConfig:
    config = harness.ExperimentConfig
    data = (config.from_json(args.config) if args.config else config()).to_dict()
    for name, parse, _ in _FLAGS.values():
        if getattr(args, name) is not None:
            data[name] = parse(getattr(args, name))
    return config.from_dict(data)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        # looked up on harness at call time, so a wrapped runner is the one run
        runner = getattr(harness, f"run_{args.verb}")
        if args.verb == "all":
            results = runner(cfg, args.out)
        else:
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

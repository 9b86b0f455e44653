"""Command line front end for the experiment pipeline."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import StageError
from .pipeline import STAGES, ExperimentConfig, load_config, run_pipeline, run_stage


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, default=None, help="INI experiment file")
    sub.add_argument(
        "--problem",
        choices=("burgers", "convdiff"),
        default=None,
        help="problem name when no config file is given",
    )
    sub.add_argument("--seed", type=int, default=None, help="override the base seed")
    sub.add_argument("--out", type=Path, default=None, help="override the output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nirom",
        description=(
            "Reduced-order modelling experiments: full-order solves, POD, "
            "regression surrogates for the reduced velocity, and error reports."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run every stage in order")
    _add_common(run)

    for stage in STAGES:
        sub = subparsers.add_parser(stage, help=f"run the {stage} stage")
        _add_common(sub)
        if stage == "verify-dt":
            sub.add_argument(
                "positional",
                nargs="*",
                default=[],
                metavar="ARG",
                help="optional problem name and/or scheme, e.g. 'burgers rk4'",
            )

    return parser


def _config_from_args(args) -> ExperimentConfig:
    """The --config file (or the defaults) with the flags given on top."""
    flags = {
        "problem": args.problem,
        "seed": args.seed,
        "out_dir": args.out,
        "schemes": getattr(args, "schemes", None),
    }
    return load_config(args.config, {k: v for k, v in flags.items() if v is not None})


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    command = args.command
    extra = list(getattr(args, "positional", ()))  # verify-dt's [problem] [scheme]
    if extra and extra[0] in ("burgers", "convdiff"):
        args.problem = extra.pop(0)
    if extra:
        args.schemes = (extra.pop(0),)
    if extra:
        print(f"[verify-dt] unexpected arguments {extra}", file=sys.stderr)
        return 2

    try:
        cfg = _config_from_args(args)
        if command == "run":
            run_pipeline(cfg)
        else:
            run_stage(cfg, command)
    except StageError as exc:
        print(f"[pipeline] {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"[config] {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

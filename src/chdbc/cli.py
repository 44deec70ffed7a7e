"""Command-line entry point.

Exit codes: 0 success, 2 configuration problem, 3 solver failure.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, experiments
from .errors import (ConfigError, NewtonDivergedError, SingularSystemError,
                     StiffnessFailureError)
from .potentials import POTENTIAL_KINDS


def _at_least_one(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chdbc",
        description="phase-field bulk/surface experiment runner")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in experiments.EXPERIMENT_KINDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--outdir", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        if name not in ("simulate", "stationary"):  # the sweeps
            p.add_argument("--workers", type=_at_least_one, default=1,
                           help="processes for the independent runs of a sweep")
        if name == "stationary":
            p.add_argument("--potential", choices=POTENTIAL_KINDS)
            p.add_argument("--K", type=float, default=None,
                           help="outward boundary slope")
            p.add_argument("--sweep", default=None,
                           help="s_min:s_max:steps initial-slope sweep")
    return parser


def _load(args):
    overrides = {}
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        overrides = experiments.parse_config(text)
    kind = overrides.setdefault("experiment.kind", args.command)
    if kind != args.command:
        raise ConfigError(f"the config's experiment.kind is {kind!r}, but the "
                          f"subcommand is {args.command!r}")
    if args.command == "stationary":
        if args.potential is not None:
            overrides["potential.kind"] = args.potential
        if args.K is not None:
            overrides["experiment.K"] = repr(args.K)
        if args.sweep is not None:
            overrides["experiment.sweep"] = args.sweep
    return experiments.resolve_config(overrides, seed=args.seed)


def main(argv=None):
    args = build_parser().parse_args(argv)
    options = {"workers": args.workers} if "workers" in args else {}
    try:
        cfg = _load(args)
        summary = experiments.run_experiment(cfg, args.outdir, **options)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NewtonDivergedError, SingularSystemError,
            StiffnessFailureError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    for key, val in summary.items():
        print(f"{key}: {val}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``sweep``, ``check`` and ``single`` subcommands.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 figure-regime check failure.
"""

import argparse
import re
import sys
from dataclasses import fields
from functools import partial

from .errors import BranchTrackingError, QuadratureConvergenceError
from .sweep import (
    SweepConfig, check_figures, curve_csvs, load_config, parse_config_value, run_sweep,
)
from ._version import __version__


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with status 1 (config error) and
    that takes any token starting like a negative float literal (``-1e-3``,
    ``-.5``, ``-inf``, ``-1e-3,1``) as a value, where argparse takes only plain
    decimals such as ``-0.5``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_sweep_flags(p):
    p.add_argument("--config", help="flat key = value config file")
    for f in fields(SweepConfig):
        parse = partial(parse_config_value, f.name)
        parse.__name__ = f.name  # argparse reports "invalid <__name__> value"
        kind = dict(action="store_const", const=True) if f.type is bool else dict(type=parse)
        p.add_argument("--" + f.metadata.get("key", f.name).replace("_", "-"), dest=f.name,
                       help=f.metadata.get("help"), **kind)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tfim-dephasing",
                     description="Qubit dephasing in a transverse-field Ising bath.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    _add_sweep_flags(sub.add_parser("sweep", help="run a (lambda, g) sweep to CSV files"))
    _add_sweep_flags(sub.add_parser("check", help="evaluate regime claims on sweep outputs"))

    single = sub.add_parser("single", help="print one curve as CSV to stdout")
    single.add_argument("--lambda", type=float, dest="lam", required=True)
    single.add_argument("--g", type=float, required=True)
    single.add_argument("--N", type=int, dest="N", required=True)
    single.add_argument("--t-max", type=float, dest="t_max", required=True)
    single.add_argument("--t-steps", type=int, dest="t_steps", required=True)
    single.add_argument("--orders", type=int, choices=(1, 2, 3), default=3)
    return parser


def _config_from_args(args) -> SweepConfig:
    return load_config(args.config, **{f.name: getattr(args, f.name) for f in fields(SweepConfig)})


def _run_single(args) -> int:
    config = load_config(None, lambdas=(args.lam,), gs=(args.g,), N=args.N, t_max=args.t_max,
                         t_steps=args.t_steps, orders=args.orders, emit_exact=True)
    [(content, _)] = curve_csvs(config, args.lam, [args.g])
    sys.stdout.write(content)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            paths = run_sweep(_config_from_args(args))
            print(f"wrote {len(paths)} files to {paths[0].parent}")
            return 0
        if args.command == "check":
            report = check_figures(_config_from_args(args))
            print(report.format())
            return 0 if report.passed else 3
        return _run_single(args)
    except (QuadratureConvergenceError, BranchTrackingError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

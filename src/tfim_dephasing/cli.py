"""Command-line interface: ``sweep``, ``check`` and ``single`` subcommands.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 figure-regime check failure.
"""

import argparse
import sys

from .errors import BranchTrackingError, QuadratureConvergenceError
from .sweep import SweepConfig, check_figures, curve_csv, load_config, run_sweep
from ._version import __version__


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with status 1 (config error)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(s) for s in raw.split(",") if s.strip())


def _add_sweep_flags(p):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--lambdas", type=_float_list, help="comma-separated field values")
    p.add_argument("--gs", type=_float_list, help="comma-separated coupling values")
    p.add_argument("--N", type=int, dest="N", help="number of bath spins (even)")
    p.add_argument("--t-max", type=float, dest="t_max")
    p.add_argument("--t-steps", type=int, dest="t_steps")
    p.add_argument("--orders", type=int, choices=(1, 2, 3))
    p.add_argument("--out", dest="outputs", help="output directory")
    p.add_argument("--jobs", type=int)
    p.add_argument("--quadrature-points", type=int, dest="quadrature_points")
    p.add_argument("--emit-exact", action="store_const", const=True, dest="emit_exact")
    p.add_argument("--correlators", action="store_const", const=True,
                   help="dump correlator values instead of decoherence curves")
    p.add_argument("--validate-order3", action="store_const", const=True,
                   dest="validate_order3",
                   help="check the order-3 closed form against quadrature before sweeping")


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
    keys = ("lambdas", "gs", "N", "t_max", "t_steps", "orders", "outputs",
            "emit_exact", "quadrature_points", "jobs", "validate_order3", "correlators")
    overrides = {k: getattr(args, k, None) for k in keys}
    return load_config(args.config, **overrides)


def _run_single(args) -> int:
    config = SweepConfig(lambdas=(args.lam,), gs=(args.g,), N=args.N, t_max=args.t_max,
                         t_steps=args.t_steps, orders=args.orders, emit_exact=True)
    config.validate()
    content, _ = curve_csv(config, args.lam, args.g)
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

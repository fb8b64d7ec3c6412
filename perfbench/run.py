"""Benchmark of ``tfim-dephasing sweep`` + ``check``, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src`` and nothing is installed.  One run is one process and
measures one workload, closed loop: it calls ``tfim_dephasing.cli.main`` with
the seeded flags for ``sweep`` and then ``check``, again and again until
``--seconds`` have passed, and reports medians over those repetitions.  The
correctness check (``reference.py``) then runs once on the files the last
repetition wrote.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced (``tracing.py``) repetitions and prints the
per-layer metrics, including the tracing overhead.  The last line of
standard output is one JSON object; the lines before it are for people.
Outputs go to ``.perfbench_out/`` in the checkout, which also keeps the
spans of the last traced run of each workload and seed.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, generate
import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_LAUNCHES = 7
# Exit status 3 is a regime claim that fails by design; 1 and 2 are failures.
FAILED_EXITS = (1, 2)
# accuracy_digits is -log10 of the largest normwise relative error the
# correctness check finds.  The raw error sits at rounding level and varies
# tenfold between seeds; its order of magnitude is steady.  An error below
# double-precision epsilon counts as epsilon; the error is capped at 1, so
# the figure is never negative.
DIGITS_FLOOR = 2.0**-52

SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from tfim_dephasing import cli, load_config  # cli: everything the command imports
values = json.loads(sys.argv[2])
values["lambdas"], values["gs"] = tuple(values["lambdas"]), tuple(values["gs"])
load_config(None, **values)
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""


def _import_package():
    init = SRC / "tfim_dephasing" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: package source not found at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tfim_dephasing
    if Path(tfim_dephasing.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported {tfim_dephasing.__file__}, not {init}")
    return tfim_dephasing


def metric_units() -> dict[str, dict[str, str]]:
    """Units of every metric named in BENCHMARK.json, per trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Loop:
    """Closed-loop repetitions of sweep + check, with failure counts."""

    def __init__(self, cli, flags):
        self.cli = cli
        self.flags = flags
        self.walls: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _command(self, sub: str) -> None:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main([sub, *self.flags])
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        self.attempted += 1
        if rc in FAILED_EXITS or rc is None:
            self.failed += 1
            self.errors.append(f"{sub}: exit {rc}: {err.getvalue().strip()[-500:]}")

    def once(self) -> float:
        """One sweep + check; returns the time it ended."""
        t0 = now()
        self._command("sweep")
        self._command("check")
        t1 = now()
        self.walls.append(t1 - t0)
        self.windows.append((t0, t1))
        return t1

    def run_for(self, seconds: float) -> None:
        deadline = now() + seconds
        while self.once() < deadline:
            pass


def measure_setup(config_values: dict) -> list[float]:
    """Seconds from launching a fresh interpreter until the package is
    imported and the workload's config validated, once per launch."""
    arg = json.dumps(config_values)
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = now()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), arg],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return times


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for.

    ru_maxrss of RUSAGE_CHILDREN is the largest single child, so with pool
    workers this is the largest worker, not their sum."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def check(pkg, inputs, outdir: Path) -> reference.CheckResult:
    wl = inputs.workload

    def program_im(N, lam, g, t_max, n):
        params = pkg.ModelParams(N=N, lam=lam, g=g)
        ts = np.linspace(0.0, t_max, n)
        return pkg.gamma_exact(params, pkg.make_kgrid(params), ts).gamma.imag

    return reference.check_outputs(
        outdir, wl.N, inputs.lambdas, inputs.gs, wl.t_max, wl.t_steps, wl.emit_exact, np.random.default_rng(inputs.seed), program_im)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run(workload, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (result dict, lines for people)."""
    pkg = _import_package()
    from tfim_dephasing import cli
    inputs = generate(workload, seed)
    outdir = OUT / f"{workload.name}-{os.getpid()}"
    flags = inputs.cli_flags(str(outdir))
    lines = [f"workload {workload.name} seed {seed}: lambdas {inputs.lambdas} gs {inputs.gs}"]
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        if trace:
            metrics, loop = _run_traced(cli, inputs, flags, seconds, lines)
        else:
            metrics, loop = _run_plain(cli, inputs, str(outdir), seconds, lines)
        result = check(pkg, inputs, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    if trace:
        metrics["cumulants.max_rel_err"] = result.series_err
        metrics["exact.max_rel_err"] = result.exact_err
        metrics["exact.branch_slips"] = result.branch_slips
    else:
        metrics["accuracy_digits"] = -math.log10(max(result.max_rel_err, DIGITS_FLOOR))
        metrics["ok_frac"] = (loop.attempted - loop.failed) / loop.attempted
    lines.append(f"checked {result.values_checked} values: series err {result.series_err:.3e}, "
                 f"exact err {result.exact_err:.3e}, branch slips {result.branch_slips}")
    lines += [f"problem: {p}" for p in result.problems]
    lines += [f"failed command: {e}" for e in loop.errors]

    units = metric_units()["1" if trace else "0"]
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    lines += [f"  {name} = {metrics[name]!r} {units[name]}" for name in units]
    out = {
        "correct": result.correct and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": _number(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    return out, lines


def _number(value):
    return int(value) if isinstance(value, (int, np.integer)) else float(value)


def _run_plain(cli, inputs, outdir, seconds, lines):
    setups = measure_setup(inputs.config_values(outdir))
    loop = Loop(cli, inputs.cli_flags(outdir))
    loop.run_for(seconds)
    rss = peak_rss_mb()
    wall = statistics.median(loop.walls)
    q1, q3 = _quartiles(loop.walls)
    lines.append(f"{len(loop.walls)} repetitions, wall_s median {wall:.4f} "
                 f"quartiles {q1:.4f} {q3:.4f}; setup_s launches {len(setups)}")
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "mode_samples_per_s": inputs.mode_samples / wall,
    }
    return metrics, loop


def _run_traced(cli, inputs, flags, seconds, lines):
    import tracing
    # Untraced and traced repetitions alternate, so that drift in the
    # machine's speed does not show up as tracing overhead.
    plain, traced, tracer = Loop(cli, flags), Loop(cli, flags), tracing.Tracer()
    deadline = now() + seconds
    while True:
        plain.once()
        with tracer:
            end = traced.once()
        if end >= deadline:
            break
    per_rep = [tracing.layer_metrics(
        [s for s in tracer.spans if t0 <= s["t0"] and s["t1"] <= t1], inputs.workload.jobs)
        for t0, t1 in traced.windows]
    metrics = {key: statistics.median(rep[key] for rep in per_rep) for key in per_rep[0]}
    wall_plain = statistics.median(plain.walls)
    wall_traced = statistics.median(traced.walls)
    metrics["trace.wall_s_untraced"] = wall_plain
    metrics["trace.wall_s_traced"] = wall_traced
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    lines.append(f"{len(plain.walls)} untraced and {len(traced.walls)} traced repetitions")
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace_{inputs.workload.name}_seed{inputs.seed}.json").write_text(json.dumps(
        {"windows": traced.windows, "spans": tracer.spans, "metrics": metrics}))
    loop = plain
    loop.attempted += traced.attempted
    loop.failed += traced.failed
    loop.errors += traced.errors
    return metrics, loop


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out, lines = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark.

    python3 perfbench/selftest.py

- Runs every workload at tiny size (``workloads.tiny``) with ``--trace 0``
  and ``--trace 1`` and checks that every metric of BENCHMARK.json is printed
  with its unit, that the outputs pass the correctness check, and that the
  traced layer spans plus ``sweep.self_s`` account for ``sweep.run_sweep.s``.
- Corrupts a finished sweep's files and checks that the correctness check
  rejects them: one exact Im value shifted by 2 pi, and one series value
  scaled by 1 + 1e-6.
- Runs the benchmark in a directory that holds only BENCHMARK.json and the
  benchmark's files, where it must fail without printing a result.

Exits 0 when every case passes.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference
import run
import workloads

LAYER_SPANS = ("model.make_kgrid.s", "cumulants.gamma_series.s", "exact.gamma_exact.s",
               "cumulants.gamma_order3.s", "sweep.self_s")


def check_workloads(failures: list[str]) -> None:
    units = run.metric_units()
    for wl in workloads.WORKLOADS.values():
        for trace in (False, True):
            out, _ = run.run(workloads.tiny(wl), seed=1, seconds=0.01, trace=trace)
            label = f"{wl.name} trace={int(trace)}"
            printed = {name: m["unit"] for name, m in out["metrics"].items()}
            if printed != units["1" if trace else "0"]:
                failures.append(f"{label}: metric names or units differ from BENCHMARK.json")
            if not all(math.isfinite(m["value"]) for m in out["metrics"].values()):
                failures.append(f"{label}: a metric is not finite")
            if not out["correct"] or out["failed"] or out["attempted"] < 2:
                failures.append(f"{label}: correct={out['correct']} failed={out['failed']}")
            if trace and wl.jobs == 1:
                m = {name: v["value"] for name, v in out["metrics"].items()}
                spans = sum(m[name] for name in LAYER_SPANS)
                if abs(spans - m["sweep.run_sweep.s"]) > 1e-6 + 1e-3 * m["sweep.run_sweep.s"]:
                    failures.append(f"{label}: layer spans {spans} do not account for "
                                    f"run_sweep {m['sweep.run_sweep.s']}")


def _rewrite(path: Path, column: str, row: int, change) -> None:
    lines = path.read_text().splitlines()
    col = reference.CURVE_HEADER.split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[col] = f"{change(float(cells[col])):.17g}"
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def check_corruption(failures: list[str]) -> None:
    pkg = run._import_package()
    from tfim_dephasing import cli
    inputs = workloads.generate(workloads.tiny(workloads.WORKLOADS["sweep_exact"]), 3)
    base = run.OUT / "selftest-corrupt"
    shutil.rmtree(base, ignore_errors=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["sweep", *inputs.cli_flags(str(base / "clean"))])
        if rc != 0:
            failures.append("corruption: the clean sweep failed")
            return
        if not run.check(pkg, inputs, base / "clean").correct:
            failures.append("corruption: the clean outputs fail the check")
        curves = sorted((base / "clean").glob("curve_*.csv"))

        def corrupted(name, column, pick_row, change):
            target = base / name
            shutil.copytree(base / "clean", target)
            for path in curves:
                values = reference.read_curve(path)[column]
                row = pick_row(values)
                if row is not None:
                    _rewrite(target / path.name, column, row, change)
                    break
            else:
                failures.append(f"corruption {name}: no curve to corrupt")
            if run.check(pkg, inputs, target).correct:
                failures.append(f"corruption {name}: the check accepted corrupted outputs")

        # Mid-curve row, on any curve.
        corrupted("im_exact_2pi", "im_exact", lambda v: v.size // 2,
                  lambda x: x + 2.0 * math.pi)
        # The last row, which is always checked, where it is the column's largest.
        corrupted("re_g2_1e-6", "re_g2",
                  lambda v: v.size - 1 if abs(v[-1]) == np.max(np.abs(v)) else None,
                  lambda x: x * (1.0 + 1e-6))
    finally:
        shutil.rmtree(base, ignore_errors=True)


def check_without_package(failures: list[str]) -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(Path(run.__file__).parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "series_long", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        if proc.returncode == 0 or last.startswith("{"):
            failures.append("bare directory: the benchmark did not fail without the package")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures: list[str] = []
    check_workloads(failures)
    check_corruption(failures)
    check_without_package(failures)
    for line in failures:
        print(f"FAIL {line}")
    print(json.dumps({"selftest": "fail" if failures else "pass", "failures": len(failures)}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

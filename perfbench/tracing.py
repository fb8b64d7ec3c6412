"""Spans around the calls into each package module, recorded from outside it.

``Tracer.install`` replaces module attributes of ``tfim_dephasing`` with thin
wrappers that record (name, start, end, pid, attributes) in memory; the
package itself is not changed.  The wrapped names are the functions other
modules call, looked up where they are called from:

    sweep.make_kgrid, sweep.gamma_series, sweep.gamma_exact, sweep.gamma_order3,
    cumulants.gamma_order3_quadrature, cumulants.c1, exact.c1,
    cli.run_sweep, cli.check_figures, cli.main

and ``sweep.ProcessPoolExecutor``, so that with ``--jobs > 1`` each sweep
point runs in the worker inside ``_remote``, which returns the spans the
worker recorded (and its CPU time) with the point's result.  Times come from
CLOCK_MONOTONIC, which is shared by all processes, so worker spans line up
with the main process's.
"""

import functools
import inspect
import os
import time
from concurrent.futures import ProcessPoolExecutor

from tfim_dephasing import cli, cumulants, exact, sweep


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _series_attrs(args, result):
    n, t = args["grid"].N, len(args["times"])
    return {"mode_samples": n * t, "array_mb": n * t * 8 / 1e6}


def _exact_attrs(args, result):
    return {"mode_samples": (args["grid"].N // 2) * len(args["times"])}


def _quadrature_attrs(args, result):
    return {"points": args["points"]}


def _sweep_attrs(args, result):
    sizes = [os.path.getsize(p) for p in result]
    rows = sum(p.read_bytes().count(b"\n") - 1 for p in result)
    return {"rows": rows, "bytes": sum(sizes)}


def _check_attrs(args, result):
    return {"claims_failed": sum(not r.passed for r in result.results)}


# (module, attribute, span name, attributes from (bound arguments, result))
TARGETS = (
    (sweep, "make_kgrid", "model.make_kgrid", None),
    (sweep, "gamma_series", "cumulants.gamma_series", _series_attrs),
    (sweep, "gamma_exact", "exact.gamma_exact", _exact_attrs),
    (sweep, "gamma_order3", "cumulants.gamma_order3", None),
    (cumulants, "gamma_order3_quadrature", "cumulants.gamma_order3_quadrature",
     _quadrature_attrs),
    (cumulants, "c1", "correlators.c1", None),
    (exact, "c1", "correlators.c1", None),
    (cli, "run_sweep", "sweep.run_sweep", _sweep_attrs),
    (cli, "check_figures", "sweep.check_figures", _check_attrs),
    (cli, "main", "cli.main", None),
)
# Spans that are work done inside run_sweep; the rest of it is sweep's self time.
SWEEP_CHILDREN = ("model.make_kgrid", "cumulants.gamma_series", "exact.gamma_exact",
                  "cumulants.gamma_order3", "cumulants.gamma_order3_quadrature",
                  "correlators.c1")

_active = None   # the installed Tracer of this process, reached by pool workers


class Tracer:
    """Holds the spans of one process and the patches that record them."""

    def __init__(self):
        self.spans: list[dict] = []
        self._saved: list[tuple] = []

    def record(self, name, t0, t1, **attrs):
        self.spans.append({"name": name, "t0": t0, "t1": t1, "pid": os.getpid(), **attrs})

    def _wrap(self, fn, name, attrs_fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cpu0, t0 = time.process_time(), now()
            result = fn(*args, **kwargs)
            t1, cpu = now(), time.process_time() - cpu0
            extra = {}
            if attrs_fn is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                extra = attrs_fn(bound.arguments, result)
            self.record(name, t0, t1, cpu_s=cpu, **extra)
            return result

        return traced

    def install(self) -> "Tracer":
        global _active
        for module, attr, name, attrs_fn in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, attrs_fn))
        self._saved.append((sweep, "ProcessPoolExecutor", sweep.ProcessPoolExecutor))
        sweep.ProcessPoolExecutor = _TracingPool
        _active = self
        return self

    def uninstall(self):
        global _active
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        _active = None

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def _remote(fn, *args):
    """Run one pool task in a worker; return its result with the worker's spans."""
    tracer = _active if _active is not None else Tracer().install()
    mark = len(tracer.spans)   # a forked worker starts with a copy of the main process's
    cpu0, t0 = time.process_time(), now()
    result = fn(*args)
    tracer.record("sweep.point", t0, now(), cpu_s=time.process_time() - cpu0)
    spans = tracer.spans[mark:]
    del tracer.spans[mark:]
    return result, spans


class _TracingPool(ProcessPoolExecutor):
    def map(self, fn, *iterables, **kwargs):
        for result, spans in super().map(functools.partial(_remote, fn), *iterables, **kwargs):
            _active.spans.extend(spans)
            yield result


def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def layer_metrics(spans: list[dict], jobs: int) -> dict[str, float]:
    """Per-layer figures of one repetition (one sweep and one check)."""
    def of(name):
        return [s for s in spans if s["name"] == name]

    def total(name, key=None):
        return sum((s["t1"] - s["t0"]) if key is None else s[key] for s in of(name))

    m = {}
    for name in ("model.make_kgrid", "correlators.c1", "cumulants.gamma_series",
                 "exact.gamma_exact"):
        m[f"{name}.s"] = total(name)
        m[f"{name}.calls"] = len(of(name))
    for name in ("cumulants.gamma_series", "exact.gamma_exact"):
        samples = total(name, "mode_samples")
        m[f"{name}.mode_samples"] = samples
        m[f"{name}.ns_per_mode_sample"] = m[f"{name}.s"] * 1e9 / samples if samples else 0.0
    m["cumulants.gamma_series.array_mb"] = max(
        (s["array_mb"] for s in of("cumulants.gamma_series")), default=0.0)
    m["cumulants.gamma_order3.s"] = total("cumulants.gamma_order3")
    quad = of("cumulants.gamma_order3_quadrature")
    m["cumulants.gamma_order3_quadrature.calls"] = len(quad)
    m["cumulants.gamma_order3_quadrature.points_max"] = max(
        (s["points"] for s in quad), default=0)

    runs = of("sweep.run_sweep")
    run_s = total("sweep.run_sweep")
    children = [(s["t0"], s["t1"]) for s in spans if s["name"] in SWEEP_CHILDREN]
    m["sweep.run_sweep.s"] = run_s
    m["sweep.self_s"] = sum(
        (r["t1"] - r["t0"]) - _union_length(
            (max(lo, r["t0"]), min(hi, r["t1"])) for lo, hi in children
            if hi > r["t0"] and lo < r["t1"])
        for r in runs)
    m["sweep.rows_written"] = total("sweep.run_sweep", "rows")
    m["sweep.bytes_written"] = total("sweep.run_sweep", "bytes")
    m["sweep.check_figures.s"] = total("sweep.check_figures")
    m["sweep.claims_failed"] = total("sweep.check_figures", "claims_failed")
    worker_cpu = (total("sweep.point", "cpu_s") if jobs > 1
                  else total("sweep.run_sweep", "cpu_s"))
    m["sweep.worker_cpu_s"] = worker_cpu
    m["sweep.worker_busy_frac"] = worker_cpu / (jobs * run_s) if run_s else 0.0
    m["cli.self_s"] = total("cli.main") - run_s - m["sweep.check_figures.s"]
    return m

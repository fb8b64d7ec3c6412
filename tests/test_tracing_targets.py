"""Names that code outside the package looks up.  The benchmark's trace
wrappers patch package attributes by name; a name that no longer resolves
breaks a traced run, which the untraced runs never exercise."""

import importlib.util
import os
from pathlib import Path

import pytest

import tfim_dephasing
from tfim_dephasing import cli, sweep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def test_every_trace_target_resolves_in_the_package(tracing):
    assert tracing.TARGETS
    for module, attr, name, _ in tracing.TARGETS:
        assert module.__name__.startswith("tfim_dephasing."), name
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_traced_sweep_and_check_record_every_layer(tracing, tmp_path, capsys):
    """The wrappers see the calls a sweep with the exact route and the order-3
    validation makes, and bind the attributes they record.  The sweep reaches the
    series through ``mode_sums``, so ``gamma_series`` is called directly."""
    flags = ["--N", "8", "--lambdas", "0.5", "--gs", "0.5,1", "--t-steps", "8",
             "--out", str(tmp_path / "out")]
    params = tfim_dephasing.ModelParams(N=8, lam=0.5, g=1.0)
    with tracing.Tracer() as tracer:
        assert cli.main(["sweep", *flags, "--emit-exact", "--validate-order3",
                         "--quadrature-points", "8", "--jobs", "1"]) == 0
        assert cli.main(["check", *flags, "--jobs", "1"]) == 0
        sweep.gamma_series(params, tfim_dephasing.make_kgrid(params), [0.0, 0.5, 1.0])
    capsys.readouterr()
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span["name"], []).append(span)
    for name in ("model.make_kgrid", "cumulants.gamma_series", "exact.gamma_exact",
                 "cumulants.gamma_order3", "cumulants.gamma_order3_quadrature",
                 "correlators.c1", "sweep.run_sweep", "sweep.check_figures"):
        assert spans.get(name), name
    assert [s["mode_samples"] for s in spans["cumulants.gamma_series"]] == [8 * 3]
    assert spans["cumulants.gamma_order3_quadrature"][0]["points"] == 8
    assert spans["sweep.check_figures"][0]["claims_failed"] == 0


def test_traced_pool_sweep_records_worker_spans(tmp_path, capsys, monkeypatch):
    """With --jobs 2 the tracer's pool replaces ``sweep.ProcessPoolExecutor``: the
    exact-route spans come back from the workers, and the package's own pool
    callable is restored afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # pool tasks pickle the tracer by module name
    tracing = importlib.import_module("tracing")
    own_pool = sweep.ProcessPoolExecutor
    with tracing.Tracer() as tracer:
        assert cli.main(["sweep", "--N", "8", "--lambdas", "0.5,1", "--gs", "0.5,1",
                         "--t-steps", "8", "--emit-exact", "--jobs", "2",
                         "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert sweep.ProcessPoolExecutor is own_pool
    pids = {s["pid"] for s in tracer.spans if s["name"] == "exact.gamma_exact"}
    assert pids and os.getpid() not in pids


def test_benchmark_correctness_check_accepts_a_sweep(tmp_path, capsys, monkeypatch):
    """The benchmark's own check reads the curve files and calls ``ModelParams``,
    ``make_kgrid`` and ``gamma_exact(...).gamma``; a change to any of them, or to a flag
    that one of the workloads passes, fails here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its siblings by name
    run, workloads = _load("run"), importlib.import_module("workloads")
    for name, workload in workloads.WORKLOADS.items():
        inputs = workloads.generate(workloads.tiny(workload), 3)
        out = tmp_path / name
        assert cli.main(["sweep", *inputs.cli_flags(str(out))]) == 0, name
        capsys.readouterr()
        result = run.check(tfim_dephasing, inputs, out)
        assert result.correct, (name, result.problems)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tfim_dephasing import *", namespace)
    missing = [name for name in tfim_dephasing.__all__ if name not in namespace]
    assert not missing

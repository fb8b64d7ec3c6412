import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tfim_dephasing.cli as cli
import tfim_dephasing.cumulants as cumulants
import tfim_dephasing.exact as exact_module
import tfim_dephasing.sweep as sweep_module
from tfim_dephasing import (
    CURVE_HEADER,
    ModelParams,
    QuadratureConvergenceError,
    SweepConfig,
    c1,
    c2_irreducible,
    c3_irreducible,
    check_figures,
    curve_filename,
    gamma_exact,
    load_config,
    make_kgrid,
    run_sweep,
)
from tfim_dephasing.cli import main
from tfim_dephasing.sweep import SUMMARY_HEADER


def small_config(tmp_path, **kw):
    base = dict(
        lambdas=(0.5,),
        gs=(0.0, 0.5),
        N=16,
        t_max=2.0,
        t_steps=9,
        orders=3,
        outputs=str(tmp_path / "out"),
        emit_exact=True,
    )
    base.update(kw)
    return SweepConfig(**base)


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0] == CURVE_HEADER
    return [dict(zip(CURVE_HEADER.split(","), map(float, ln.split(",")))) for ln in lines[1:]]


def test_load_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "lambdas = 0.0, 0.5\n"
        "gs = 0.01,1.0\n"
        "N = 64\n"
        "t_max = 2.5\n"
        "t_steps = 16\n"
        "orders = 2\n"
        "out = somewhere\n"
        "emit_exact = true\n"
        "jobs = 2\n"
    )
    config = load_config(cfg_file)
    assert config.lambdas == (0.0, 0.5) and config.gs == (0.01, 1.0)
    assert config.N == 64 and config.t_max == 2.5 and config.t_steps == 16
    assert config.orders == 2 and config.outputs == "somewhere"
    assert config.emit_exact is True and config.jobs == 2
    merged = load_config(cfg_file, gs=(0.3,), outputs="elsewhere", orders=3)
    assert merged.gs == (0.3,) and merged.outputs == "elsewhere" and merged.orders == 3
    assert merged.lambdas == (0.0, 0.5)


def test_load_config_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("frequency = 12\n")
    with pytest.raises(ValueError):
        load_config(bad)
    bad.write_text("emit_exact = maybe\n")
    with pytest.raises(ValueError):
        load_config(bad)
    bad.write_text("lambdas =\n")
    with pytest.raises(ValueError):
        load_config(bad)
    bad.write_text("no equals sign here\n")
    with pytest.raises(ValueError):
        load_config(bad)
    bad.write_text("# sizes\nN = abc\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2: N: invalid literal"):
        load_config(bad)
    bad.write_text("t_max = 1.0\nEmit_Exact = maybe\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2: Emit_Exact: expected a boolean"):
        load_config(bad)
    with pytest.raises(ValueError, match="frequency"):
        load_config(None, frequency=12)


@pytest.mark.parametrize(
    "kw",
    [
        dict(lambdas=()),
        dict(gs=()),
        dict(N=15),
        dict(N=16.0),
        dict(t_steps=1),
        dict(t_max=0.0),
        dict(orders=4),
        dict(quadrature_points=4),
        dict(quadrature_points=513),
        dict(jobs=0),
        dict(lambdas=(-0.5,)),
        dict(lambdas=(0.97, 0.9700001)),
        dict(gs=(1.0, 1.0000001)),
        dict(t_max=math.inf),
        dict(t_max=math.nan),
        dict(lambdas=(0.5, math.nan)),
        dict(lambdas=(math.inf,)),
        dict(gs=(0.01, -math.inf)),
        dict(gs=(math.nan,)),
        dict(t_max=5e-323),
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        load_config(None, **kw)


# one non-default raw value per SweepConfig field, with the field's CLI flag
FIELD_VALUES = {
    "lambdas": ("--lambdas", "0.25, 1.5"),
    "gs": ("--gs", "0.3"),
    "N": ("--N", "32"),
    "t_max": ("--t-max", "2.5"),
    "t_steps": ("--t-steps", "7"),
    "orders": ("--orders", "2"),
    "outputs": ("--out", "elsewhere"),
    "emit_exact": ("--emit-exact", "true"),
    "quadrature_points": ("--quadrature-points", "16"),
    "jobs": ("--jobs", "2"),
    "validate_order3": ("--validate-order3", "true"),
    "correlators": ("--correlators", "true"),
}


def test_config_file_and_flags_agree(tmp_path, capsys):
    assert set(FIELD_VALUES) == {f.name for f in dataclasses.fields(SweepConfig)}
    parser = cli._build_parser()
    cfg_file = tmp_path / "one.cfg"
    for name, (flag, raw) in FIELD_VALUES.items():
        cfg_file.write_text(f"{name} = {raw}\n")
        from_file = load_config(cfg_file)
        argv = [flag] if isinstance(getattr(SweepConfig(), name), bool) else [flag, raw]
        from_flag = cli._config_from_args(parser.parse_args(["sweep", *argv]))
        assert from_file == from_flag
        assert getattr(from_file, name) != getattr(SweepConfig(), name)
    for line in ("n = 32", "out = elsewhere", "OUTPUTS = elsewhere", "T_Max = 2.5"):
        cfg_file.write_text(line + "\n")
        assert load_config(cfg_file) != SweepConfig()
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    for flag, _ in FIELD_VALUES.values():
        assert f"[{flag}" in usage


def test_run_sweep_outputs(tmp_path):
    config = small_config(tmp_path)
    paths = run_sweep(config)
    outdir = Path(config.outputs)
    assert (outdir / curve_filename(0.5, 0.0)).exists()
    assert (outdir / curve_filename(0.5, 0.5)).exists()
    assert paths[-1].name == "summary.csv"

    rows = read_rows(outdir / curve_filename(0.5, 0.5))
    assert len(rows) == config.t_steps
    ts = [r["t"] for r in rows]
    assert ts[0] == 0.0 and ts[-1] == config.t_max

    params = ModelParams(N=16, lam=0.5, g=0.5)
    grid = make_kgrid(params)
    for r in rows:
        assert r["re_exact"] <= 1e-10
        assert abs(r["im_g1"] + r["im_g3"] - r["im_series"]) + abs(r["re_g2"] - r["re_series"]) < 1e-12
        assert r["abs_g2"] == abs(complex(r["re_g2"], r["im_g2"]))
        assert r["abs_g3"] == abs(complex(r["re_g3"], r["im_g3"]))
    # spot-check one row against the library
    from tfim_dephasing import gamma_order2

    mid = rows[4]
    assert mid["re_g2"] == gamma_order2(params, grid, mid["t"]).real


def test_run_sweep_zero_coupling_rows_are_zero(tmp_path):
    config = small_config(tmp_path)
    run_sweep(config)
    for r in read_rows(Path(config.outputs) / curve_filename(0.5, 0.0)):
        for col in ("re_g1", "im_g1", "re_g2", "im_g2", "re_g3", "im_g3",
                    "re_series", "im_series", "re_exact", "im_exact", "abs_g2", "abs_g3"):
            assert r[col] == 0.0


def test_run_sweep_byte_deterministic(tmp_path):
    c_a = small_config(tmp_path / "a")
    c_b = small_config(tmp_path / "b")
    paths_a = run_sweep(c_a)
    paths_b = run_sweep(c_b)
    for pa, pb in zip(paths_a, paths_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_run_sweep_parallel_matches_serial(tmp_path):
    # N = 20000 spans three mode chunks of the half-grid sums
    for n, t_steps in ((16, 9), (20000, 5)):
        serial = run_sweep(small_config(tmp_path / f"s{n}", N=n, t_steps=t_steps, jobs=1))
        parallel = run_sweep(small_config(tmp_path / f"p{n}", N=n, t_steps=t_steps, jobs=2))
        assert len(serial) == len(parallel) == 3
        for ps, pp in zip(serial, parallel):
            assert ps.read_bytes() == pp.read_bytes()


def test_run_sweep_repeated_point_computed_once(tmp_path, monkeypatch):
    calls = []
    curve_csvs = sweep_module.curve_csvs

    def counting_curve_csvs(config, lam, gs):
        calls.extend((lam, g) for g in gs)
        return curve_csvs(config, lam, gs)

    monkeypatch.setattr(sweep_module, "curve_csvs", counting_curve_csvs)
    lambdas = (0.5, 1.3, 0.5)
    paths = run_sweep(small_config(tmp_path / "s", lambdas=lambdas))
    assert calls == [(0.5, 0.0), (0.5, 0.5), (1.3, 0.0), (1.3, 0.5)]
    assert len(paths) == 5
    summary = paths[-1].read_text().splitlines()
    assert len(summary) == 1 + 6
    assert summary[1:3] == summary[5:7]
    parallel = run_sweep(small_config(tmp_path / "p", lambdas=lambdas, jobs=2))
    for ps, pp in zip(paths, parallel, strict=True):
        assert ps.read_bytes() == pp.read_bytes()


def test_run_sweep_computes_mode_sums_once_per_lambda(tmp_path, monkeypatch):
    calls = []
    mode_sums = cumulants.mode_sums

    def counting_mode_sums(grid, *args):
        calls.append(grid.lam)
        return mode_sums(grid, *args)

    for module in (cumulants, sweep_module):
        monkeypatch.setattr(module, "mode_sums", counting_mode_sums)
    run_sweep(small_config(tmp_path, lambdas=(0.5, 1.3), gs=(0.0, 0.5, 1.0)))
    assert calls == [0.5, 1.3]


def test_run_sweep_bytes_do_not_depend_on_jobs(tmp_path):
    """g = 0 writes signed zeros and g = -0.5 negative odd orders; every task split
    (one task per lambda at jobs 1 and 2, two strided parts per lambda at jobs 3;
    a correlator dump is one task per lambda at any jobs) writes the same bytes."""
    for correlators, files in ((False, 7), (True, 2)):
        runs = [run_sweep(small_config(tmp_path / f"{correlators}{jobs}", lambdas=(0.5, 1.0),
                                       gs=(0.0, -0.5, 1.0), jobs=jobs, correlators=correlators))
                for jobs in (1, 2, 3)]
        assert len(runs[0]) == files
        assert [p.name for p in runs[0]] == [p.name for p in runs[2]]
        for paths in zip(*runs, strict=True):
            assert len({p.read_bytes() for p in paths}) == 1
    rows = read_rows(tmp_path / "False1" / "out" / curve_filename(0.5, 0.0))
    assert any(math.copysign(1.0, r["re_g2"]) < 0 and r["re_g2"] == 0.0 for r in rows)


def test_run_sweep_matches_gamma_series_bit_for_bit(tmp_path):
    gs = (0.0, -0.5, 1e-3, 2.5)
    config = small_config(tmp_path, lambdas=(0.5, 1.0), gs=gs, emit_exact=False)
    run_sweep(config)
    ts = np.linspace(0.0, config.t_max, config.t_steps)
    for lam in config.lambdas:
        for g in gs:
            params = ModelParams(N=config.N, lam=lam, g=g)
            terms = cumulants.gamma_series(params, make_kgrid(params), ts)
            rows = read_rows(Path(config.outputs) / curve_filename(lam, g))
            for col, value in (("re_g2", lambda tm: tm.gamma2.real),
                               ("im_g3", lambda tm: tm.gamma3.imag),
                               ("re_series", lambda tm: tm.truncated_sum.real),
                               ("im_series", lambda tm: tm.truncated_sum.imag)):
                written = np.array([r[col] for r in rows])
                expected = np.array([value(tm) for tm in terms])
                assert np.array_equal(written.view(np.uint64), expected.view(np.uint64)), col


def reference_curve(config, lam, g):
    """The curve file lines and summary row of one point as a loop over times in Python
    complex arithmetic, with ``abs`` moduli and the series added by ``sum``."""
    params = ModelParams(N=config.N, lam=lam, g=g)
    grid = make_kgrid(params)
    ts = np.linspace(0.0, config.t_max, config.t_steps)
    s2, s3 = cumulants.mode_sums(grid, ts, config.orders)
    c1_value = c1(grid)
    exact = gamma_exact(params, grid, ts).gamma.tolist() if config.emit_exact else None
    lines, t_star, max_diff = [CURVE_HEADER], None, None
    for i, t in enumerate(ts.tolist()):
        terms = (complex(0.0, 2.0 * g * c1_value * t),
                 complex(-2.0 * g**2 * float(s2[i]) if config.orders >= 2 else 0.0, 0.0),
                 complex(0.0, 2.0 * g**3 * float(s3[i]) if config.orders >= 3 else 0.0))
        total = sum(terms)
        ex = exact[i] if exact is not None else complex(math.nan, math.nan)
        abs_g2, abs_g3 = abs(terms[1]), abs(terms[2])
        if t_star is None and abs_g3 > abs_g2:
            t_star = t
        if exact is not None:
            diff = abs(ex - total)
            max_diff = diff if max_diff is None else max(max_diff, diff)
        row = [t, *(x for z in (*terms, total, ex) for x in (z.real, z.imag)), abs_g2, abs_g3]
        lines.append(",".join(f"{v:.17g}" for v in row))
    near = int(abs(1.0 - lam) <= sweep_module.NEAR_CRITICAL_WINDOW)
    summary = ",".join("" if v is None else f"{v:.17g}" for v in (lam, g, t_star, max_diff, near))
    return lines, summary


@pytest.mark.parametrize("emit_exact", [False, True])
@pytest.mark.parametrize("orders", [1, 2, 3])
def test_curve_table_matches_per_row_reference(tmp_path, orders, emit_exact):
    """Every written field and summary row equals the per-time loop's text, so each
    value matches bit for bit, signed zeros included (g = 0 and t = 0 write -0)."""
    config = small_config(tmp_path, lambdas=(0.0, 0.5, 1.0), gs=(0.0, -0.5, 1e-3, 2.5),
                          orders=orders, emit_exact=emit_exact)
    run_sweep(config)
    outdir = Path(config.outputs)
    summary = (outdir / "summary.csv").read_text().splitlines()[1:]
    points = [(lam, g) for lam in config.lambdas for g in config.gs]
    for (lam, g), summary_row in zip(points, summary, strict=True):
        lines, expected_summary = reference_curve(config, lam, g)
        assert (outdir / curve_filename(lam, g)).read_text().splitlines() == lines, (lam, g)
        assert summary_row == expected_summary, (lam, g)


def test_run_sweep_pool_capped_at_unique_points(tmp_path, monkeypatch):
    requested = []

    class SerialPool:
        """Records the worker count and maps in this process: nothing starts."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", SerialPool)
    # four listed points, two distinct
    paths = run_sweep(small_config(tmp_path, lambdas=(0.5, 0.5), jobs=64))
    assert requested == [2]
    assert len(paths) == 3
    # one task, a curve or a correlator dump, runs in this process
    for i, kw in enumerate([dict(gs=(0.5,)), dict(correlators=True)]):
        assert len(run_sweep(small_config(tmp_path / f"one{i}", jobs=2, **kw))) == 2 - i
    assert requested == [2]


def test_run_sweep_splits_one_lambda_over_jobs(tmp_path, monkeypatch):
    """With fewer distinct lambdas than jobs, each lambda's couplings are split
    into ceil(jobs / #lambda) strided tasks, and the pool gets one worker per task."""
    requested, tasks = [], []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            tasks.extend((lam, tuple(gs)) for _, lam, gs in items)
            return map(fn, items)

    monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", SerialPool)
    paths = run_sweep(small_config(tmp_path, gs=(0.25, 0.5, 1.0), jobs=2))
    assert requested == [2]
    assert tasks == [(0.5, (0.25, 1.0)), (0.5, (0.5,))]
    assert [p.name for p in paths[:-1]] == [curve_filename(0.5, g) for g in (0.25, 0.5, 1.0)]


def test_run_sweep_series_only_keeps_one_lambda_in_one_task(tmp_path, monkeypatch):
    """Without the exact route a split would only rebuild the grid and the mode
    sums per part, so one lambda stays one task: no pool, the --jobs 1 bytes."""
    def no_pool(max_workers):
        raise AssertionError(f"pool of {max_workers} started")

    monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", no_pool)
    kw = dict(gs=(0.25, 0.5, 1.0), emit_exact=False)
    serial = run_sweep(small_config(tmp_path / "serial", jobs=1, **kw))
    jobs2 = run_sweep(small_config(tmp_path / "jobs2", jobs=2, **kw))
    assert [p.name for p in jobs2] == [p.name for p in serial]
    for ps, pj in zip(serial, jobs2):
        assert pj.read_bytes() == ps.read_bytes(), ps.name


def test_only_a_pool_loads_multiprocessing(tmp_path):
    """In a fresh interpreter, commands that start no pool leave multiprocessing
    unimported; a --jobs 2 sweep over two lambdas starts a real pool and writes the
    bytes the --jobs 1 sweep wrote."""
    child = textwrap.dedent("""
        import sys
        from tfim_dephasing import cli
        pool = ("multiprocessing", "concurrent.futures.process")
        flags = ["--lambdas", "0.5,1", "--gs", "0.5,1", "--N", "8", "--t-steps", "8",
                 "--emit-exact"]
        serial, pooled = sys.argv[1:]
        assert cli.main(["sweep", *flags, "--jobs", "1", "--out", serial]) == 0
        assert cli.main(["check", *flags, "--out", serial]) == 3
        assert cli.main(["single", "--lambda", "0.5", "--g", "1", "--N", "8",
                         "--t-max", "1", "--t-steps", "4"]) == 0
        assert not [m for m in (*pool, "logging") if m in sys.modules], "loaded before a pool"
        assert cli.main(["sweep", *flags, "--jobs", "2", "--out", pooled]) == 0
        assert all(m in sys.modules for m in pool), "not loaded by the pool"
    """)
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    src = Path(sweep_module.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", child, str(serial), str(pooled)],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in serial.iterdir())
    assert names == sorted(p.name for p in pooled.iterdir())
    assert len(names) == 5 and "summary.csv" in names
    for name in names:
        assert (pooled / name).read_bytes() == (serial / name).read_bytes(), name


def test_run_sweep_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    """A write that fails part-way leaves no truncated or temporary file behind, also
    when the disk fills after the header and the first row block of a longer file."""
    for t_steps, full_after in ((9, 0), (sweep_module.CSV_BLOCK_ROWS + 9, 2)):
        case = tmp_path / str(t_steps)
        config = small_config(case / "out", t_steps=t_steps)
        outdir = Path(config.outputs)
        outdir.mkdir(parents=True)
        previous = outdir / curve_filename(0.5, 0.5)
        previous.write_text("previous run\n")
        real_open = open
        writes, chunks_written = [], []

        class DiskFull:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                if len(chunks_written) < full_after:
                    chunks_written.append(text)
                    return self.fh.write(text)
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError("disk full")

        def open_failing_second_write(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if "w" not in mode:
                return fh
            writes.append(file)
            return DiskFull(fh) if len(writes) == 2 else fh

        monkeypatch.setattr(sweep_module, "open", open_failing_second_write, raising=False)
        with pytest.raises(OSError, match="disk full"):
            run_sweep(config)
        monkeypatch.undo()
        assert len(writes) == 2
        # the lines of the header and of one row block went out before the disk filled
        lines = [1, sweep_module.CSV_BLOCK_ROWS][:full_after]
        assert [chunk.count("\n") for chunk in chunks_written] == lines
        assert previous.read_text() == "previous run\n"
        assert sorted(os.listdir(outdir)) == sorted([curve_filename(0.5, 0.0), previous.name])
        reference = run_sweep(small_config(case / "ref", t_steps=t_steps))
        assert (outdir / curve_filename(0.5, 0.0)).read_bytes() == reference[0].read_bytes()


def test_sweep_and_check_memory_bounded_by_row_block(tmp_path):
    """Curve files are written and read a row block at a time: at 10000 times the
    six 13-column files are about 1.7 MB of text each, which neither side holds."""
    config = small_config(tmp_path, lambdas=(0.5, 1.0), gs=(0.25, 0.5, 1.0), N=4000,
                          t_max=5.0, t_steps=10000, emit_exact=False)
    peaks = []
    for run, bound in ((run_sweep, 8e6), (check_figures, 4e6)):
        tracemalloc.start()
        try:
            run(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append((run.__name__, peak, bound))
    assert all(peak < bound for _, peak, bound in peaks), peaks


def test_summary_consistent_with_rows(tmp_path):
    config = small_config(tmp_path, lambdas=(0.97, 1.0), gs=(0.5, -0.5, 2.5), t_max=5.0,
                          t_steps=33)
    run_sweep(config)
    outdir = Path(config.outputs)
    summary = (outdir / "summary.csv").read_text().splitlines()
    assert summary[0] == SUMMARY_HEADER
    points = [(lam, g) for lam in config.lambdas for g in config.gs]
    crossed = 0
    for line, (lam, g) in zip(summary[1:], points, strict=True):
        lam_s, g_s, t_star_s, max_diff_s, near = line.split(",")
        assert float(lam_s) == lam and float(g_s) == g and near == "1"
        rows = read_rows(outdir / curve_filename(lam, g))
        crossings = [r["t"] for r in rows if r["abs_g3"] > r["abs_g2"]]
        assert (float(t_star_s) if t_star_s else None) == (crossings[0] if crossings else None)
        crossed += bool(crossings)
        diffs = [
            abs(complex(r["re_exact"], r["im_exact"]) - complex(r["re_series"], r["im_series"]))
            for r in rows
        ]
        assert float(max_diff_s) == max(diffs), (lam, g)
    assert crossed


def test_summary_empty_fields(tmp_path):
    config = small_config(tmp_path, lambdas=(2.0,), gs=(0.01,), emit_exact=False)
    run_sweep(config)
    line = (Path(config.outputs) / "summary.csv").read_text().splitlines()[1]
    lam_s, g_s, t_star_s, max_diff_s, near = line.split(",")
    assert t_star_s == "" and max_diff_s == "" and near == "0"
    rows = read_rows(Path(config.outputs) / curve_filename(2.0, 0.01))
    assert all(math.isnan(r["re_exact"]) and math.isnan(r["im_exact"]) for r in rows)


def test_csv_roundtrip_17_digits(tmp_path):
    config = small_config(tmp_path, lambdas=(1.3,), gs=(0.7,))
    run_sweep(config)
    rows = read_rows(Path(config.outputs) / curve_filename(1.3, 0.7))
    params = ModelParams(N=16, lam=1.3, g=0.7)
    grid = make_kgrid(params)
    from tfim_dephasing import gamma_order3

    probe = rows[5]
    assert probe["im_g3"] == gamma_order3(params, grid, probe["t"]).imag


def _per_value_csv(header, rows):
    """The CSV text of an f-string per value, the formatter _csv must match byte for byte."""
    lines = [header] + [",".join("" if v is None else f"{v:.17g}" for v in row) for row in rows]
    return "".join(f"{line}\n" for line in lines)


def test_csv_bytes_match_per_value_formatting():
    specials = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308, 0.1]
    curve = [specials + [-1e-300, 2.5, 3, -7, 10**20, 1 / 3],
             np.random.default_rng(7).standard_normal(13).tolist()]
    ts = np.linspace(0.0, 5.0, 4)
    # the correlator dump's rows: numpy float64 scalars zipped from columns
    correlators = list(zip(ts, np.full_like(ts, -0.0), ts**0.5,
                       np.array([np.inf, -np.inf, np.nan, 5e-324])))
    assert isinstance(correlators[0][0], np.float64)
    # summary rows: empty t_star and max_exact_series_diff, an int near_critical
    summary = [(0.97, -0.5, None, None, 1), (0.5, 2.5, 0.3125, math.nan, 0),
               (np.float64(1.0), 1, None, 5e-324, True)]
    for header, rows in ((CURVE_HEADER, curve), (sweep_module.CORRELATOR_HEADER, correlators),
                         (SUMMARY_HEADER, summary)):
        assert "".join(sweep_module._csv(header, rows)) == _per_value_csv(header, rows)
        assert "".join(sweep_module._csv(header, iter(rows))) == _per_value_csv(header, rows)


def test_correlator_dump_mode(tmp_path):
    """One file per distinct printed lambda: a repeat shares one, 0 and -0 get two."""
    for i, (lambdas, expected, lams) in enumerate([
        ((0.5, 0.5, 1.0), ["correlators_lambda0.5.csv", "correlators_lambda1.csv"], (0.5, 1.0)),
        ((0.0, -0.0), ["correlators_lambda-0.csv", "correlators_lambda0.csv"], (0.0, -0.0)),
    ]):
        config = small_config(tmp_path, correlators=True, lambdas=lambdas, gs=(0.3,),
                              outputs=str(tmp_path / f"out{i}"))
        paths = run_sweep(config)
        names = sorted(p.name for p in paths)
        assert names == expected
        for path, lam in zip(paths, lams):
            lines = path.read_text().splitlines()
            assert lines[0] == "t,c1,c2_irr,c3_irr" and len(lines) == 1 + config.t_steps
            params = ModelParams(N=16, lam=lam, g=0.0)
            grid = make_kgrid(params)
            for line in lines[1:]:
                t, c1_col, c2_col, c3_col = map(float, line.split(","))
                assert c1_col == c1(grid)
                assert c2_col == c2_irreducible(grid, t, 0.0)
                assert c3_col == c3_irreducible(grid, t, t / 2.0, 0.0)


def test_run_sweep_order3_validation(tmp_path):
    config = small_config(
        tmp_path, validate_order3=True, quadrature_points=32, t_max=1.5
    )
    run_sweep(config)  # should not raise


def test_run_sweep_validation_failure_propagates(tmp_path, monkeypatch):
    monkeypatch.setattr(cumulants, "gamma_order3_quadrature", lambda *a, **k: 99j)
    config = small_config(tmp_path, validate_order3=True, quadrature_points=32)
    with pytest.raises(QuadratureConvergenceError):
        run_sweep(config)
    # with every coupling 0 there is no point to validate at: the stub is never called
    assert main(["sweep", "--lambdas", "0.5", "--gs", "0", "--N", "16", "--t-steps", "4",
                 "--validate-order3", "--out", str(tmp_path / "zero")]) == 0


def test_check_figures_passing_regimes(tmp_path):
    config = small_config(
        tmp_path, lambdas=(0.97,), gs=(0.01, 0.25, 0.5, 1.0),
        N=200, t_max=5.0, t_steps=64, emit_exact=False,
    )
    run_sweep(config)
    report = check_figures(config)
    assert report.passed, report.format()
    claims = {r.claim for r in report.results}
    assert claims == {
        "weak-coupling ordering",
        "strong-coupling crossing",
        "near-critical monotone growth",
        "cubic coupling scaling",
    }


def test_check_figures_reports_missing_crossing(tmp_path):
    config = small_config(
        tmp_path, lambdas=(0.5,), gs=(1.0,), N=200, t_max=5.0, t_steps=64,
        emit_exact=False,
    )
    run_sweep(config)
    report = check_figures(config)
    assert not report.passed
    failing = [r for r in report.results if not r.passed]
    assert len(failing) == 1
    assert failing[0].claim == "strong-coupling crossing"
    assert "lambda=0.5" in failing[0].subject and "g=1" in failing[0].subject


def test_check_figures_one_scaling_verdict_per_distinct_lambda(tmp_path):
    config = small_config(
        tmp_path, lambdas=(0.5, 0.5), gs=(0.25, 0.5, 0.25, 0.0), N=64, t_max=5.0,
        t_steps=16, emit_exact=False,
    )
    run_sweep(config)
    results = check_figures(config).results
    verdicts = [(r.claim, r.subject) for r in results]
    assert len(verdicts) == len(set(verdicts))
    scaling = [r.subject for r in results if r.claim == "cubic coupling scaling"]
    assert scaling == ["lambda=0.5, gs=0.25,0.5"]


def test_check_figures_requires_outputs(tmp_path):
    config = small_config(tmp_path)
    with pytest.raises(ValueError):
        check_figures(config)


def test_cli_sweep_and_check(tmp_path, capsys):
    out = tmp_path / "cli_out"
    args = [
        "sweep", "--lambdas", "0.97", "--gs", "0.01,1.0", "--N", "64",
        "--t-max", "5.0", "--t-steps", "32", "--out", str(out),
    ]
    assert main(args) == 0
    assert (out / "summary.csv").exists()
    assert main(["check", "--lambdas", "0.97", "--gs", "0.01,1.0", "--N", "64",
                 "--t-max", "5.0", "--t-steps", "32", "--out", str(out)]) == 0
    capsys.readouterr()


def test_cli_check_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "cli_fail"
    base = ["--lambdas", "0.5", "--gs", "1.0", "--N", "64",
            "--t-max", "5.0", "--t-steps", "32", "--out", str(out)]
    assert main(["sweep", *base]) == 0
    assert main(["check", *base]) == 3
    captured = capsys.readouterr()
    assert "strong-coupling crossing" in captured.out


def test_cli_config_error_exit_code(tmp_path, capsys):
    assert main(["sweep", "--N", "15", "--out", str(tmp_path / "x")]) == 1
    assert "error" in capsys.readouterr().err
    # 0.97 and 0.9700001 would write the same curve file
    colliding = ["--lambdas", "0.97,0.9700001", "--out", str(tmp_path / "x")]
    for command in ("sweep", "check"):
        assert main([command, *colliding]) == 1
        assert "curve_lambda0.97_g" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    with pytest.raises(SystemExit) as exc:
        main(["single", "--lambda", "0.5"])  # missing required flags
    assert exc.value.code == 1
    capsys.readouterr()


def test_cli_rejects_non_finite_before_writing(tmp_path, capsys):
    out = tmp_path / "nonfinite"
    for command in ("sweep", "check"):
        for bad in (["--t-max", "inf"], ["--lambdas", "0.5,nan"], ["--gs", "1.0,-inf"]):
            assert main([command, *bad, "--N", "16", "--out", str(out)]) == 1
            assert "finite" in capsys.readouterr().err
        # a resolution whose refinement would pass ORDER3_POINTS_CAP
        bad = ["--validate-order3", "--quadrature-points", "513"]
        assert main([command, *bad, "--N", "16", "--out", str(out)]) == 1
        assert "quadrature_points" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--N", "abc", "--out", str(out)])
    assert exc.value.code == 1
    assert "argument --N: invalid N value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("g", ["1e200", "1e103", "-1e103"])
def test_cli_rejects_coupling_whose_cube_overflows(tmp_path, capsys, g):
    # g^2 overflows at 1e200 and only g^3 at 1e103; the series terms need both
    out = tmp_path / "overflow"
    flags = ["--lambdas", "0.5", "--gs", g, "--N", "16", "--t-steps", "4", "--out", str(out)]
    for argv in (["sweep", *flags], ["check", *flags],
                 ["single", "--lambda", "0.5", "--g", g, "--N", "16", "--t-max", "5",
                  "--t-steps", "4"]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert "error: g must have a finite cube" in captured.err
        assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("lam", ["1e155", "1e160", "1e200"])
def test_cli_rejects_field_whose_square_overflows(tmp_path, capsys, lam):
    # lam^2 overflows from about 1.34e154; the dispersion takes it for every mode
    out = tmp_path / "overflow"
    flags = ["--lambdas", lam, "--gs", "1", "--N", "16", "--t-steps", "4", "--out", str(out)]
    for argv in (["sweep", *flags], ["sweep", "--correlators", *flags], ["check", *flags],
                 ["single", "--lambda", lam, "--g", "1", "--N", "16", "--t-max", "5",
                  "--t-steps", "4"]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert "error: lam must have a finite square" in captured.err
        assert captured.out == ""
    assert not out.exists()


NON_FINITE = {
    "coupling": ("5e102", ["--t-max", "5", "--t-steps", "64"]),  # g^3 finite, 2g^3 S3 not
    "time": ("1", ["--t-max", "1e308", "--t-steps", "3"]),  # t eps_k overflows
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_cli_refuses_non_finite_gamma(tmp_path, capsys, case):
    """A point whose Gamma overflows exits 2 naming lambda and g, and writes no curve
    file and no summary; a correlator dump that overflows names lambda."""
    g, times = NON_FINITE[case]
    out = tmp_path / "out"
    sweep = ["sweep", "--lambdas", "0.5", "--gs", g, "--N", "16", *times, "--out", str(out)]
    for argv in (sweep, [*sweep, "--emit-exact"],
                 ["single", "--lambda", "0.5", "--g", g, "--N", "16", *times]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith(f"numerical failure: lambda=0.5, g={float(g):g}: ")
        assert captured.out == ""
    assert list(out.iterdir()) == []
    if case == "time":
        assert main([*sweep, "--correlators"]) == 2
        assert capsys.readouterr().err.startswith("numerical failure: lambda=0.5: ")
        assert list(out.iterdir()) == []


def test_cli_refuses_a_bisection_past_its_cap(tmp_path, capsys):
    """A branch bisection that would pass BISECTION_PIECES exits 2 naming the point and
    asking for more t_steps, and writes no curve file and no summary."""
    out = tmp_path / "out"
    flags = ["--lambdas", "0.5", "--gs", "1", "--N", "16", "--t-max", "1e6", "--t-steps", "3"]
    assert main(["sweep", *flags, "--emit-exact", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: lambda=0.5, g=1: ") and err.count("\n") == 1
    assert err.rstrip().endswith("raise t_steps")
    assert list(out.iterdir()) == []


def test_cli_order3_validation_overflow_exits_2(tmp_path, capsys):
    """The order-3 validation runs under the sweep's numpy rule: an overflow is one
    exit-2 line naming the point, not numpy warnings before it."""
    out = tmp_path / "out"
    assert main(["sweep", "--lambdas", "0.5", "--gs", "1", "--N", "16", "--t-max", "1e308",
                 "--t-steps", "3", "--validate-order3", "--quadrature-points", "8",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: lambda=0.5, g=1: ") and err.count("\n") == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv, name, stub, message", [
    (["--emit-exact"], "gamma_exact",
     lambda params, grid, ts: exact_module.DecoherenceCurve(np.full(ts.size, complex(math.nan)),
                                                            np.zeros(ts.size, dtype=complex)),
     "lambda=0.5, g=1: non-finite Gamma"),
    (["--correlators"], "c2_values", lambda grid, ts, beta: np.full(ts.size, math.inf),
     "lambda=0.5: non-finite correlator"),
], ids=["exact", "correlator"])
def test_cli_refuses_non_finite_results_that_raise_nothing(tmp_path, capsys, monkeypatch,
                                                            argv, name, stub, message):
    """A non-finite value that no numpy operation flags is still refused: exit 2 naming
    the point, and no file written."""
    monkeypatch.setattr(sweep_module, name, stub)
    out = tmp_path / "out"
    assert main(["sweep", *argv, "--lambdas", "0.5", "--gs", "1", "--N", "16", "--t-steps", "4",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert list(out.iterdir()) == []


def _never_converges(params, grid, t, points):
    return complex(0.0, points)


@pytest.mark.parametrize("argv, target, value", [
    (["sweep", "--emit-exact"], exact_module, ("OVERLAP_FLOOR", 0.5)),
    (["single", "--lambda", "0.5", "--g", "1", "--t-max", "4", "--t-steps", "17"],
     exact_module, ("OVERLAP_FLOOR", 0.5)),
    (["sweep", "--validate-order3", "--quadrature-points", "32"], cumulants,
     ("gamma_order3_quadrature", _never_converges)),
], ids=["sweep-floor", "single-floor", "sweep-order3"])
def test_cli_numerical_failure_exits_2(tmp_path, capsys, monkeypatch, argv, target, value):
    """Exit 2, with a message that names the failing (lambda, g) point."""
    monkeypatch.setattr(target, *value)
    if argv[0] == "sweep":
        argv = [*argv, "--lambdas", "0.5", "--gs", "1", "--t-max", "4", "--t-steps", "17",
                "--out", str(tmp_path / "out")]
    assert main([*argv, "--N", "8"]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: lambda=0.5, g=1: ")


SINGLE_FLAGS = {"--lambda": "lam", "--g": "g", "--N": "N", "--t-max": "t_max",
                "--t-steps": "t_steps", "--orders": "orders"}


@pytest.mark.parametrize("token", ["-1e-3", "-.5E+1", "-inf"])
def test_cli_value_flags_take_negative_float_literals(capsys, token):
    # argparse alone reads "-1e-3" as an unknown option ("expected one argument")
    parser = cli._build_parser()
    single = ["single", "--lambda", "0.5", "--g", "0", "--N", "16", "--t-max", "1",
              "--t-steps", "3"]
    cases = [(["sweep"], flag, name) for name, (flag, _) in FIELD_VALUES.items()
             if not isinstance(getattr(SweepConfig(), name), bool)]
    cases += [(["sweep"], "--config", "config")]
    cases += [(single, flag, dest) for flag, dest in SINGLE_FLAGS.items()]
    for head, flag, dest in cases:
        try:
            value = getattr(parser.parse_args([*head, flag, token]), dest)
        except SystemExit as exc:  # an integer flag
            assert exc.code == 1
            assert f"argument {flag}: invalid" in capsys.readouterr().err, flag
        else:
            assert value in (float(token), (float(token),), token), flag


def test_cli_single_negative_exponent_coupling(capsys):
    argv = ["single", "--lambda", "0.5", "--N", "16", "--t-max", "2.0", "--t-steps", "5"]
    assert main([*argv, "--g=-1e-3"]) == 0
    joined = capsys.readouterr().out
    assert main([*argv, "--g", "-1e-3"]) == 0
    assert capsys.readouterr().out == joined
    assert joined.count("\n") == 6


def test_cli_sweep_negative_exponent_couplings(tmp_path, capsys):
    written = []
    for form in (["--gs=-1e-3,1"], ["--gs", "-1e-3,1"]):
        out = tmp_path / f"out{len(written)}"
        assert main(["sweep", "--lambdas", "0.5", *form, "--N", "16", "--t-steps", "4",
                     "--emit-exact", "--out", str(out)]) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0] == written[1]
    assert sorted(written[0]) == [curve_filename(0.5, -1e-3), curve_filename(0.5, 1.0),
                                  "summary.csv"]


def test_cli_single_stdout(tmp_path, capsys):
    assert main(["single", "--lambda", "0.5", "--g", "0.3", "--N", "16",
                 "--t-max", "2.0", "--t-steps", "5"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == CURVE_HEADER
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and all(v == 0.0 for v in first[1:])
    config = small_config(tmp_path, gs=(0.3,), t_steps=5)
    run_sweep(config)
    assert out == (Path(config.outputs) / curve_filename(0.5, 0.3)).read_text()


def test_check_figures_classifies_negative_couplings_by_magnitude(tmp_path):
    """|Gamma2| grows as g^2 and |Gamma3| as |g|^3, so g = -0.01 is weak, g = -1
    strong and near critical, and -0.5 scales like 0.5."""
    config = small_config(
        tmp_path, lambdas=(0.97,), gs=(0.5, -0.5, -1.0, -0.01), N=200, t_max=5.0,
        t_steps=64, emit_exact=False,
    )
    run_sweep(config)
    report = check_figures(config)
    assert report.passed, report.format()
    verdicts = {(r.claim, r.subject) for r in report.results}
    assert ("weak-coupling ordering", "lambda=0.97, g=-0.01") in verdicts
    for claim in ("strong-coupling crossing", "near-critical monotone growth"):
        assert (claim, "lambda=0.97, g=-1") in verdicts


def test_check_rejects_curves_from_another_time_grid(tmp_path, capsys):
    out = tmp_path / "grid"
    base = ["--lambdas", "0.5", "--gs", "0.01,1", "--N", "20", "--out", str(out)]
    assert main(["sweep", *base, "--t-steps", "4", "--t-max", "5"]) == 0
    for grid in (["--t-steps", "64", "--t-max", "50"], ["--t-steps", "4", "--t-max", "4"],
                 ["--t-steps", "5", "--t-max", "5"]):
        assert main(["check", *base, *grid]) == 1
        err = capsys.readouterr().err
        assert curve_filename(0.5, 0.01) in err and "times differ" in err
    assert main(["check", *base, "--t-steps", "4", "--t-max", "5"]) == 3
    capsys.readouterr()


def test_check_rejects_curve_without_rows(tmp_path, capsys):
    config = small_config(tmp_path, gs=(0.01,))
    run_sweep(config)
    path = Path(config.outputs) / curve_filename(0.5, 0.01)
    path.write_text(CURVE_HEADER + "\n")
    with pytest.raises(ValueError, match="no data rows"):
        check_figures(config)
    flags = ["--lambdas", "0.5", "--gs", "0.01", "--N", "16", "--t-max", "2",
             "--t-steps", "9", "--out", config.outputs]
    assert main(["check", *flags]) == 1
    assert f"{path}: no data rows" in capsys.readouterr().err


def test_check_refuses_orders_below_3(tmp_path, capsys):
    """A sweep with orders < 3 writes Gamma3 columns of zeros, which every regime
    claim would judge as data."""
    for orders in ("1", "2"):
        flags = ["--lambdas", "0.97,1", "--gs", "0.01,1", "--N", "16", "--t-steps", "8",
                 "--orders", orders, "--out", str(tmp_path / orders)]
        assert main(["sweep", *flags]) == 0
        assert main(["check", *flags]) == 1
        captured = capsys.readouterr()
        assert "Gamma2 with Gamma3" in captured.err and "PASS" not in captured.out


def test_check_refuses_a_correlator_sweep(tmp_path, capsys):
    """A correlator sweep writes no curve files, so there is nothing to judge."""
    flags = ["--correlators", "--N", "8", "--t-steps", "4", "--out", str(tmp_path / "out")]
    assert main(["sweep", *flags]) == 0
    assert main(["check", *flags]) == 1
    captured = capsys.readouterr()
    assert "a correlator sweep writes no curve files" in captured.err
    assert "PASS" not in captured.out


def test_plain_check_refuses_curves_swept_below_order_3(tmp_path, capsys):
    """The curve files do not record orders: a default (orders = 3) check of an
    orders 1 or 2 sweep must not judge its all-zero Gamma3 columns."""
    for orders in ("1", "2"):
        flags = ["--lambdas", "0.97,1", "--gs", "0.01,1", "--N", "16", "--t-steps", "8",
                 "--out", str(tmp_path / orders)]
        assert main(["sweep", *flags, "--orders", orders]) == 0
        assert main(["check", *flags]) == 1
        captured = capsys.readouterr()
        path = tmp_path / orders / curve_filename(0.97, 0.01)
        assert f"error: {path}: abs_g3 is 0 at every t > 0" in captured.err
        assert "PASS" not in captured.out


# check_figures' report on the configuration below before the all-zero Gamma3 rule
ORDER3_REPORT = """\
[PASS] weak-coupling ordering (lambda=0.5, g=0.001): |Gamma3| < |Gamma2| at every sampled t > 0
[PASS] weak-coupling ordering (lambda=0.5, g=-0.001): |Gamma3| < |Gamma2| at every sampled t > 0
[PASS] strong-coupling crossing (lambda=0.5, g=2.5): t* = 0.645161
[PASS] weak-coupling ordering (lambda=0.97, g=0.001): |Gamma3| < |Gamma2| at every sampled t > 0
[PASS] weak-coupling ordering (lambda=0.97, g=-0.001): |Gamma3| < |Gamma2| at every sampled t > 0
[PASS] strong-coupling crossing (lambda=0.97, g=2.5): t* = 0.483871
[PASS] near-critical monotone growth (lambda=0.97, g=2.5): |Gamma3| non-decreasing over the window
[PASS] cubic coupling scaling (lambda=0.5, gs=0.001,-0.001,2.5): |Gamma3|/|g|^3 identical across g
[PASS] cubic coupling scaling (lambda=0.97, gs=0.001,-0.001,2.5): |Gamma3|/|g|^3 identical across g
check_figures: PASS"""


def test_check_judges_order3_sweeps_as_before(tmp_path):
    config = small_config(tmp_path, lambdas=(0.5, 0.97), gs=(0.0, 1e-3, -1e-3, 2.5), N=64,
                          t_max=5.0, t_steps=32, emit_exact=False)
    run_sweep(config)
    assert check_figures(config).format() == ORDER3_REPORT
    # |g|^3 = 1e-360 underflows to 0, so a genuine orders-3 Gamma3 column is all zero
    tiny = small_config(tmp_path, gs=(1e-120,), N=64, t_max=5.0, t_steps=32, emit_exact=False)
    run_sweep(tiny)
    assert read_rows(Path(tiny.outputs) / curve_filename(0.5, 1e-120))[-1]["abs_g3"] == 0.0
    assert check_figures(tiny).passed


@pytest.mark.parametrize("corrupt", ["header", "non_numeric", "one_short_row",
                                     "every_row_short", "unkept_column_in_last_block"])
def test_check_names_file_with_malformed_row(tmp_path, capsys, corrupt):
    # the last case writes more than one row block, and check keeps no re_exact column
    t_steps = sweep_module.CSV_BLOCK_ROWS + 9 if corrupt == "unkept_column_in_last_block" else 9
    config = small_config(tmp_path, gs=(0.01,), t_steps=t_steps)
    run_sweep(config)
    path = Path(config.outputs) / curve_filename(0.5, 0.01)
    header, *rows = path.read_text().splitlines()
    if corrupt == "unkept_column_in_last_block":
        fields = rows[-1].split(",")
        fields[CURVE_HEADER.split(",").index("re_exact")] = "abc"
        rows[-1] = ",".join(fields)
    elif corrupt == "header":
        header = header.replace("abs_g3", "abs_g4")
    elif corrupt == "non_numeric":
        fields = rows[2].split(",")
        fields[2] = "abc"
        rows[2] = ",".join(fields)
    elif corrupt == "one_short_row":
        rows[3] = rows[3].rsplit(",", 1)[0]
    else:
        rows = [row.rsplit(",", 1)[0] for row in rows]
    path.write_text("\n".join([header, *rows]) + "\n")
    flags = ["--lambdas", "0.5", "--gs", "0.01", "--N", "16", "--t-max", "2",
             "--t-steps", str(t_steps), "--out", config.outputs]
    assert main(["check", *flags]) == 1
    assert f"error: {path}: " in capsys.readouterr().err


def test_cubic_scaling_compares_only_couplings_with_a_normal_cube(tmp_path):
    """|g|^3 = 1e-330 underflows to 0, where |Gamma3|/|g|^3 is 0/0 = nan, and nan
    never exceeds the tolerance: such a coupling is left out of the verdict."""
    config = small_config(tmp_path, gs=(1e-110, 0.5, 1.0), t_max=5.0, t_steps=64,
                          emit_exact=False)
    run_sweep(config)
    scaling = [(r.subject, r.passed) for r in check_figures(config).results
               if r.claim == "cubic coupling scaling"]
    assert scaling == [("lambda=0.5, gs=0.5,1", True)]
    one_left = dataclasses.replace(config, gs=(1e-110, 1.0))
    assert all(r.claim != "cubic coupling scaling" for r in check_figures(one_left).results)


def test_weak_coupling_ordering_needs_a_normal_cube(tmp_path, capsys):
    """At g = 1e-110, g^3 underflows and abs_g3 is 0 at every t, so |Gamma3| <
    |Gamma2| would pass vacuously: no weak-coupling verdict for that coupling,
    and the g = 1 verdicts are those of a sweep without it."""
    out = tmp_path / "out"
    flags = ["--N", "16", "--lambdas", "0.5", "--t-max", "5", "--t-steps", "64",
             "--out", str(out)]
    verdicts = {}
    for gs in ("1e-110,1", "1"):
        assert main(["sweep", *flags, "--gs", gs]) == 0
        capsys.readouterr()
        main(["check", *flags, "--gs", gs])
        verdicts[gs] = capsys.readouterr().out.splitlines()
    assert not any("g=1e-110" in line for line in verdicts["1e-110,1"])
    assert not any("weak-coupling" in line for line in verdicts["1e-110,1"])
    assert [line for line in verdicts["1e-110,1"] if "g=1)" in line] == \
        [line for line in verdicts["1"] if "g=1)" in line] != []


def _write_curves(config, columns):
    """Curve files on config's grid with zeros except t, abs_g2 and abs_g3, from
    {(lambda, g): (abs_g2, abs_g3)}."""
    ts = config.times()
    Path(config.outputs).mkdir(parents=True)
    for (lam, g), (abs_g2, abs_g3) in columns.items():
        rows = [(t, *[0.0] * 10, a2, a3) for t, a2, a3 in zip(ts, abs_g2, abs_g3)]
        text = "".join(sweep_module._csv(CURVE_HEADER, rows))
        (Path(config.outputs) / curve_filename(lam, g)).write_text(text)


# check_figures' report on the hand-written curves below, one failing line per claim
FAIL_REPORT = """\
[FAIL] weak-coupling ordering (lambda=0.5, g=0.01): |Gamma3| >= |Gamma2| at t=1
[FAIL] strong-coupling crossing (lambda=0.5, g=1): no crossing on (0, 2]; max |Gamma3|/|Gamma2| = 0.4
[PASS] weak-coupling ordering (lambda=0.97, g=0.01): |Gamma3| < |Gamma2| at every sampled t > 0
[PASS] strong-coupling crossing (lambda=0.97, g=1): t* = 0.5
[FAIL] near-critical monotone growth (lambda=0.97, g=1): |Gamma3| decreases at t=1.5
[PASS] cubic coupling scaling (lambda=0.5, gs=0.01,1): |Gamma3|/|g|^3 identical across g
[FAIL] cubic coupling scaling (lambda=0.97, gs=0.01,1): g=1 deviates by 0.333 relative at t=1
check_figures: FAIL"""


def test_check_figures_fail_lines(tmp_path):
    """Each claim fails once, on hand-written columns at t = 0, 0.5, 1, 1.5, 2."""
    config = small_config(tmp_path, lambdas=(0.5, 0.97), gs=(0.01, 1.0), t_steps=5)
    ramp = [0.0, 1.0, 2.0, 3.0, 4.0]
    _write_curves(config, {
        (0.5, 0.01): ([0.0, 1e-5, 1e-6, 1.0, 1.0], [1e-6 * x for x in ramp]),
        (0.5, 1.0): ([0.0, 10.0, 10.0, 10.0, 10.0], ramp),
        (0.97, 0.01): ([0.0, 1.0, 1.0, 1.0, 1.0], [1e-6 * x for x in ramp]),
        (0.97, 1.0): ([0.0, 0.5, 0.5, 0.5, 0.5], [0.0, 1.0, 3.0, 2.5, 4.0]),
    })
    assert check_figures(config).format() == FAIL_REPORT


def test_check_judges_signed_zero_lambdas_apart(tmp_path, capsys):
    """lambda = 0 and -0 write two curve files each, and check judges all four
    under their own names, with one scaling verdict per printed lambda."""
    out = tmp_path / "out"
    flags = ["--N", "16", "--lambdas", "0,-0", "--gs", "1,0.5", "--out", str(out)]
    assert main(["sweep", *flags]) == 0
    assert len(list(out.glob("curve_*.csv"))) == 4
    capsys.readouterr()
    assert main(["check", *flags]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[0] for line in lines] == [
        "[PASS] strong-coupling crossing (lambda=0, g=1)",
        "[PASS] strong-coupling crossing (lambda=0, g=0.5)",
        "[PASS] strong-coupling crossing (lambda=-0, g=1)",
        "[PASS] strong-coupling crossing (lambda=-0, g=0.5)",
        "[PASS] cubic coupling scaling (lambda=0, gs=1,0.5)",
        "[PASS] cubic coupling scaling (lambda=-0, gs=1,0.5)",
        "check_figures",
    ]


def test_time_grid_with_repeated_times_is_refused_before_writing(tmp_path, capsys):
    """linspace(0, 5e-323, 64) repeats subnormal times: every subcommand exits 1
    naming t_max and t_steps, and no directory is created."""
    out = tmp_path / "out"
    flags = ["--N", "16", "--t-max", "5e-323", "--out", str(out)]
    for argv in (["sweep", *flags], ["check", *flags],
                 ["single", "--lambda", "0.5", "--g", "1", "--N", "16", "--t-max", "5e-323",
                  "--t-steps", "64"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "t_max" in err and "t_steps" in err
    assert not out.exists()

import dataclasses
import math
import os
from pathlib import Path

import numpy as np
import pytest

import tfim_dephasing.cli as cli
import tfim_dephasing.cumulants as cumulants
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
    curve_csv = sweep_module.curve_csv

    def counting_curve_csv(config, lam, g):
        calls.append((lam, g))
        return curve_csv(config, lam, g)

    monkeypatch.setattr(sweep_module, "curve_csv", counting_curve_csv)
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


def test_run_sweep_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    """A write that fails part-way leaves no truncated or temporary file behind."""
    config = small_config(tmp_path / "out")
    outdir = Path(config.outputs)
    outdir.mkdir(parents=True)
    previous = outdir / curve_filename(0.5, 0.5)
    previous.write_text("previous run\n")
    real_open = open
    writes = []

    class DiskFull:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
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
    assert previous.read_text() == "previous run\n"
    assert sorted(os.listdir(outdir)) == sorted([curve_filename(0.5, 0.0), previous.name])
    reference = run_sweep(small_config(tmp_path / "ref"))
    assert (outdir / curve_filename(0.5, 0.0)).read_bytes() == reference[0].read_bytes()


def test_summary_consistent_with_rows(tmp_path):
    config = small_config(tmp_path, lambdas=(0.97,), gs=(1.0,), t_max=5.0, t_steps=33)
    run_sweep(config)
    outdir = Path(config.outputs)
    summary = (outdir / "summary.csv").read_text().splitlines()
    assert summary[0] == SUMMARY_HEADER
    lam_s, g_s, t_star_s, max_diff_s, near = summary[1].split(",")
    assert float(lam_s) == 0.97 and float(g_s) == 1.0 and near == "1"
    rows = read_rows(outdir / curve_filename(0.97, 1.0))
    crossings = [r["t"] for r in rows if r["abs_g3"] > r["abs_g2"]]
    assert crossings and float(t_star_s) == crossings[0]
    diffs = [
        abs(complex(r["re_exact"], r["im_exact"]) - complex(r["re_series"], r["im_series"]))
        for r in rows
    ]
    assert float(max_diff_s) == max(diffs)


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


def test_correlator_dump_mode(tmp_path):
    config = small_config(tmp_path, correlators=True, lambdas=(0.5, 0.5, 1.0), gs=(0.3,))
    paths = run_sweep(config)
    names = sorted(p.name for p in paths)
    assert names == ["correlators_lambda0.5.csv", "correlators_lambda1.csv"]
    lines = paths[0].read_text().splitlines()
    assert lines[0] == "t,c1,c2_irr,c3_irr"
    params = ModelParams(N=16, lam=0.5, g=0.0)
    grid = make_kgrid(params)
    t, c1_col, c2_col, c3_col = map(float, lines[3].split(","))
    assert c1_col == c1(params, grid).value.real
    assert c2_col == c2_irreducible(params, grid, t, 0.0).value.real
    assert c3_col == c3_irreducible(params, grid, t, t / 2.0, 0.0).value.real


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

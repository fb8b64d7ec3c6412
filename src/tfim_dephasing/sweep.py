"""Parameter sweeps over (lambda, g) with CSV emission and figure-regime checks.

Every (lambda, g) pair produces one curve file

    curve_lambda<value>_g<value>.csv

with the fixed header

    t,re_g1,im_g1,re_g2,im_g2,re_g3,im_g3,re_series,im_series,re_exact,im_exact,abs_g2,abs_g3

plus a ``summary.csv`` with the first time |Gamma3| exceeds |Gamma2| (empty if
none in range) and the maximum |exact - series| over the grid.  Numbers are
written with 17 significant digits (round-trip safe), LF line endings, a block
of CSV_BLOCK_ROWS rows at a time; serial reruns of the same configuration are
byte-identical.

The unit of work is one lambda: its couplings' curves (the k-grid and the g-free
series mode sums computed once and scaled for each g, the exact route once per
g), or with ``correlators`` its ``correlators_lambda<value>.csv``.  ``check``
reads the curve files back and rejects any whose ``t`` column is not the
configured time grid, or whose ``abs_g3`` is 0 at every t > 0 for a coupling
whose |g|^3 is a normal float (a file written with orders < 3).
"""

import math
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from itertools import islice
from pathlib import Path

import numpy as np

from .correlators import c1, c2_values, c3_values
from .cumulants import check_quadrature_points, gamma_order3, mode_sums, scaled_terms
from .cumulants import gamma_series  # noqa: F401 (perfbench/tracing.py wraps it here)
from .errors import BranchTrackingError, QuadratureConvergenceError
from .exact import gamma_exact
from .model import ModelParams, checked_times, make_kgrid

CURVE_HEADER = (
    "t,re_g1,im_g1,re_g2,im_g2,re_g3,im_g3,"
    "re_series,im_series,re_exact,im_exact,abs_g2,abs_g3"
)
SUMMARY_HEADER = "lambda,g,t_star,max_exact_series_diff,near_critical"
CORRELATOR_HEADER = "t,c1,c2_irr,c3_irr"

NEAR_CRITICAL_WINDOW = 0.05
WEAK_G_MAX = 0.05
STRONG_G_MIN = 0.5
SCALING_REL_TOL = 1e-6
MONOTONE_REL_TOL = 1e-9
VALIDATION_MODES = 32
CSV_BLOCK_ROWS = 256  # rows formatted per written chunk: memory bounded by a block, not by T


@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters; each field is a config-file key and a CLI flag (file
    values can be overridden by flags), renamed by ``metadata["key"]``."""

    lambdas: tuple[float, ...] = field(
        default=(0.0, 0.5, 0.97, 1.0, 2.0), metadata={"help": "comma-separated field values"})
    gs: tuple[float, ...] = field(
        default=(0.01, 1.0), metadata={"help": "comma-separated coupling values"})
    N: int = field(default=1000, metadata={"help": "number of bath spins (even)"})
    t_max: float = 5.0
    t_steps: int = 64
    orders: int = 3
    outputs: str = field(default="sweep_out", metadata={"key": "out", "help": "output directory"})
    emit_exact: bool = False
    quadrature_points: int = 128
    jobs: int = 1
    validate_order3: bool = field(default=False, metadata={
        "help": "check the order-3 closed form against quadrature before sweeping"})
    correlators: bool = field(default=False, metadata={
        "help": "dump correlator values instead of decoherence curves"})

    def times(self) -> np.ndarray:
        """The t column of every curve and correlator file; ``check`` wants it bit for bit."""
        return np.linspace(0.0, self.t_max, self.t_steps)

    def points(self) -> list[tuple[float, dict[str, float]]]:
        """Each distinct lambda with its distinct couplings keyed by curve file name, in
        sweep order.  Points are told apart by their file names, so lambda = 0 and -0
        are two; validate() makes equal names mean equal points."""
        by_lam = {}
        for lam in self.lambdas:
            by_lam.setdefault(f"{lam:g}", (lam, {curve_filename(lam, g): g for g in self.gs}))
        return list(by_lam.values())

    def validate(self):
        if not self.lambdas or not self.gs:
            raise ValueError("lambdas and gs must be non-empty")
        if not 0.0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        if self.t_steps < 2:
            raise ValueError(f"t_steps must be >= 2, got {self.t_steps}")
        try:
            checked_times(self.times())
        except ValueError:
            raise ValueError(f"t_max={self.t_max:g} with t_steps={self.t_steps} repeats a time; "
                             "raise t_max or lower t_steps") from None
        if self.orders not in (1, 2, 3):
            raise ValueError(f"orders must be 1, 2 or 3, got {self.orders}")
        check_quadrature_points(self.quadrature_points)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        written = {}
        for point in ((lam, g) for lam in self.lambdas for g in self.gs):
            ModelParams(self.N, *point)  # N, lambda and g checks
            name = curve_filename(*point)
            if written.setdefault(name, point) != point:
                raise ValueError(f"(lambda, g) = {written[name]} and {point} both write {name}")


_FIELDS = {f.name: f for f in fields(SweepConfig)}
_FILE_KEYS = {key.lower(): f.name for f in _FIELDS.values()
              for key in (f.name, f.metadata.get("key", f.name))}
_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def parse_config_value(name: str, raw: str):
    """Parse one file or flag value for the SweepConfig field ``name`` by its type:
    a boolean word, int, float, str, or a comma-separated list of floats."""
    kind = _FIELDS[name].type
    if kind is bool:
        try:
            return _BOOL_WORDS[raw.strip().lower()]
        except KeyError:
            raise ValueError(f"expected a boolean, got {raw!r}") from None
    if kind == tuple[float, ...]:
        items = [s.strip() for s in raw.split(",") if s.strip()]
        if not items:
            raise ValueError("empty list")
        return tuple(float(s) for s in items)
    return kind(raw)


def load_config(path, **overrides) -> SweepConfig:
    """Read a flat ``key = value`` config file and apply keyword overrides.

    Keys are field names (in any case in the file, where ``out`` is ``outputs``);
    lists are comma separated; '#' starts a comment; unknown keys are rejected;
    ``None`` overrides are ignored.  ``path=None`` starts from the defaults.
    """
    values = {}
    if path is not None:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (s.strip() for s in line.split("=", 1))
            name = _FILE_KEYS.get(key.lower())
            if name is None:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[name] = parse_config_value(name, raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    unknown = overrides.keys() - _FIELDS.keys()
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    values.update({k: v for k, v in overrides.items() if v is not None})
    config = SweepConfig(**values)
    config.validate()
    return config


def _csv(header: str, rows) -> Iterator[str]:
    """CSV text in chunks: ``header``, then the lines of CSV_BLOCK_ROWS rows at a time,
    each LF-terminated with every value at 17 significant digits (round-trip safe) and
    ``None`` as an empty field.  An array's rows become Python floats a block at a time."""
    template = ",".join(["%.17g"] * (header.count(",") + 1))
    yield header + "\n"
    if isinstance(rows, np.ndarray):
        blocks = (rows[i:i + CSV_BLOCK_ROWS].tolist()
                  for i in range(0, len(rows), CSV_BLOCK_ROWS))
    else:
        rows = iter(rows)
        blocks = iter(lambda: list(islice(rows, CSV_BLOCK_ROWS)), [])
    for block in blocks:
        lines = []
        for row in map(tuple, block):
            # "%.0s" writes any value, here None, as an empty field
            fmt = template if None not in row else ",".join("%.0s" if v is None else "%.17g"
                                                            for v in row)
            lines.append(fmt % row)
        yield "\n".join(lines) + "\n"


def curve_filename(lam: float, g: float) -> str:
    return f"curve_lambda{lam:g}_g{g:g}.csv"


def curve_csvs(config: SweepConfig, lam: float, gs) -> list[tuple[Iterator[str], tuple]]:
    """Each coupling's curve file content, as ``_csv`` chunks of its numeric table, and
    summary row of values at field lam: the k-grid, c1 and g-free series mode sums are
    computed once, the exact route per g.  Every table is computed before any is returned.
    Numpy overflow and invalid operations, and a non-finite series or computed exact
    Gamma, raise FloatingPointError naming lambda and g; a BranchTrackingError of the
    exact route is raised again naming them too."""
    params = ModelParams(N=config.N, lam=lam, g=0.0)
    grid = make_kgrid(params)
    ts = config.times()
    near_critical = int(abs(1.0 - lam) <= NEAR_CRITICAL_WINDOW)
    out, point = [], f"lambda={lam:g}, g={','.join(f'{g:g}' for g in gs)}"
    try:
        with np.errstate(over="raise", invalid="raise"):
            sums = mode_sums(grid, ts, config.orders)
            c1_value = c1(grid)
            for g in gs:
                point = f"lambda={lam:g}, g={g:g}"
                terms = scaled_terms(g, c1_value, ts, sums, config.orders)
                exact = (gamma_exact(ModelParams(N=config.N, lam=lam, g=g), grid, ts).gamma
                         if config.emit_exact else np.full(ts.size, complex(math.nan, math.nan)))
                if not (np.isfinite(terms).all()
                        and (np.isfinite(exact).all() or not config.emit_exact)):
                    raise FloatingPointError("non-finite Gamma")
                # np.hypot gives abs(complex) bit for bit; numpy's complex np.abs does not
                abs_g2, abs_g3, diff = (np.hypot(z.real, z.imag)
                                        for z in (*terms[1:3], exact - terms[3]))
                max_diff = float(diff.max()) if config.emit_exact else None
                pairs = [x for z in (*terms, exact) for x in (z.real, z.imag)]  # re_*, im_*
                rows = np.column_stack([ts, *pairs, abs_g2, abs_g3])
                out.append((_csv(CURVE_HEADER, rows),
                            (lam, g, _first_t(ts, abs_g3 > abs_g2), max_diff, near_critical)))
    except (FloatingPointError, BranchTrackingError) as exc:
        raise type(exc)(f"{point}: {exc}") from None
    return out


def _first_t(ts: np.ndarray, where: np.ndarray) -> float | None:
    """The first sampled t where ``where`` holds, or None."""
    return next(iter(ts[where].tolist()), None)


def _write_text(path: Path, chunks: Iterator[str]):
    """Write the text chunks, one ``write`` each, to a temporary file renamed into place:
    never a truncated ``path``."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _correlator_csv(config: SweepConfig, lam: float) -> Iterator[str]:
    """The correlator file content at field lam, as ``_csv`` chunks; numpy overflow and
    invalid operations, and a non-finite value, raise FloatingPointError naming lambda."""
    grid = make_kgrid(ModelParams(N=config.N, lam=lam, g=0.0))
    ts = config.times()
    try:
        with np.errstate(over="raise", invalid="raise"):
            rows = np.column_stack([ts, np.full_like(ts, c1(grid)), c2_values(grid, ts, 0.0),
                                    c3_values(grid, ts, ts / 2.0, 0.0)])
            if not np.isfinite(rows).all():
                raise FloatingPointError("non-finite correlator")
    except FloatingPointError as exc:
        raise FloatingPointError(f"lambda={lam:g}: {exc}") from None
    return _csv(CORRELATOR_HEADER, rows)


def _sweep_task(payload):
    """Compute and write one lambda's correlator file, or the curve files of some of its
    couplings; returns (path, summary row) per file, the correlator file's row None."""
    config, lam, gs = payload
    outdir = Path(config.outputs)
    if config.correlators:
        files = [(outdir / f"correlators_lambda{lam:g}.csv", _correlator_csv(config, lam), None)]
    else:
        files = [(outdir / curve_filename(lam, g), *out)
                 for g, out in zip(gs, curve_csvs(config, lam, gs))]
    for path, chunks, _ in files:
        _write_text(path, chunks)
    return [(path, summary) for path, _, summary in files]


def ProcessPoolExecutor(max_workers):  # noqa: N802 (the tracer and tests replace this name)
    """concurrent.futures' pool, imported when a sweep first starts one: the import
    loads multiprocessing, which a serial run never needs."""
    from concurrent.futures import ProcessPoolExecutor as pool_class
    return pool_class(max_workers=max_workers)


def run_sweep(config: SweepConfig) -> list[Path]:
    """Run the full sweep; returns the written file paths (a curve sweep's summary last)."""
    config.validate()
    outdir = Path(config.outputs)
    outdir.mkdir(parents=True, exist_ok=True)
    points = config.points()
    if config.validate_order3 and config.orders >= 3 and not config.correlators:
        _validate_order3_once(config)

    # one task per distinct lambda: its correlator dump, or its curves, which with the
    # exact route split into ceil(jobs / #lambda) strided parts if lambdas < jobs
    parts = -(-config.jobs // len(points)) if config.emit_exact and not config.correlators else 1
    payloads = [(config, lam, list(gs.values())[j::parts]) for lam, gs in points
                for j in range(min(parts, len(gs)))]
    if config.jobs > 1 and len(payloads) > 1:
        # a lone task runs here; under fork the pool starts every worker at the first submit
        with ProcessPoolExecutor(max_workers=min(config.jobs, len(payloads))) as pool:
            results = list(pool.map(_sweep_task, payloads))
    else:
        results = [_sweep_task(p) for p in payloads]
    done = {path.name: (path, summary) for result in results for path, summary in result}
    if config.correlators:
        return [path for path, _ in done.values()]

    # a repeated point is computed once but keeps its summary rows
    summary_path = outdir / "summary.csv"
    _write_text(summary_path, _csv(SUMMARY_HEADER, [done[curve_filename(lam, g)][1]
                                                    for lam in config.lambdas for g in config.gs]))
    return [done[name][0] for _, gs in points for name in gs] + [summary_path]


def _validate_order3_once(config: SweepConfig):
    """Check the order-3 closed form against its quadrature once per sweep.

    The mode sum is exact by construction, so the check targets the time
    integration; it runs on a reduced grid (<= VALIDATION_MODES modes) to keep
    the reference integration affordable.  Its errors, numpy overflow and invalid
    operations among them, are raised again naming the point's lambda and g.
    """
    point = next(((lam, g) for lam, gs in config.points() for g in gs.values() if g != 0.0),
                 None)
    if point is None:
        return
    params = ModelParams(min(config.N, VALIDATION_MODES), *point)
    try:
        with np.errstate(over="raise", invalid="raise"):
            gamma_order3(params, make_kgrid(params), config.t_max,
                         quadrature_points=config.quadrature_points)
    except (QuadratureConvergenceError, FloatingPointError) as exc:
        raise type(exc)(f"lambda={point[0]:g}, g={point[1]:g}: {exc}") from None


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    subject: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class FigureCheckReport:
    results: tuple[ClaimResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def format(self) -> str:
        lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.claim} ({r.subject}): {r.detail}"
                 for r in self.results]
        lines.append(f"check_figures: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _read_curve(path: Path, ts: np.ndarray, g: float) -> dict[str, np.ndarray]:
    """The abs_g2 and abs_g3 columns of the curve file of coupling g, parsed from the
    open file (no whole-file text); ValueError unless it exists and all its rows are 13
    numbers at the times ts, with abs_g3 nonzero at some t > 0 where |g|^3 is a normal
    float (else the file was written with orders < 3)."""
    if not path.exists():
        raise ValueError(f"missing sweep output {path}; run the sweep first")
    cols = CURVE_HEADER.split(",")
    with open(path) as fh:
        if fh.readline().rstrip("\n") != CURVE_HEADER:
            raise ValueError(f"{path}: unexpected or missing curve header")
        first_row = fh.tell()
        if not fh.readline():
            raise ValueError(f"{path}: no data rows")
        fh.seek(first_row)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed curve row: {exc}") from None
    if data.shape[1] != len(cols):
        raise ValueError(f"{path}: {data.shape[1]} fields per row, expected {len(cols)}")
    if not np.array_equal(data[:, 0], ts):
        raise ValueError(f"{path}: times differ from t_max={ts[-1]:g}, t_steps={ts.size}; "
                         "run the sweep with the same grid")
    # copies, so the 13-column table is freed on return
    cur = {name: data[:, cols.index(name)].copy() for name in ("abs_g2", "abs_g3")}
    # below a normal |g|^3 a zero column is genuine
    if _cube_is_normal(g) and not cur["abs_g3"][ts > 0.0].any():
        raise ValueError(f"{path}: abs_g3 is 0 at every t > 0 although g = {g:g}; "
                         "was the sweep run with orders < 3?")
    return cur


def _cube_is_normal(g: float) -> bool:
    """|g|^3 is a normal float: below it a genuine Gamma3 = 2ig^3 S3 can underflow."""
    return abs(g) ** 3 >= sys.float_info.min


def check_figures(config: SweepConfig) -> FigureCheckReport:
    """Evaluate the qualitative regime claims against a finished sweep.

    Claims:
      - weak coupling (|g| <= WEAK_G_MAX with a normal |g|^3, lam > 0): |Gamma3(t)| <
        |Gamma2(t)| at every sampled t > 0.  (lam = 0 is excluded: its flat
        dispersion makes |Gamma2| revive through zero periodically, so the
        pointwise ordering is not meaningful there.  Below a normal |g|^3,
        Gamma3 can underflow to 0, and the ordering would pass vacuously.)
      - strong coupling (|g| >= STRONG_G_MIN): some sampled t* has
        |Gamma3(t*)| > |Gamma2(t*)|.
      - cubic coupling scaling: |Gamma3|/|g|^3 is the same curve for every g
        whose |g|^3 is a normal float at fixed lambda, to SCALING_REL_TOL
        relative.
      - near critical (|1 - lam| <= NEAR_CRITICAL_WINDOW, strong coupling):
        |Gamma3(t)| is non-decreasing over the sampled window.

    Each distinct curve file of config.points() is judged under its own name.
    """
    if config.orders < 3:
        raise ValueError(f"check needs orders = 3, got {config.orders}: the regime claims "
                         "compare Gamma2 with Gamma3")
    if config.correlators:
        raise ValueError("check needs correlators = false: a correlator sweep writes no "
                         "curve files")
    ts, points = config.times(), config.points()
    listed = [(name, lam, g) for lam, gs in points for name, g in gs.items()]
    curves = {name: _read_curve(Path(config.outputs) / name, ts, g) for name, _, g in listed}
    later = ts > 0.0
    results = []
    for name, lam, g in listed:
        subject = f"lambda={lam:g}, g={g:g}"
        abs_g2, abs_g3 = curves[name]["abs_g2"], curves[name]["abs_g3"]
        if _cube_is_normal(g) and abs(g) <= WEAK_G_MAX and lam > 0.0:
            t = _first_t(ts, later & ~(abs_g3 < abs_g2))
            results.append(ClaimResult(
                "weak-coupling ordering", subject, t is None,
                "|Gamma3| < |Gamma2| at every sampled t > 0" if t is None
                else f"|Gamma3| >= |Gamma2| at t={t:g}"))
        if abs(g) < STRONG_G_MIN:
            continue
        t = _first_t(ts, abs_g3 > abs_g2)
        results.append(ClaimResult(
            "strong-coupling crossing", subject, t is not None,
            f"t* = {t:g}" if t is not None else
            f"no crossing on (0, {config.t_max:g}]; max |Gamma3|/|Gamma2| = "
            f"{np.max(abs_g3[later] / np.maximum(abs_g2[later], 1e-300)):.3g}"))
        if abs(1.0 - lam) <= NEAR_CRITICAL_WINDOW:
            t = _first_t(ts[1:], np.diff(abs_g3) < -MONOTONE_REL_TOL * np.max(abs_g3))
            results.append(ClaimResult(
                "near-critical monotone growth", subject, t is None,
                "|Gamma3| non-decreasing over the window" if t is None
                else f"|Gamma3| decreases at t={t:g}"))

    # one verdict per distinct lambda, over its distinct g with a normal |g|^3
    for lam, lam_gs in points:
        gs = [g for g in lam_gs.values() if _cube_is_normal(g)]
        if len(gs) < 2:
            continue
        ref, *scaled = (curves[curve_filename(lam, g)]["abs_g3"] / abs(g) ** 3 for g in gs)
        rels = (np.abs(s - ref) / np.maximum(np.maximum(np.abs(ref), np.abs(s)), 1e-250)
                for s in scaled)
        g_bad, rel = next(((g, rel) for g, rel in zip(gs[1:], rels)
                           if rel.max() > SCALING_REL_TOL), (None, None))
        results.append(ClaimResult(
            "cubic coupling scaling", f"lambda={lam:g}, gs={','.join(f'{g:g}' for g in gs)}",
            g_bad is None, "|Gamma3|/|g|^3 identical across g" if g_bad is None else
            f"g={g_bad:g} deviates by {rel.max():.3g} relative at t={ts[rel.argmax()]:g}"))

    return FigureCheckReport(tuple(results))

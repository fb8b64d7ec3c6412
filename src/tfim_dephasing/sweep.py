"""Parameter sweeps over (lambda, g) with CSV emission and figure-regime checks.

Every (lambda, g) pair produces one curve file

    curve_lambda<value>_g<value>.csv

with the fixed header

    t,re_g1,im_g1,re_g2,im_g2,re_g3,im_g3,re_series,im_series,re_exact,im_exact,abs_g2,abs_g3

plus a ``summary.csv`` with the first time |Gamma3| exceeds |Gamma2| (empty if
none in range) and the maximum |exact - series| over the grid.  Numbers are
written with 17 significant digits (round-trip safe), LF line endings; serial
reruns of the same configuration are byte-identical.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .correlators import c1, c2_irreducible, c3_irreducible
from .cumulants import check_quadrature_points, gamma_order3, gamma_series
from .exact import gamma_exact
from .model import ModelParams, make_kgrid

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

    def validate(self):
        if not self.lambdas or not self.gs:
            raise ValueError("lambdas and gs must be non-empty")
        if not 0.0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        if self.t_steps < 2:
            raise ValueError(f"t_steps must be >= 2, got {self.t_steps}")
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


def _csv(header: str, rows) -> str:
    """CSV text: ``header``, then one LF-terminated line per row with each value
    at 17 significant digits (round-trip safe) and ``None`` as an empty field."""
    lines = [header] + [",".join("" if v is None else f"{v:.17g}" for v in row) for row in rows]
    return "".join(f"{line}\n" for line in lines)


def curve_filename(lam: float, g: float) -> str:
    return f"curve_lambda{lam:g}_g{g:g}.csv"


def curve_csv(config: SweepConfig, lam: float, g: float) -> tuple[str, tuple]:
    """One point's curve file content and its summary row of values."""
    params = ModelParams(N=config.N, lam=lam, g=g)
    grid = make_kgrid(params)
    ts = np.linspace(0.0, config.t_max, config.t_steps)
    terms = gamma_series(params, grid, ts, max_order=config.orders)
    exact = gamma_exact(params, grid, ts).gamma if config.emit_exact else None

    rows = []
    t_star = None
    max_diff = None
    for i, tm in enumerate(terms):
        ex = exact[i] if exact is not None else complex(math.nan, math.nan)
        abs_g2, abs_g3 = abs(tm.gamma2), abs(tm.gamma3)
        if t_star is None and abs_g3 > abs_g2:
            t_star = tm.t
        if exact is not None:
            diff = abs(ex - tm.truncated_sum)
            max_diff = diff if max_diff is None else max(max_diff, diff)
        rows.append((
            tm.t,
            tm.gamma1.real, tm.gamma1.imag,
            tm.gamma2.real, tm.gamma2.imag,
            tm.gamma3.real, tm.gamma3.imag,
            tm.truncated_sum.real, tm.truncated_sum.imag,
            ex.real, ex.imag,
            abs_g2, abs_g3,
        ))
    near_critical = int(abs(1.0 - lam) <= NEAR_CRITICAL_WINDOW)
    return _csv(CURVE_HEADER, rows), (lam, g, t_star, max_diff, near_critical)


def _write_text(path: Path, text: str):
    """Write to a temporary file renamed into place: never a truncated ``path``."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _sweep_point_task(payload):
    config, lam, g = payload
    content, summary = curve_csv(config, lam, g)
    path = Path(config.outputs) / curve_filename(lam, g)
    _write_text(path, content)
    return path, summary


def _write_correlator_dumps(config: SweepConfig) -> list[Path]:
    ts = np.linspace(0.0, config.t_max, config.t_steps)
    written = []
    for lam in dict.fromkeys(config.lambdas):
        params = ModelParams(N=config.N, lam=lam, g=0.0)
        grid = make_kgrid(params)
        c1val = c1(params, grid).value.real
        rows = [(t,
                 c1val,
                 c2_irreducible(params, grid, float(t), 0.0).value.real,
                 c3_irreducible(params, grid, float(t), float(t) / 2.0, 0.0).value.real)
                for t in ts]
        path = Path(config.outputs) / f"correlators_lambda{lam:g}.csv"
        _write_text(path, _csv(CORRELATOR_HEADER, rows))
        written.append(path)
    return written


def run_sweep(config: SweepConfig) -> list[Path]:
    """Run the full sweep; returns the written file paths (summary last)."""
    config.validate()
    outdir = Path(config.outputs)
    outdir.mkdir(parents=True, exist_ok=True)

    if config.correlators:
        return _write_correlator_dumps(config)

    if config.validate_order3 and config.orders >= 3:
        _validate_order3_once(config)

    # a repeated point is computed once but keeps its summary rows; validate()
    # makes equal file names mean equal points
    points = [(lam, g) for lam in config.lambdas for g in config.gs]
    names = [curve_filename(lam, g) for lam, g in points]
    unique = dict(zip(names, points))
    payloads = [(config, *point) for point in unique.values()]
    if config.jobs > 1:
        # under fork the pool starts every worker at the first submit
        with ProcessPoolExecutor(max_workers=min(config.jobs, len(payloads))) as pool:
            results = list(pool.map(_sweep_point_task, payloads))
    else:
        results = [_sweep_point_task(p) for p in payloads]
    summaries = dict(zip(unique, (summary for _, summary in results)))

    summary_path = outdir / "summary.csv"
    _write_text(summary_path, _csv(SUMMARY_HEADER, [summaries[n] for n in names]))
    return [path for path, _ in results] + [summary_path]


def _validate_order3_once(config: SweepConfig):
    """Check the order-3 closed form against its quadrature once per sweep.

    The mode sum is exact by construction, so the check targets the time
    integration; it runs on a reduced grid (<= VALIDATION_MODES modes) to keep
    the reference integration affordable.
    """
    candidates = [(lam, g) for lam in config.lambdas for g in config.gs if g != 0.0]
    if not candidates:
        return
    lam, g = candidates[0]
    n_val = min(config.N, VALIDATION_MODES)
    params = ModelParams(N=n_val, lam=lam, g=g)
    gamma_order3(params, make_kgrid(params), config.t_max,
                 quadrature_points=config.quadrature_points)


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
        lines = []
        for r in self.results:
            lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.claim} ({r.subject}): {r.detail}")
        lines.append(f"check_figures: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _read_curve(path: Path) -> dict[str, np.ndarray]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != CURVE_HEADER:
        raise ValueError(f"{path}: unexpected or missing curve header")
    cols = CURVE_HEADER.split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(cols)}


def check_figures(config: SweepConfig) -> FigureCheckReport:
    """Evaluate the qualitative regime claims against a finished sweep.

    Claims:
      - weak coupling (g <= WEAK_G_MAX, lam > 0): |Gamma3(t)| < |Gamma2(t)| at
        every sampled t > 0.  (lam = 0 is excluded: its flat dispersion makes
        |Gamma2| revive through zero periodically, so the pointwise ordering
        is not meaningful there.)
      - strong coupling (g >= STRONG_G_MIN): some sampled t* has
        |Gamma3(t*)| > |Gamma2(t*)|.
      - cubic coupling scaling: |Gamma3|/g^3 is the same curve for every g at
        fixed lambda, to SCALING_REL_TOL relative.
      - near critical (|1 - lam| <= NEAR_CRITICAL_WINDOW, strong coupling):
        |Gamma3(t)| is non-decreasing over the sampled window.
    """
    outdir = Path(config.outputs)
    curves = {}
    for lam in config.lambdas:
        for g in config.gs:
            path = outdir / curve_filename(lam, g)
            if not path.exists():
                raise ValueError(f"missing sweep output {path}; run the sweep first")
            curves[(lam, g)] = _read_curve(path)

    results = []

    for (lam, g), cur in curves.items():
        subject = f"lambda={lam:g}, g={g:g}"
        mask = cur["t"] > 0.0
        if g <= WEAK_G_MAX and g > 0.0 and lam > 0.0:
            bad = mask & ~(cur["abs_g3"] < cur["abs_g2"])
            if bad.any():
                t_bad = cur["t"][bad][0]
                results.append(ClaimResult(
                    "weak-coupling ordering", subject, False,
                    f"|Gamma3| >= |Gamma2| at t={t_bad:g}"))
            else:
                results.append(ClaimResult(
                    "weak-coupling ordering", subject, True,
                    "|Gamma3| < |Gamma2| at every sampled t > 0"))
        if g >= STRONG_G_MIN:
            above = mask & (cur["abs_g3"] > cur["abs_g2"])
            if above.any():
                results.append(ClaimResult(
                    "strong-coupling crossing", subject, True,
                    f"t* = {cur['t'][above][0]:g}"))
            else:
                ratio = np.max(cur["abs_g3"][mask] / np.maximum(cur["abs_g2"][mask], 1e-300))
                results.append(ClaimResult(
                    "strong-coupling crossing", subject, False,
                    f"no crossing on (0, {config.t_max:g}]; max |Gamma3|/|Gamma2| = {ratio:.3g}"))
            if abs(1.0 - lam) <= NEAR_CRITICAL_WINDOW:
                drops = np.diff(cur["abs_g3"]) < -MONOTONE_REL_TOL * np.max(cur["abs_g3"])
                if drops.any():
                    t_bad = cur["t"][1:][drops][0]
                    results.append(ClaimResult(
                        "near-critical monotone growth", subject, False,
                        f"|Gamma3| decreases at t={t_bad:g}"))
                else:
                    results.append(ClaimResult(
                        "near-critical monotone growth", subject, True,
                        "|Gamma3| non-decreasing over the window"))

    # one verdict per distinct lambda, over the distinct nonzero g
    gs = [g for g in dict.fromkeys(config.gs) if g != 0.0]
    for lam in dict.fromkeys(config.lambdas) if len(gs) > 1 else ():
        subject = f"lambda={lam:g}, gs={','.join(f'{g:g}' for g in gs)}"
        ref = curves[(lam, gs[0])]["abs_g3"] / gs[0] ** 3
        ok, detail = True, "|Gamma3|/g^3 identical across g"
        for g in gs[1:]:
            scaled = curves[(lam, g)]["abs_g3"] / g**3
            denom = np.maximum(np.maximum(np.abs(ref), np.abs(scaled)), 1e-250)
            rel = np.abs(scaled - ref) / denom
            worst = int(np.argmax(rel))
            if rel[worst] > SCALING_REL_TOL:
                ok = False
                detail = (f"g={g:g} deviates by {rel[worst]:.3g} relative "
                          f"at t={curves[(lam, g)]['t'][worst]:g}")
                break
        results.append(ClaimResult("cubic coupling scaling", subject, ok, detail))

    return FigureCheckReport(tuple(results))

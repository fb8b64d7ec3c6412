"""Correctness check of sweep outputs against references built here.

Nothing in this module calls ``tfim_dephasing.cumulants`` or
``tfim_dephasing.exact`` to produce a reference value:

- Gamma2 and Gamma3 are recomputed from the paper's mode sums with
  ``math.fsum`` on a +/-k grid built here, in cancellation-free forms
  (1 - cos x = 2 sin^2(x/2), and a Taylor series for sin x - x cos x at
  small x), so the reference is accurate to a few ulp of each term.
- Re Gamma_exact is checked against sum_{k>0} ln|A_k| and Im Gamma_exact,
  modulo 2 pi, against sum_{k>0} arg A_k, where A_k is the vacuum element of
  exp(-it(H+gB)) exp(+it(H-gB)) from a batched closed-form 2x2 Hermitian
  matrix exponential (the SU(2) formula, not the program's a/b closed form),
  evaluated in extended precision: at weak coupling ln|A_k| is ~1e-7 and a
  double-precision oracle would carry errors of the size being measured.
- The branch of Im Gamma_exact, which the oracle cannot see, is checked
  against the program's own result (``branch_fn``).  On the same time grid
  every row must agree: a 2 pi jump there means the file does not hold what
  the program computes.  On a 4x denser grid a row that differs by a multiple
  of 2 pi is a branch slip: the coarse grid followed another branch than the
  finely resolved curve.  Slips are counted, not failed, because e^Gamma (the
  coherence) is the same on either branch.

Errors are normwise: for each curve and quantity, the largest absolute
difference over the checked rows divided by the largest magnitude of that
column over all rows of the file (for the exact route, the largest
|Gamma_exact|), so that values near a zero crossing do not dominate.
The rows checked are t[1] (the first step, where the small-x cancellation in
the mode sums is worst), t[-1], and a seeded sample of the others.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CURVE_HEADER = (
    "t,re_g1,im_g1,re_g2,im_g2,re_g3,im_g3,"
    "re_series,im_series,re_exact,im_exact,abs_g2,abs_g3"
)
SUMMARY_HEADER = "lambda,g,t_star,max_exact_series_diff,near_critical"
SAMPLED_ROWS = 6
DENSITY = 4
# Both routes are double precision end to end; a relative error above this is
# a wrong result, not rounding.
SERIES_TOL = 1e-8
EXACT_TOL = 1e-8
SMALL_X = 0.5


def curve_filename(lam: float, g: float) -> str:
    """The curve file name fixed by the CSV contract."""
    return f"curve_lambda{lam:g}_g{g:g}.csv"


def read_curve(path: Path) -> dict[str, np.ndarray]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != CURVE_HEADER:
        raise ValueError(f"{path.name}: missing or unexpected header")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(CURVE_HEADER.split(","))}


def positive_modes(N: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """eps_k and sin 2theta_k on k = (2l-1) pi / N, l = 1..N/2."""
    k = (2.0 * np.arange(1, N // 2 + 1) - 1.0) * math.pi / N
    root = np.sqrt(1.0 - 2.0 * lam * np.cos(k) + lam * lam)
    return 2.0 * root, np.sin(k) / root


def full_modes(N: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """eps_k and sin 2theta_k on the full +/-k grid."""
    eps, s2 = positive_modes(N, lam)
    return np.concatenate([eps[::-1], eps]), np.concatenate([-s2[::-1], s2])


def _sin_minus_x_cos(x: np.ndarray) -> np.ndarray:
    """sin x - x cos x, by its Taylor series where direct evaluation cancels."""
    out = np.sin(x) - x * np.cos(x)
    small = np.abs(x) < SMALL_X
    xs = x[small]
    series = np.zeros_like(xs)
    term = xs**3 / 3.0          # n = 1 of sum_n (-1)^(n+1) 2n x^(2n+1) / (2n+1)!
    for n in range(1, 12):
        series += term
        term = -term * xs * xs * (n + 1) / (n * (2 * n + 2) * (2 * n + 3))
    out[small] = series
    return out


def gamma2(eps: np.ndarray, g: float, t: float) -> float:
    """-g^2 sum_k (1 - cos 2 eps t) / eps^2 at zero temperature."""
    return -g * g * math.fsum(2.0 * np.sin(eps * t) ** 2 / eps**2)


def gamma3(eps: np.ndarray, s2: np.ndarray, g: float, t: float) -> float:
    """g^3 sum_k sin^2 2theta (sin x - x cos x) / eps^3, x = 2 eps t (imaginary part)."""
    return g**3 * math.fsum(s2**2 * _sin_minus_x_cos(2.0 * eps * t) / eps**3)


def _expm_herm(m00, m01, m11, tau):
    """Entries 00, 01 and 10 of exp(-i tau M) for a batch of Hermitian 2x2
    M = [[m00, m01], [m01*, m11]].

    M = c + v.sigma with |v| = r gives exp(-i tau M) =
    e^{-i tau c} (cos(r tau) - i sin(r tau)/r (M - c)).
    """
    c = 0.5 * (m00 + m11)
    d = 0.5 * (m00 - m11)
    r = np.sqrt(d * d + np.abs(m01) ** 2)
    phase = np.exp(-1j * tau * c)
    cos_ = np.cos(r * tau)
    sinc = np.sin(r * tau) / r                       # r > 0: s_k != 0 on the grid
    u00 = phase * (cos_ - 1j * sinc * d)
    u01 = phase * (-1j * sinc * m01)
    u10 = phase * (-1j * sinc * np.conj(m01))
    return u00, u01, u10


def overlap(eps: np.ndarray, s2: np.ndarray, g: float, t: np.ndarray) -> np.ndarray:
    """A_k(t) = [exp(-it(H+gB)) exp(+it(H-gB))]_00 in long double; rows t, columns k.

    H = diag(-eps, eps), B = [[0, i s], [-i s, -4]] in the even-parity pair basis.
    """
    eps = eps.astype(np.longdouble)
    g = np.longdouble(g)
    tau = np.asarray(t, dtype=np.longdouble)[:, None]
    coupling = 1j * g * s2.astype(np.longdouble)
    p00, p01, _ = _expm_herm(-eps, coupling, eps - 4.0 * g, tau)
    m00, _, m10 = _expm_herm(-eps, -coupling, eps + 4.0 * g, -tau)
    return p00 * m00 + p01 * m10


@dataclass
class CheckResult:
    """Largest errors found, counts, and a line per problem."""

    series_err: float = 0.0
    exact_err: float = 0.0
    branch_slips: int = 0
    values_checked: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max(self.series_err, self.exact_err)

    @property
    def correct(self) -> bool:
        return (not self.problems
                and self.series_err <= SERIES_TOL and self.exact_err <= EXACT_TOL)


def sample_rows(t_steps: int, rng: np.random.Generator) -> np.ndarray:
    inner = np.arange(2, t_steps - 1)
    picked = rng.choice(inner, size=min(SAMPLED_ROWS, inner.size), replace=False)
    return np.unique(np.concatenate([[1, t_steps - 1], picked]).astype(int))


def _normwise(prog: np.ndarray, ref: np.ndarray, scale: float) -> float:
    """Largest |prog - ref| over scale, capped at 1 (a wrong value, NaN included)."""
    err = float(np.max(np.abs(prog - ref)))
    if scale > 0.0:
        err /= scale
    return err if err < 1.0 else 1.0


def _wrap(x: np.ndarray) -> np.ndarray:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def check_curve(cur: dict, N: int, lam: float, g: float, emit_exact: bool,
                rows: np.ndarray, result: CheckResult, branch_fn=None) -> None:
    """Compare one parsed curve with the references; accumulate into ``result``."""
    computed = [c for c in CURVE_HEADER.split(",") if emit_exact or "exact" not in c]
    if not all(np.all(np.isfinite(cur[c])) for c in computed):
        result.problems.append(f"lambda={lam:g} g={g:g}: a computed value is not finite")
        return
    ts = cur["t"][rows]
    eps, s2 = full_modes(N, lam)
    checks = (("re_g2", np.array([gamma2(eps, g, t) for t in ts])),
              ("im_g3", np.array([gamma3(eps, s2, g, t) for t in ts])))
    for column, ref in checks:
        scale = float(np.max(np.abs(cur[column])))
        result.series_err = max(result.series_err, _normwise(cur[column][rows], ref, scale))
        result.values_checked += ref.size

    if not emit_exact:
        if not np.all(np.isnan(cur["re_exact"])):
            result.problems.append(f"lambda={lam:g} g={g:g}: exact columns not nan")
        return
    eps_p, s2_p = positive_modes(N, lam)
    logs = np.log(overlap(eps_p, s2_p, g, ts))
    re_p, im_p = cur["re_exact"][rows], cur["im_exact"][rows]
    scale = float(np.max(np.hypot(cur["re_exact"], cur["im_exact"])))
    re_err = _normwise(re_p, logs.real.sum(axis=1), scale)
    im_err = _normwise(_wrap(im_p - logs.imag.sum(axis=1)).astype(float), 0.0, scale)
    result.exact_err = max(result.exact_err, re_err, im_err)
    result.values_checked += 2 * rows.size
    if branch_fn is None:
        return
    im = cur["im_exact"]
    t_max, t_steps = float(cur["t"][-1]), im.size
    try:
        dense = branch_fn(N, lam, g, t_max, DENSITY * (t_steps - 1) + 1)[::DENSITY]
        off_dense = np.round((im - dense) / (2.0 * math.pi)) != 0
        # A row off the dense branch is a slip only if the program puts it there
        # on this grid too; otherwise the file was altered after the program.
        same = branch_fn(N, lam, g, t_max, t_steps) if off_dense.any() else im
    except RuntimeError as exc:
        result.problems.append(f"lambda={lam:g} g={g:g}: {exc}")
        return
    altered = np.round((im - same) / (2.0 * math.pi)) != 0
    if altered.any():
        result.problems.append(
            f"lambda={lam:g} g={g:g}: {np.count_nonzero(altered)} rows of im_exact "
            f"differ by 2 pi from the program's own result on the same grid")
    result.branch_slips += int(np.count_nonzero(off_dense & ~altered))


def check_outputs(outdir: Path, N: int, lambdas, gs, t_max: float, t_steps: int,
                  emit_exact: bool, rng: np.random.Generator,
                  branch_fn=None) -> CheckResult:
    """Check every curve file and the summary an orders-3 sweep wrote into ``outdir``."""
    result = CheckResult()
    expected_t = np.linspace(0.0, t_max, t_steps)
    for lam in lambdas:
        for g in gs:
            path = outdir / curve_filename(lam, g)
            try:
                cur = read_curve(path)
            except (OSError, ValueError) as exc:
                result.problems.append(str(exc))
                continue
            if cur["t"].size != t_steps or np.max(np.abs(cur["t"] - expected_t)) > 1e-12 * t_max:
                result.problems.append(f"{path.name}: time column differs from the grid")
                continue
            rows = sample_rows(t_steps, rng)
            check_curve(cur, N, lam, g, emit_exact, rows, result, branch_fn)
    summary = outdir / "summary.csv"
    lines = summary.read_text().splitlines() if summary.exists() else []
    if not lines or lines[0] != SUMMARY_HEADER or len(lines) != 1 + len(lambdas) * len(gs):
        result.problems.append("summary.csv: missing, bad header or wrong row count")
    return result

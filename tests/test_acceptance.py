"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criteria 5 and 8 encode cross-route predictions that the implemented formulas
do not satisfy (see README, "Known discrepancies"): the truncated series'
second-order kernel carries no sin^2(2 theta_k) weight while the per-mode
product solution does, so their difference is O(g^2), not O(g^4), and the
strong-coupling |Gamma3| > |Gamma2| crossing does not occur at lam = 0.5
within the stated window.  Both tests assert the stated criterion verbatim
and are expected to fail; the printed diagnostics carry the measured values.
"""

import math
import time

import numpy as np
import pytest

from tfim_dephasing import (
    ModelParams,
    SweepConfig,
    c2_irreducible,
    c3_irreducible,
    certify_closed_form,
    curve_filename,
    gamma_exact,
    gamma_for_series_comparison,
    gamma_order1,
    gamma_order2,
    gamma_order2_quadrature,
    gamma_order3,
    gamma_order3_quadrature,
    gamma_series,
    make_kgrid,
    mode_overlap_closed_form,
    run_sweep,
)
from tfim_dephasing.sweep import CURVE_HEADER, SUMMARY_HEADER


def _verdict(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def test_criterion_1_zero_coupling_identity():
    start = time.perf_counter()
    worst = 0.0
    ts = np.linspace(0, 10, 64)
    for lam in (0.0, 0.5, 1.0, 2.0):
        params = ModelParams(N=100, lam=lam, g=0.0)
        curve = gamma_exact(params, make_kgrid(params), ts)
        worst = max(worst, float(np.max(np.abs(curve.gamma))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    assert _verdict(1, ok, f"max |Gamma_exact| at g=0 is {worst:.3e} in {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    params = ModelParams(N=16, lam=0.0, g=0.0)
    times = np.linspace(0, 4, 16)
    gs = (0.0, 0.01, 0.5, 1.0, 2.0)
    worst = 0.0
    for lam in (0.0, 0.5, 0.97, 1.0, 2.0):
        grid = make_kgrid(ModelParams(N=16, lam=lam, g=0.0))
        worst = max(worst, certify_closed_form(grid, gs, times))
    # the legacy closed-form coefficients break the g = 0 identity
    half = make_kgrid(ModelParams(N=16, lam=0.5, g=0.0))
    mode = float(half.eps_pos[3]), float(half.sin2theta_pos[3])
    legacy_defect = abs(mode_overlap_closed_form(*mode, 0.0, 1.0, corrected=False) - 1.0)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and legacy_defect > 1e-3 and elapsed < 5.0
    assert _verdict(
        2, ok,
        f"max |closed - oracle| = {worst:.3e}; legacy-coefficient defect at g=0 "
        f"= {legacy_defect:.3f}; {elapsed:.2f}s",
    )


def test_criterion_3_order2_closed_form_vs_quadrature():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        params = ModelParams(
            N=int(rng.integers(2, 33)) * 2,
            lam=float(rng.uniform(0, 2)),
            g=float(rng.uniform(0.05, 2)),
        )
        grid = make_kgrid(params)
        t = float(rng.uniform(0.2, 5))
        closed = gamma_order2(params, grid, t).real
        quad = gamma_order2_quadrature(params, grid, t, points=64).real
        worst = max(worst, abs(closed - quad) / max(abs(quad), 1e-12))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    assert _verdict(3, ok, f"max relative deviation {worst:.3e} in {elapsed:.2f}s")


def test_criterion_4_order3_simplex_vs_cube_quadrature():
    start = time.perf_counter()
    rng = np.random.default_rng(4096)
    worst = 0.0
    draws = 0
    while draws < 5:
        params = ModelParams(
            N=int(rng.integers(2, 17)) * 2,
            lam=float(rng.uniform(0, 2)),
            g=float(rng.uniform(0.2, 2)),
        )
        grid = make_kgrid(params)
        t = float(rng.uniform(0.4, 2.0))
        analytic = gamma_order3(params, grid, t).imag
        if abs(analytic) < 1e-3 * params.g**3 * params.N * t**3:
            continue  # skip near-cancellation draws where relative error is ill-posed
        draws += 1
        # 6 cells x 80^3 nodes > 128^3 total resolution
        quad = gamma_order3_quadrature(params, grid, t, points=80).imag
        worst = max(worst, abs(analytic - quad) / abs(quad))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 60.0
    assert _verdict(4, ok, f"max relative deviation {worst:.3e} in {elapsed:.2f}s")


def test_criterion_5_series_vs_exact_quartic_residual():
    start = time.perf_counter()
    t = 3.0
    ts = np.array([0.0, t])

    def residual(g):
        params = ModelParams(N=100, lam=0.5, g=g)
        grid = make_kgrid(params)
        exact = gamma_for_series_comparison(gamma_exact(params, grid, ts))[-1]
        series = gamma_series(params, grid, ts, max_order=3)[-1].truncated_sum
        return abs(exact - series)

    r = {g: residual(g) for g in (0.02, 0.01, 0.005)}
    ratio_a = r[0.02] / r[0.01]
    ratio_b = r[0.01] / r[0.005]
    elapsed = time.perf_counter() - start
    ok = 12 <= ratio_a <= 20 and 12 <= ratio_b <= 20 and elapsed < 60.0
    assert _verdict(
        5, ok,
        f"R(0.02)/R(0.01) = {ratio_a:.3f}, R(0.01)/R(0.005) = {ratio_b:.3f} "
        f"(required in [12, 20]; residuals {r[0.02]:.3e}/{r[0.01]:.3e}/{r[0.005]:.3e}) "
        f"in {elapsed:.2f}s",
    )


def test_criterion_6_parity_structure():
    rng = np.random.default_rng(777)
    worst_parity = 0.0
    worst_sign = -math.inf
    for _ in range(50):
        params = ModelParams(
            N=int(rng.integers(2, 33)) * 2,
            lam=float(rng.uniform(0, 2)),
            g=float(rng.uniform(-2, 2)),
        )
        grid = make_kgrid(params)
        t = float(rng.uniform(0, 5))
        g1 = gamma_order1(params, grid, t)
        g2 = gamma_order2(params, grid, t)
        g3 = gamma_order3(params, grid, t)
        worst_parity = max(worst_parity, abs(g1.real) + abs(g3.real) + abs(g2.imag))
        worst_sign = max(worst_sign, g2.real)
    ok = worst_parity < 1e-12 and worst_sign <= 0.0
    assert _verdict(
        6, ok, f"max parity leak {worst_parity:.1e}; max Gamma2 {worst_sign:.1e}"
    )


def test_criterion_7_correlator_properties(mirrored):
    from itertools import permutations

    params = ModelParams(N=20, lam=0.8, g=0.0)
    grid = make_kgrid(params)
    rng = np.random.default_rng(99)

    perm_worst = 0.0
    for _ in range(20):
        ts = rng.uniform(0, 5, 3)
        vals = [
            c3_irreducible(grid, *(ts[list(p)]))
            for p in permutations(range(3))
        ]
        scale = max(max(abs(v) for v in vals), 1e-30)
        perm_worst = max(perm_worst, (max(vals) - min(vals)) / scale)

    stationary = (
        c2_irreducible(grid, 1.5, 0.25)
        == c2_irreducible(grid, 1.5 + 4.0, 0.25 + 4.0)
    )
    even = (
        c2_irreducible(grid, 2.5, 0.75)
        == c2_irreducible(grid, 0.75, 2.5)
    )
    equal_time_is_n = c2_irreducible(grid, 1.1, 1.1) == complex(20.0)

    limit = -2.0 * float(np.sum(mirrored(grid).sin2theta**2))
    cont_worst = 0.0
    converging = True
    for perm in permutations((0.0, 1.0, 2.0)):
        gaps = [
            abs(c3_irreducible(grid, *(1.0 + p * delta for p in perm)) - limit)
            for delta in (1e-4, 1e-5, 1e-6)
        ]
        converging = converging and gaps[1] < gaps[0] and gaps[2] < gaps[1]
        cont_worst = max(cont_worst, gaps[-1])

    ok = (perm_worst < 1e-12 and stationary and even and equal_time_is_n
          and converging and cont_worst < 1e-9)
    assert _verdict(
        7, ok,
        f"permutation spread {perm_worst:.1e}; stationary={stationary}; even={even}; "
        f"c2(t,t)=N={equal_time_is_n}; coincident-limit gap {cont_worst:.1e}",
    )


def test_criterion_8_weak_strong_regimes():
    start = time.perf_counter()
    ts = np.linspace(0, 5, 128)
    grid = make_kgrid(ModelParams(N=1000, lam=0.5, g=1.0))

    weak = gamma_series(ModelParams(N=1000, lam=0.5, g=0.01), grid, ts)
    weak_ok = all(
        abs(tm.gamma3) < abs(tm.gamma2) for tm in weak if tm.t > 0
    )

    strong = gamma_series(ModelParams(N=1000, lam=0.5, g=1.0), grid, ts)
    crossings = [tm.t for tm in strong if tm.t > 0 and abs(tm.gamma3) > abs(tm.gamma2)]
    ratio_max = max(
        abs(tm.gamma3) / abs(tm.gamma2) for tm in strong if tm.t > 0
    )
    elapsed = time.perf_counter() - start
    strong_ok = bool(crossings)
    ok = weak_ok and strong_ok and elapsed < 120.0
    assert _verdict(
        8, ok,
        f"weak ordering holds: {weak_ok}; strong crossing t* = "
        f"{crossings[0] if crossings else None} "
        f"(max |Gamma3|/|Gamma2| = {ratio_max:.3f}) in {elapsed:.2f}s",
    )


def test_criterion_9_cubic_scaling():
    params = {g: ModelParams(N=64, lam=0.5, g=g) for g in (0.25, 0.5, 1.0)}
    grid = make_kgrid(params[0.25])
    worst = 0.0
    for t in (0.7, 1.9, 4.3):
        base = gamma_order3(params[0.25], grid, t).imag
        for g, expect in ((0.5, 8.0), (1.0, 64.0)):
            ratio = gamma_order3(params[g], grid, t).imag / base
            worst = max(worst, abs(ratio - expect) / expect)
    ok = worst < 1e-6
    assert _verdict(9, ok, f"1:8:64 ratio max relative error {worst:.1e}")


def test_criterion_10_csv_contract(tmp_path):
    config_a = SweepConfig(
        lambdas=(0.5, 0.97), gs=(0.01, 1.0), N=64, t_max=5.0, t_steps=32,
        outputs=str(tmp_path / "a"), emit_exact=True,
    )
    config_b = SweepConfig(
        lambdas=(0.5, 0.97), gs=(0.01, 1.0), N=64, t_max=5.0, t_steps=32,
        outputs=str(tmp_path / "b"), emit_exact=True,
    )
    paths_a = run_sweep(config_a)
    paths_b = run_sweep(config_b)
    identical = all(pa.read_bytes() == pb.read_bytes() for pa, pb in zip(paths_a, paths_b))

    header_ok = all(
        p.read_text().splitlines()[0] == CURVE_HEADER for p in paths_a[:-1]
    ) and paths_a[-1].read_text().splitlines()[0] == SUMMARY_HEADER

    t_star_ok = True
    summary_lines = paths_a[-1].read_text().splitlines()[1:]
    cols = CURVE_HEADER.split(",")
    for line in summary_lines:
        lam_s, g_s, t_star_s, _, _ = line.split(",")
        curve = (tmp_path / "a" / curve_filename(float(lam_s), float(g_s))).read_text()
        rows = [dict(zip(cols, map(float, ln.split(",")))) for ln in curve.splitlines()[1:]]
        crossings = [r["t"] for r in rows if r["abs_g3"] > r["abs_g2"]]
        expect = crossings[0] if crossings else None
        got = float(t_star_s) if t_star_s else None
        t_star_ok = t_star_ok and (expect == got)

    ok = identical and header_ok and t_star_ok
    assert _verdict(
        10, ok,
        f"byte-identical={identical}; headers exact={header_ok}; t* consistent={t_star_ok}",
    )

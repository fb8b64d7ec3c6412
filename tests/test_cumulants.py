import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

import tfim_dephasing.cumulants as cumulants
from tfim_dephasing import (
    FiniteBetaError,
    QuadratureConvergenceError,
    c1,
    c3_irreducible,
    gamma_order1,
    gamma_order2,
    gamma_order2_quadrature,
    gamma_order3,
    gamma_order3_quadrature,
    gamma_series,
)

GAMMA3_LAM05_N8_G1_T1 = 1.9232600345545494j


def test_gamma1_examples(model):
    params, grid = model(8, 0.0, g=0.7)
    assert gamma_order1(params, grid, 2.0) == pytest.approx(0.0, abs=1e-13)
    params, grid = model(4, 2.0, g=1.0)
    assert gamma_order1(params, grid, 0.0) == 0.0
    assert gamma_order1(params, grid, 1.0) == pytest.approx(
        2j * c1(params, grid).value.real, rel=1e-14
    )
    assert gamma_order1(params, grid, 1.3).real == 0.0


def test_gamma2_zero_time(model):
    params, grid = model(8, 0.5, g=0.4)
    assert gamma_order2(params, grid, 0.0) == 0.0


def test_gamma2_lambda0_closed_form(model):
    params, grid = model(10, 0.0, g=0.6)
    t = 1.7
    expect = -params.g**2 * 10 * (1 - math.cos(4 * t)) / 4
    assert gamma_order2(params, grid, t).real == pytest.approx(expect, rel=1e-13)


def test_gamma2_small_time(model):
    params, grid = model(24, 1.2, g=0.8)
    t = 1e-3
    got = gamma_order2(params, grid, t).real
    assert got == pytest.approx(-2 * 24 * params.g**2 * t**2, rel=1e-4)
    assert got == pytest.approx(gamma_order2_quadrature(params, grid, t).real, rel=1e-10)


def test_gamma2_vs_quadrature_random():
    rng = np.random.default_rng(41)
    from tfim_dephasing import ModelParams, make_kgrid

    for _ in range(10):
        params = ModelParams(
            N=int(rng.integers(2, 33)) * 2,
            lam=float(rng.uniform(0, 2)),
            g=float(rng.uniform(0.05, 2)),
        )
        grid = make_kgrid(params)
        t = float(rng.uniform(0.1, 5))
        closed = gamma_order2(params, grid, t).real
        quad = gamma_order2_quadrature(params, grid, t, points=64).real
        assert abs(closed - quad) <= 1e-6 * max(abs(quad), 1e-12)


def test_gamma2_nonpositive(model):
    params, grid = model(16, 0.9, g=1.1)
    for t in np.linspace(0, 8, 40):
        val = gamma_order2(params, grid, float(t))
        assert val.imag == 0.0 and val.real <= 0.0


def test_gamma2_finite_beta(model):
    params, grid = model(8, 0.8, g=0.5, beta=1.3)
    t = 1.4
    occ = 1.0 / (np.exp(1.3 * grid.eps) + 1.0)
    expect = -params.g**2 * float(
        np.sum((occ + 1.0) ** 2 * (1 - np.cos(2 * grid.eps * t)) / grid.eps**2)
    )
    assert gamma_order2(params, grid, t).real == pytest.approx(expect, rel=1e-13)
    quad = gamma_order2_quadrature(params, grid, t, points=64).real
    assert expect == pytest.approx(quad, rel=1e-8)


def test_gamma3_zero_time(model):
    params, grid = model(8, 0.5, g=1.0)
    assert gamma_order3(params, grid, 0.0) == 0.0


def test_gamma3_cubic_scaling(model):
    p1, grid = model(12, 0.7, g=1.0)
    p2, _ = model(12, 0.7, g=2.0)
    r = gamma_order3(p2, grid, 1.3).imag / gamma_order3(p1, grid, 1.3).imag
    assert r == pytest.approx(8.0, rel=1e-15)


def test_gamma3_frozen_value(model):
    params, grid = model(8, 0.5, g=1.0)
    got = gamma_order3(params, grid, 1.0)
    assert got.real == 0.0
    assert got == pytest.approx(GAMMA3_LAM05_N8_G1_T1, rel=1e-13)
    quad = gamma_order3_quadrature(params, grid, 1.0, points=24)
    assert quad == pytest.approx(GAMMA3_LAM05_N8_G1_T1, rel=1e-10)


def test_gamma3_quadrature_matches_kernel_sum(model):
    """Rebuild the split-cell rule from scratch with per-node correlator calls."""
    params, grid = model(4, 0.8, g=0.9)
    t, p = 1.1, 4
    x, w = np.polynomial.legendre.leggauss(p)
    u, wu = 0.5 * (x + 1.0), 0.5 * w
    total = 0.0
    from itertools import permutations

    for perm in permutations(range(3)):
        for i in range(p):
            for j in range(p):
                for l in range(p):
                    ta = t * u[i]
                    tb = ta * u[j]
                    tc = tb * u[l]
                    coords = [None, None, None]
                    coords[perm[0]], coords[perm[1]], coords[perm[2]] = ta, tb, tc
                    kern = c3_irreducible(params, grid, *coords).value.real
                    total += wu[i] * wu[j] * wu[l] * t * ta * tb * kern
    expect = complex(0.0, -(4.0 / 3.0) * params.g**3 * total)
    got = gamma_order3_quadrature(params, grid, t, points=p)
    assert got == pytest.approx(expect, rel=1e-12)


def six_cell_reference(params, grid, t, points):
    """The cell-split rule as first written: every cell evaluates its own three
    pair sums over the whole cube."""
    s2sq = grid.sin2theta_pos**2
    u, wu = cumulants._leggauss01(points)
    U = u[:, None, None]
    V = u[None, :, None]
    W = u[None, None, :]
    ta = t * U
    tb = ta * V
    tc = tb * W
    jac = t * ta * tb
    wt = wu[:, None, None] * wu[None, :, None] * wu[None, None, :] * jac
    integral = 0.0
    for perm in permutations(range(3)):
        coords = [None, None, None]
        coords[perm[0]], coords[perm[1]], coords[perm[2]] = (
            np.broadcast_arrays(ta, tb, tc)
        )
        T1, T2, T3 = coords
        b13, b12, b23 = cumulants._order3_kernel_brackets(T1, T2, T3)
        kern = -(
            b13 * cumulants._mode_cos_sum(grid, s2sq, T1 - T3)
            + b12 * cumulants._mode_cos_sum(grid, s2sq, T1 - T2)
            + b23 * cumulants._mode_cos_sum(grid, s2sq, T2 - T3)
        )
        integral += float(np.sum(wt * kern))
    return complex(0.0, -(4.0 / 3.0) * params.g**3 * integral)


@pytest.mark.parametrize(
    "N, lam40, t40, beyond",
    [(4, 0.0, 5.0, (2.0, 0.5, 80)), (8, 1.0, 0.5, (0.0, 5.0, 41)), (32, 2.0, 5.0, (0.5, 5.0, 64))],
    ids=("N4", "N8", "N32"),
)
def test_gamma_order3_quadrature_matches_six_cell_reference(model, N, lam40, t40, beyond):
    # up to 40 points the cube is one slab of BLOCK_ELEMENTS = 2^16 nodes, so
    # every node and every sum is the reference's; beyond, the slab sums add
    # in another order
    cases = [(lam, t, points) for lam in (0.0, 0.5, 1.0, 2.0) for t in (0.5, 5.0)
             for points in (8, 17)]
    for lam, t, points in cases + [(lam40, t40, 40)]:
        params, grid = model(N, lam, g=1.3)
        got = gamma_order3_quadrature(params, grid, t, points)
        assert got == six_cell_reference(params, grid, t, points), (lam, t, points)
    lam, t, points = beyond
    params, grid = model(N, lam, g=1.3)
    ref = six_cell_reference(params, grid, t, points)
    got = gamma_order3_quadrature(params, grid, t, points)
    assert got.real == 0.0
    assert abs(got - ref) <= 1e-14 * abs(ref)


def test_gamma_order3_quadrature_memory_bounded_by_block(model):
    params, grid = model(32, 0.5, g=1.0)
    tracemalloc.start()
    try:
        gamma_order3_quadrature(params, grid, 5.0, 96)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_gamma3_cube_variant_second_order_convergence(model):
    params, grid = model(16, 0.5, g=1.0)
    t = 1.0
    exact = gamma_order3(params, grid, t).imag
    errs = [
        abs(gamma_order3_quadrature(params, grid, t, points=n, split_orderings=False).imag
            - exact) / abs(exact)
        for n in (24, 48, 96)
    ]
    assert errs[0] < 2e-2
    assert errs[1] < errs[0] / 2.5
    assert errs[2] < errs[1] / 2.5


def test_gamma3_validation_hook(model):
    params, grid = model(8, 0.5, g=1.0)
    val = gamma_order3(params, grid, 1.0, quadrature_points=24)
    assert val == pytest.approx(GAMMA3_LAM05_N8_G1_T1, rel=1e-13)
    with pytest.raises(ValueError):
        gamma_order3(params, grid, 1.0, quadrature_points=4)


def test_gamma3_validation_rejects_points_beyond_cap_first(model, monkeypatch):
    params, grid = model(8, 0.5, g=1.0)
    calls = []
    monkeypatch.setattr(
        cumulants, "gamma_order3_quadrature", lambda *a, **k: calls.append(a) or 1j
    )
    with pytest.raises(ValueError, match="512"):
        gamma_order3(params, grid, 1.0, quadrature_points=513)
    assert calls == []


def test_gamma3_validation_detects_mismatch(model, monkeypatch):
    params, grid = model(8, 0.5, g=1.0)
    monkeypatch.setattr(
        cumulants, "gamma_order3_quadrature", lambda *a, **k: 1.23j
    )
    with pytest.raises(QuadratureConvergenceError):
        gamma_order3(params, grid, 1.0, quadrature_points=32)


def test_gamma3_requires_zero_temperature(model):
    params, grid = model(8, 0.5, g=1.0, beta=2.0)
    with pytest.raises(FiniteBetaError):
        gamma_order3(params, grid, 1.0)
    with pytest.raises(FiniteBetaError):
        gamma_order3_quadrature(params, grid, 1.0)
    with pytest.raises(FiniteBetaError):
        gamma_series(params, grid, np.linspace(0, 1, 4), max_order=3)
    # orders 1-2 stay available at finite temperature
    terms = gamma_series(params, grid, np.linspace(0, 1, 4), max_order=2)
    assert all(t.gamma3 == 0j for t in terms)


def test_gamma_series_truncation_and_identity(model):
    params, grid = model(10, 0.6, g=0.3)
    ts = np.linspace(0, 3, 7)
    for order in (1, 2, 3):
        terms = gamma_series(params, grid, ts, max_order=order)
        for tm in terms:
            included = [tm.gamma1, tm.gamma2, tm.gamma3][:order]
            assert tm.truncated_sum == sum(included)
            if order < 3:
                assert tm.gamma3 == 0j
            if order < 2:
                assert tm.gamma2 == 0j
    full = gamma_series(params, grid, ts, max_order=3)
    assert full[0].truncated_sum == 0j
    assert full[3].gamma1 == pytest.approx(gamma_order1(params, grid, float(ts[3])), rel=1e-14)
    assert full[3].gamma2 == pytest.approx(gamma_order2(params, grid, float(ts[3])), rel=1e-14)
    assert full[3].gamma3 == pytest.approx(gamma_order3(params, grid, float(ts[3])), rel=1e-14)


def test_gamma_series_values_do_not_depend_on_grid(model):
    # 10000 half-grid modes: three mode chunks; 200 times: many time blocks
    params, grid = model(20000, 0.7, g=0.9)
    ts = np.linspace(0.0, 6.0, 200)
    terms = gamma_series(params, grid, ts, max_order=3)
    for i in (0, 1, 15, 16, 17, 101, 199):
        t = float(ts[i])
        assert terms[i].gamma2 == gamma_order2(params, grid, t)
        assert terms[i].gamma3 == gamma_order3(params, grid, t)
    hot, grid = model(20000, 0.7, g=0.9, beta=0.8)
    terms = gamma_series(hot, grid, ts, max_order=2)
    for i in (1, 64, 198):
        assert terms[i].gamma2 == gamma_order2(hot, grid, float(ts[i]))


def test_gamma_series_memory_bounded_by_chunk(model):
    params, grid = model(8000, 0.5, g=1.0)
    ts = np.linspace(0.0, 5.0, 1024)
    tracemalloc.start()
    try:
        gamma_series(params, grid, ts, max_order=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_gamma_series_zero_coupling(model):
    params, grid = model(12, 1.3, g=0.0)
    for tm in gamma_series(params, grid, np.linspace(0, 5, 9)):
        assert tm.gamma1 == 0j and tm.gamma2 == 0j and tm.gamma3 == 0j
        assert tm.truncated_sum == 0j


def test_gamma_series_time_validation(model):
    params, grid = model(8, 0.5, g=0.1)
    with pytest.raises(ValueError):
        gamma_series(params, grid, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        gamma_series(params, grid, np.array([-0.5, 1.0]))
    with pytest.raises(ValueError):
        gamma_series(params, grid, np.array([]))
    for bad in ([0.0, np.nan], [0.0, np.inf], [np.nan]):
        with pytest.raises(ValueError, match="finite"):
            gamma_series(params, grid, np.array(bad))
    with pytest.raises(ValueError):
        gamma_series(params, grid, np.linspace(0, 1, 4), max_order=4)


def test_parity_structure_random_draws():
    from tfim_dephasing import ModelParams, make_kgrid

    rng = np.random.default_rng(59)
    for _ in range(50):
        params = ModelParams(
            N=int(rng.integers(2, 25)) * 2,
            lam=float(rng.uniform(0, 2)),
            g=float(rng.uniform(-2, 2)),
        )
        grid = make_kgrid(params)
        t = float(rng.uniform(0, 5))
        g1 = gamma_order1(params, grid, t)
        g2 = gamma_order2(params, grid, t)
        g3 = gamma_order3(params, grid, t)
        assert abs(g1.real) + abs(g3.real) + abs(g2.imag) < 1e-12
        assert g2.real <= 0.0


def test_gamma2_lower_bound(model):
    params, grid = model(14, 0.8, g=1.2)
    floor = -2 * params.g**2 * float(np.sum(1.0 / grid.eps**2))
    for t in np.linspace(0, 10, 23):
        assert gamma_order2(params, grid, float(t)).real >= floor - 1e-12

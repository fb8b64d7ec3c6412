import math
import tracemalloc

import numpy as np
import pytest

import tfim_dephasing.exact as exact_mod
from tfim_dephasing.exact import ANCHOR_ROWS
from tfim_dephasing.model import BLOCK_ELEMENTS, MODE_CHUNK
from tfim_dephasing import (
    BranchTrackingError,
    FiniteBetaError,
    KMode,
    ab_magnitudes,
    bogoliubov_angles,
    certify_closed_form,
    dispersion,
    gamma_exact,
    gamma_for_series_comparison,
    gamma_order1,
    gamma_order2,
    gamma_order3,
    gamma_series,
    mode_abc,
    mode_overlap_closed_form,
    mode_overlap_oracle,
)


def _mode(k, lam):
    c, s = bogoliubov_angles(k, lam)
    return KMode(k, dispersion(k, lam), c, s)


def test_oracle_identity_cases():
    mode = _mode(math.pi / 4, 0.5)
    assert mode_overlap_oracle(mode, 0.0, 1.3) == pytest.approx(1.0, abs=1e-14)
    assert mode_overlap_oracle(mode, 1.7, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_oracle_against_rk4_stepping():
    """Independent route: RK4 integration of both 2x2 Schroedinger factors."""
    mode = _mode(math.pi / 4, 0.5)
    g, t = 1.0, 0.7
    eps, s = mode.eps, mode.sin2theta
    m_plus = np.array([[-eps, 1j * g * s], [-1j * g * s, eps - 4 * g]])
    m_minus = np.array([[-eps, -1j * g * s], [1j * g * s, eps + 4 * g]])

    def evolve(m, sign, steps=4000):
        u = np.eye(2, dtype=complex)
        h = sign * t / steps

        def rhs(x):
            return -1j * m @ x

        for _ in range(steps):
            k1 = rhs(u)
            k2 = rhs(u + 0.5 * h * k1)
            k3 = rhs(u + 0.5 * h * k2)
            k4 = rhs(u + h * k3)
            u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return u

    overlap = (evolve(m_plus, +1.0) @ evolve(m_minus, -1.0))[0, 0]
    got = mode_overlap_oracle(mode, g, t)
    assert got == pytest.approx(complex(overlap), abs=1e-8)
    assert abs(got) <= 1.0 + 1e-12


def test_closed_form_matches_oracle(model):
    _, grid = model(8, 0.5)
    for mode in grid.positive_modes:
        for g in (0.0, 0.3, 1.5):
            for t in (0.3, 1.1, 2.7):
                closed = mode_overlap_closed_form(mode, g, t)
                oracle = mode_overlap_oracle(mode, g, t)
                assert abs(closed - oracle) < 1e-12


def test_certify_helper(model):
    _, grid = model(8, 1.2)
    assert certify_closed_form(grid, (0.0, 0.7), (0.5, 1.9)) < 1e-12


def test_closed_form_exact_identities():
    mode = _mode(1.1, 0.8)
    assert mode_overlap_closed_form(mode, 0.0, 2.2) == 1.0 + 0.0j
    assert mode_overlap_closed_form(mode, 1.4, 0.0) == 1.0 + 0.0j


def test_legacy_coefficients_break_zero_coupling():
    mode = _mode(math.pi / 4, 0.5)
    legacy = mode_overlap_closed_form(mode, 0.0, 0.9, corrected=False)
    assert abs(legacy - 1.0) > 0.1


def test_mode_abc_invariants():
    mode = _mode(0.9, 1.3)
    a, b = ab_magnitudes(mode, 0.0)
    assert a == b == pytest.approx(mode.eps, rel=1e-15)
    rec = mode_abc(mode, 0.8, 1.7)
    assert rec.a > 0 and rec.b > 0
    assert abs(rec.A_entry) <= 1.0 + 1e-12
    assert mode_abc(mode, 0.8, 0.0).A_entry == 1.0 + 0.0j


def test_overlap_magnitude_bounded(model):
    _, grid = model(16, 0.97)
    for mode in grid.positive_modes[::3]:
        for g in (0.01, 0.5, 2.0):
            for t in np.linspace(0, 4, 17):
                assert abs(mode_overlap_closed_form(mode, g, float(t))) <= 1.0 + 1e-12


def test_gamma_exact_zero_coupling(model):
    params, grid = model(100, 0.5, g=0.0, omega0=1.5)
    ts = np.linspace(0, 10, 64)
    curve = gamma_exact(params, grid, ts)
    assert np.all(curve.gamma == 0j)
    assert np.array_equal(curve.deterministic_phase, -2j * 1.5 * ts)
    assert curve.meta == params


def test_gamma_exact_basics(model):
    params, grid = model(32, 0.8, g=0.7, omega0=0.3)
    ts = np.linspace(0, 5, 41)
    curve = gamma_exact(params, grid, ts)
    assert curve.gamma[0] == 0j
    assert np.max(curve.gamma.real) <= 1e-10
    from tfim_dephasing import c1

    expect_phase = -2j * ts * (0.3 + 0.7 * c1(params, grid).value.real)
    assert np.allclose(curve.deterministic_phase, expect_phase, atol=1e-14)


def test_gamma_exact_time_validation(model):
    params, grid = model(8, 0.5, g=0.2)
    with pytest.raises(ValueError):
        gamma_exact(params, grid, np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        gamma_exact(params, grid, np.array([-1.0, 0.5]))
    for bad in ([0.0, np.nan], [0.0, np.inf], [np.nan]):
        with pytest.raises(ValueError, match="finite"):
            gamma_exact(params, grid, np.array(bad))
    with pytest.raises(FiniteBetaError):
        p_hot, _ = model(8, 0.5, g=0.2, beta=2.0)
        gamma_exact(p_hot, grid, np.array([0.0, 1.0]))


def test_gamma_exact_branch_tracking_consistency(model):
    """Coarse sampling must agree with dense sampling thanks to internal refinement."""
    params, grid = model(16, 1.0, g=2.0)
    coarse_t = np.linspace(0, 6, 9)
    dense_t = np.linspace(0, 6, 2049)
    coarse = gamma_exact(params, grid, coarse_t).gamma
    dense = gamma_exact(params, grid, dense_t).gamma
    assert np.max(np.abs(coarse - dense[::256])) < 1e-9


@pytest.mark.parametrize("steps, density", [(32, 16), (8, 128)])
@pytest.mark.parametrize("lam", [0.5, 0.9, 1.0, 1.5])
def test_gamma_exact_substeps_keep_branch(model, lam, steps, density):
    """Sub-steps stepped between requested times pick the same branch as
    requesting every sub-step time directly."""
    params, grid = model(2000, lam, g=2.5)
    # the coarse grids need 13-55 sub-steps per interval, the dense ones none;
    # on 8 steps, dropping the sub-steps moves Im Gamma by thousands
    coarse = gamma_exact(params, grid, np.linspace(0, 30, steps)).gamma
    dense_ts = np.linspace(0, 30, density * (steps - 1) + 1)
    dense = gamma_exact(params, grid, dense_ts).gamma[::density]
    assert np.max(np.abs(coarse.imag - dense.imag)) < 1e-9
    assert np.max(np.abs(coarse.real - dense.real) / np.abs(dense.real).clip(1e-300)) < 1e-13


def test_substep_overlaps_match_closed_form(model):
    """The stepped phasors reproduce the closed form on uneven intervals."""
    _, grid = model(64, 0.9)
    eps, s2 = grid.eps_pos, grid.sin2theta_pos
    coef = exact_mod._coefficients(eps, s2, 2.5)
    starts, ends = np.array([0.0, 1.3, 4.0]), np.array([1.3, 4.0, 4.5])
    row_sets = exact_mod._closed_form_rows(coef, 2.5, starts, ends, 9)
    seen = []
    for ts, entries in row_sets:  # the sub-steps share one buffer: compare in turn
        seen.append(ts)
        direct = exact_mod._closed_form_entries(eps, s2, 2.5, ts)
        assert np.max(np.abs(entries - direct)) < 1e-13
    assert len(seen) == 9 and np.array_equal(seen[0], ends)


def _normwise_gap(gamma, entries):
    """Largest gaps of Re Gamma from sum ln|A_k| and of Im Gamma from sum arg A_k
    (mod 2 pi), each over the largest |Gamma|."""
    scale = np.max(np.abs(gamma))
    re_gap = np.max(np.abs(gamma.real - np.log(np.abs(entries)).sum(axis=1)))
    im_gap = np.angle(np.exp(1j * (gamma.imag - np.angle(entries).sum(axis=1))))
    return float(re_gap / scale), float(np.max(np.abs(im_gap)) / scale)


def _uneven_times(rng, size, t_max):
    ts = np.concatenate([[0.0], np.sort(rng.uniform(0.0, t_max, size - 2)), [t_max]])
    assert np.unique(np.diff(ts)).size == size - 1  # every width distinct
    return ts


@pytest.mark.parametrize("g", [0.3, 2.5])
@pytest.mark.parametrize("lam", [0.5, 1.0])
@pytest.mark.parametrize("grid_kind", ["uneven", "linspace"])
def test_gamma_exact_stepped_rows_match_closed_form(model, grid_kind, lam, g):
    """Rows stepped from one anchor per block keep the closed form's value."""
    params, grid = model(64, lam, g=g)
    ts = (_uneven_times(np.random.default_rng(40), 40, 6.0) if grid_kind == "uneven"
          else np.linspace(0.0, 6.0, 40))
    entries = np.array([[mode_overlap_closed_form(m, g, float(t)) for m in grid.positive_modes]
                        for t in ts])
    re_gap, im_gap = _normwise_gap(gamma_exact(params, grid, ts).gamma, entries)
    assert re_gap < 1e-11 and im_gap < 1e-11


def test_gamma_exact_thousands_of_stepped_rows(model):
    """At N = 8 one block holds all 5000 rows: an anchor every ANCHOR_ROWS rows,
    the rest stepped."""
    params, grid = model(8, 0.9, g=1.0)
    ts = _uneven_times(np.random.default_rng(5000), 5000, 50.0)
    entries = np.array([[mode_overlap_closed_form(m, 1.0, float(t)) for m in grid.positive_modes]
                        for t in ts])
    re_gap, im_gap = _normwise_gap(gamma_exact(params, grid, ts).gamma, entries)
    assert re_gap < 1e-11 and im_gap < 1e-11


def test_gamma_exact_evaluates_closed_form_once_per_block_and_width(model, monkeypatch):
    """Only every ANCHOR_ROWS-th row of a block and one step per distinct width
    of the rows between take trig calls."""
    params, grid = model(20000, 0.5, g=1.0)
    ts = np.linspace(0.0, 5.0, 64)  # r = 1: no sub-steps on this grid
    rows = {}
    phasors = exact_mod._phasors

    def counting(coef, times):
        chunk = float(coef[2][0])  # a + b of the chunk's first mode
        rows[chunk] = rows.get(chunk, 0) + times.size
        return phasors(coef, times)

    monkeypatch.setattr(exact_mod, "_phasors", counting)
    gamma_exact(params, grid, ts)
    widths = np.diff(ts, prepend=0.0)
    bounds = []
    for lo in range(0, grid.N // 2, MODE_CHUNK):
        block, bound = BLOCK_ELEMENTS // min(MODE_CHUNK, grid.N // 2 - lo), 0
        for i in range(0, ts.size, block):  # anchors plus distinct widths in between
            stepped = np.arange(min(block, ts.size - i)) % ANCHOR_ROWS > 0
            bound += np.sum(~stepped) + np.unique(widths[i:i + block][stepped]).size
        bounds.append(bound)
    assert len(rows) == len(bounds) == 3
    assert all(n <= bound <= 24 for n, bound in zip(rows.values(), bounds))


def _longdouble_su2(m00, m01, m11, tau):
    """Entries 00, 01 and 10 of exp(-i tau M), M = [[m00, m01], [conj m01, m11]]
    Hermitian, from M = c + v.sigma: e^{-i tau c}(cos r tau - i sin(r tau)/r (M - c))."""
    c, d = 0.5 * (m00 + m11), 0.5 * (m00 - m11)
    r = np.sqrt(d * d + np.abs(m01) ** 2)
    phase, cos_rt, sinc = np.exp(-1j * tau * c), np.cos(r * tau), np.sin(r * tau) / r
    return (phase * (cos_rt - 1j * sinc * d), phase * (-1j * sinc * m01),
            phase * (-1j * sinc * np.conj(m01)))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than double here")
def test_gamma_exact_weak_coupling_against_extended_precision(model):
    """Against the pair generators exponentiated in long double, at a weak
    coupling where sin(ta)cos(tb) and cos(ta)sin(tb) cancel to t(a - b)."""
    params, grid = model(2000, 2.0, g=0.01)
    ts = np.array([5.0])
    eps = grid.eps_pos.astype(np.longdouble)
    g, tau = np.longdouble(0.01), ts.astype(np.longdouble)[:, None]
    coupling = 1j * g * grid.sin2theta_pos.astype(np.longdouble)
    p00, p01, _ = _longdouble_su2(-eps, coupling, eps - 4 * g, tau)  # e^{-it(H + gB)}
    m00, _, m10 = _longdouble_su2(-eps, -coupling, eps + 4 * g, -tau)  # e^{+it(H - gB)}
    re_gap, im_gap = _normwise_gap(gamma_exact(params, grid, ts).gamma, p00 * m00 + p01 * m10)
    assert re_gap < 5e-10
    assert im_gap < 5e-11


def test_gamma_exact_memory_bounded_by_block(model):
    params, grid = model(8000, 0.9, g=2.5)
    ts = np.linspace(0, 30, 32)
    tracemalloc.start()
    try:
        gamma_exact(params, grid, ts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_gamma_exact_oracle_route_matches(model):
    params, grid = model(8, 0.6, g=1.1)
    ts = np.linspace(0, 2, 9)
    fast = gamma_exact(params, grid, ts).gamma
    slow = gamma_exact(params, grid, ts, use_oracle=True).gamma
    assert np.max(np.abs(fast - slow)) < 1e-11


def test_gamma_exact_overlap_floor_guard(model, monkeypatch):
    params, grid = model(8, 0.5, g=1.0)
    monkeypatch.setattr(exact_mod, "OVERLAP_FLOOR", 0.5)
    with pytest.raises(BranchTrackingError):
        gamma_exact(params, grid, np.linspace(0, 4, 17))


def test_series_comparison_first_order_alignment(model):
    params, grid = model(16, 0.5, g=1e-4)
    ts = np.linspace(0, 2, 5)
    curve = gamma_exact(params, grid, ts)
    cmp_gamma = gamma_for_series_comparison(curve)
    t = float(ts[-1])
    series = (
        gamma_order1(params, grid, t)
        + gamma_order2(params, grid, t)
        + gamma_order3(params, grid, t)
    )
    g1 = gamma_order1(params, grid, t)
    assert abs(cmp_gamma[-1] - series) < 1e-4 * abs(g1)


def test_weak_coupling_decay_matches_order2_scale(model):
    """Re Gamma_exact is second order in g and tracks the per-mode pair weights."""
    params, grid = model(64, 0.5, g=1e-3)
    ts = np.linspace(0, 3, 7)
    re = gamma_exact(params, grid, ts).gamma.real
    x = 2.0 * np.outer(ts, grid.eps_pos)
    expect = -params.g**2 * (
        grid.sin2theta_pos**2 * (1 - np.cos(x)) / grid.eps_pos**2
    ).sum(axis=1)
    assert np.max(np.abs(re - expect)) < 1e-9
    # halving g scales the decay by 4
    params2, _ = model(64, 0.5, g=5e-4)
    re2 = gamma_exact(params2, grid, ts).gamma.real
    assert np.max(np.abs(re - 4 * re2)) < 1e-9

import math
import tracemalloc

import numpy as np
import pytest

import tfim_dephasing.exact as exact_mod
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
    starts, ends = np.array([0.0, 1.3, 4.0]), np.array([1.3, 4.0, 4.5])
    row_sets = exact_mod._closed_form_rows(eps, s2, 2.5, starts, ends, 9)
    seen = []
    for ts, entries in row_sets:  # the sub-steps share one buffer: compare in turn
        seen.append(ts)
        direct = exact_mod._closed_form_entries(eps, s2, 2.5, ts)
        assert np.max(np.abs(entries - direct)) < 1e-13
    assert len(seen) == 9 and np.array_equal(seen[0], ends)


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

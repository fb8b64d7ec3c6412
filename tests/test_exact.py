import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import tfim_dephasing.exact as exact_mod
from tfim_dephasing.exact import ANCHOR_ROWS
from tfim_dephasing.model import BLOCK_ELEMENTS, MODE_CHUNK, ModelParams, _mode_data, make_kgrid
from tfim_dephasing import (
    BranchTrackingError,
    certify_closed_form,
    gamma_exact,
    gamma_for_series_comparison,
    gamma_order1,
    gamma_order2,
    gamma_order3,
    mode_overlap_closed_form,
)


def _mode(k, lam):
    """(eps_k, sin 2theta_k) of the mode at k."""
    eps, _, s2 = map(float, _mode_data(k, lam))
    return eps, s2


def test_oracle_identity_cases():
    eps, s2 = _mode(math.pi / 4, 0.5)
    eps, s2 = np.array([eps]), np.array([s2])
    for g, t in ((0.0, 1.3), (1.7, 0.0)):
        got = exact_mod._oracle_entries(eps, s2, g, np.array([t]))[0, 0]
        assert got == pytest.approx(1.0, abs=1e-14)


def _rk4_overlaps(eps, s, g, ts, steps=4000):
    """Independent route: RK4 integration of both 2x2 Schroedinger factors, at
    every (time, mode) of the grid ``ts`` x (``eps``, ``s``)."""
    eps, s = np.asarray(eps, dtype=float), np.asarray(s, dtype=float)
    m_plus = np.array([[-eps, 1j * g * s], [-1j * g * s, eps - 4 * g]]).transpose(2, 0, 1)
    m_minus = np.array([[-eps, -1j * g * s], [1j * g * s, eps + 4 * g]]).transpose(2, 0, 1)

    def evolve(m, sign):
        u = np.broadcast_to(np.eye(2, dtype=complex), (len(ts), eps.size, 2, 2))
        h = sign * np.asarray(ts, dtype=float)[:, None, None, None] / steps

        def rhs(x):
            return -1j * m @ x

        for _ in range(steps):
            k1 = rhs(u)
            k2 = rhs(u + 0.5 * h * k1)
            k3 = rhs(u + 0.5 * h * k2)
            k4 = rhs(u + h * k3)
            u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return u

    return (evolve(m_plus, +1.0) @ evolve(m_minus, -1.0))[..., 0, 0]


def test_oracle_against_rk4_stepping():
    eps, s2 = _mode(math.pi / 4, 0.5)
    g, t = 1.0, 0.7
    eps, s2 = np.array([eps]), np.array([s2])
    overlap = _rk4_overlaps(eps, s2, g, [t])[0, 0]
    got = exact_mod._oracle_entries(eps, s2, g, np.array([t]))[0, 0]
    assert got == pytest.approx(complex(overlap), abs=1e-8)
    assert abs(got) <= 1.0 + 1e-12


def test_oracle_entries_stack_against_rk4(model):
    _, grid = model(16, 0.97)
    eps, s2 = grid.eps_pos[::2], grid.sin2theta_pos[::2]
    ts = np.array([0.3, 0.7, 1.6, 2.9])
    got = exact_mod._oracle_entries(eps, s2, 1.3, ts)
    assert got.shape == (4, 4)
    assert np.max(np.abs(got - _rk4_overlaps(eps, s2, 1.3, ts))) < 1e-8


def test_oracle_entries_identities_on_whole_grid(model):
    _, grid = model(64, 0.5)
    eps, s2 = grid.eps_pos, grid.sin2theta_pos
    at_zero_coupling = exact_mod._oracle_entries(eps, s2, 0.0, np.linspace(0, 10, 33))
    assert np.max(np.abs(at_zero_coupling - 1.0)) < 1e-14
    for g in (0.3, 2.5):
        at_zero_time = exact_mod._oracle_entries(eps, s2, g, np.zeros(1))
        assert np.max(np.abs(at_zero_time - 1.0)) < 1e-14


def test_closed_form_matches_oracle(model):
    _, grid = model(8, 0.5)
    ts = np.array([0.3, 1.1, 2.7])
    for g in (0.0, 0.3, 1.5):
        oracle = exact_mod._oracle_entries(grid.eps_pos, grid.sin2theta_pos, g, ts)
        for j, mode in enumerate(zip(grid.eps_pos.tolist(), grid.sin2theta_pos.tolist())):
            for i, t in enumerate(ts.tolist()):
                assert abs(mode_overlap_closed_form(*mode, g, t) - oracle[i, j]) < 1e-12


def test_certify_helper(model):
    _, grid = model(8, 1.2)
    assert certify_closed_form(grid, (0.0, 0.7), (0.5, 1.9)) < 1e-12
    assert certify_closed_form(grid, (), (0.5, 1.9)) == 0.0
    assert certify_closed_form(grid, (0.7,), ()) == 0.0


def test_certify_reports_nan(model, monkeypatch):
    _, grid = model(8, 1.2)
    closed_form = exact_mod._closed_form_entries

    def with_nan(*args):
        out = closed_form(*args)
        out[-1, -1] = np.nan
        return out

    monkeypatch.setattr(exact_mod, "_closed_form_entries", with_nan)
    assert math.isnan(certify_closed_form(grid, (0.7, 1.5), (0.5, 1.9)))


def test_certify_diagonalizes_each_mode_once_per_coupling(model, monkeypatch):
    """Blocks of modes with all times: eigh gets M+ and M- of each mode once per g."""
    _, grid = model(2000, 0.9)
    eigh, matrices = np.linalg.eigh, []

    def counting(a):
        matrices.append(a.size // 4)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    assert certify_closed_form(grid, (0.7, 2.5), np.linspace(0, 30, 64)) < 1e-11
    assert len(matrices) > 2 and sum(matrices) == 2 * 1000 * 2


def test_certify_memory_bounded_by_block(model):
    _, grid = model(8000, 0.9)
    tracemalloc.start()
    try:
        worst = certify_closed_form(grid, (2.5,), np.linspace(0, 30, 64))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert worst < 1e-11
    assert peak < 16e6


def test_closed_form_exact_identities():
    mode = _mode(1.1, 0.8)
    assert mode_overlap_closed_form(*mode, 0.0, 2.2) == 1.0 + 0.0j
    assert mode_overlap_closed_form(*mode, 1.4, 0.0) == 1.0 + 0.0j


def test_legacy_coefficients_break_zero_coupling():
    mode = _mode(math.pi / 4, 0.5)
    legacy = mode_overlap_closed_form(*mode, 0.0, 0.9, corrected=False)
    assert abs(legacy - 1.0) > 0.1


def test_mode_abc_invariants():
    """a, b and the overlap A_k of one mode."""
    eps, s2 = _mode(0.9, 1.3)
    a, b, *_ = exact_mod._coefficients(eps, s2, 0.0)
    assert a == b == pytest.approx(eps, rel=1e-15)
    a, b, *_ = exact_mod._coefficients(eps, s2, 0.8)
    assert a > 0 and b > 0
    assert abs(mode_overlap_closed_form(eps, s2, 0.8, 1.7)) <= 1.0 + 1e-12
    assert mode_overlap_closed_form(eps, s2, 0.8, 0.0) == 1.0 + 0.0j


def test_overlap_magnitude_bounded(model):
    _, grid = model(16, 0.97)
    for eps, s2 in zip(grid.eps_pos[::3].tolist(), grid.sin2theta_pos[::3].tolist()):
        for g in (0.01, 0.5, 2.0):
            for t in np.linspace(0, 4, 17):
                assert abs(mode_overlap_closed_form(eps, s2, g, float(t))) <= 1.0 + 1e-12


def test_gamma_exact_zero_coupling(model):
    params, grid = model(100, 0.5, g=0.0)
    ts = np.linspace(0, 10, 64)
    curve = gamma_exact(params, grid, ts)
    assert np.all(curve.gamma == 0j)
    assert np.all(curve.deterministic_phase == 0j)


def test_gamma_exact_basics(model):
    params, grid = model(32, 0.8, g=0.7)
    ts = np.linspace(0, 5, 41)
    curve = gamma_exact(params, grid, ts)
    assert curve.gamma[0] == 0j
    assert np.max(curve.gamma.real) <= 1e-10
    from tfim_dephasing import c1

    expect_phase = -2j * ts * (0.7 * c1(grid))
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


def test_gamma_exact_branch_tracking_consistency(model):
    """Coarse sampling agrees with dense sampling: the certified branch rule halves
    only the intervals it cannot certify."""
    params, grid = model(16, 1.0, g=2.0)
    coarse_t = np.linspace(0, 6, 9)
    dense_t = np.linspace(0, 6, 2049)
    coarse = gamma_exact(params, grid, coarse_t).gamma
    dense = gamma_exact(params, grid, dense_t).gamma
    assert np.max(np.abs(coarse - dense[::256])) < 1e-9


@pytest.mark.parametrize("steps, density", [(32, 16), (8, 128)])
@pytest.mark.parametrize("lam", [0.5, 0.9, 1.0, 1.5])
def test_gamma_exact_substeps_keep_branch(model, lam, steps, density):
    """Coarse grids at strong coupling, where each interval spans many turns of
    arg B_k, pick the same branch as the dense grid they subsample."""
    params, grid = model(2000, lam, g=2.5)
    # every mode is dominated by one circle here, so its wraps need no bisection
    coarse = gamma_exact(params, grid, np.linspace(0, 30, steps)).gamma
    dense_ts = np.linspace(0, 30, density * (steps - 1) + 1)
    dense = gamma_exact(params, grid, dense_ts).gamma[::density]
    assert np.max(np.abs(coarse.imag - dense.imag)) < 1e-9
    assert np.max(np.abs(coarse.real - dense.real) / np.abs(dense.real).clip(1e-300)) < 1e-13


def _closed_form_overlaps(grid, g, ts):
    """Closed-form A_k = e^{4igt} B_k of the grid's modes: rows ts, columns modes."""
    coef = exact_mod._coefficients(grid.eps_pos, grid.sin2theta_pos, g)
    return np.exp(4j * g * ts)[:, None] * exact_mod._closed_form_entries(coef, ts)


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
    entries = _closed_form_overlaps(grid, g, ts)
    re_gap, im_gap = _normwise_gap(gamma_exact(params, grid, ts).gamma, entries)
    assert re_gap < 1e-11 and im_gap < 1e-11


def test_gamma_exact_thousands_of_stepped_rows(model):
    """At N = 8 one block holds all 5000 rows: an anchor every ANCHOR_ROWS rows,
    the rest stepped."""
    params, grid = model(8, 0.9, g=1.0)
    ts = _uneven_times(np.random.default_rng(5000), 5000, 50.0)
    entries = _closed_form_overlaps(grid, 1.0, ts)
    re_gap, im_gap = _normwise_gap(gamma_exact(params, grid, ts).gamma, entries)
    assert re_gap < 1e-11 and im_gap < 1e-11


def test_gamma_exact_evaluates_closed_form_once_per_block_and_width(model, monkeypatch):
    """Only every ANCHOR_ROWS-th requested row of a block and one step per
    distinct width of the rows between take trig calls."""
    params, grid = model(20000, 0.5, g=1.0)
    ts = np.linspace(0.0, 5.0, 64)
    rows = {}
    phasors = exact_mod._phasors

    def counting(coef, times):
        if times.ndim == 2:  # a column of requested rows; midpoints are one time per mode
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


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than double here")
@pytest.mark.parametrize("lam, g", [(0.9, 2.5), (0.9, 10.0), (1.0, 50.0)])
def test_closed_form_strong_coupling_against_extended_precision(model, lam, g):
    """Per-mode overlaps at strong coupling, where eps^2 - g^2(s^2 + 4) < 0 and
    a rationalized Cm1 would divide by a cancelling sum."""
    _, grid = model(2000, lam, g=g)
    ts = np.array([0.7, 3.0, 30.0])
    eps = grid.eps_pos.astype(np.longdouble)
    gl, tau = np.longdouble(g), ts.astype(np.longdouble)[:, None]
    coupling = 1j * gl * grid.sin2theta_pos.astype(np.longdouble)
    p00, p01, _ = _longdouble_su2(-eps, coupling, eps - 4 * gl, tau)
    m00, _, m10 = _longdouble_su2(-eps, -coupling, eps + 4 * gl, -tau)
    got = _closed_form_overlaps(grid, g, ts)
    assert np.max(np.abs(got - (p00 * m00 + p01 * m10))) < 1e-11


def _longdouble_overlaps(grid, g, ts):
    """A_k at times ``ts`` (rows) from the pair generators exponentiated in long double."""
    eps = grid.eps_pos.astype(np.longdouble)
    gl, tau = np.longdouble(g), ts.astype(np.longdouble)[:, None]
    coupling = 1j * gl * grid.sin2theta_pos.astype(np.longdouble)
    p00, p01, _ = _longdouble_su2(-eps, coupling, eps - 4 * gl, tau)  # e^{-it(H + gB)}
    m00, _, m10 = _longdouble_su2(-eps, -coupling, eps + 4 * gl, -tau)  # e^{+it(H - gB)}
    return p00 * m00 + p01 * m10


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than double here")
@pytest.mark.parametrize("lam, re_bound, im_bound", [(0.5, 3.4e-12, 1.0e-12),
                                                     (2.0, 3.4e-11, 1.5e-11)])
def test_gamma_exact_weak_coupling_rows_against_extended_precision(model, lam, re_bound,
                                                                   im_bound):
    """Every row of a 64-time grid at weak coupling, where |B_k| = 1 - O(g^2 t^2) and a
    stepped phasor's drift in magnitude goes straight into ln|B_k|.  The bounds are
    twice the errors with ln|B_k| taken from np.abs of a complex B_k (1.7e-12 and
    1.7e-11 for Re, 5.2e-13 and 7.6e-12 for Im); anchors every 64 rows give Re
    errors of 5.3e-12 and 4.1e-11."""
    params, grid = model(1000, lam, g=0.01)
    ts = np.linspace(0.0, 5.0, 64)
    entries = _longdouble_overlaps(grid, 0.01, ts)
    re_gap, im_gap = _normwise_gap(gamma_exact(params, grid, ts).gamma, entries)
    assert re_gap < re_bound
    assert im_gap < im_bound


def test_gamma_exact_memory_bounded_by_block(model):
    # the third case has 511 distinct widths: a table of all their step phasors would
    # take about 67 MB at N = 20000, so they are taken per block; in the fourth, building
    # the per-mode coefficients of all 1e5 modes at once peaks near 19 MB, so they are
    # built per mode chunk
    for N, lam, g, ts, bound in [(8000, 0.9, 2.5, np.linspace(0, 30, 32), 16e6),
                                 (20000, 0.0, 1.0, np.linspace(0, 5, 64), 8e6),
                                 (20000, 0.5, 1.0,
                                  _uneven_times(np.random.default_rng(512), 512, 5.0), 8e6),
                                 (200000, 0.5, 1.0, np.linspace(0, 5, 64), 8e6)]:
        params, grid = model(N, lam, g=g)
        tracemalloc.start()
        try:
            gamma_exact(params, grid, ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (N, lam, g)


@pytest.fixture(scope="module", params=[0.5, 1.0], ids=["lam0.5", "lam1"])
def readme_default_against_denser_grid(request):
    """Gamma_exact at the README default point (N = 1000, g = 1, 64 times on
    [0, 5]) and the same call on the 64x-denser grid, subsampled."""
    params = ModelParams(N=1000, lam=request.param, g=1.0)
    grid = make_kgrid(params)
    dense = np.linspace(0, 5, 63 * 64 + 1)
    coarse = gamma_exact(params, grid, dense[::64]).gamma
    return coarse, gamma_exact(params, grid, dense).gamma[::64]


def test_gamma_exact_real_part_does_not_depend_on_density(readme_default_against_denser_grid):
    coarse, dense = readme_default_against_denser_grid
    assert np.max(np.abs(coarse.real - dense.real)) < 1e-12


def test_gamma_exact_branch_does_not_depend_on_density(readme_default_against_denser_grid):
    coarse, dense = readme_default_against_denser_grid
    assert np.max(np.abs(coarse.imag - dense.imag)) < 1e-9


def _gamma_exact_cases(seed, count):
    """Seeded (N, lam, g, t_max, samples) draws over the regimes of the property test."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lam = 1.0 if rng.random() < 0.1 else float(rng.uniform(0.0, 3.0))
        yield (2 * int(rng.integers(1, 40)), lam, float(rng.uniform(-3.0, 3.0)),
               float(rng.uniform(0.1, 30.0)), int(rng.integers(2, 41)))


def test_gamma_exact_branch_does_not_depend_on_density_property(model):
    """About 300 seeded cases, each against the same call on the 8x-denser grid,
    subsampled (the subsample equals the coarse grid bit for bit)."""
    for N, lam, g, t_max, samples in _gamma_exact_cases(20261018, 300):
        params, grid = model(N, lam, g=g)
        dense = np.linspace(0.0, t_max, 8 * (samples - 1) + 1)
        coarse = gamma_exact(params, grid, dense[::8]).gamma
        fine = gamma_exact(params, grid, dense).gamma[::8]
        assert np.max(np.abs(coarse - fine)) < 1e-9, (N, lam, g, t_max, samples)


def test_gamma_exact_oracle_route_matches(model):
    """Against sum_k ln A_k from the matrix oracle on a 512x-denser grid, each
    mode's log unwrapped along it in steps below pi/2."""
    params, grid = model(8, 0.6, g=1.1)
    dense = np.linspace(0, 2, 4097)
    entries = exact_mod._oracle_entries(grid.eps_pos, grid.sin2theta_pos, 1.1, dense)
    arg = np.unwrap(np.angle(entries), axis=0)
    assert np.max(np.abs(np.diff(arg, axis=0))) < np.pi / 2
    oracle = (np.log(np.abs(entries)) + 1j * arg).sum(axis=1)[::512]
    fast = gamma_exact(params, grid, dense[::512]).gamma
    assert np.max(np.abs(fast - oracle)) < 1e-11


def test_bisection_stops_at_adjacent_floats(model):
    """A one-ulp interval at t = 1e4 with |B_k| at the floor at both ends fails the
    certificate, and its midpoint rounds to an end, so it cannot be halved: an
    error before any midpoint is evaluated, not an endless loop."""
    _, grid = model(16, 0.0)
    coef = [c[3:4] for c in exact_mod._coefficients(grid.eps_pos, grid.sin2theta_pos, 1.0)]
    assert coef[-1][0] * np.spacing(1e4) > 2e-12  # speed_k
    t = np.array([[1e4], [np.nextafter(1e4, 2e4)]])
    with pytest.raises(BranchTrackingError, match="cannot halve"):
        exact_mod._bisected_wraps(coef, grid.k_pos[3:4], t, np.full((2, 1), 1e-12),
                                  np.zeros((2, 1)))


def test_bisection_refuses_a_level_past_its_cap(model):
    """At t_max = 1e6 with three times, an interval of 5e5 needs about 2^21 pieces in its
    last level; the bisection raises before a level passes BISECTION_PIECES and names t."""
    params, grid = model(16, 0.5, g=1.0)
    with pytest.raises(BranchTrackingError, match=r"over 1048576 pieces before t=1000000\.0; "
                                                  r"raise t_steps"):
        gamma_exact(params, grid, np.linspace(0.0, 1e6, 3))


def test_gamma_exact_floor_checked_at_bisection_midpoints(model, monkeypatch):
    """At lam = 0 no circle dominates, so intervals are halved; the floor sits
    between the smallest |B_k| at a requested time (0.125) and at a midpoint (0.0059)."""
    params, grid = model(16, 0.0, g=1.0)
    ts = np.linspace(0, 5, 9)
    entries = _closed_form_overlaps(grid, 1.0, ts)
    assert np.min(np.abs(entries)) > 0.1
    monkeypatch.setattr(exact_mod, "OVERLAP_FLOOR", 0.01)
    with pytest.raises(BranchTrackingError, match=r"below 0\.01 at t=.+, k=") as err:
        gamma_exact(params, grid, ts)
    t, k = (float(x) for x in str(err.value).split("at t=")[1].split(", k="))
    assert 0.0 < t < 5.0 and np.min(np.abs(ts - t)) > 0.1
    assert k in grid.k_pos.tolist()


def test_gamma_exact_overlap_floor_guard(model, monkeypatch):
    params, grid = model(8, 0.5, g=1.0)
    ts = np.linspace(0, 4, 17)
    monkeypatch.setattr(exact_mod, "OVERLAP_FLOOR", 0.5)
    with pytest.raises(BranchTrackingError, match=r"below 0\.5 at t=.+, k=") as err:
        gamma_exact(params, grid, ts)
    t, k = (float(x) for x in str(err.value).split("at t=")[1].split(", k="))
    assert t in ts.tolist() and k in grid.k_pos.tolist()


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


def _taylor_in_g(grid, t, rho=0.1, points=64):
    """Taylor coefficients in g of sum_{k>0} ln A_k(g, t), from the FFT of its
    values on the circle |g| = rho (the trapezoidal rule converges geometrically
    for an analytic function; Trefethen & Weideman, SIAM Rev. 56 (2014) 385).
    A_k is the 00 entry of exp(-it(H + gB)) exp(+it(H - gB)) in the pair basis,
    exponentiated through np.linalg.eig: at complex g, H +/- gB is not Hermitian.
    By the maximum principle, |A_k - 1| < 1 on the circle keeps it below 1 on
    the disk, so the principal log is analytic there."""
    eps, s2 = grid.eps_pos, grid.sin2theta_pos
    h = np.zeros((eps.size, 2, 2), dtype=complex)
    h[:, 0, 0], h[:, 1, 1] = -eps, eps
    b = np.zeros_like(h)
    b[:, 0, 1], b[:, 1, 0], b[:, 1, 1] = 1j * s2, -1j * s2, -4.0

    def expm(m, tau):  # exp(-i tau m) for a stack of 2x2 matrices
        w, v = np.linalg.eig(m)
        return (v * np.exp(-1j * tau * w)[:, None, :]) @ np.linalg.inv(v)

    gs = rho * np.exp(2j * np.pi * np.arange(points) / points)
    overlaps = np.array([(expm(h + g * b, t) @ expm(h - g * b, -t))[:, 0, 0] for g in gs])
    assert np.max(np.abs(overlaps - 1.0)) < 1.0
    return np.fft.fft(np.log(overlaps).sum(axis=1)) / points / rho ** np.arange(points)


@pytest.mark.parametrize("lam", [0.5, 1.0])
@pytest.mark.parametrize("t", [1.0, 3.0])
def test_series_orders_match_taylor_coefficients_of_exact(model, mirrored, lam, t):
    """Order-by-order oracle: the Taylor coefficients of the exact Gamma in g,
    mapped to the series convention (conjugated, with the coupling part of the
    deterministic phase, 2itg c1, added to order 1), against each series order.
    Order 2 is the sin^2(2theta)-weighted sum, not gamma_order2 (README,
    "Known discrepancies")."""
    params, grid = model(100, lam, g=1.0)
    coef = _taylor_in_g(grid, t)
    series = np.conj(coef)
    series[1] += 2j * t * np.sum(mirrored(grid).cos2theta)  # the phase's coupling part at g = 1
    assert abs(series[1] - gamma_order1(params, grid, t)) < 1e-12 * abs(series[1])
    order3 = gamma_order3(params, grid, t)
    assert abs(series[3] - order3) < 1e-10 * abs(order3)
    eps = grid.eps_pos
    order2 = -np.sum(grid.sin2theta_pos**2 * (1.0 - np.cos(2.0 * eps * t)) / eps**2)
    assert abs(series[2] - order2) < 1e-10 * abs(order2)
    for g in (0.005, 0.03):
        params_g = dataclasses.replace(params, g=g)
        exact = gamma_exact(params_g, grid, np.array([t])).gamma[0]
        taylor = np.polyval(coef[23::-1], g)
        assert abs(exact - taylor) < 1e-9 * abs(exact)


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

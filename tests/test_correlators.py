import math
from itertools import permutations

import numpy as np
import pytest

from tfim_dephasing import c1, c2_irreducible, c3_irreducible
from tfim_dephasing.correlators import mode_cos_sum
from tfim_dephasing.model import BLOCK_ELEMENTS, blocks

# frozen by independent per-mode summation (see in-test oracles below)
C1_LAM2_N4 = -3.689786838393518
C2_LAM05_N8_DT03 = 2.104791491221761
C3PART_LAM05_N8 = -30.23296393974332 - 11.76171056118638j


def _mode_data(N, lam):
    """Independent per-mode evaluation via the math module, full +/-k grid."""
    out = []
    for l in range(1, N // 2 + 1):
        for sign in (1.0, -1.0):
            k = sign * (2 * l - 1) * math.pi / N
            root = math.sqrt(1 - 2 * lam * math.cos(k) + lam * lam)
            out.append((k, 2 * root, (math.cos(k) - lam) / root, math.sin(k) / root))
    return out


def test_c1_lambda0_vanishes(model):
    params, grid = model(64, 0.0)
    assert abs(c1(grid)) < 1e-13 * 64


def test_c1_large_lambda(model):
    params, grid = model(16, 1e6)
    assert c1(grid) == pytest.approx(-16.0, rel=1e-6)


def test_c1_frozen_and_oracle(model):
    params, grid = model(4, 2.0)
    got = c1(grid)
    assert got == pytest.approx(C1_LAM2_N4, rel=1e-14)
    oracle = sum(c for _, _, c, _ in reversed(_mode_data(4, 2.0)))
    assert oracle == pytest.approx(C1_LAM2_N4, rel=1e-14)


def test_c2_equal_times_is_n(model):
    params, grid = model(10, 0.9)
    assert c2_irreducible(grid, 0.7, 0.7) == complex(10.0, 0.0)


def test_c2_lambda0_flat(model):
    params, grid = model(12, 0.0)
    dt = 0.37
    assert c2_irreducible(grid, dt, 0.0) == pytest.approx(
        12 * math.cos(4 * dt), rel=1e-12
    )


def test_c2_frozen_and_oracle(model):
    params, grid = model(8, 0.5)
    got = c2_irreducible(grid, 0.4, 0.1)
    assert got == pytest.approx(C2_LAM05_N8_DT03, rel=1e-13)
    oracle = sum(math.cos(2 * e * 0.3) for _, e, _, _ in reversed(_mode_data(8, 0.5)))
    assert oracle == pytest.approx(C2_LAM05_N8_DT03, rel=1e-13)


def test_c2_stationarity(model):
    params, grid = model(8, 0.8)
    # dyadic times make the shifted differences bit-exact
    assert (
        c2_irreducible(grid, 0.5, 0.25)
        == c2_irreducible(grid, 0.5 + 2.0, 0.25 + 2.0)
    )
    rng = np.random.default_rng(7)
    for _ in range(10):
        t1, t2, s = rng.uniform(0, 4, 3)
        diff = abs(
            c2_irreducible(grid, t1 + s, t2 + s)
            - c2_irreducible(grid, t1, t2)
        )
        assert diff < 1e-12 * grid.N


def test_c2_evenness_exact(model):
    params, grid = model(8, 1.1)
    assert (
        c2_irreducible(grid, 1.9, 0.3)
        == c2_irreducible(grid, 0.3, 1.9)
    )


@pytest.mark.parametrize("N, lam", [
    *(pytest.param(N, 0.7, id=str(N)) for N in (8, 32, 20000)),
    *(pytest.param(N, 0.0, id=f"lam0-{N}") for N in (8, 20000)),
])
def test_mode_cos_sum_rows_are_independent(model, N, lam):
    # each value depends on its own d only: a batched call equals the
    # one-element calls bit for bit, across block boundaries too
    _, grid = model(N, lam)
    weights = grid.sin2theta_pos**2
    diffs = np.concatenate([[0.0, -1.3, 1.3], np.random.default_rng(N).uniform(-9, 9, 200)])
    batched = mode_cos_sum(grid, weights, diffs)
    assert batched[1] == batched[2]
    for d, value in zip(diffs, batched):
        assert mode_cos_sum(grid, weights, np.array([d]))[0] == value
        assert mode_cos_sum(grid, weights, d) == value


def _per_mode_cos_sum(grid, weights, diffs):
    """The kernel's body with one cosine per mode, for the bit-for-bit check."""
    two_eps = 2.0 * grid.eps_pos
    flat = np.asarray(diffs, dtype=float).reshape(-1)
    out = np.empty_like(flat)
    for i in blocks(flat.size, two_eps.size):
        x = np.multiply.outer(flat[i], two_eps)
        np.cos(x, out=x)
        x *= weights
        out[i] = x.sum(axis=1)
    return 2.0 * out.reshape(np.shape(diffs))


@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("N", [32, 20000])
def test_mode_cos_sum_distinct_levels_equal_per_mode_sum(model, N, lam):
    # eps_k increases with k for lam > 0, so every mode is its own level
    _, grid = model(N, lam)
    assert np.all(np.diff(grid.eps_pos) > 0)
    rng = np.random.default_rng(N)
    rows = 2 * (BLOCK_ELEMENTS // (N // 2)) + 7  # three or more blocks, the last one short
    diffs = rng.uniform(-9, 9, rows)
    for weights in (grid.sin2theta_pos**2, rng.uniform(0, 2, N // 2)):
        got = mode_cos_sum(grid, weights, diffs)
        assert np.array_equal(got, _per_mode_cos_sum(grid, weights, diffs))


@pytest.mark.parametrize("N", [32, 20000])
def test_mode_cos_sum_flat_band_matches_fsum(model, N):
    # at lam = 0 every eps_k is 2: one level with the summed weight
    _, grid = model(N, 0.0)
    rng = np.random.default_rng(N + 1)
    diffs = np.concatenate([[0.0, math.pi / 8], rng.uniform(-9, 9, 100)])
    for weights in (grid.sin2theta_pos**2, np.ones(N // 2), rng.uniform(0, 2, N // 2)):
        got = mode_cos_sum(grid, weights, diffs)
        for d, value in zip(diffs, got):
            ref = math.fsum(2.0 * w * math.cos(2.0 * e * d)
                            for w, e in zip(weights.tolist(), grid.eps_pos.tolist()))
            assert abs(value - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("lam, levels", [(0.0, 1), (0.5, 32)])
def test_mode_cos_sum_one_cosine_per_level(model, monkeypatch, lam, levels):
    # 64 modes: one level at lam = 0, 32 distinct k > 0 levels at lam = 0.5
    _, grid = model(64, lam)
    counted = []
    cos = np.cos

    def counting_cos(x, *args, **kwargs):
        counted.append(np.size(x))
        return cos(x, *args, **kwargs)

    monkeypatch.setattr(np, "cos", counting_cos)
    diffs = np.linspace(-3.0, 3.0, 50)
    mode_cos_sum(grid, grid.sin2theta_pos**2, diffs)
    assert sum(counted) == diffs.size * levels


def test_c2_bound(model):
    params, grid = model(30, 0.6)
    rng = np.random.default_rng(3)
    for _ in range(20):
        t1, t2 = rng.uniform(0, 6, 2)
        assert abs(c2_irreducible(grid, t1, t2)) <= 30 + 1e-12


def _theta(x):
    return 1.0 if x > 0 else 0.0


def _c3_bracket_oracle(N, lam, t1, t2, t3):
    """Literal step-bracket evaluation; valid only for distinct times."""
    b13 = 1 - _theta(t3 - t1) * _theta(t1 - t2) - _theta(t1 - t3) * _theta(t3 - t2)
    b12 = 1 - _theta(t2 - t1) * _theta(t1 - t3) - _theta(t1 - t2) * _theta(t2 - t3)
    b23 = 1 - _theta(t3 - t2) * _theta(t2 - t1) - _theta(t2 - t3) * _theta(t3 - t1)
    total = 0.0
    for _, e, _, s in _mode_data(N, lam):
        total -= s * s * (
            b13 * math.cos(2 * e * (t1 - t3))
            + b12 * math.cos(2 * e * (t1 - t2))
            + b23 * math.cos(2 * e * (t2 - t3))
        )
    return total


def test_c3_strict_ordering_brackets(model, mirrored):
    params, grid = model(8, 0.5)
    full = mirrored(grid)
    t1, t2, t3 = 2.0, 1.1, 0.4
    s2sq = full.sin2theta**2
    expect = -np.sum(
        s2sq * (np.cos(2 * full.eps * (t1 - t3)) + np.cos(2 * full.eps * (t2 - t3)))
    )
    got = c3_irreducible(grid, t1, t2, t3)
    assert got == pytest.approx(expect, rel=1e-14)
    assert got == pytest.approx(_c3_bracket_oracle(8, 0.5, t1, t2, t3), rel=1e-12)


def test_c3_matches_literal_brackets_random(model):
    params, grid = model(10, 1.3)
    rng = np.random.default_rng(5)
    for _ in range(25):
        t1, t2, t3 = rng.uniform(0, 4, 3)
        if len({t1, t2, t3}) < 3:
            continue
        got = c3_irreducible(grid, t1, t2, t3)
        assert got == pytest.approx(_c3_bracket_oracle(10, 1.3, t1, t2, t3), rel=1e-12)


def test_c3_coincident_times_limit(model, mirrored):
    params, grid = model(8, 0.7)
    t = 1.2
    expect = -2.0 * float(np.sum(mirrored(grid).sin2theta**2))
    assert c3_irreducible(grid, t, t, t) == pytest.approx(expect, rel=1e-14)
    # delta-sequence: every strict ordering converges (O(delta^2)) to the value
    for perm in permutations((0.0, 1.0, 2.0)):
        gaps = []
        for delta in (1e-4, 1e-5, 1e-6):
            ts = [t + p * delta for p in perm]
            gaps.append(abs(c3_irreducible(grid, *ts) - expect))
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1]
        assert gaps[-1] < 1e-9 * max(abs(expect), 1.0)


def test_c3_lambda0_example(model, mirrored):
    params, grid = model(16, 0.0)
    sin2_sum = float(np.sum(np.sin(mirrored(grid).k) ** 2))
    assert sin2_sum == pytest.approx(16 / 2, rel=1e-13)
    t1, t2, t3 = 1.5, 0.9, 0.2
    expect = -sin2_sum * (math.cos(4 * (t1 - t3)) + math.cos(4 * (t2 - t3)))
    assert c3_irreducible(grid, t1, t2, t3) == pytest.approx(
        expect, rel=1e-12
    )


def test_c3_permutation_symmetry(model):
    params, grid = model(12, 0.9)
    rng = np.random.default_rng(17)
    for _ in range(20):
        ts = rng.uniform(0, 5, 3)
        vals = [
            c3_irreducible(grid, *(ts[list(p)]))
            for p in permutations(range(3))
        ]
        scale = max(max(abs(v) for v in vals), 1e-30)
        assert (max(vals) - min(vals)) <= 1e-12 * scale


def test_c3_bound(model, mirrored):
    params, grid = model(20, 1.5)
    cap = 3.0 * float(np.sum(mirrored(grid).sin2theta**2)) + 1e-12
    assert cap <= 3 * 20 + 1e-9
    rng = np.random.default_rng(23)
    for _ in range(20):
        ts = rng.uniform(0, 6, 3)
        assert abs(c3_irreducible(grid, *ts)) <= cap


def _c3_part(params, grid, t1, t2, t3):
    """Unordered three-operator trace at zero temperature, the reference for the
    bracket assembly of ``c3_irreducible``:

    c1^3 + c1*S(t1-t2) + c1*S(t2-t3) - 2*S(t1-t3)  with
    S(d) = sum_k sin^2(2theta_k) exp(-2i eps_k d).  Complex valued and
    independent of the coupling g.
    """
    d = np.multiply.outer([t1 - t2, t2 - t3, t1 - t3], grid.eps_pos)
    s12, s23, s13 = 2.0 * (grid.sin2theta_pos**2 * np.exp(-2j * d)).sum(axis=1)
    one = c1(grid)
    return one**3 + one * s12 + one * s23 - 2.0 * s13


def test_c3_part_lambda0_equal_times(model):
    params, grid = model(12, 0.0)
    val = _c3_part(params, grid, 0.8, 0.8, 0.8)
    assert val.real == pytest.approx(-12.0, rel=1e-12)
    assert abs(val.imag) < 1e-12


def test_c3_part_frozen_and_oracle(model):
    params, grid = model(8, 0.5)
    got = _c3_part(params, grid, 0.1, 0.2, 0.3)
    assert got == pytest.approx(C3PART_LAM05_N8, rel=1e-13)
    modes = _mode_data(8, 0.5)
    one = sum(c for _, _, c, _ in modes)

    def S(d):
        return sum(s * s * complex(math.cos(2 * e * d), -math.sin(2 * e * d))
                   for _, e, _, s in modes)

    oracle = one**3 + one * S(0.1 - 0.2) + one * S(0.2 - 0.3) - 2 * S(0.1 - 0.3)
    assert oracle == pytest.approx(C3PART_LAM05_N8, rel=1e-13)


def test_c3_assembly_from_parts(model):
    """Bracket-weighted permutation assembly of the unordered traces reproduces
    the irreducible third order (lam = 0 removes the reducible pieces)."""
    params, grid = model(10, 0.0)
    rng = np.random.default_rng(29)
    for _ in range(10):
        t1, t2, t3 = rng.uniform(0, 3, 3)
        if len({t1, t2, t3}) < 3:
            continue
        cp = lambda x, y, z: _c3_part(params, grid, x, y, z)
        b13 = 1 - _theta(t3 - t1) * _theta(t1 - t2) - _theta(t1 - t3) * _theta(t3 - t2)
        b12 = 1 - _theta(t2 - t1) * _theta(t1 - t3) - _theta(t1 - t2) * _theta(t2 - t3)
        b23 = 1 - _theta(t3 - t2) * _theta(t2 - t1) - _theta(t2 - t3) * _theta(t3 - t1)
        assembled = 0.25 * (
            b13 * (cp(t1, t2, t3) + cp(t3, t2, t1))
            + b12 * (cp(t2, t3, t1) + cp(t1, t3, t2))
            + b23 * (cp(t2, t1, t3) + cp(t3, t1, t2))
        )
        direct = c3_irreducible(grid, t1, t2, t3)
        assert abs(assembled - direct) <= 1e-12 * max(abs(direct), 1.0)
        assert abs(assembled.imag) < 1e-12

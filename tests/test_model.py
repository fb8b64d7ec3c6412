import math

import numpy as np
import pytest

from tfim_dephasing import (
    DegenerateModeError,
    ModelParams,
    gamma_exact,
    gamma_order1,
    gamma_order2,
    gamma_order2_quadrature,
    gamma_order3,
    gamma_order3_quadrature,
    gamma_series,
    make_kgrid,
)
from tfim_dephasing.model import BLOCK_ELEMENTS, MODE_CHUNK, _mode_data, block_size, blocks
from tfim_dephasing.model import mode_chunks


def test_grid_n4_lambda0(model, mirrored):
    _, grid = model(4, 0.0)
    full = mirrored(grid)
    assert np.allclose(np.sort(full.k), [-3 * np.pi / 4, -np.pi / 4, np.pi / 4, 3 * np.pi / 4])
    assert np.all(full.eps == 2.0)


def test_grid_n4_lambda2_mode(model):
    _, grid = model(4, 2.0)
    assert grid.k_pos[1] == pytest.approx(3 * np.pi / 4, rel=1e-15)
    assert grid.eps_pos[1] == pytest.approx(2.0 * math.sqrt(5.0 + 2.0 * math.sqrt(2.0)), rel=1e-14)


def test_grid_critical_gap_n10000(model, mirrored):
    _, grid = model(10000, 1.0)
    full = mirrored(grid)
    gap = 2.0 * math.sqrt(2.0 - 2.0 * math.cos(math.pi / 10000))
    assert full.eps.min() > 0.0
    assert full.eps.min() == pytest.approx(gap, rel=1e-12)


def test_angles_lambda0():
    ks = np.array([0.3, 1.2, 2.9])
    eps, c, s = _mode_data(ks, 0.0)
    assert np.array_equal(eps, np.full(3, 2.0))
    assert np.max(np.abs(c - np.cos(ks))) <= 1e-15
    assert np.max(np.abs(s - np.sin(ks))) <= 1e-15


def test_angles_lambda1_kpi2():
    eps, c, s = _mode_data(math.pi / 2, 1.0)
    assert eps == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
    assert c == pytest.approx(-1 / math.sqrt(2), rel=1e-15)
    assert s == pytest.approx(1 / math.sqrt(2), rel=1e-15)


def test_angles_large_lambda_limit():
    _, c, s = _mode_data(1.1, 1e8)
    assert c == pytest.approx(-1.0, abs=1e-7)
    assert s == pytest.approx(0.0, abs=1e-7)


def test_degenerate_guard():
    with pytest.raises(DegenerateModeError):
        _mode_data(0.0, 1.0)
    with pytest.raises(DegenerateModeError):
        _mode_data(np.array([0.5, 0.0]), 1.0)


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.97, 1.0, 2.0])
def test_angle_normalization(model, mirrored, lam):
    _, grid = model(64, lam)
    full = mirrored(grid)
    assert np.max(np.abs(full.cos2theta**2 + full.sin2theta**2 - 1.0)) < 1e-12


def test_even_odd_symmetry_exact(model):
    # the k > 0 half stands for all N modes: at -k, eps and cos2theta are the
    # same and sin2theta is negated, to the last bit
    _, grid = model(32, 0.7)
    eps, cos2, sin2 = _mode_data(-grid.k_pos, 0.7)
    assert np.array_equal(eps, grid.eps_pos)
    assert np.array_equal(cos2, grid.cos2theta_pos)
    assert np.array_equal(sin2, -grid.sin2theta_pos)
    assert grid.k_pos[0] > 0.0 and np.all(np.diff(grid.k_pos) > 0.0)


def test_flat_dispersion_lambda0(model, mirrored):
    _, grid = model(128, 0.0)
    assert np.max(np.abs(mirrored(grid).eps - 2.0)) < 1e-15


def test_cos_sum_vanishes_lambda0(model, mirrored):
    _, grid = model(1000, 0.0)
    assert abs(mirrored(grid).cos2theta.sum()) < 1e-10 * grid.N


def test_positive_modes(model):
    _, grid = model(10, 1.3)
    assert grid.k_pos.size == 5
    ks = grid.k_pos.tolist()
    assert ks == sorted(ks) and all(k > 0 for k in ks)


def test_dispersion_lower_bound(model, mirrored):
    for lam in (0.3, 1.7):
        _, grid = model(40, lam)
        assert np.all(mirrored(grid).eps >= 2 * abs(1 - lam) - 1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(N=3, lam=0.5, g=0.1),
        dict(N=0, lam=0.5, g=0.1),
        dict(N=-4, lam=0.5, g=0.1),
        dict(N=4, lam=-0.1, g=0.1),
        dict(N=True, lam=0.5, g=0.1),
        dict(N=4.0, lam=0.5, g=0.1),
        dict(N=4, lam=math.inf, g=0.1),
    ],
)
def test_invalid_params(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(N=4, lam=math.nan, g=0.0),
        dict(N=4, lam=0.5, g=-math.inf),
    ],
)
def test_non_finite_params_report_finiteness(kwargs):
    # finiteness is checked before the lam >= 0 range, which nan also fails
    with pytest.raises(ValueError, match="finite"):
        ModelParams(**kwargs)


@pytest.mark.parametrize("n, width", [(0, 5), (1, 1), (10, 1 << 16), (100, 1000), (9000, 1)])
def test_mode_chunks_and_blocks_tile_the_range(n, width):
    for walk, size in ((mode_chunks(n), MODE_CHUNK),
                       (blocks(n, width), max(1, BLOCK_ELEMENTS // width))):
        parts = [range(n)[s] for s in walk]
        assert [i for part in parts for i in part] == list(range(n))
        assert all(len(part) == size for part in parts[:-1])
        assert all(0 < len(part) <= size for part in parts[-1:])
    # a walk over n times in the chunks of ``width`` modes hands a kernel no more than
    # block_size elements, because a chunk is never wider than a block
    assert MODE_CHUNK <= BLOCK_ELEMENTS
    for chunk in mode_chunks(width):
        modes = len(range(width)[chunk])
        assert all(len(range(n)[s]) * modes <= block_size(n, width) for s in blocks(n, modes))


def test_minimal_chain_allowed():
    grid = make_kgrid(ModelParams(N=2, lam=0.5, g=0.0))
    assert grid.k_pos.tolist() == [math.pi / 2]


@pytest.mark.parametrize("grid_params", [(16, 0.5), (8, 2.0)], ids=["N", "lambda"])
@pytest.mark.parametrize("entry", [
    lambda p, grid: gamma_exact(p, grid, [0.0, 1.0]),
    lambda p, grid: gamma_series(p, grid, [0.0, 1.0]),
    lambda p, grid: gamma_order1(p, grid, 1.0),
    lambda p, grid: gamma_order2(p, grid, 1.0),
    lambda p, grid: gamma_order3(p, grid, 1.0),
    lambda p, grid: gamma_order2_quadrature(p, grid, 1.0, 8),
    lambda p, grid: gamma_order3_quadrature(p, grid, 1.0, 8),
], ids=["exact", "series", "order1", "order2", "order3", "order2_quadrature",
        "order3_quadrature"])
def test_entry_points_refuse_a_grid_of_another_model(entry, grid_params):
    """A grid built for another N or lambda than the params is refused, naming both."""
    params = ModelParams(N=8, lam=0.5, g=1.0)
    grid = make_kgrid(ModelParams(*grid_params, g=0.0))
    with pytest.raises(ValueError, match=r"grid built for \(N, lambda\) = "
                       rf"\({grid.N}, {grid.lam}\), params give \(8, 0\.5\)"):
        entry(params, grid)
    entry(params, make_kgrid(params))

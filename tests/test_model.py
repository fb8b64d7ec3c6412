import dataclasses
import math

import numpy as np
import pytest

from tfim_dephasing import (
    DegenerateModeError,
    ModelParams,
    bogoliubov_angles,
    dispersion,
    make_kgrid,
)
from tfim_dephasing.model import BLOCK_ELEMENTS, MODE_CHUNK, blocks, mode_chunks


def test_grid_n4_lambda0(model):
    _, grid = model(4, 0.0)
    assert np.allclose(np.sort(grid.k), [-3 * np.pi / 4, -np.pi / 4, np.pi / 4, 3 * np.pi / 4])
    assert np.all(grid.eps == 2.0)


def test_grid_n4_lambda2_mode(model):
    _, grid = model(4, 2.0)
    mode = grid.positive_modes[1]
    assert mode.k == pytest.approx(3 * np.pi / 4, rel=1e-15)
    assert mode.eps == pytest.approx(2.0 * math.sqrt(5.0 + 2.0 * math.sqrt(2.0)), rel=1e-14)


def test_grid_critical_gap_n10000(model):
    _, grid = model(10000, 1.0)
    gap = 2.0 * math.sqrt(2.0 - 2.0 * math.cos(math.pi / 10000))
    assert grid.eps.min() > 0.0
    assert grid.eps.min() == pytest.approx(gap, rel=1e-12)


def test_angles_lambda0():
    for k in (0.3, 1.2, 2.9):
        c, s = bogoliubov_angles(k, 0.0)
        assert c == pytest.approx(math.cos(k), abs=1e-15)
        assert s == pytest.approx(math.sin(k), abs=1e-15)


def test_angles_lambda1_kpi2():
    c, s = bogoliubov_angles(math.pi / 2, 1.0)
    assert c == pytest.approx(-1 / math.sqrt(2), rel=1e-15)
    assert s == pytest.approx(1 / math.sqrt(2), rel=1e-15)


def test_angles_large_lambda_limit():
    c, s = bogoliubov_angles(1.1, 1e8)
    assert c == pytest.approx(-1.0, abs=1e-7)
    assert s == pytest.approx(0.0, abs=1e-7)


def test_degenerate_guard():
    with pytest.raises(DegenerateModeError):
        bogoliubov_angles(0.0, 1.0)
    with pytest.raises(DegenerateModeError):
        dispersion(0.0, 1.0)


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.97, 1.0, 2.0])
def test_angle_normalization(model, lam):
    _, grid = model(64, lam)
    assert np.max(np.abs(grid.cos2theta**2 + grid.sin2theta**2 - 1.0)) < 1e-12


def test_even_odd_symmetry_exact(model):
    _, grid = model(32, 0.7)
    assert np.array_equal(grid.eps, grid.eps[::-1])
    assert np.array_equal(grid.cos2theta, grid.cos2theta[::-1])
    assert np.array_equal(grid.sin2theta, -grid.sin2theta[::-1])
    assert np.array_equal(np.sort(grid.k), grid.k)
    assert np.array_equal(grid.k, -grid.k[::-1])


def test_flat_dispersion_lambda0(model):
    _, grid = model(128, 0.0)
    assert np.max(np.abs(grid.eps - 2.0)) < 1e-15


def test_cos_sum_vanishes_lambda0(model):
    _, grid = model(1000, 0.0)
    assert abs(grid.cos2theta.sum()) < 1e-10 * grid.N


def test_positive_modes(model):
    _, grid = model(10, 1.3)
    pos = grid.positive_modes
    assert len(pos) == 5
    ks = [m.k for m in pos]
    assert ks == sorted(ks) and all(k > 0 for k in ks)
    assert len(grid.modes) == 10

    def bits(modes):
        return [tuple(float.hex(v) for v in dataclasses.astuple(m)) for m in modes]

    assert bits(pos) == bits(grid.modes[5:])


def test_dispersion_lower_bound(model):
    for lam in (0.3, 1.7):
        _, grid = model(40, lam)
        assert np.all(grid.eps >= 2 * abs(1 - lam) - 1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(N=3, lam=0.5, g=0.1),
        dict(N=0, lam=0.5, g=0.1),
        dict(N=-4, lam=0.5, g=0.1),
        dict(N=4, lam=-0.1, g=0.1),
        dict(N=4, lam=0.5, g=0.1, beta=0.0),
        dict(N=4, lam=0.5, g=0.1, beta=-2.0),
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
        dict(N=4, lam=0.5, g=0.1, omega0=math.nan),
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


def test_minimal_chain_allowed():
    grid = make_kgrid(ModelParams(N=2, lam=0.5, g=0.0))
    assert grid.k_pos.tolist() == [math.pi / 2]

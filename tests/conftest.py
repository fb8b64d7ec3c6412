from types import SimpleNamespace

import numpy as np
import pytest

from tfim_dephasing import ModelParams, make_kgrid


@pytest.fixture
def model():
    """Factory returning (params, grid) for given model parameters."""

    def build(N, lam, g=0.0):
        params = ModelParams(N=N, lam=lam, g=g)
        return params, make_kgrid(params)

    return build


@pytest.fixture
def mirrored():
    """Factory rebuilding a grid's full +/-k arrays, ascending in k, from its k > 0
    half: eps and cos2theta mirror evenly, k and sin2theta oddly."""

    def build(grid):
        def even(x):
            return np.concatenate([x[::-1], x])

        def odd(x):
            return np.concatenate([-x[::-1], x])

        return SimpleNamespace(k=odd(grid.k_pos), eps=even(grid.eps_pos),
                               cos2theta=even(grid.cos2theta_pos),
                               sin2theta=odd(grid.sin2theta_pos))

    return build

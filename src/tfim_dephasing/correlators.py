"""Irreducible bath correlation functions entering the cumulant series, at zero
temperature (no mode is excited).

The scalar correlators take the k-grid and their times and return a float;
``c2_values`` and ``c3_values`` are their forms on broadcast time arrays.

Conventions:
  - sums run over all N modes as twice the k > 0 half-grid sum, and every
    cosine sum is the one kernel ``mode_cos_sum``;
  - the second order depends on the time difference only and is evaluated
    with |t1 - t2| so that evenness holds exactly in floating point;
  - third-order step brackets are resolved at coincident times by the
    limiting value from strict orderings (the six limits agree), which makes
    the correlator continuous: the two surviving cosine terms are the pairs
    that contain the earliest time argument.
"""

import numpy as np

from .model import KGrid, blocks


def mode_cos_sum(grid: KGrid, weights: np.ndarray, diffs) -> np.ndarray:
    """sum_k weights_k * cos(2 eps_k d) over all N modes for every d in diffs;
    weights on the k > 0 half, doubled.  Each run of neighbouring modes with
    equal eps is one level: one cosine, weighted by the run's summed weight
    (with no two neighbours equal, the per-mode sum bit for bit).  Each row is
    reduced by its own sum, not a matrix product, whose last bits would depend
    on the rows beside it."""
    starts = np.flatnonzero(np.r_[True, grid.eps_pos[1:] != grid.eps_pos[:-1]])
    two_eps = 2.0 * grid.eps_pos[starts]
    weights = np.add.reduceat(weights, starts)
    flat = np.asarray(diffs, dtype=float).reshape(-1)
    out = np.empty_like(flat)
    for i in blocks(flat.size, two_eps.size):
        x = np.multiply.outer(flat[i], two_eps)
        np.cos(x, out=x)
        x *= weights
        out[i] = x.sum(axis=1)
    return 2.0 * out.reshape(np.shape(diffs))


def c1(grid: KGrid) -> float:
    """First-order correlator: sum_k cos 2theta_k.  Time independent."""
    return 2.0 * float(np.sum(grid.cos2theta_pos))


def c2_values(grid: KGrid, t1, t2) -> np.ndarray:
    """``c2_irreducible`` at broadcast time arrays t1, t2."""
    return mode_cos_sum(grid, np.ones_like(grid.eps_pos), np.abs(np.subtract(t1, t2)))


def c2_irreducible(grid: KGrid, t1: float, t2: float) -> float:
    """Second-order irreducible correlator sum_k cos(2 eps_k (t1-t2)).

    Real, stationary (depends on t1 - t2 only) and even in the difference.
    """
    return float(c2_values(grid, t1, t2))


def c3_values(grid: KGrid, t1, t2, t3) -> np.ndarray:
    """``c3_irreducible`` at broadcast time arrays t1, t2, t3: with s = the sorted
    times, -(C(s1 - s0) + C(s2 - s0)) for the sin^2(2theta_k)-weighted cosine sum C."""
    s = np.sort(np.broadcast_arrays(t1, t2, t3), axis=0)
    w = grid.sin2theta_pos**2
    return -(mode_cos_sum(grid, w, s[1] - s[0]) + mode_cos_sum(grid, w, s[2] - s[0]))


def c3_irreducible(grid: KGrid, t1: float, t2: float, t3: float) -> float:
    """Third-order irreducible correlator.

    -sum_k sin^2(2theta_k) [ b13 cos(2 eps_k (t1-t3))
                           + b12 cos(2 eps_k (t1-t2))
                           + b23 cos(2 eps_k (t2-t3)) ]

    with step-function brackets b_xy = 1 - theta(.)theta(.) - theta(.)theta(.),
    of which only the pairs containing the earliest argument survive.
    """
    return float(c3_values(grid, t1, t2, t3))


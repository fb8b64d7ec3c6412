"""Irreducible bath correlation functions entering the cumulant series.

Conventions:
  - sums run over the full +/-k grid (N modes);
  - the second order depends on the time difference only and is evaluated
    with |t1 - t2| so that evenness holds exactly in floating point;
  - third-order step brackets are resolved at coincident times by the
    limiting value from strict orderings (the six limits agree), which makes
    the correlator continuous: the two surviving cosine terms are the pairs
    that contain the earliest time argument.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import KGrid, ModelParams


@dataclass(frozen=True)
class CorrelatorValue:
    """One correlator evaluation: complex value, order, and time arguments."""

    value: complex
    order: int
    times: tuple[float, ...]


def occupation(beta: float, eps: np.ndarray) -> np.ndarray:
    """Fermi factor 1/(exp(beta*eps) + 1); exactly zero at beta = inf."""
    if math.isinf(beta):
        return np.zeros_like(eps)
    with np.errstate(over="ignore"):
        return 1.0 / (np.exp(beta * eps) + 1.0)


def c1(params: ModelParams, grid: KGrid) -> CorrelatorValue:
    """First-order correlator: sum_k (cos 2theta_k - 2 n_k).  Time independent."""
    n = occupation(params.beta, grid.eps)
    value = float(np.sum(grid.cos2theta - 2.0 * n))
    return CorrelatorValue(complex(value, 0.0), 1, ())


def c2_irreducible(params: ModelParams, grid: KGrid, t1: float, t2: float) -> CorrelatorValue:
    """Second-order irreducible correlator sum_k cos(2 eps_k (t1-t2)) (n_k+1)^2.

    Real, stationary (depends on t1 - t2 only) and even in the difference.
    """
    d = abs(t1 - t2)
    w = (occupation(params.beta, grid.eps) + 1.0) ** 2
    value = float(np.sum(w * np.cos(2.0 * grid.eps * d)))
    return CorrelatorValue(complex(value, 0.0), 2, (t1, t2))


def c2_full(params: ModelParams, grid: KGrid, t1: float, t2: float) -> CorrelatorValue:
    """Full (reducible) second-order correlator, defined as c1^2 + c2_irreducible."""
    value = c1(params, grid).value ** 2 + c2_irreducible(params, grid, t1, t2).value
    return CorrelatorValue(value, 2, (t1, t2))


def c3_irreducible(
    params: ModelParams, grid: KGrid, t1: float, t2: float, t3: float
) -> CorrelatorValue:
    """Third-order irreducible correlator (zero temperature only).

    -sum_k sin^2(2theta_k) [ b13 cos(2 eps_k (t1-t3))
                           + b12 cos(2 eps_k (t1-t2))
                           + b23 cos(2 eps_k (t2-t3)) ]

    with step-function brackets b_xy = 1 - theta(.)theta(.) - theta(.)theta(.).
    For distinct times exactly one bracket vanishes: the one whose cosine does
    not involve the earliest argument.  Coincident times take the common limit
    of the six strict orderings, so the value is computed from the two pairs
    containing the (first) minimal argument.
    """
    params.require_zero_temperature("c3_irreducible")
    ts = (t1, t2, t3)
    m = ts.index(min(ts))
    a, b = (i for i in range(3) if i != m)
    s2sq = grid.sin2theta**2
    value = -float(
        np.sum(s2sq * (np.cos(2.0 * grid.eps * (ts[a] - ts[m]))
                       + np.cos(2.0 * grid.eps * (ts[b] - ts[m]))))
    )
    return CorrelatorValue(complex(value, 0.0), 3, ts)


def c3_part(
    params: ModelParams, grid: KGrid, t1: float, t2: float, t3: float
) -> CorrelatorValue:
    """Unordered three-operator trace at zero temperature (internal cross-check).

    c1^3 + c1*S(t1-t2) + c1*S(t2-t3) - 2*S(t1-t3)  with
    S(d) = sum_k sin^2(2theta_k) exp(-2i eps_k d).  Complex valued and
    independent of the coupling g.
    """
    params.require_zero_temperature("c3_part")
    s2sq = grid.sin2theta**2

    def S(d):
        return complex(np.sum(s2sq * np.exp(-2j * grid.eps * d)))

    one = c1(params, grid).value
    value = one**3 + one * S(t1 - t2) + one * S(t2 - t3) - 2.0 * S(t1 - t3)
    return CorrelatorValue(value, 3, (t1, t2, t3))

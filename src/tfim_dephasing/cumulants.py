"""Truncated decoherence series Gamma(t) = sum_n (2^n/n!) (i g)^n Int C~.

Each order is reduced to a closed-form mode sum (the time integrals of the
cosine kernels are elementary):

    Gamma1(t) = 2 i g t c1
    Gamma2(t) = -g^2  sum_k w_k (1 - cos(2 eps_k t)) / eps_k^2
    Gamma3(t) =  i g^3 sum_k sin^2(2theta_k) (sin x_k - x_k cos x_k) / eps_k^3,
                 x_k = 2 eps_k t

with w_k = (n_k + 1)^2 (= 1 at zero temperature).  The third-order form comes
from splitting the integration cube into its six strict-ordering cells, on
each of which the step brackets are constants; the summands are even in k, so
one kernel sums orders 2 and 3 over the k > 0 half grid, doubled.  Both closed
forms are checked against direct Gauss-Legendre quadrature of the kernels; for
the third order the reference rule integrates the literal bracketed kernel,
cell-by-cell (spectral) or on one tensor grid over the cube (error O(points^-2)).
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .correlators import c1, occupation
from .errors import QuadratureConvergenceError
from .model import KGrid, ModelParams, blocks, checked_times, mode_chunks

ORDER3_POINTS_CAP = 1024


@dataclass(frozen=True)
class CumulantTerms:
    """Per-order contributions to the truncated series at one time."""

    t: float
    gamma1: complex
    gamma2: complex
    gamma3: complex
    truncated_sum: complex


def gamma_order1(params: ModelParams, grid: KGrid, t: float) -> complex:
    """First-order term 2 i g t c1; purely imaginary."""
    return complex(0.0, 2.0 * params.g * t * c1(params, grid).value.real)


def _series_orders(params: ModelParams, grid: KGrid, ts: np.ndarray, max_order: int):
    """Gamma2 and Im Gamma3 at the times ts; an order above max_order reads 0.

    Sums the k > 0 half grid, doubled, over ``mode_chunks`` by ``blocks`` of
    times.  The chunks depend on the mode count only and are added in order,
    so each time's value does not depend on the other times.
    """
    if max_order >= 3:
        params.require_zero_temperature("order 3")
    s2 = np.zeros_like(ts)
    s3 = np.zeros_like(ts)
    if max_order >= 2:
        eps = grid.eps_pos
        two_eps = 2.0 * eps
        w2 = (occupation(params.beta, eps) + 1.0) ** 2 / eps**2
        w3 = grid.sin2theta_pos**2 / eps**3
        for k in mode_chunks(eps.size):
            for i in blocks(ts.size, two_eps[k].size):
                x = np.multiply.outer(ts[i], two_eps[k])
                cos_x = np.cos(x)
                s2[i] += ((1.0 - cos_x) * w2[k]).sum(axis=1)
                if max_order >= 3:
                    s3[i] += ((np.sin(x) - x * cos_x) * w3[k]).sum(axis=1)
    g2 = -2.0 * params.g**2 * s2 if max_order >= 2 else s2
    g3 = 2.0 * params.g**3 * s3 if max_order >= 3 else s3
    return g2, g3


def gamma_order2(params: ModelParams, grid: KGrid, t: float) -> complex:
    """Second-order term; real and <= 0."""
    g2, _ = _series_orders(params, grid, np.array([t], dtype=float), 2)
    return complex(g2[0], 0.0)


def gamma_order3(
    params: ModelParams,
    grid: KGrid,
    t: float,
    quadrature_points: int | None = None,
) -> complex:
    """Third-order term (zero temperature); purely imaginary, scales as g^3.

    With ``quadrature_points`` set, the closed form is validated against the
    numerical cube integral at that resolution (refined until two successive
    refinements agree to 1e-8 relative, capped at ORDER3_POINTS_CAP);
    disagreement raises QuadratureConvergenceError.
    """
    _, g3 = _series_orders(params, grid, np.array([t], dtype=float), 3)
    value = complex(0.0, g3[0])
    if quadrature_points is not None:
        _validate_order3(params, grid, t, value, quadrature_points)
    return value


def check_quadrature_points(points: int):
    """Raise ValueError unless one refinement of ``points`` stays within
    ORDER3_POINTS_CAP and the coarsest rule has at least 8 points."""
    if not 8 <= points <= ORDER3_POINTS_CAP // 2:
        raise ValueError(
            f"quadrature_points must be in [8, {ORDER3_POINTS_CAP // 2}], got {points}")


def _validate_order3(params, grid, t, analytic, points):
    check_quadrature_points(points)
    if t == 0.0 or params.g == 0.0:
        return
    ref = gamma_order3_quadrature(params, grid, t, points)
    p = points
    while True:
        if 2 * p > ORDER3_POINTS_CAP:
            raise QuadratureConvergenceError(
                f"order-3 quadrature not converged below {ORDER3_POINTS_CAP} points at t={t}"
            )
        nxt = gamma_order3_quadrature(params, grid, t, 2 * p)
        if abs(nxt - ref) <= 1e-8 * max(abs(nxt), 1e-300):
            ref = nxt
            break
        ref, p = nxt, 2 * p
    tol = 1e-6 * (128.0 / points) ** 2
    if abs(analytic - ref) > tol * max(abs(ref), 1e-300):
        raise QuadratureConvergenceError(
            f"order-3 closed form and quadrature disagree at t={t}: "
            f"{analytic.imag:.6e} vs {ref.imag:.6e}"
        )


def gamma_series(
    params: ModelParams,
    grid: KGrid,
    times: np.ndarray,
    max_order: int = 3,
) -> list[CumulantTerms]:
    """Evaluate the per-order terms on a time grid; orders above max_order are zero."""
    if max_order not in (1, 2, 3):
        raise ValueError(f"max_order must be 1, 2 or 3, got {max_order}")
    ts = checked_times(times)

    g1 = 2.0 * params.g * c1(params, grid).value.real * ts
    g2, g3 = _series_orders(params, grid, ts, max_order)
    out = []
    for t, a, b, c in zip(ts, g1, g2, g3):
        terms = (complex(0.0, a), complex(b, 0.0), complex(0.0, c))
        out.append(CumulantTerms(float(t), *terms, sum(terms)))
    return out


@lru_cache(maxsize=32)
def _leggauss01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _mode_cos_sum(grid: KGrid, weights: np.ndarray, diffs: np.ndarray) -> np.ndarray:
    """sum_k weights_k * cos(2 eps_k d) for every d in diffs; weights on k > 0, doubled."""
    eps = grid.eps_pos
    flat = diffs.reshape(-1)
    out = np.empty_like(flat)
    for i in blocks(flat.size, eps.size):
        out[i] = np.cos(2.0 * np.multiply.outer(flat[i], eps)) @ weights
    return 2.0 * out.reshape(diffs.shape)


def gamma_order2_quadrature(
    params: ModelParams, grid: KGrid, t: float, points: int = 64
) -> complex:
    """Reference value of the second order by tensor Gauss-Legendre on [0,t]^2."""
    x01, w01 = _leggauss01(points)
    x = t * x01
    w = t * w01
    weights = (occupation(params.beta, grid.eps_pos) + 1.0) ** 2
    table = _mode_cos_sum(grid, weights, x[:, None] - x[None, :])
    integral = float(np.einsum("i,j,ij->", w, w, table))
    return complex(-2.0 * params.g**2 * integral, 0.0)


def _order3_kernel_brackets(T1, T2, T3):
    """Literal step-function brackets of the third-order kernel."""
    def th(z):
        return (z > 0).astype(float)

    b13 = 1.0 - th(T3 - T1) * th(T1 - T2) - th(T1 - T3) * th(T3 - T2)
    b12 = 1.0 - th(T2 - T1) * th(T1 - T3) - th(T1 - T2) * th(T2 - T3)
    b23 = 1.0 - th(T3 - T2) * th(T2 - T1) - th(T2 - T3) * th(T3 - T1)
    return b13, b12, b23


def gamma_order3_quadrature(
    params: ModelParams,
    grid: KGrid,
    t: float,
    points: int = 64,
    split_orderings: bool = True,
) -> complex:
    """Reference value of the third order by numerical integration over [0,t]^3.

    split_orderings=True integrates the six strict-ordering cells with nested
    variable-limit Gauss-Legendre rules (points per axis per cell) and the
    literal step brackets; the integrand is smooth on each cell, so this
    converges spectrally.  The three pair sums are computed once per node for
    all six cells, and the outer axis is walked in ``blocks`` of points^2-node
    rows, so memory is bounded by a slab, not by points^3.
    split_orderings=False uses one tensor-product rule over the whole cube;
    the kernel kinks across the ordering boundaries limit that variant to
    O(points^-2) accuracy.
    """
    params.require_zero_temperature("gamma_order3_quadrature")
    if points < 2:
        raise ValueError("points must be >= 2")
    s2sq = grid.sin2theta_pos**2

    if split_orderings:
        u, wu = _leggauss01(points)
        ta = t * u[:, None, None]
        tb = ta * u[None, :, None]
        # every cell puts the nodes (ta, tb, tc) on (T1, T2, T3) in its own
        # order and cos is even, so one set of pair sums serves all six cells;
        # ta - tb does not depend on the third axis
        s_ab = _mode_cos_sum(grid, s2sq, ta - tb)
        integral = 0.0
        for i in blocks(points, points**2):
            nodes = (ta[i], tb[i], tb[i] * u)
            # the pair sum of nodes p and q is pairs[p + q - 1]
            pairs = (s_ab[i], _mode_cos_sum(grid, s2sq, nodes[0] - nodes[2]),
                     _mode_cos_sum(grid, s2sq, nodes[1] - nodes[2]))
            wt = wu[i, None, None] * wu[None, :, None] * wu * (t * nodes[0] * nodes[1])
            for perm in permutations(range(3)):
                p1, p2, p3 = (perm.index(m) for m in range(3))  # the nodes on T1, T2, T3
                b13, b12, b23 = _order3_kernel_brackets(nodes[p1], nodes[p2], nodes[p3])
                kern = -(b13 * pairs[p1 + p3 - 1] + b12 * pairs[p1 + p2 - 1]
                         + b23 * pairs[p2 + p3 - 1])
                integral += float(np.sum(wt * kern))
    else:
        x01, w01 = _leggauss01(points)
        x = t * x01
        w = t * w01
        table = _mode_cos_sum(grid, s2sq, x[:, None] - x[None, :])
        j, k = np.arange(points)[:, None], np.arange(points)
        integral = 0.0
        for slab in blocks(points, points**2):
            i = np.arange(points)[slab, None, None]
            # limiting kernel: the two cosine pairs that contain the minimal
            # time (the first one on ties, as argmin picks it)
            omitted = np.where((x[i] <= x[j]) & (x[i] <= x[k]), table[j, k],
                               np.where(x[j] <= x[k], table[k, i], table[i, j]))
            kern = -((table[i, j] + table[i, k] + table[j, k]) - omitted)
            integral += float(np.einsum("i,j,k,ijk->", w[i[:, 0, 0]], w, w, kern))
    return complex(0.0, -(4.0 / 3.0) * params.g**3 * integral)

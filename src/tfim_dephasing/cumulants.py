"""Truncated decoherence series Gamma(t) = sum_n (2^n/n!) (i g)^n Int C~.

Each order is reduced to a closed-form mode sum (the time integrals of the
cosine kernels are elementary):

    Gamma1(t) = 2 i g t c1
    Gamma2(t) = -g^2  sum_k (1 - cos(2 eps_k t)) / eps_k^2
    Gamma3(t) =  i g^3 sum_k sin^2(2theta_k) (sin x_k - x_k cos x_k) / eps_k^3,
                 x_k = 2 eps_k t

at zero temperature.  The third-order form comes
from splitting the integration cube into its six strict-ordering cells, on
each of which the step brackets are constants; the summands are even in k, so
one kernel (``mode_sums``) sums orders 2 and 3 over the k > 0 half grid,
doubled, from one tangent of the half angle eps_k t per mode and time.  The
sums S2, S3 do not depend on g, so a sweep computes them once per
lambda; ``scaled_terms`` forms Gamma1..3 and their sum from them as one (4, T)
array, and ``gamma_series`` is its one-coupling, per-time view.  Both closed
forms are checked against direct Gauss-Legendre quadrature of the kernels; for
the third order the reference rule integrates the literal bracketed kernel
cell by cell (spectral; the brackets once per cell; one slab's buffers reused).
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .correlators import c1, c2_values, mode_cos_sum
from .errors import QuadratureConvergenceError
from .model import BLOCK_ELEMENTS, KGrid, ModelParams, block_size, blocks, checked_coupling
from .model import checked_times, mode_chunks

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
    return gamma_series(params, grid, [t], 1)[0].gamma1


def mode_sums(grid: KGrid, ts: np.ndarray, max_order: int):
    """The g-free sums (S2, S3) of orders 2 and 3 at ts; an order above max_order reads 0.

    Sums the k > 0 half grid (``scaled_terms`` doubles it) over
    ``mode_chunks`` by ``blocks`` of times.  The chunks depend on the mode
    count only and are added in order, so each time's value does not depend
    on the other times.

    Both kernels are taken at the half angle h = t eps_k = x/2 (the same
    float as (t 2eps_k)/2) through one tangent, tau = tan h and q = tau^2:

        1 - cos x       = 2 q / (1 + q)
        sin x - x cos x = 2 ((tau - h) + h q) / (1 + q)

    with the factor 2 folded into the weights.  The first form has no
    cancellation; in the second, tau - h is exact where it cancels
    (Sterbenz), but tan's own rounding still leaves a relative error of
    about ulp/h^2 for small h.  Every block is written into the leading
    elements of three buffers (h, tau, q; 1 + q reuses h) allocated once per
    call at ``model.block_size``, in the operation order
    ``((tau - h) + h q) / (1 + q) * w3`` and ``q / (1 + q) * w2``, followed
    by a row sum.
    """
    s2 = np.zeros_like(ts)
    s3 = np.zeros_like(ts)
    if max_order >= 2:
        eps = grid.eps_pos
        buffers = np.empty((3, block_size(ts.size, eps.size)))
        for k in mode_chunks(eps.size):
            n = eps[k].size
            w2 = 2.0 / eps[k]**2
            w3 = 2.0 * grid.sin2theta_pos[k]**2 / eps[k]**3
            for i in blocks(ts.size, n):
                h, tau, q = buffers[:, :ts[i].size * n].reshape(3, -1, n)
                np.multiply.outer(ts[i], eps[k], out=h)
                np.tan(h, out=tau)
                np.multiply(tau, tau, out=q)
                if max_order >= 3:
                    tau -= h
                    h *= q
                    tau += h
                np.add(1.0, q, out=h)
                if max_order >= 3:
                    tau /= h
                    tau *= w3
                    s3[i] += tau.sum(axis=1)
                q /= h
                q *= w2
                s2[i] += q.sum(axis=1)
    return s2, s3


def scaled_terms(g: float, c1_value: float, ts, sums, max_order: int) -> np.ndarray:
    """Gamma1, Gamma2, Gamma3 and their sum (Python's ``sum``, bit for bit) in a (4, T) array."""
    s2, s3 = sums
    terms = np.zeros((4, ts.size), dtype=complex)
    terms[0].imag = 2.0 * g * c1_value * ts
    terms[1].real = -2.0 * g**2 * s2 if max_order >= 2 else s2
    terms[2].imag = 2.0 * g**3 * s3 if max_order >= 3 else s3
    terms[3] = terms[0] + terms[1] + terms[2]
    return terms


def gamma_order2(params: ModelParams, grid: KGrid, t: float) -> complex:
    """Second-order term; real and <= 0."""
    return gamma_series(params, grid, [t], 2)[0].gamma2


def gamma_order3(
    params: ModelParams,
    grid: KGrid,
    t: float,
    quadrature_points: int | None = None,
) -> complex:
    """Third-order term; purely imaginary, scales as g^3.

    With ``quadrature_points`` set, the closed form is validated against the
    numerical cube integral at that resolution (refined until two successive
    refinements agree to 1e-8 relative, capped at ORDER3_POINTS_CAP);
    disagreement raises QuadratureConvergenceError.
    """
    value = gamma_series(params, grid, [t], 3)[0].gamma3
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
    if not np.isfinite(analytic):  # a nan never settles: it would be refined up to the cap
        raise QuadratureConvergenceError(f"order-3 closed form not finite at t={t}: {analytic}")
    ref, p = gamma_order3_quadrature(params, grid, t, points), points
    while True:
        if 2 * p > ORDER3_POINTS_CAP:
            raise QuadratureConvergenceError(
                f"order-3 quadrature not converged below {ORDER3_POINTS_CAP} points at t={t}")
        nxt = gamma_order3_quadrature(params, grid, t, 2 * p)
        if not np.isfinite(nxt):  # a non-finite first ref fails the agreement test
            raise QuadratureConvergenceError(f"order-3 quadrature not finite at t={t}: {nxt}")
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
    g, ts = checked_coupling(params, grid), checked_times(times)
    terms = scaled_terms(g, c1(grid), ts, mode_sums(grid, ts, max_order), max_order)
    return [CumulantTerms(t, *z) for t, *z in zip(ts.tolist(), *terms.tolist())]


@lru_cache(maxsize=32)
def _leggauss01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def gamma_order2_quadrature(
    params: ModelParams, grid: KGrid, t: float, points: int = 64
) -> complex:
    """Reference value of the second order by tensor Gauss-Legendre on [0,t]^2."""
    g = checked_coupling(params, grid)
    x, w = (t * v for v in _leggauss01(points))
    table = c2_values(grid, x[:, None], x[None, :])
    integral = float(np.einsum("i,j,ij->", w, w, table))
    return complex(-2.0 * g**2 * integral, 0.0)


def _order3_kernel_brackets(T1, T2, T3):
    """Literal step-function brackets 1 - th*th - th*th of the third-order kernel.

    Each th(Tp - Tq) is the boolean Tp > Tq (equal for finite times) and each
    product th*th an ``&``; the subtraction casts the products to float.
    """
    t12, t21, t13, t31, t23, t32 = T1 > T2, T2 > T1, T1 > T3, T3 > T1, T2 > T3, T3 > T2
    b13 = 1.0 - (t31 & t12) - (t13 & t32)
    b12 = 1.0 - (t21 & t13) - (t12 & t23)
    b23 = 1.0 - (t32 & t21) - (t23 & t31)
    return b13, b12, b23


def gamma_order3_quadrature(
    params: ModelParams, grid: KGrid, t: float, points: int = 64
) -> complex:
    """Reference value of the third order by numerical integration over [0,t]^3.

    Integrates the six strict-ordering cells with nested variable-limit
    Gauss-Legendre rules (points per axis per cell) and the literal step
    brackets; the integrand is smooth on each cell, so this converges
    spectrally.  The brackets are constants on each cell and are evaluated once
    per cell; cells with equal brackets share one kernel, and a pair sum that no
    cell uses is skipped.  The outer axis is walked in ``blocks`` of
    points^2-node rows through three slab buffers (tc, then the weights; the
    two pair sums) and a cosine scratch that then holds each kernel, all
    allocated once per call, so memory is bounded by a slab, not by points^3.
    """
    g = checked_coupling(params, grid)
    if points < 2:
        raise ValueError("points must be >= 2")
    s2sq = grid.sin2theta_pos**2
    u, wu = _leggauss01(points)
    ta = t * u[:, None, None]
    tb = ta * u[None, :, None]
    # the brackets are constants on each cell, so one node of the grid gives
    # them all; each cell puts the nodes (ta, tb, tc) on (T1, T2, T3) in its
    # own order and cos is even, so its brackets become coefficients of the
    # pair sums (ab, ac, bc): the pair sum of nodes p and q is pairs[p + q - 1]
    node = (ta[0, 0, 0], tb[0, 0, 0], tb[0, 0, 0] * u[0])
    cells = []
    for perm in permutations(range(3)):
        p1, p2, p3 = (perm.index(m) for m in range(3))  # the nodes on T1, T2, T3
        b13, b12, b23 = _order3_kernel_brackets(node[p1], node[p2], node[p3])
        coefs = {p1 + p3 - 1: b13, p1 + p2 - 1: b12, p2 + p3 - 1: b23}
        cells.append(tuple(coefs[j] for j in range(3)))
    # ta - tb does not depend on the third axis
    s_ab = mode_cos_sum(grid, s2sq, ta - tb) if any(c[0] for c in cells) else None
    slab = ta[next(blocks(points, points**2))].size * points**2
    buffers = np.empty((3, slab))  # one slab's tc (then wt), s_ac and s_bc
    scratch = np.empty(max(slab, BLOCK_ELEMENTS, s2sq.size))  # >= a block of cosines
    integral = 0.0
    for i in blocks(points, points**2):
        tc, s_ac, s_bc = (b[:ta[i].size * points**2].reshape(-1, points, points) for b in buffers)
        np.multiply(tb[i], u, out=tc)
        for near, s in ((ta[i], s_ac), (tb[i], s_bc)):
            np.subtract(near, tc, out=s)
            mode_cos_sum(grid, s2sq, s, out=s, scratch=scratch)
        wt = np.multiply(wu[i, None, None] * wu[None, :, None], wu, out=tc)
        wt *= t * ta[i] * tb[i]
        pairs = (s_ab if s_ab is None else s_ab[i], s_ac, s_bc)
        kernel = scratch[:wt.size].reshape(wt.shape)  # the cosines are spent
        cell_sums = {}
        for coefs in dict.fromkeys(cells):  # cells with equal coefficients share a kernel
            # a bracket is 0 or 1: its two step products exclude each other
            first, *rest = [s for c, s in zip(coefs, pairs) if c]
            np.copyto(kernel, first)
            for s in rest:
                kernel += s
            np.negative(kernel, out=kernel)
            kernel *= wt
            cell_sums[coefs] = float(kernel.sum())
        for coefs in cells:
            integral += cell_sums[coefs]
    return complex(0.0, -(4.0 / 3.0) * g**3 * integral)

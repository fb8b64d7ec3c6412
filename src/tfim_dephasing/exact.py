"""Exact decoherence function from the per-mode product solution.

At zero temperature the bath factorizes into independent +/-k mode pairs.
For each k > 0 the coherence picks up the vacuum-to-vacuum element of

    U_k^dag(t) U_k(t) = exp(-it(H_k + g B_k)) exp(+it(H_k - g B_k))

in the even-parity pair basis, with

    H_k = [[-eps_k, 0], [0, eps_k]],     B_k = [[0, i s_k], [-i s_k, -4]],

s_k = sin(2 theta_k).  The product of exponentials reduces to a closed form
in the magnitudes

    a = sqrt((g s_k)^2 + (2g - eps_k)^2),  b = sqrt((g s_k)^2 + (2g + eps_k)^2):

    A_k(t) = e^{4igt} [ cos(t(a-b)) + Cm1 sin(ta) sin(tb)
                        - i ((2g-eps)/a sin(ta)cos(tb) + (2g+eps)/b cos(ta)sin(tb)) ]

where Cm1 = (eps^2 - 4g^2 - g^2 s^2)/(ab) - 1 is evaluated in a cancellation-
free rearrangement so that A_k(0) = A_k(g=0) = 1 holds exactly.  A legacy
variant of the closed form with middle coefficient (eps^2 - s^2)/(ab) and a
purely eps-weighted imaginary part is kept behind ``corrected=False`` for
comparison; it violates the g = 0 identity and is not used anywhere.

The decoherence function is Gamma(t) = sum_{k>0} ln A_k(t) with the per-mode
log branch tracked continuously in t from Gamma(0) = 0: the closed form is
evaluated at the requested times only, and e^{ita}, e^{itb}, e^{it(a-b)} are
stepped by complex multiplication across the sub-steps between them that
choose the branch.  The deterministic phase -2it(omega0 + g sum_k cos 2theta_k)
is reported separately.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .correlators import c1
from .errors import BranchTrackingError, FiniteBetaError
from .model import BLOCK_ELEMENTS, MODE_CHUNK, KGrid, KMode, ModelParams

OVERLAP_FLOOR = 1e-12


@dataclass(frozen=True)
class ModeABC:
    """Per-mode magnitudes a, b and the overlap matrix element at one time."""

    a: float
    b: float
    A_entry: complex


@dataclass(frozen=True, eq=False)
class DecoherenceCurve:
    """Gamma(t) samples with the deterministic phase and parameter echo."""

    times: np.ndarray
    gamma: np.ndarray
    deterministic_phase: np.ndarray
    meta: ModelParams


def ab_magnitudes(mode: KMode, g: float) -> tuple[float, float]:
    """Magnitudes of the two per-mode rotation vectors; both equal eps at g = 0."""
    a, b, *_ = _coefficients(mode.eps, mode.sin2theta, g)
    return float(a), float(b)


def _pair_generators(mode: KMode, g: float) -> tuple[np.ndarray, np.ndarray]:
    eps, s = mode.eps, mode.sin2theta
    coupling = np.array([[0.0, 1j * g * s], [-1j * g * s, -4.0 * g]])
    h = np.array([[-eps, 0.0], [0.0, eps]], dtype=complex)
    return h + coupling, h - coupling


def mode_overlap_oracle(mode: KMode, g: float, t: float) -> complex:
    """Ground-truth overlap from explicit 2x2 matrix exponentials (eigh route)."""
    m_plus, m_minus = _pair_generators(mode, g)
    ev_p, vec_p = np.linalg.eigh(m_plus)
    ev_m, vec_m = np.linalg.eigh(m_minus)
    u_p = (vec_p * np.exp(-1j * t * ev_p)) @ vec_p.conj().T
    u_m = (vec_m * np.exp(1j * t * ev_m)) @ vec_m.conj().T
    return complex((u_p @ u_m)[0, 0])


def _coefficients(eps, s2, g):
    """Per-mode a, b, a - b, Cm1 and the sine weights (2g-eps)/a, (2g+eps)/b."""
    gs = g * s2
    a = np.hypot(gs, 2.0 * g - eps)
    b = np.hypot(gs, 2.0 * g + eps)
    ab = a * b
    # a - b and the middle coefficient minus one, in cancellation-free form
    amb = -8.0 * g * eps / (a + b)
    p = g * g * (s2 * s2 + 4.0) + eps * eps
    cm1 = -4.0 * eps * eps * g * g * s2 * s2 / (ab * ((2.0 * eps * eps - p) + ab))
    return a, b, amb, cm1, (2.0 * g - eps) / a, (2.0 * g + eps) / b


def _assemble(coef, sin_a, cos_a, sin_b, cos_b, cos_d, trace_phase):
    """A_k from sin, cos of ta and tb, cos t(a-b), and e^{4igt} (one per row)."""
    _, _, _, cm1, wa, wb = coef
    out = np.empty(sin_a.shape, dtype=complex)
    out.real = cos_d + cm1 * sin_a * sin_b
    out.imag = -(wa * sin_a * cos_b + wb * cos_a * sin_b)
    out *= trace_phase[:, None]
    return out


def _closed_form_entries(eps, s2, g, ts):
    """Corrected closed-form overlaps, vectorized over times (rows) and modes."""
    coef = _coefficients(eps, s2, g)
    tx = np.multiply.outer(ts, coef[0])
    sin_a, cos_a = np.sin(tx), np.cos(tx)
    np.multiply.outer(ts, coef[1], out=tx)
    sin_b, cos_b = np.sin(tx), np.cos(tx)
    cos_d = np.cos(np.multiply.outer(ts, coef[2], out=tx))
    return _assemble(coef, sin_a, cos_a, sin_b, cos_b, cos_d, np.exp(4j * g * ts))


def _closed_form_rows(eps, s2, g, starts, ends, r):
    """Yield (times, overlaps) at the ends of the intervals (starts, ends], then
    at each of their r - 1 sub-steps, which only choose the log branch: there
    e^{ita}, e^{itb}, e^{it(a-b)} are stepped by complex multiplication from
    each interval's start, so rounding never accumulates past one interval.
    """
    yield ends, _closed_form_entries(eps, s2, g, ends)
    if r == 1:
        return
    coef = _coefficients(eps, s2, g)
    h = (ends - starts) / r
    x = (np.multiply.outer(ts, w) for w in coef[:3] for ts in (starts, h))
    pa, sa, pb, sb, pd, sd = (np.cos(y) + 1j * np.sin(y) for y in x)
    for j in range(1, r):
        pa *= sa
        pb *= sb
        pd *= sd
        ts = starts + j * h
        yield ts, _assemble(coef, pa.imag, pa.real, pb.imag, pb.real, pd.real,
                            np.exp(4j * g * ts))


def _oracle_rows(modes, g, starts, ends, r):
    """The rows of ``_closed_form_rows``, each entry from the matrix oracle."""
    h = (ends - starts) / r
    for ts in [ends] + [starts + j * h for j in range(1, r)]:
        yield ts, np.array([[mode_overlap_oracle(m, g, float(t)) for m in modes] for t in ts])


def mode_overlap_closed_form(
    mode: KMode, g: float, t: float, corrected: bool = True
) -> complex:
    """Closed-form overlap; ``corrected=False`` selects the legacy coefficients."""
    if corrected:
        return complex(
            _closed_form_entries(
                np.array([mode.eps]), np.array([mode.sin2theta]), g, np.array([t])
            )[0, 0]
        )
    eps, s = mode.eps, mode.sin2theta
    a, b = ab_magnitudes(mode, g)
    ta, tb = t * a, t * b
    return complex(
        math.cos(ta) * math.cos(tb)
        + (eps * eps - s * s) * math.sin(ta) * math.sin(tb) / (a * b)
        + 1j * eps * (math.sin(ta) * math.cos(tb) / a - math.cos(ta) * math.sin(tb) / b)
    )


def mode_abc(mode: KMode, g: float, t: float) -> ModeABC:
    a, b = ab_magnitudes(mode, g)
    return ModeABC(a, b, mode_overlap_closed_form(mode, g, t))


def certify_closed_form(grid: KGrid, gs, times) -> float:
    """Max abs deviation of the corrected closed form from the matrix oracle."""
    worst = 0.0
    for mode in grid.positive_modes:
        for g in gs:
            for t in times:
                diff = abs(
                    mode_overlap_closed_form(mode, g, t) - mode_overlap_oracle(mode, g, t)
                )
                worst = max(worst, diff)
    return worst


def _refinement(times: np.ndarray, max_rate: float) -> int:
    """Sub-steps per interval between requested times that advance phase < pi/2."""
    step = float(np.max(np.diff(times, prepend=0.0)))
    return max(1, math.ceil(max_rate * step / (0.5 * math.pi)))


def _checked_angles(ts, entries, k_pos):
    """Magnitudes and angles of the overlaps; raises below OVERLAP_FLOOR."""
    mags = np.abs(entries)
    if np.any(mags < OVERLAP_FLOOR):
        i, j = np.unravel_index(int(np.argmin(mags)), mags.shape)
        raise BranchTrackingError(
            f"overlap magnitude {mags[i, j]:.3e} below {OVERLAP_FLOOR} "
            f"at t={ts[i]}, k={k_pos[j]}"
        )
    return mags, np.angle(entries)


def gamma_exact(
    params: ModelParams,
    grid: KGrid,
    times: np.ndarray,
    use_oracle: bool = False,
) -> DecoherenceCurve:
    """Exact Gamma(t) = sum_{k>0} ln A_k(t) with continuous branch tracking.

    The branch of ln A_k counts the 2 pi wraps of arg A_k (the np.unwrap rule)
    over r equal sub-steps per interval between requested times (from t = 0).
    Modes are summed in chunks of MODE_CHUNK and time is walked in blocks of
    about BLOCK_ELEMENTS sub-step samples, carrying each mode's wrap count,
    so memory is bounded by a block.  ``use_oracle`` takes every overlap from
    the matrix oracle instead of the closed form and its stepped phasors.

    Raises BranchTrackingError if any per-mode overlap magnitude, sub-steps
    included, falls below OVERLAP_FLOOR (the log diverges at a genuine zero
    of the overlap).
    """
    if not params.zero_temperature:
        raise FiniteBetaError("gamma_exact requires beta = inf")
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("times must be a non-empty 1-D array")
    if ts[0] < 0.0 or np.any(np.diff(ts) <= 0.0):
        raise ValueError("times must be strictly increasing and start at >= 0")

    eps = grid.eps_pos
    s2 = grid.sin2theta_pos
    g = params.g
    a, b, *_ = _coefficients(eps, s2, g)
    r = _refinement(ts, float(np.max(a + b)) + 4.0 * abs(g))
    starts = np.concatenate([[0.0], ts[:-1]])

    modes = grid.positive_modes if use_oracle else None
    gamma = np.zeros(ts.size, dtype=complex)
    for lo in range(0, eps.size, MODE_CHUNK):
        k = slice(lo, lo + MODE_CHUNK)
        k_pos = grid.k_pos[k]
        rows = max(1, BLOCK_ELEMENTS // (r * k_pos.size))
        end_arg = end_wraps = np.zeros(k_pos.size)  # at t = 0, where A_k = 1
        for i in range(0, ts.size, rows):
            blk = slice(i, i + rows)
            fine = (_oracle_rows(modes[k], g, starts[blk], ts[blk], r) if use_oracle
                    else _closed_form_rows(eps[k], s2[k], g, starts[blk], ts[blk], r))
            mags, arg = _checked_angles(*next(fine), k_pos)
            prev = np.vstack([end_arg, arg[:-1]])
            wraps = np.zeros_like(arg)
            for nxt in chain((_checked_angles(*row, k_pos)[1] for row in fine), [arg]):
                step = nxt - prev
                wraps += step < -np.pi
                wraps -= step > np.pi
                prev = nxt
            wraps = end_wraps + np.cumsum(wraps, axis=0)
            gamma[blk] += (np.log(mags) + 1j * (arg + 2.0 * np.pi * wraps)).sum(axis=1)
            end_arg, end_wraps = arg[-1], wraps[-1]

    c1val = c1(params, grid).value.real
    phase = -2j * ts * (params.omega0 + g * c1val)
    return DecoherenceCurve(ts, gamma, phase, params)


def gamma_for_series_comparison(curve: DecoherenceCurve) -> np.ndarray:
    """Map the exact curve onto the coherence-element convention of the series.

    The per-mode product tracks one off-diagonal qubit element; the cumulant
    series tracks the conjugate one.  Folding the coupling part of the
    deterministic phase into Gamma and conjugating yields the quantity whose
    weak-coupling expansion lines up with the series terms order by order in
    the odd (imaginary) sector.
    """
    omega0_part = -2j * curve.meta.omega0 * curve.times
    return np.conj(curve.gamma + curve.deterministic_phase - omega0_part)

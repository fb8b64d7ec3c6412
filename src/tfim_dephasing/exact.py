"""Exact decoherence function from the per-mode product solution.

At zero temperature the bath factorizes into independent +/-k mode pairs.
For each k > 0 the coherence picks up the vacuum-to-vacuum element of

    U_k^dag(t) U_k(t) = exp(-it(H_k + g B_k)) exp(+it(H_k - g B_k))

in the even-parity pair basis, with

    H_k = [[-eps_k, 0], [0, eps_k]],     B_k = [[0, i s_k], [-i s_k, -4]],

s_k = sin(2 theta_k).  With a = sqrt((g s_k)^2 + (2g - eps_k)^2) and
b = sqrt((g s_k)^2 + (2g + eps_k)^2), the product-to-sum identities put its
closed form on the two phasors ps = e^{it(a+b)} and pd = e^{it(a-b)}:

    A_k(t) = e^{4igt} [Re pd + (Cm1/2)(Re pd - Re ps) - i (alpha Im ps + beta Im pd)]

with alpha, beta = ((2g-eps)/a +/- (2g+eps)/b)/2 and Cm1 = (eps^2 - 4g^2 -
g^2 s^2)/(ab) - 1; a - b and Cm1 are cancellation-free rearrangements, so
A_k(0) = A_k(g=0) = 1 holds exactly.  A legacy variant (``corrected=False``:
middle coefficient (eps^2 - s^2)/(ab), eps-weighted imaginary part) violates
the g = 0 identity and is kept for comparison only.

The decoherence function is Gamma(t) = sum_{k>0} ln A_k(t) with the per-mode
log branch tracked continuously in t from Gamma(0) = 0.  The deterministic
phase -2it(omega0 + g sum_k cos 2theta_k) is reported separately.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .correlators import c1
from .errors import BranchTrackingError
from .model import KGrid, KMode, ModelParams, blocks, checked_times, mode_chunks

OVERLAP_FLOOR = 1e-12
ANCHOR_ROWS = 16  # requested times stepped from one closed-form evaluation, at most


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


def _oracle_entries(eps, s2, g, ts):
    """Overlaps from explicit 2x2 matrix exponentials: rows ts, columns modes.  Each
    mode's M+/- = H_k +/- g B_k is diagonalized once (eigh on the stack)."""
    h = np.zeros((eps.size, 2, 2), dtype=complex)
    h[:, 0, 0], h[:, 1, 1] = -eps, eps
    coupling = np.zeros_like(h)
    coupling[:, 0, 1], coupling[:, 1, 0], coupling[:, 1, 1] = 1j * g * s2, -1j * g * s2, -4.0 * g
    ev, vec = np.linalg.eigh(np.stack([h + coupling, h - coupling]))
    # U+ = exp(-it M+), U- = exp(+it M-): (time, U+ or U-, mode, 2, 2)
    phases = np.exp(np.multiply.outer(ts, [-1j, 1j])[..., None, None, None] * ev[:, :, None, :])
    u = (vec * phases) @ vec.conj().swapaxes(-1, -2)
    return (u[:, 0] @ u[:, 1])[..., 0, 0]


def _at(entries, mode: KMode, g: float, t: float) -> complex:
    """One mode's overlap at one time from a (times, modes) kernel."""
    eps, s2 = np.array([mode.eps]), np.array([mode.sin2theta])
    return complex(entries(eps, s2, g, np.array([t]))[0, 0])


def mode_overlap_oracle(mode: KMode, g: float, t: float) -> complex:
    """Ground-truth overlap from explicit 2x2 matrix exponentials (eigh route)."""
    return _at(_oracle_entries, mode, g, t)


def _coefficients(eps, s2, g):
    """Per-mode a, b, a + b, a - b, Cm1/2 and the sine weights alpha, beta."""
    gs = g * s2
    a = np.hypot(gs, 2.0 * g - eps)
    b = np.hypot(gs, 2.0 * g + eps)
    ab = a * b
    # a - b and the middle coefficient minus one, in cancellation-free form:
    # Cm1 = q/(ab) - 1 has two negative terms where q <= 0; elsewhere it is
    # rationalized, which also makes Cm1 = 0 exactly at g = 0
    amb = -8.0 * g * eps / (a + b)
    q = eps * eps - g * g * (s2 * s2 + 4.0)
    direct = q <= 0.0
    cm1 = np.where(direct, q / ab - 1.0, -4.0 * eps * eps * g * g * s2 * s2
                   / (ab * np.where(direct, 1.0, q + ab)))
    wa, wb = (2.0 * g - eps) / a, (2.0 * g + eps) / b
    return a, b, a + b, amb, 0.5 * cm1, 0.5 * (wa + wb), 0.5 * (wa - wb)


def _phasors(coef, ts):
    """e^{it(a+b)} and e^{it(a-b)} from cos and sin: rows ts, columns modes."""
    x = np.multiply.outer(ts, np.stack(coef[2:4]))  # (time, a+b or a-b, mode)
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out[:, 0], out[:, 1]


def _assemble(coef, g, ts, ps, pd):
    """A_k from ps, pd and e^{4igt} (one per row)."""
    *_, half_cm1, alpha, beta = coef
    out = np.empty(ps.shape, dtype=complex)
    out.real = pd.real + half_cm1 * (pd.real - ps.real)
    out.imag = -(alpha * ps.imag + beta * pd.imag)
    out *= np.exp(4j * g * ts)[:, None]
    return out


def _closed_form_entries(eps, s2, g, ts):
    """Corrected closed-form overlaps, vectorized over times (rows) and modes."""
    coef = _coefficients(eps, s2, g)
    return _assemble(coef, g, ts, *_phasors(coef, ts))


def _closed_form_rows(coef, g, starts, ends, r):
    """Yield (times, overlaps) at the ends of the intervals (starts, ends], then
    at each of their r - 1 sub-steps, which only choose the log branch.  Every
    ANCHOR_ROWS-th end takes the closed form of e^{it(a+/-b)}; each end between
    is the previous one times e^{iw(a+/-b)}, one pair per distinct width w, and
    the sub-steps are stepped the same way from each interval's start (the
    closed form at starts[0], the previous end after it).
    """
    anchors = np.arange(ends.size) % ANCHOR_ROWS == 0
    values, rows = np.unique(np.where(anchors, ends, ends - starts), return_inverse=True)
    ps, pd = (p[rows] for p in _phasors(coef, values))
    for j in range(1, ANCHOR_ROWS):  # row j of every anchor's run at once
        ps[j::ANCHOR_ROWS] *= ps[j - 1:-1:ANCHOR_ROWS]
        pd[j::ANCHOR_ROWS] *= pd[j - 1:-1:ANCHOR_ROWS]
    yield ends, _assemble(coef, g, ends, ps, pd)
    if r == 1:
        return
    h = (ends - starts) / r
    steps, rows = np.unique(h, return_inverse=True)
    step_s, step_d = (p[rows] for p in _phasors(coef, steps))
    cur_s, cur_d = (np.vstack([p0, p[:-1]])
                    for p0, p in zip(_phasors(coef, starts[:1]), (ps, pd)))
    for j in range(1, r):
        cur_s *= step_s
        cur_d *= step_d
        ts = starts + j * h
        yield ts, _assemble(coef, g, ts, cur_s, cur_d)


def mode_overlap_closed_form(
    mode: KMode, g: float, t: float, corrected: bool = True
) -> complex:
    """Closed-form overlap; ``corrected=False`` selects the legacy coefficients."""
    if corrected:
        return _at(_closed_form_entries, mode, g, t)
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
    """Max abs deviation of the corrected closed form from the matrix oracle; nan if either is."""
    eps, s2, ts = grid.eps_pos, grid.sin2theta_pos, np.asarray(times, dtype=float)
    worst = 0.0
    for g in gs:
        for blk in blocks(ts.size, 4 * eps.size):  # a 2x2 matrix per mode and time
            diff = _closed_form_entries(eps, s2, g, ts[blk]) - _oracle_entries(eps, s2, g, ts[blk])
            worst = np.maximum(worst, np.max(np.abs(diff)))
    return float(worst)


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
    over r equal sub-steps per interval between requested times, from t = 0.
    Modes are summed over ``mode_chunks``, time in ``blocks`` of rows of r
    sub-step samples per mode.  Every ANCHOR_ROWS-th requested time of
    a block takes the closed form of e^{it(a+/-b)}; the times between and the
    sub-steps are the previous value times e^{iw(a+/-b)}, one pair per distinct
    width w, so each value is at most ANCHOR_ROWS + r - 2 multiplies from a
    closed form.  Wrap counts carry over between blocks, so memory is bounded
    by a block.  ``use_oracle`` takes the overlaps from the matrix oracle.

    Raises BranchTrackingError if any per-mode overlap magnitude, sub-steps
    included, falls below OVERLAP_FLOOR (a genuine zero of the overlap).
    """
    params.require_zero_temperature("gamma_exact")
    ts = checked_times(times)

    g = params.g
    coef = _coefficients(grid.eps_pos, grid.sin2theta_pos, g)
    r = _refinement(ts, float(np.max(coef[2])) + 4.0 * abs(g))
    starts = np.concatenate([[0.0], ts[:-1]])

    gamma = np.zeros(ts.size, dtype=complex)
    for k in mode_chunks(coef[0].size):
        k_pos = grid.k_pos[k]
        chunk = [c[k] for c in coef]
        chunk_modes = grid.eps_pos[k], grid.sin2theta_pos[k]
        end_arg, end_turns = np.zeros(k_pos.size), 0.0  # at t = 0, where A_k = 1
        for blk in blocks(ts.size, r * k_pos.size):
            fine = _closed_form_rows(chunk, g, starts[blk], ts[blk], r)
            if use_oracle:  # the same sample times, each entry from the matrix oracle
                fine = ((t, _oracle_entries(*chunk_modes, g, t)) for t, _ in fine)
            mags, arg = _checked_angles(*next(fine), k_pos)
            prev = np.vstack([end_arg, arg[:-1]])
            wraps = np.zeros_like(arg)
            for nxt in chain((_checked_angles(*row, k_pos)[1] for row in fine), [arg]):
                step = nxt - prev
                wraps += step < -np.pi
                wraps -= step > np.pi
                prev = nxt
            turns = end_turns + np.cumsum(wraps.sum(axis=1))  # wraps summed over modes
            gamma[blk] += np.log(mags).sum(axis=1) + 1j * (arg.sum(axis=1) + 2.0 * np.pi * turns)
            end_arg, end_turns = arg[-1], turns[-1]

    phase = -2j * ts * (params.omega0 + g * c1(params, grid).value.real)
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

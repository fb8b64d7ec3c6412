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

The decoherence function is Gamma(t) = sum_{k>0} ln A_k(t), each log's branch tracked
from Gamma(0) = 0.  Im ln A_k = 4gt + Im ln B_k, and B_k = e^{-4igt} A_k (not the
coupling matrix) is a sum of four circles, as p cos wt + iq sin wt =
((p+q)/2)e^{iwt} + ((p-q)/2)e^{-iwt}: radii |1 + Cm1/2 -/+ beta|/2 at +/-(a-b) and
|Cm1/2 +/- alpha|/2 at +/-(a+b).  rate_k is the largest one's frequency; speed_k =
sum radius |freq - rate_k| bounds |d/dt B_k e^{-i rate_k t}|, and is 0 where the
largest radius exceeds the other three together (a half-plane: no winding).  Wraps
follow np.unwrap's rule on arg B_k - rate_k t, exact where |B_k| at the two ends sums
to more than width times speed_k; other intervals are halved at closed-form midpoints.
The deterministic phase -2it(omega0 + g sum_k cos 2theta_k) is reported separately.
"""

import math
from dataclasses import dataclass

import numpy as np

from .correlators import c1
from .errors import BranchTrackingError
from .model import KGrid, KMode, ModelParams, blocks, checked_times, mode_chunks

OVERLAP_FLOOR = 1e-12
ANCHOR_ROWS = 16  # requested times stepped from one closed-form evaluation, at most


@dataclass(frozen=True, eq=False)
class DecoherenceCurve:
    """Gamma(t) samples with the deterministic phase and parameter echo."""

    times: np.ndarray
    gamma: np.ndarray
    deterministic_phase: np.ndarray
    meta: ModelParams


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
    """e^{it(a+b)} and e^{it(a-b)} from cos and sin; ts broadcasts against the modes."""
    x = np.stack([ts * coef[2], ts * coef[3]])  # (a+b or a-b, ...)
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out[0], out[1]


def _assemble(coef, ps, pd):
    """B_k = e^{-4igt} A_k from the phasors ps, pd, written over pd."""
    *_, hc, alpha, beta = coef
    pd.real, pd.imag = pd.real + hc * (pd.real - ps.real), -(alpha * ps.imag + beta * pd.imag)
    return pd


def _closed_form_entries(eps, s2, g, ts):
    """Corrected closed-form overlaps A_k, vectorized over times (rows) and modes."""
    coef = _coefficients(eps, s2, g)
    return np.exp(4j * g * ts)[:, None] * _assemble(coef, *_phasors(coef, ts[:, None]))


def _closed_form_rows(coef, ends, widths):
    """B_k at times ``ends``: the closed form every ANCHOR_ROWS-th row, and between,
    the previous row times e^{iw(a+/-b)}, one pair per distinct width w."""
    anchors = np.arange(ends.size) % ANCHOR_ROWS == 0
    values, rows = np.unique(np.where(anchors, ends, widths), return_inverse=True)
    ps, pd = (p[rows] for p in _phasors(coef, values[:, None]))
    for j in range(1, ANCHOR_ROWS):  # row j of every anchor's run at once
        ps[j::ANCHOR_ROWS] *= ps[j - 1:-1:ANCHOR_ROWS]
        pd[j::ANCHOR_ROWS] *= pd[j - 1:-1:ANCHOR_ROWS]
    return _assemble(coef, ps, pd)


def mode_overlap_closed_form(
    mode: KMode, g: float, t: float, corrected: bool = True
) -> complex:
    """Closed-form overlap; ``corrected=False`` selects the legacy coefficients."""
    eps, s = mode.eps, mode.sin2theta
    if corrected:
        return complex(_closed_form_entries(np.array([eps]), np.array([s]), g, np.array([t]))[0, 0])
    a, b = map(float, _coefficients(eps, s, g)[:2])
    ta, tb = t * a, t * b
    return complex(
        math.cos(ta) * math.cos(tb)
        + (eps * eps - s * s) * math.sin(ta) * math.sin(tb) / (a * b)
        + 1j * eps * (math.sin(ta) * math.cos(tb) / a - math.cos(ta) * math.sin(tb) / b)
    )


def certify_closed_form(grid: KGrid, gs, times) -> float:
    """Max abs deviation of the corrected closed form from the matrix oracle; nan if either is."""
    eps, s2, ts = grid.eps_pos, grid.sin2theta_pos, np.asarray(times, dtype=float)
    worst = 0.0
    for g in gs:
        for m in blocks(eps.size, 4 * ts.size):  # all times; a 2x2 matrix per mode and time
            e, s = eps[m], s2[m]
            diff = _closed_form_entries(e, s, g, ts) - _oracle_entries(e, s, g, ts)
            worst = np.maximum(worst, np.max(np.abs(diff), initial=0.0))
    return float(worst)


def _circles(coef):
    """rate_k and speed_k of B_k's four circles (module docstring)."""
    *_, hc, alpha, beta = coef
    radius = 0.5 * np.abs([1.0 + hc - beta, 1.0 + hc + beta, hc + alpha, hc - alpha])
    freq = np.stack([coef[3], -coef[3], coef[2], -coef[2]])
    rate = freq[np.argmax(radius, axis=0), np.arange(hc.size)]
    speed = np.sum(radius * np.abs(freq - rate), axis=0)
    return rate, np.where(2.0 * np.max(radius, axis=0) > np.sum(radius, axis=0), 0.0, speed)


def _wraps(turn, width, rate):
    """2 pi wraps of arg B_k over a width whose principal args move by ``turn``."""
    return np.rint((width * rate - turn) * (0.5 / np.pi))  # np.unwrap's rule, minus rate t


def _checked_angles(entries, ts, k_pos):
    """Magnitudes and angles of the overlaps (ts, k_pos broadcast); raises below OVERLAP_FLOOR."""
    mags = np.abs(entries)
    if np.any(mags < OVERLAP_FLOOR):
        i = int(np.argmin(mags))
        t, k = (np.broadcast_to(x, mags.shape).flat[i] for x in (ts, k_pos))
        raise BranchTrackingError(
            f"overlap magnitude {mags.flat[i]:.3e} below {OVERLAP_FLOOR} at t={t}, k={k}")
    return mags, np.angle(entries)


def _bisected_wraps(coef, k_pos, t, mags, arg):
    """Wraps over intervals failing the certificate, one mode each (t, mags, arg: both ends),
    halved at closed-form midpoints, each checked against OVERLAP_FLOOR, until all pass."""
    (rate, speed), piece, wraps = _circles(coef), np.arange(t.shape[1]), np.zeros(t.shape[1])
    while piece.size:
        mid = 0.5 * (t[0] + t[1])
        if np.any((mid == t[0]) | (mid == t[1])):  # |B_k| < ulp(t) speed_k at both ends
            raise BranchTrackingError(f"cannot halve an interval before t={np.max(t)}")
        c = [x[piece] for x in coef]
        mid_mags, mid_arg = _checked_angles(_assemble(c, *_phasors(c, mid)), mid, k_pos[piece])
        piece = np.concatenate([piece, piece])  # lower halves, then upper halves
        t, mags, arg = (np.hstack([[x[0], x_mid], [x_mid, x[1]]])
                        for x, x_mid in ((t, mid), (mags, mid_mags), (arg, mid_arg)))
        fail = mags[0] + mags[1] <= (t[1] - t[0]) * speed[piece]
        np.add.at(wraps, piece[~fail], _wraps(arg[1] - arg[0], t[1] - t[0], rate[piece])[~fail])
        piece, t, mags, arg = piece[fail], t[:, fail], mags[:, fail], arg[:, fail]
    return wraps


def gamma_exact(params: ModelParams, grid: KGrid, times: np.ndarray) -> DecoherenceCurve:
    """Exact Gamma(t) = sum_{k>0} ln A_k(t), branches by the module docstring's rule.

    Modes are summed over ``mode_chunks`` and time in ``blocks``.  Raises BranchTrackingError
    where |A_k| at a requested time or a bisection midpoint falls below OVERLAP_FLOOR.
    """
    ts = checked_times(times)
    g, coef = params.g, _coefficients(grid.eps_pos, grid.sin2theta_pos, params.g)
    t_all = np.concatenate([[0.0], ts])  # B_k(0) = 1, then the requested times
    widths = np.diff(t_all)
    # 4gt mod 2 pi joins each arg, its whole turns the wraps (2gNt after the sum cancels)
    whole, trace = np.divmod(4.0 * g * ts, 2.0 * np.pi)
    gamma, trace = np.zeros(ts.size, dtype=complex), trace[:, None]
    for k in mode_chunks(coef[0].size):
        k_pos, chunk = grid.k_pos[k], [c[k] for c in coef]
        rate, speed = _circles(chunk)
        tracked = np.flatnonzero(speed)  # modes whose B_k e^{-i rate_k t} may wind
        end_mags, end_arg, end_turns = np.ones(k_pos.size), np.zeros(k_pos.size), 0.0
        for blk in blocks(ts.size, k_pos.size):
            b = _closed_form_rows(chunk, ts[blk], widths[blk])
            # row i of mags and arg is at t_all[blk.start + i]
            mags, arg = (np.vstack([end, x]) for end, x in
                         zip((end_mags, end_arg), _checked_angles(b, ts[blk, None], k_pos)))
            h = widths[blk, None]
            wraps = _wraps(np.diff(arg, axis=0), h, rate)
            rows, cols = np.nonzero(mags[:-1, tracked] + mags[1:, tracked] <= h * speed[tracked])
            ends, cols = np.stack([rows, rows + 1]), tracked[cols]
            wraps[rows, cols] = _bisected_wraps([c[cols] for c in chunk], k_pos[cols],
                                                t_all[blk.start + ends], mags[ends, cols],
                                                arg[ends, cols])
            turns = end_turns + np.cumsum(wraps.sum(axis=1))  # wraps summed over modes
            im = (arg[1:] + trace[blk]).sum(axis=1) + 2 * np.pi * (turns + k_pos.size * whole[blk])
            gamma[blk] += np.log(mags[1:]).sum(axis=1) + 1j * im
            end_mags, end_arg, end_turns = mags[-1].copy(), arg[-1].copy(), turns[-1]

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

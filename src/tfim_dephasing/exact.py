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
A_k(0) = A_k(g=0) = 1 holds exactly.  The legacy variant (``corrected=False``), kept for
comparison only, breaks that identity: the same assembly, without e^{4igt}, on
Cm1 = (eps^2 - s^2)/(ab) - 1, alpha = eps(1/b - 1/a)/2 and beta = -eps(1/b + 1/a)/2.
``mode_overlap_closed_form`` is the one-mode, one-time view of either set, taking
eps_k and s_k as numbers.

The decoherence function is Gamma(t) = sum_{k>0} ln A_k(t), each log's branch tracked
from Gamma(0) = 0.  Im ln A_k = 4gt + Im ln B_k, and B_k = e^{-4igt} A_k (not the
coupling matrix) is a sum of four circles, as p cos wt + iq sin wt =
((p+q)/2)e^{iwt} + ((p-q)/2)e^{-iwt}: radii |1 + Cm1/2 -/+ beta|/2 at +/-(a-b) and
|Cm1/2 +/- alpha|/2 at +/-(a+b).  rate_k is the largest one's frequency; speed_k =
sum radius |freq - rate_k| bounds |d/dt B_k e^{-i rate_k t}|, and is 0 where the
largest radius exceeds the other three together (a half-plane: no winding); both are
in the coupling's one coefficient set (``_coefficients``).  Wraps follow np.unwrap's rule
on arg B_k - rate_k t, exact where |B_k| at the two ends sums to more than width times
speed_k; other intervals are halved at closed-form midpoints.
The deterministic phase -2itg sum_k cos 2theta_k is reported separately.

Time is walked in blocks of rows per mode chunk, in buffers sized once by ``model.block_size``.
Every ANCHOR_ROWS-th row of a block takes the closed form; each row between is the step
phasors e^{iw(a+/-b)} of its width w times the previous row, one pair per distinct width
in the block.  Block rows, bisection midpoints and closed-form entries share one planar
pair Re B_k, Im B_k (``_assemble``); ``_angles`` takes arg B_k = arctan2(Im, Re) and
|B_k|^2 = Re^2 + Im^2 from it, checked against OVERLAP_FLOOR.
ANCHOR_ROWS stays 16 because a stepped phasor drifts off the unit circle by about an
ulp per multiply, and that drift lands in ln|B_k|: 64-row anchors lose 0.4-0.5 digits
of Re Gamma at g = 0.01.
"""

import math
from dataclasses import dataclass

import numpy as np

from .correlators import c1
from .errors import BranchTrackingError
from .model import BLOCK_ELEMENTS, MODE_CHUNK, KGrid, ModelParams, block_size, blocks
from .model import checked_coupling, checked_times, mode_chunks

OVERLAP_FLOOR = 1e-12
ANCHOR_ROWS = 16  # requested times stepped from one closed-form evaluation, at most
BISECTION_PIECES = 16 * BLOCK_ELEMENTS  # intervals in one level of _bisected_wraps, at most


@dataclass(frozen=True, eq=False)
class DecoherenceCurve:
    """Gamma(t) and the coupling's deterministic phase, both at the requested times."""

    gamma: np.ndarray
    deterministic_phase: np.ndarray


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
    """Per-mode a, b, a + b, a - b, Cm1/2, the sine weights alpha, beta, and rate_k and
    speed_k of B_k's four circles (module docstring)."""
    gs = g * s2
    a = np.hypot(gs, 2.0 * g - eps)
    b = np.hypot(gs, 2.0 * g + eps)
    ab, apb = a * b, a + b
    # a - b and the middle coefficient minus one, in cancellation-free form:
    # Cm1 = q/(ab) - 1 has two negative terms where q <= 0; elsewhere it is
    # rationalized, which also makes Cm1 = 0 exactly at g = 0
    amb = -8.0 * g * eps / apb
    q = eps * eps - g * g * (s2 * s2 + 4.0)
    direct = q <= 0.0
    hc = 0.5 * np.where(direct, q / ab - 1.0, -4.0 * eps * eps * g * g * s2 * s2
                        / (ab * np.where(direct, 1.0, q + ab)))
    wa, wb = (2.0 * g - eps) / a, (2.0 * g + eps) / b
    alpha, beta = 0.5 * (wa + wb), 0.5 * (wa - wb)
    del gs, ab, q, direct, wa, wb  # peak memory: gone before the circles' (4, modes) arrays
    radius = 0.5 * np.abs([1.0 + hc - beta, 1.0 + hc + beta, hc + alpha, hc - alpha])
    freq = np.stack([amb, -amb, apb, -apb])
    rate = np.choose(np.argmax(radius, axis=0), freq)
    speed = np.where(2.0 * np.max(radius, axis=0) > np.sum(radius, axis=0), 0.0,
                     np.sum(radius * np.abs(freq - rate), axis=0))
    return a, b, apb, amb, hc, alpha, beta, rate, speed


def _phasors(coef, ts):
    """e^{it(a+b)} and e^{it(a-b)} from cos and sin, stacked on a leading axis of two;
    ts broadcasts against the modes."""
    out = np.empty((2, *np.broadcast(ts, coef[2]).shape), dtype=complex)
    x = np.empty(out.shape[1:])
    for phasor, freq in zip(out, coef[2:4]):  # a + b, then a - b
        np.multiply(ts, freq, out=x)
        np.cos(x, out=phasor.real)
        np.sin(x, out=phasor.imag)
    return out


def _assemble(coef, ps, pd, re=None, im=None):
    """Re B_k and Im B_k, B_k = e^{-4igt} A_k, from the phasors ps, pd (into re and im
    when given); Im ps is overwritten."""
    hc, alpha, beta = coef[4:7]
    re = np.subtract(pd.real, ps.real, out=re)
    re *= hc
    re += pd.real
    ps.imag *= alpha
    im = np.multiply(pd.imag, beta, out=im)
    im += ps.imag
    return re, np.negative(im, out=im)


def _closed_form_entries(coef, ts):
    """B_k of the coefficient set ``coef`` in closed form; rows ts, columns modes."""
    ps, pd = _phasors(coef, ts[:, None])
    b = np.empty(pd.shape, dtype=complex)
    _assemble(coef, ps, pd, b.real, b.imag)
    return b


def mode_overlap_closed_form(
    eps: float, sin2theta: float, g: float, t: float, corrected: bool = True
) -> complex:
    """Closed-form overlap A_k(t) of the mode with eps_k = eps and sin 2theta_k = sin2theta;
    ``corrected=False`` takes the legacy set (module docstring)."""
    eps, s2, ts = np.array([eps]), np.array([sin2theta]), np.array([t])
    coef = _coefficients(eps, s2, g)
    if corrected:
        return complex((np.exp(4j * g * ts)[:, None] * _closed_form_entries(coef, ts))[0, 0])
    a, b, apb, amb = coef[:4]
    legacy = (a, b, apb, amb, 0.5 * ((eps * eps - s2 * s2) / (a * b) - 1.0),
              0.5 * eps * (1.0 / b - 1.0 / a), -0.5 * eps * (1.0 / a + 1.0 / b))
    return complex(_closed_form_entries(legacy, ts)[0, 0])


def certify_closed_form(grid: KGrid, gs, times) -> float:
    """Max abs deviation of the corrected closed form from the matrix oracle; nan if either is."""
    eps, s2, ts = grid.eps_pos, grid.sin2theta_pos, np.asarray(times, dtype=float)
    worst = 0.0
    for g in gs:
        for m in blocks(eps.size, 4 * ts.size):  # all times; a 2x2 matrix per mode and time
            b_k = _closed_form_entries(_coefficients(eps[m], s2[m], g), ts)
            diff = np.exp(4j * g * ts)[:, None] * b_k - _oracle_entries(eps[m], s2[m], g, ts)
            worst = np.maximum(worst, np.max(np.abs(diff), initial=0.0))
    return float(worst)


def _wraps(turn, width, rate, out=None):
    """2 pi wraps of arg B_k over a width whose principal args move by ``turn``."""
    out = np.multiply(width, rate, out=out)
    out -= turn
    out *= 0.5 / np.pi
    return np.rint(out, out=out)  # np.unwrap's rule, minus rate t


def _angles(coef, ps, pd, ts, k_pos, re=None, im=None, arg=None):
    """arg B_k and |B_k|^2 from the phasors ps, pd (into arg and re when given; im is
    scratch).  Raises BranchTrackingError, naming t and k (ts, k_pos broadcast against
    B_k), where |B_k| < OVERLAP_FLOOR."""
    re, im = _assemble(coef, ps, pd, re, im)
    arg = np.arctan2(im, re, out=arg)
    np.multiply(re, re, out=re)
    np.multiply(im, im, out=im)
    mag2 = np.add(re, im, out=re)
    if mag2.min() < OVERLAP_FLOOR**2:
        i = int(np.argmin(mag2))
        t, k = (np.broadcast_to(x, mag2.shape).flat[i] for x in (ts, k_pos))
        raise BranchTrackingError(f"overlap magnitude {math.sqrt(mag2.flat[i]):.3e} below "
                                  f"{OVERLAP_FLOOR} at t={t}, k={k}")
    return arg, mag2


def _bisected_wraps(coef, k_pos, t, mags, arg):
    """Wraps over intervals failing the certificate, one mode each (t, mags, arg: both ends),
    halved at closed-form midpoints, each checked against OVERLAP_FLOOR, until all pass."""
    (*_, rate, speed), piece, wraps = coef, np.arange(t.shape[1]), np.zeros(t.shape[1])
    while piece.size:
        if 2 * piece.size > BISECTION_PIECES:
            raise BranchTrackingError(f"branch bisection needs over {BISECTION_PIECES} pieces "
                                      f"before t={np.max(t)}; raise t_steps")
        mid = 0.5 * (t[0] + t[1])
        if np.any((mid == t[0]) | (mid == t[1])):  # |B_k| < ulp(t) speed_k at both ends
            raise BranchTrackingError(f"cannot halve an interval before t={np.max(t)}")
        c = [x[piece] for x in coef]
        mid_arg, mag2 = _angles(c, *_phasors(c, mid), mid, k_pos[piece])
        mid_mags = np.sqrt(mag2)
        piece = np.concatenate([piece, piece])  # lower halves, then upper halves
        t, mags, arg = (np.hstack([[x[0], x_mid], [x_mid, x[1]]])
                        for x, x_mid in ((t, mid), (mags, mid_mags), (arg, mid_arg)))
        fail = mags[0] + mags[1] <= (t[1] - t[0]) * speed[piece]
        np.add.at(wraps, piece[~fail], _wraps(arg[1] - arg[0], t[1] - t[0], rate[piece])[~fail])
        piece, t, mags, arg = piece[fail], t[:, fail], mags[:, fail], arg[:, fail]
    return wraps


def _row_phasors(chunk, p, ends, widths):
    """e^{it(a+b)} and e^{it(a-b)} at times ``ends`` into p (2, rows, modes): the closed
    form every ANCHOR_ROWS-th row, and between, the step phasors e^{iw(a+/-b)} of the
    row's width w times the previous row, one pair per distinct width."""
    stepped = np.arange(ends.size) % ANCHOR_ROWS > 0
    if stepped.any():
        # return_inverse also keeps np.unique from importing numpy.ma (in every fresh worker)
        values, inverse = np.unique(widths[stepped], return_inverse=True)
        index = np.zeros(ends.size, dtype=int)
        index[stepped] = inverse
        np.take(_phasors(chunk, values[:, None]), index, axis=1, out=p, mode="clip")
    p[:, ::ANCHOR_ROWS] = _phasors(chunk, ends[::ANCHOR_ROWS, None])
    for j in range(1, min(ends.size, ANCHOR_ROWS)):  # row j of every anchor's run at once
        np.multiply(p[:, j::ANCHOR_ROWS], p[:, j - 1:-1:ANCHOR_ROWS], out=p[:, j::ANCHOR_ROWS])
    return p


def gamma_exact(params: ModelParams, grid: KGrid, times: np.ndarray) -> DecoherenceCurve:
    """Exact Gamma(t) = sum_{k>0} ln A_k(t), branches by the module docstring's rule.

    Modes are summed over ``mode_chunks`` and time in ``blocks``.  Raises BranchTrackingError
    where |A_k| at a requested time or a bisection midpoint falls below OVERLAP_FLOOR, and
    before a level of bisection holds more than BISECTION_PIECES intervals.
    """
    g, ts = checked_coupling(params, grid), checked_times(times)
    t_all = np.concatenate([[0.0], ts])  # B_k(0) = 1, then the requested times
    widths = np.diff(t_all)
    # 4gt mod 2 pi joins each arg, its whole turns the wraps (2gNt after the sum cancels)
    whole, trace = np.divmod(4.0 * g * ts, 2.0 * np.pi)
    gamma, trace = np.zeros(ts.size, dtype=complex), trace[:, None]
    # flat buffers for the largest block: a block of m rows views their leading elements,
    # and arg and mags keep the previous block's last row as their row 0
    size = block_size(ts.size, grid.k_pos.size)
    phasor_buf, re_buf, im_buf = np.empty(2 * size, dtype=complex), np.empty(size), np.empty(size)
    arg_buf = np.empty(size + min(grid.k_pos.size, MODE_CHUNK))
    for k in mode_chunks(grid.k_pos.size):
        k_pos, chunk = grid.k_pos[k], _coefficients(grid.eps_pos[k], grid.sin2theta_pos[k], g)
        n, tracked = k_pos.size, np.flatnonzero(chunk[8])  # B_k e^{-i rate_k t} may wind
        rate_k, speed_k = chunk[7], chunk[8][tracked]
        mags_buf = np.empty((size // n + 1) * tracked.size)  # size // n >= rows of a block
        arg_buf[:n], mags_buf[:tracked.size], end_turns = 0.0, 1.0, 0.0
        for blk in blocks(ts.size, n):
            m = ts[blk].size
            ps, pd = _row_phasors(chunk, phasor_buf[:2 * m * n].reshape(2, m, n), ts[blk],
                                  widths[blk])
            re, im = (x[:m * n].reshape(m, n) for x in (re_buf, im_buf))
            arg = arg_buf[:(m + 1) * n].reshape(m + 1, n)  # row i at t_all[blk.start + i]
            mags = mags_buf[:(m + 1) * tracked.size].reshape(m + 1, tracked.size)
            _, mag2 = _angles(chunk, ps, pd, ts[blk, None], k_pos, re, im, arg[1:])
            np.sqrt(np.take(mag2, tracked, axis=1, out=mags[1:], mode="clip"), out=mags[1:])
            log_mags = 0.5 * np.log(mag2, out=mag2).sum(axis=1)
            h = widths[blk, None]
            wraps = _wraps(np.subtract(arg[1:], arg[:-1], out=im), h, rate_k, out=re)
            lo, cols = np.nonzero(mags[:-1] + mags[1:] <= h * speed_k)  # uncertified
            if lo.size:
                ends, modes = np.stack([lo, lo + 1]), tracked[cols]
                wraps[lo, modes] = _bisected_wraps(
                    [c[modes] for c in chunk], k_pos[modes], t_all[blk.start + ends],
                    mags[ends, cols], arg[ends, modes])
            turns = end_turns + np.cumsum(wraps.sum(axis=1))  # wraps summed over modes
            im_part = (np.add(arg[1:], trace[blk], out=im).sum(axis=1)
                       + 2 * np.pi * (turns + n * whole[blk]))
            gamma[blk] += log_mags + 1j * im_part
            arg[0], mags[0], end_turns = arg[m], mags[m], turns[-1]

    return DecoherenceCurve(gamma, -2j * ts * (g * c1(grid)))


def gamma_for_series_comparison(curve: DecoherenceCurve) -> np.ndarray:
    """Map the exact curve onto the coherence-element convention of the series.

    The per-mode product tracks one off-diagonal qubit element; the cumulant
    series tracks the conjugate one.  Folding the coupling part of the
    deterministic phase into Gamma and conjugating yields the quantity whose
    weak-coupling expansion lines up with the series terms order by order in
    the odd (imaginary) sector.
    """
    return np.conj(curve.gamma + curve.deterministic_phase)

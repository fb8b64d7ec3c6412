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
log branch tracked continuously in t from Gamma(0) = 0.  The deterministic
phase -2it(omega0 + g sum_k cos 2theta_k) is reported separately.
"""

import math
from dataclasses import dataclass

import numpy as np

from .correlators import c1
from .errors import BranchTrackingError, FiniteBetaError
from .model import MODE_CHUNK, KGrid, KMode, ModelParams

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
    gs = g * mode.sin2theta
    return (
        float(np.hypot(gs, 2.0 * g - mode.eps)),
        float(np.hypot(gs, 2.0 * g + mode.eps)),
    )


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


def _closed_form_entries(eps, s2, g, ts):
    """Corrected closed-form overlaps, vectorized over times (rows) and modes."""
    gs = g * s2
    a = np.hypot(gs, 2.0 * g - eps)
    b = np.hypot(gs, 2.0 * g + eps)
    ab = a * b
    # a - b and the middle coefficient minus one, in cancellation-free form
    amb = -8.0 * g * eps / (a + b)
    p = g * g * (s2 * s2 + 4.0) + eps * eps
    cm1 = -4.0 * eps * eps * g * g * s2 * s2 / (ab * ((2.0 * eps * eps - p) + ab))
    tx = np.multiply.outer(ts, a)
    sin_a, cos_a = np.sin(tx), np.cos(tx)
    np.multiply.outer(ts, b, out=tx)
    sin_b, cos_b = np.sin(tx), np.cos(tx)
    out = np.empty(tx.shape, dtype=complex)
    out.real = np.cos(np.multiply.outer(ts, amb, out=tx)) + cm1 * sin_a * sin_b
    out.imag = -(((2.0 * g - eps) / a) * sin_a * cos_b + ((2.0 * g + eps) / b) * cos_a * sin_b)
    out *= np.exp(4j * g * ts)[:, None]
    return out


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


def _refined_times(times: np.ndarray, max_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Time grid densified so per-step phase advance stays below pi/2.

    Returns the fine grid (starting at 0) and the indices of the requested
    times within it.
    """
    anchors = times if times[0] == 0.0 else np.concatenate([[0.0], times])
    step = float(np.max(np.diff(anchors))) if anchors.size > 1 else 0.0
    r = max(1, math.ceil(max_rate * step / (0.5 * math.pi))) if step > 0.0 else 1
    segments = [np.array([0.0])]
    for lo, hi in zip(anchors[:-1], anchors[1:]):
        segments.append(np.linspace(lo, hi, r + 1)[1:])
    fine = np.concatenate(segments)
    offset = 0 if times[0] == 0.0 else 1
    idx = (np.arange(len(times)) + offset) * r
    return fine, idx


def gamma_exact(
    params: ModelParams,
    grid: KGrid,
    times: np.ndarray,
    use_oracle: bool = False,
) -> DecoherenceCurve:
    """Exact Gamma(t) = sum_{k>0} ln A_k(t) with continuous branch tracking.

    Raises BranchTrackingError if any per-mode overlap magnitude falls below
    OVERLAP_FLOOR (the log diverges at a genuine zero of the overlap).
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
    a = np.hypot(g * s2, 2.0 * g - eps)
    b = np.hypot(g * s2, 2.0 * g + eps)
    max_rate = float(np.max(a + b)) + 4.0 * abs(g)
    fine, idx = _refined_times(ts, max_rate)

    modes = grid.positive_modes if use_oracle else None
    gamma = np.zeros(ts.size, dtype=complex)
    for lo in range(0, eps.size, MODE_CHUNK):
        k = slice(lo, lo + MODE_CHUNK)
        if use_oracle:
            rows = [[mode_overlap_oracle(m, g, float(t)) for m in modes[k]] for t in fine]
            entries = np.array(rows)
        else:
            entries = _closed_form_entries(eps[k], s2[k], g, fine)
        mags = np.abs(entries)
        if np.any(mags < OVERLAP_FLOOR):
            i, j = np.unravel_index(int(np.argmin(mags)), mags.shape)
            raise BranchTrackingError(
                f"overlap magnitude {mags[i, j]:.3e} below {OVERLAP_FLOOR} "
                f"at t={fine[i]}, k={grid.k_pos[lo + j]}"
            )
        # free the chunk's overlaps before unwrap; the branch is tracked on the
        # fine grid, but only the requested rows are summed
        log_mags, phases = np.log(mags[idx]), np.angle(entries)
        del entries, mags
        gamma += (log_mags + 1j * np.unwrap(phases, axis=0)[idx]).sum(axis=1)

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

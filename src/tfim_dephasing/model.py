"""Momentum grid and single-mode quantities of the transverse-field Ising bath.

The spin ring maps to free fermions on the antiperiodic Brillouin-zone grid
k = +/-(2l-1)*pi/N, l = 1..N/2.  Every downstream quantity is built from the
per-mode dispersion

    eps_k = 2*sqrt(1 - 2*lam*cos(k) + lam**2)

and the Bogoliubov rotation, entering through

    cos(2*theta_k) = (cos(k) - lam) / sqrt(1 - 2*lam*cos(k) + lam**2)
    sin(2*theta_k) = sin(k)          / sqrt(1 - 2*lam*cos(k) + lam**2)

The quotient forms are used directly; recovering the angle from its tangent
would lose the quadrant.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModeError, FiniteBetaError

RADICAND_FLOOR = 1e-300
# Modes per chunk of the k > 0 half-grid sums; chunk bounds depend on N only.
MODE_CHUNK = 4096
# Elements per (time x mode) block of the mode kernels; bounds their temporaries.
BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class ModelParams:
    """Physical and numerical parameters of the dephasing model.

    Attributes
    ----------
    N : int
        Number of bath spins (= fermion modes).  Must be even and >= 2.
    lam : float
        Transverse field strength, >= 0.  Critical at lam = 1.
    g : float
        Qubit-bath coupling.
    omega0 : float
        Qubit level splitting; enters the deterministic phase only.
    beta : float
        Inverse temperature.  ``math.inf`` selects the zero-temperature
        limit used everywhere by default.
    """

    N: int
    lam: float
    g: float
    omega0: float = 0.0
    beta: float = math.inf

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or isinstance(self.N, bool):
            raise ValueError(f"N must be an integer, got {self.N!r}")
        if self.N < 2 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 2, got {self.N}")
        for name in ("lam", "g", "omega0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.lam >= 0):
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not (self.beta > 0):
            raise ValueError(f"beta must be positive (or inf), got {self.beta}")

    @property
    def zero_temperature(self) -> bool:
        return math.isinf(self.beta)

    def require_zero_temperature(self, what: str):
        """Raise FiniteBetaError unless beta = inf; ``what`` names the operation."""
        if not self.zero_temperature:
            raise FiniteBetaError(f"{what} is only available at beta = inf, got beta={self.beta}")


def mode_chunks(n: int):
    """Slices of MODE_CHUNK modes covering range(n); they depend on n only."""
    return (slice(lo, lo + MODE_CHUNK) for lo in range(0, n, MODE_CHUNK))


def blocks(n: int, width: int):
    """Slices of max(1, BLOCK_ELEMENTS // width) rows of ``width`` elements covering range(n)."""
    rows = max(1, BLOCK_ELEMENTS // width)
    return (slice(lo, lo + rows) for lo in range(0, n, rows))


def _mode_data(k, lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eps_k, cos 2theta_k, sin 2theta_k) on k (scalar or array) from the quotient forms."""
    rad = 1.0 - 2.0 * lam * np.cos(k) + lam**2
    if np.any(rad < RADICAND_FLOOR):
        raise DegenerateModeError(f"gapless mode at lam={lam}: min radicand {np.min(rad)}")
    root = np.sqrt(rad)
    return 2.0 * root, (np.cos(k) - lam) / root, np.sin(k) / root


def dispersion(k: float, lam: float) -> float:
    """Single-mode excitation energy eps_k = 2*sqrt(1 - 2*lam*cos k + lam^2)."""
    return float(_mode_data(k, lam)[0])


def bogoliubov_angles(k: float, lam: float) -> tuple[float, float]:
    """Return (cos 2theta_k, sin 2theta_k) from the explicit quotient forms."""
    _, cos2, sin2 = _mode_data(k, lam)
    return float(cos2), float(sin2)


def checked_times(times) -> np.ndarray:
    """``times`` as a float array; raises ValueError unless it is a non-empty 1-D
    array of finite, strictly increasing values starting at >= 0."""
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("times must be a non-empty 1-D array")
    if not np.all(np.isfinite(ts)) or ts[0] < 0.0 or np.any(np.diff(ts) <= 0.0):
        raise ValueError("times must be finite, strictly increasing and start at >= 0")
    return ts


@dataclass(frozen=True)
class KMode:
    """One Brillouin-zone mode with its precomputed single-mode quantities."""

    k: float
    eps: float
    cos2theta: float
    sin2theta: float


@dataclass(frozen=True, eq=False)
class KGrid:
    """Full +/-k momentum grid with per-mode arrays, sorted ascending in k.

    The negative-k half mirrors the positive half exactly (eps and
    cos2theta are even in k, sin2theta is odd), so pair symmetry holds to
    the last bit.  Correlator sums run over the full N-mode grid; the
    decoherence sums and the exact per-mode product run over the k > 0 half.
    """

    N: int
    lam: float
    k: np.ndarray = field(repr=False)
    eps: np.ndarray = field(repr=False)
    cos2theta: np.ndarray = field(repr=False)
    sin2theta: np.ndarray = field(repr=False)

    @property
    def k_pos(self) -> np.ndarray:
        return self.k[self.N // 2:]

    @property
    def eps_pos(self) -> np.ndarray:
        return self.eps[self.N // 2:]

    @property
    def sin2theta_pos(self) -> np.ndarray:
        return self.sin2theta[self.N // 2:]

    def _modes_from(self, lo: int) -> tuple[KMode, ...]:
        cols = (self.k, self.eps, self.cos2theta, self.sin2theta)
        return tuple(KMode(*map(float, row)) for row in zip(*(c[lo:] for c in cols)))

    @property
    def modes(self) -> tuple[KMode, ...]:
        return self._modes_from(0)

    @property
    def positive_modes(self) -> tuple[KMode, ...]:
        return self._modes_from(self.N // 2)


def make_kgrid(params: ModelParams) -> KGrid:
    """Build the N-mode grid at k = +/-(2l-1)*pi/N with precomputed mode data."""
    n_half = params.N // 2
    l = np.arange(1, n_half + 1)
    k_pos = (2 * l - 1) * np.pi / params.N
    eps_pos, cos2_pos, sin2_pos = _mode_data(k_pos, params.lam)
    return KGrid(
        N=params.N,
        lam=params.lam,
        k=np.concatenate([-k_pos[::-1], k_pos]),
        eps=np.concatenate([eps_pos[::-1], eps_pos]),
        cos2theta=np.concatenate([cos2_pos[::-1], cos2_pos]),
        sin2theta=np.concatenate([-sin2_pos[::-1], sin2_pos]),
    )

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

from .errors import DegenerateModeError

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
        if not (self.lam >= 0):
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not (self.beta > 0):
            raise ValueError(f"beta must be positive (or inf), got {self.beta}")
        for name in ("lam", "g", "omega0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def zero_temperature(self) -> bool:
        return math.isinf(self.beta)


def dispersion(k: float, lam: float) -> float:
    """Single-mode excitation energy eps_k = 2*sqrt(1 - 2*lam*cos k + lam^2)."""
    rad = 1.0 - 2.0 * lam * math.cos(k) + lam * lam
    if rad < RADICAND_FLOOR:
        raise DegenerateModeError(f"gapless mode: radicand {rad} at k={k}, lam={lam}")
    return 2.0 * math.sqrt(rad)


def bogoliubov_angles(k: float, lam: float) -> tuple[float, float]:
    """Return (cos 2theta_k, sin 2theta_k) from the explicit quotient forms."""
    rad = 1.0 - 2.0 * lam * math.cos(k) + lam * lam
    if rad < RADICAND_FLOOR:
        raise DegenerateModeError(f"gapless mode: radicand {rad} at k={k}, lam={lam}")
    root = math.sqrt(rad)
    return (math.cos(k) - lam) / root, math.sin(k) / root


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
    def cos2theta_pos(self) -> np.ndarray:
        return self.cos2theta[self.N // 2:]

    @property
    def sin2theta_pos(self) -> np.ndarray:
        return self.sin2theta[self.N // 2:]

    @property
    def modes(self) -> tuple[KMode, ...]:
        return tuple(
            KMode(float(k), float(e), float(c), float(s))
            for k, e, c, s in zip(self.k, self.eps, self.cos2theta, self.sin2theta)
        )

    @property
    def positive_modes(self) -> tuple[KMode, ...]:
        return self.modes[self.N // 2:]


def make_kgrid(params: ModelParams) -> KGrid:
    """Build the N-mode grid at k = +/-(2l-1)*pi/N with precomputed mode data."""
    n_half = params.N // 2
    l = np.arange(1, n_half + 1)
    k_pos = (2 * l - 1) * np.pi / params.N
    rad = 1.0 - 2.0 * params.lam * np.cos(k_pos) + params.lam**2
    if np.any(rad < RADICAND_FLOOR):
        raise DegenerateModeError(
            f"gapless grid mode at lam={params.lam}: min radicand {rad.min()}"
        )
    root = np.sqrt(rad)
    eps_pos = 2.0 * root
    cos2_pos = (np.cos(k_pos) - params.lam) / root
    sin2_pos = np.sin(k_pos) / root
    return KGrid(
        N=params.N,
        lam=params.lam,
        k=np.concatenate([-k_pos[::-1], k_pos]),
        eps=np.concatenate([eps_pos[::-1], eps_pos]),
        cos2theta=np.concatenate([cos2_pos[::-1], cos2_pos]),
        sin2theta=np.concatenate([-sin2_pos[::-1], sin2_pos]),
    )

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

``KGrid`` holds them as arrays over the k > 0 half grid; a one-mode function
takes a mode's numbers.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModeError

RADICAND_FLOOR = 1e-300
# Modes per chunk of the k > 0 half-grid sums; chunk bounds depend on N only.
MODE_CHUNK = 4096
# Elements per (time x mode) block of the kernels' temporaries; MODE_CHUNK <= BLOCK_ELEMENTS.
BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class ModelParams:
    """Physical and numerical parameters of the dephasing model (zero temperature).

    Attributes
    ----------
    N : int
        Number of bath spins (= fermion modes).  Must be even and >= 2.
    lam : float
        Transverse field strength, >= 0.  Critical at lam = 1.
    g : float
        Qubit-bath coupling.  The qubit's own splitting never enters Gamma.
    """

    N: int
    lam: float
    g: float

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or isinstance(self.N, bool):
            raise ValueError(f"N must be an integer, got {self.N!r}")
        if self.N < 2 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 2, got {self.N}")
        for name in ("lam", "g"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        try:  # the series terms scale as g^2 and g^3
            abs(float(self.g)) ** 3
        except OverflowError:
            raise ValueError(f"g must have a finite cube, got {self.g}") from None
        if not (self.lam >= 0):
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        try:  # the dispersion takes lam^2
            float(self.lam) ** 2
        except OverflowError:
            raise ValueError(f"lam must have a finite square, got {self.lam}") from None


def mode_chunks(n: int):
    """Slices of MODE_CHUNK modes covering range(n); they depend on n only."""
    return (slice(lo, lo + MODE_CHUNK) for lo in range(0, n, MODE_CHUNK))


def blocks(n: int, width: int):
    """Slices of max(1, BLOCK_ELEMENTS // width) rows of ``width`` elements covering range(n)."""
    rows = max(1, BLOCK_ELEMENTS // max(width, 1))
    return (slice(lo, lo + rows) for lo in range(0, n, rows))


def block_size(times: int, modes: int) -> int:
    """Elements in the largest block of ``blocks`` of ``times`` rows in ``mode_chunks(modes)``."""
    return min(times * min(modes, MODE_CHUNK), BLOCK_ELEMENTS)


def _mode_data(k, lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eps_k, cos 2theta_k, sin 2theta_k) on k (scalar or array) from the quotient forms."""
    rad = 1.0 - 2.0 * lam * np.cos(k) + lam**2
    if np.any(rad < RADICAND_FLOOR):
        raise DegenerateModeError(f"gapless mode at lam={lam}: min radicand {np.min(rad)}")
    root = np.sqrt(rad)
    return 2.0 * root, (np.cos(k) - lam) / root, np.sin(k) / root


def checked_times(times) -> np.ndarray:
    """``times`` as a float array; raises ValueError unless it is a non-empty 1-D
    array of finite, strictly increasing values starting at >= 0."""
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("times must be a non-empty 1-D array")
    if not np.all(np.isfinite(ts)) or ts[0] < 0.0 or np.any(np.diff(ts) <= 0.0):
        raise ValueError("times must be finite, strictly increasing and start at >= 0")
    return ts


@dataclass(frozen=True, eq=False)
class KGrid:
    """The k > 0 half of the momentum grid with per-mode arrays, ascending in k.

    eps and cos2theta are even in k and sin2theta is odd but enters every sum
    squared, so a sum over all N modes is twice the sum over this half.  The
    arrays keep the ``_pos`` suffix so that a sum written for the full grid
    fails instead of silently halving.
    """

    N: int
    lam: float
    k_pos: np.ndarray = field(repr=False)
    eps_pos: np.ndarray = field(repr=False)
    cos2theta_pos: np.ndarray = field(repr=False)
    sin2theta_pos: np.ndarray = field(repr=False)


def make_kgrid(params: ModelParams) -> KGrid:
    """Build the k > 0 half grid k = (2l-1)*pi/N, l = 1..N/2, with its mode data."""
    k_pos = (2 * np.arange(1, params.N // 2 + 1) - 1) * np.pi / params.N
    return KGrid(params.N, params.lam, k_pos, *_mode_data(k_pos, params.lam))


def checked_coupling(params: ModelParams, grid: KGrid) -> float:
    """``params.g``; raises ValueError unless ``grid`` was built for params' N and lambda."""
    if (grid.N, grid.lam) != (params.N, params.lam):
        raise ValueError(f"grid built for (N, lambda) = ({grid.N}, {grid.lam}), "
                         f"params give ({params.N}, {params.lam})")
    return params.g

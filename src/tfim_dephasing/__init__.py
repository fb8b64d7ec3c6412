"""Qubit pure dephasing in a 1D transverse-field Ising bath.

Two routes to the decoherence function Gamma(t) (rho_10(t) = e^Gamma rho_10(0)):
a truncated cumulant series built from the first three irreducible bath
correlators, and the exact per-mode product solution at zero temperature.
"""

from ._version import __version__
from .correlators import (
    CorrelatorValue,
    c1,
    c2_irreducible,
    c3_irreducible,
    occupation,
)
from .cumulants import (
    CumulantTerms,
    gamma_order1,
    gamma_order2,
    gamma_order2_quadrature,
    gamma_order3,
    gamma_order3_quadrature,
    gamma_series,
)
from .errors import (
    BranchTrackingError,
    DegenerateModeError,
    FiniteBetaError,
    QuadratureConvergenceError,
)
from .exact import (
    DecoherenceCurve,
    ModeABC,
    ab_magnitudes,
    certify_closed_form,
    gamma_exact,
    gamma_for_series_comparison,
    mode_abc,
    mode_overlap_closed_form,
    mode_overlap_oracle,
)
from .model import (
    KGrid,
    KMode,
    ModelParams,
    bogoliubov_angles,
    dispersion,
    make_kgrid,
)
from .sweep import (
    CURVE_HEADER,
    ClaimResult,
    FigureCheckReport,
    SweepConfig,
    check_figures,
    curve_filename,
    load_config,
    run_sweep,
)

__all__ = [
    "__version__",
    "BranchTrackingError",
    "ClaimResult",
    "CorrelatorValue",
    "CumulantTerms",
    "CURVE_HEADER",
    "DecoherenceCurve",
    "DegenerateModeError",
    "FigureCheckReport",
    "FiniteBetaError",
    "KGrid",
    "KMode",
    "ModeABC",
    "ModelParams",
    "QuadratureConvergenceError",
    "SweepConfig",
    "ab_magnitudes",
    "bogoliubov_angles",
    "c1",
    "c2_irreducible",
    "c3_irreducible",
    "certify_closed_form",
    "check_figures",
    "curve_filename",
    "dispersion",
    "gamma_exact",
    "gamma_for_series_comparison",
    "gamma_order1",
    "gamma_order2",
    "gamma_order2_quadrature",
    "gamma_order3",
    "gamma_order3_quadrature",
    "gamma_series",
    "load_config",
    "make_kgrid",
    "mode_abc",
    "mode_overlap_closed_form",
    "mode_overlap_oracle",
    "occupation",
    "run_sweep",
]

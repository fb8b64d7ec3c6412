"""Qubit pure dephasing in a 1D transverse-field Ising bath.

Two routes to the decoherence function Gamma(t) (rho_10(t) = e^Gamma rho_10(0)):
a truncated cumulant series built from the first three irreducible bath
correlators, and the exact per-mode product solution.  The bath is at zero
temperature throughout.
"""

from ._version import __version__
from .correlators import (
    c1,
    c2_irreducible,
    c3_irreducible,
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
    QuadratureConvergenceError,
)
from .exact import (
    DecoherenceCurve,
    certify_closed_form,
    gamma_exact,
    gamma_for_series_comparison,
    mode_overlap_closed_form,
)
from .model import (
    KGrid,
    ModelParams,
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
    "CumulantTerms",
    "CURVE_HEADER",
    "DecoherenceCurve",
    "DegenerateModeError",
    "FigureCheckReport",
    "KGrid",
    "ModelParams",
    "QuadratureConvergenceError",
    "SweepConfig",
    "c1",
    "c2_irreducible",
    "c3_irreducible",
    "certify_closed_form",
    "check_figures",
    "curve_filename",
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
    "mode_overlap_closed_form",
    "run_sweep",
]

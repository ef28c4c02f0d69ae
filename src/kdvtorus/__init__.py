"""Spectral simulation and verification toolkit for the periodic KdV equation.

Subpackages by role:

* ``fields`` — Fourier-side field container, analysis/synthesis, norms,
  exact convolution, serialization.
* ``integrator`` — integrating-factor RK4 and leapfrog time steppers with
  trajectory records and conservation tracking.
* ``normal_form`` — differentiation-by-parts operators (B2/B3/B4),
  resonance classification, reduced-equation residual, estimate ratios.
* ``experiments`` — odd-Gaussian data, return/pullback experiments,
  width sweeps.
* ``shallow_water`` — physical-to-dimensionless parameter algebra.
* ``cli`` — command-line driver emitting CSV/JSON/SVG artifacts.
"""

from .errors import (
    ConfigError,
    CorruptFieldError,
    DomainError,
    GridError,
    InstabilityError,
    KdvTorusError,
    TruncationError,
    UndefinedRatioError,
)
from .fields import (
    FourierField,
    Grid,
    analyze,
    convolve_exact,
    l2_norm,
    physical_l2_norm,
    random_real_field,
    read_field_csv,
    sobolev_norm,
    synthesize,
    write_field_csv,
)
from .integrator import (
    KdvParams,
    Scheme,
    TrajectoryRecord,
    desk_params,
    evolve,
    linear_propagator,
    nonlinear_term,
    paper_params,
)
from .normal_form import (
    AprioriRatios,
    ResonanceClass,
    apriori_ratios,
    b2,
    b3,
    b4,
    check_cube_identity,
    check_factorization_identity,
    classify_resonance,
    cubic_phase,
    normal_form_residual,
    quartic_phase,
    ratio_census,
    resonant_term,
)
from .experiments import (
    HermiteSpec,
    NearLinearityReport,
    PullbackReport,
    ReturnReport,
    SweepResult,
    TailAliasWarning,
    epsilon_sweep,
    hermite_initial,
    near_linearity_report,
    pullback_comparison,
    return_experiment,
)
from .shallow_water import (
    GRAVITY,
    PhysicalParams,
    RegimeReport,
    ShallowWaterRegime,
    dimensionless,
    epsilon_modified,
    mismatch,
    validate_regime,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "KdvTorusError", "GridError", "CorruptFieldError", "TruncationError",
    "UndefinedRatioError", "DomainError", "ConfigError", "InstabilityError",
    # fields
    "Grid", "FourierField", "analyze", "synthesize", "convolve_exact",
    "l2_norm", "physical_l2_norm", "sobolev_norm", "random_real_field",
    "write_field_csv", "read_field_csv",
    # integrator
    "Scheme", "KdvParams", "TrajectoryRecord", "desk_params", "paper_params",
    "evolve", "linear_propagator", "nonlinear_term",
    # normal form
    "ResonanceClass", "AprioriRatios", "classify_resonance", "cubic_phase",
    "quartic_phase", "b2", "b3", "b4", "resonant_term",
    "normal_form_residual", "apriori_ratios", "ratio_census",
    "check_cube_identity", "check_factorization_identity",
    # experiments
    "HermiteSpec", "TailAliasWarning", "hermite_initial",
    "NearLinearityReport", "near_linearity_report",
    "ReturnReport", "return_experiment", "PullbackReport",
    "pullback_comparison", "SweepResult", "epsilon_sweep",
    # shallow water
    "GRAVITY", "PhysicalParams", "ShallowWaterRegime", "RegimeReport",
    "dimensionless", "epsilon_modified", "mismatch", "validate_regime",
]

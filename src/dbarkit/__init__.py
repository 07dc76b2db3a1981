"""Numerical toolkit for the canonical solution operator to the d-bar
equation restricted to radial weighted Bergman spaces and Fock-type spaces
of entire functions.

The toolkit computes moment sequences of radial weights (closed form and
independent quadrature oracle), the diagonal spectrum of S*S with its
Hilbert-Schmidt / compactness classification, the action of the operator on
polynomial inputs, the two-variable unit-ball example, and numerical
hypothesis checks for plurisubharmonic weights in several variables.
"""

from .errors import (
    ConvergenceDomainError,
    DbarKitError,
    DivergenceError,
    InconclusiveSupremumError,
    ParameterDomainError,
    QuadratureError,
    SeriesTruncationError,
    UnrepresentableError,
)
from .weights import (
    CustomRadial,
    DiscPolynomial,
    FockExponential,
    MomentSequence,
    moment_quadrature,
)
from .special import log_gamma
from .spectrum import (
    Classification,
    SpectralDiagnostics,
    Verdict,
    classify,
    diagnostics,
    eigenvalue,
    hs_partial_sum,
    stirling_surrogate,
)
from .solver import (
    HolomorphicCoeffs,
    HybridFunction,
    apply_solution_operator,
    bound_constant,
    dbar_residual,
    defect_norm_quadrature,
    defect_norm_sq,
    kernel_eval,
    monomial_inner_product,
    project_dilated,
    reproduce_check,
    space_norm_sq,
)
from .ball2d import (
    BallMomentGrid,
    ball_hs_partial_sum,
    ball_kernel_closed,
    ball_kernel_series,
    ball_log_ratio,
    ball_moment_log,
    ball_moment_quadrature,
    form_energy,
    form_energy_from_moments,
)
from .weights_nd import (
    HypothesisReport,
    PshWeight,
    check_hilbert_schmidt_hypotheses,
    conjugate_transform,
    sup_shift,
)

__version__ = "0.1.0"

__all__ = [
    "BallMomentGrid",
    "Classification",
    "ConvergenceDomainError",
    "CustomRadial",
    "DbarKitError",
    "DiscPolynomial",
    "DivergenceError",
    "FockExponential",
    "HolomorphicCoeffs",
    "HybridFunction",
    "HypothesisReport",
    "InconclusiveSupremumError",
    "MomentSequence",
    "ParameterDomainError",
    "PshWeight",
    "QuadratureError",
    "SeriesTruncationError",
    "SpectralDiagnostics",
    "UnrepresentableError",
    "Verdict",
    "apply_solution_operator",
    "ball_hs_partial_sum",
    "ball_kernel_closed",
    "ball_kernel_series",
    "ball_log_ratio",
    "ball_moment_log",
    "ball_moment_quadrature",
    "bound_constant",
    "check_hilbert_schmidt_hypotheses",
    "classify",
    "conjugate_transform",
    "dbar_residual",
    "defect_norm_quadrature",
    "defect_norm_sq",
    "diagnostics",
    "eigenvalue",
    "form_energy",
    "form_energy_from_moments",
    "hs_partial_sum",
    "kernel_eval",
    "log_gamma",
    "moment_quadrature",
    "monomial_inner_product",
    "project_dilated",
    "reproduce_check",
    "space_norm_sq",
    "stirling_surrogate",
    "sup_shift",
]

"""Shape-preserving polynomial approximation on [0,1]: Bernstein and
Durrmeyer-type operators, k-monotonicity-preserving composite operators,
weighted moduli of smoothness, and constrained best approximation."""

from .best_approx import (
    ApproxResult,
    best_qmonotone,
    best_uniform,
    equioscillation_count,
)
from .errors import (
    BasisError,
    DomainError,
    PrecisionError,
    RegimeError,
    ShapeApproxError,
    SolverError,
)
from .functions import (
    ExpFunction,
    FunctionHandle,
    LogShiftFunction,
    PolyFunction,
    PowerFunction,
    TruncatedPowerFunction,
    catalog,
    linear,
    monomial,
    q_monotone_catalog,
)
from .generator import GeneratorPoly, build_generator, deficiency_slope
from .moduli import (
    ModulusEstimate,
    modulus_sweep,
    omega,
    omega_dt,
    step_weight,
)
from .operators import (
    MnResult,
    bernstein_image,
    derivative_bridge_residual,
    durrmeyer_image,
    durrmeyer_lupas_image,
    gavrea_image,
    genuine_durrmeyer_image,
    genuine_durrmeyer_moment,
    genuine_durrmeyer_moment_recurrence,
    lupas_derivative_identity_check,
    lupas_endpoint_moment,
    lupas_moment_closed_form,
    mn_image,
)
from .polynomial import BERNSTEIN, MONOMIAL, Polynomial
from .shape import ShapeReport, check_k_monotone_fn, check_k_monotone_poly
from .special import (
    TauPoly,
    chebyshev_T,
    lupas_product_identity_check,
    phi_bernstein_expansion,
    phi_leading_coefficient,
    pochhammer,
    tau,
    ultraspherical_phi,
)

__version__ = "0.1.0"

"""flatzeta: local zeta functions of flat-perturbed monomials, numerically.

Evaluates Z(sigma) for the family f(x,y) = x^a y^b + x^a y^(b-q) e^(-1/|x|^p),
computes the closed-form constants of its blow-up laws at sigma = -1/b, and
ships executable verification suites for the power, logarithmic and bounded
regimes together with the proof-level decomposition identities and a
Landau-type Taylor rebuild of the weighted integral.
"""

from .errors import (
    DegenerateLowerLimit,
    DomainError,
    EnvelopeViolation,
    FlatZetaError,
    IllConditionedFit,
    NonConvergence,
    OddQNotSupported,
    OptimizerBracketFailure,
    OutOfWindow,
    OutsideDisc,
    PoleHit,
    WrongRegime,
)
from .model import (
    DEFAULT_CONFIG,
    DEFAULT_FLAT_CUTOFF,
    FamilyParams,
    NewtonDistance,
    NumericConfig,
    PRESETS,
    Regime,
    RegimeKind,
    SigmaSchedule,
    classify_regime,
    make_schedule,
    newton_distance,
    parse_rational,
)
from .funcs import (
    BumpSpec,
    E_flat,
    bump_eval,
    bump_x_profile,
    bump_y_increment,
    bump_y_profile,
    e_flat,
    log_e_flat,
    psi,
    rho,
)
from .quad import (
    EndpointSpec,
    QuadResult,
    integrate_1d,
    integrate_2d_pieces,
    integrate_2d_split,
    integrate_tail,
)
from .zeta import (
    DecompositionTrace,
    ZetaSample,
    g_pieces,
    h_pieces,
    integrand,
    j_pieces,
    log_derivative_integral,
    log_derivative_moments,
    monomial_closed_form,
    region_pieces,
    zeta_quadrant,
    zeta_weighted,
    ztilde1,
    ztilde1_2d,
    ztilde2,
    ztilde2_2d,
)
from .asym import (
    BlowupSequence,
    Case3Bounds,
    ScalingKind,
    case3_bounds,
    constant_A,
    constant_A_closed_form,
    constant_L,
    constant_M,
    extract_limit,
    scale_sequence,
)
from .verify import (
    VerificationReport,
    landau_taylor_rebuild,
    verify_LM_limits,
    verify_decompositions,
    verify_psi_and_flat,
    verify_sandwich,
    verify_theorem21,
    verify_theorem31,
)

__version__ = "0.1.0"

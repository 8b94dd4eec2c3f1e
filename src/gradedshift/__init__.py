"""Exact finite-matrix models of shifts, multipliers, and dilations on
graded truncations of reproducing kernel Hilbert spaces.

The package turns operator-theoretic statements (purity of multiplication
operators, wandering subspace structure, ball-space defect identities, BCL
isometry pairs, transfer-function realizations) into finite, certified
matrix computations on the degree-D truncation V_D, with explicit exactness
bookkeeping for every compressed operator.
"""

__version__ = "0.1.0"

from .errors import (
    CertificationError,
    GradedShiftError,
    InvalidInputError,
    NotCnpError,
    NotContractiveError,
    NotLeftInvertibleError,
    SeriesRangeError,
    ValidationError,
)
from .kernels import (
    BallKernelSpec,
    ChenCoeffs,
    CnpCertificate,
    KernelSpec1D,
    PowerSeries,
    ball_coeff,
    ball_series,
    bergman,
    chen_coeffs,
    cnp_certificate,
    coeff_1d,
    dirichlet,
    drury_arveson,
    hardy,
    hm_ball,
    reciprocal_series,
    series_1d,
    weighted_bergman,
)
from .spaces import (
    BallDomain,
    MultiplierSymbol,
    PolydiscDomain,
    TruncatedBasis,
    ball_basis,
    enumerate_indices,
    lift_scalar_symbol,
    polydisc_basis,
    scalar_symbol,
    slice_symbol,
    symbol_product,
)
from .operators import (
    OperatorMatrix,
    SubspaceFrame,
    cauchy_dual,
    multiplier_matrix,
    orbit_frame,
    range_projection,
    shift_matrix,
    shift_tuple,
    union_projection,
    wandering_subspace,
    wandering_witness,
)
from .purity import (
    PurityReport,
    basis_for,
    decay_curve,
    invariant_restriction_test,
    multiplier_purity_verdict,
    random_contractive_symbol,
    slice_purity_consistency,
)
from .ball_identities import (
    chen_identity_residual,
    defect_identity_residual,
    gamma_coeffs,
)
from .dilation import (
    BCLTriple,
    Colligation,
    bcl_dilation_certify,
    bcl_pair,
    schur_agler_purity,
    transfer_eval,
    transfer_jet,
)

"""Computational operator theory of the symmetrized bidisc."""

from .blh import (
    BlhProblem,
    BlhSolution,
    NoSolution,
    blh_solve,
    invariance_check,
    make_problem,
)
from .classify import (
    GAMMA_CONTRACTION,
    GAMMA_ISOMETRY,
    GAMMA_UNITARY,
    INCONCLUSIVE,
    NOT_GAMMA,
    ClassificationReport,
    find_unitary_intertwiner,
    fundamental_op,
    is_gamma_contraction,
    is_gamma_isometry,
    joint_unitary_equiv,
    recover_pure_symbol,
    von_neumann_margin,
)
from .defect import (
    DefectData,
    ModelSpace,
    build_model_space,
    defect_data,
    delta_eval,
    pi_nf_matrix,
    spectral_radius,
    theta_eval,
    theta_taylor,
)
from .dilation import (
    CompressedScalar,
    NfAyModel,
    SchafferPair,
    compressed_scalar,
    factorization_check,
    gamma_unitary_synth,
    nf_ay_build,
    schaffer_build,
)
from .errors import (
    ClassificationFailed,
    DimensionMismatch,
    IndefiniteInput,
    NonFiniteInput,
    NotAContraction,
    NotADilation,
    NotCnu,
    NotCommuting,
    NotHermitian,
    NotPureModelForm,
    NotUnitary,
    ProblemTooLarge,
    ResidualTooLarge,
    ResolventSingular,
    SymbidiscError,
    TruncationTooSmall,
)
from .gamma_point import (
    BetaSolution,
    GammaPoint,
    beta_solve,
    boundary_grid,
    in_gamma,
    symmetrize,
)
from .generate import (
    coinvariant_closure,
    random_commuting_unitaries,
    random_gamma_contraction,
    random_inner_poly,
    random_strict_contraction,
    random_symbol,
    random_unitary,
)
from .hardy import (
    SymbolPoly,
    build_mult_op,
    compress,
    gamma_isometry_model,
    shift_op,
    symbol_a_plus_astar_z,
)
from .linalg import (
    RANK_TOL,
    RESIDUAL_TOL,
    adj,
    opnorm,
    psd_sqrt,
    range_basis,
    sandwich_solve,
)
from .numrad import NumRadResult, decide_wr, numerical_radius
from .pair import OperatorPair, degree_mask, make_pair, restrict
from .suite import CriterionResult, RunConfig, run_suite

__version__ = "0.1.0"

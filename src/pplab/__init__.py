"""Exact-arithmetic verification toolkit for jet bundles of line bundles on
projective space: kernel identification of the jet fiber, equivariance of the
iterated-derivative map under the line stabilizer, and Birkhoff-Grothendieck
splitting types from transition cocycles on a coordinate line."""

__version__ = "0.1.0"

from .linalg import RationalMatrix, Subspace, kernel_basis, rref, subspace_equal
from .laurent import LaurentMatrix, LaurentPoly, det_laurent
from .symspace import (
    MonomialBasis,
    ParameterError,
    PolyVector,
    binomial,
    codimension_identity,
    dim_sym,
    m_power_subspace,
    monomial_basis,
    partial_derivative,
)
from .parabolic import (
    GroupElement,
    RepAction,
    chi,
    dual_action_matrix,
    is_equivariant,
    random_parabolic,
    sym_action,
    target_rep_action,
)
from .jetmap import (
    JetRepReport,
    exact_sequence_check,
    taylor_fiber_matrix,
    verify_jet_representation,
    verify_jet_representations,
    verify_kernel,
    x0_derivative_matrix,
)
from .splitting import (
    SplittingType,
    TransitionData,
    h0_twisted,
    jet_transition_matrix,
    splitting_type,
    transition_consistency,
)

__all__ = [
    "__version__",
    "RationalMatrix",
    "Subspace",
    "kernel_basis",
    "rref",
    "subspace_equal",
    "LaurentMatrix",
    "LaurentPoly",
    "det_laurent",
    "MonomialBasis",
    "ParameterError",
    "PolyVector",
    "binomial",
    "codimension_identity",
    "dim_sym",
    "m_power_subspace",
    "monomial_basis",
    "partial_derivative",
    "GroupElement",
    "RepAction",
    "chi",
    "dual_action_matrix",
    "is_equivariant",
    "random_parabolic",
    "sym_action",
    "target_rep_action",
    "JetRepReport",
    "exact_sequence_check",
    "taylor_fiber_matrix",
    "verify_jet_representation",
    "verify_jet_representations",
    "verify_kernel",
    "x0_derivative_matrix",
    "SplittingType",
    "TransitionData",
    "h0_twisted",
    "jet_transition_matrix",
    "splitting_type",
    "transition_consistency",
]

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
    binomial,
    codimension_identity,
    dim_sym,
    m_power_subspace,
    monomial_basis,
)
from .parabolic import GroupElement
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
    "binomial",
    "codimension_identity",
    "dim_sym",
    "m_power_subspace",
    "monomial_basis",
    "GroupElement",
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
]

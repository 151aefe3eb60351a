"""Cohomology of finite-dimensional restricted Lie algebras over GF(p).

The package computes classical (Chevalley-Eilenberg) and restricted
cohomology in low degrees, builds the free resolution available in the
abelian case, and realizes the standard algebraic interpretations
(derivations, extensions, infinitesimal deformations) as executable
round trips.  All arithmetic is exact, over prime fields only.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .field import NonPrimeModulus, ZeroInverse, binom_mod, is_prime, verify_identities
from .linalg import (
    Cohomology,
    Complex,
    InvariantFailure,
    NotAComplex,
    SparseMatrix,
    Subspace,
    UsageError,
    cohomology,
    nullspace,
    rank,
    rref,
)
from .liealg import (
    DimensionMismatch,
    ModulusTooLarge,
    NotRestrictable,
    RestrictedLieAlgebra,
    VerificationFailed,
    abelian_algebra,
    heisenberg_algebra,
    infer_p_operator,
    solvable2_algebra,
    verify_restricted,
    witt_algebra,
)
from .ures import Ures, TooLarge, IndexOutOfRange
from .gmod import (
    MixedAlgebras,
    RestrictedModule,
    adjoint_module,
    direct_sum,
    dual_module,
    hom_module,
    invariants,
    trivial_module,
    verify_module,
)
from .classical import ClassicalComplex, classical_cohomology, delta_cl_matrix
from .rescochain import (
    RestrictedComplex,
    compare_classical,
    delta1_matrix,
    delta2_matrix,
    eval_beta,
    eval_omega,
    restricted_cohomology,
)
from .abelres import (
    DegreeTooHigh,
    NotAbelian,
    Resolution,
    abelian_cochain_cohomology,
    aux_C_homology,
    build_resolution,
    dga_check,
    frakC_check,
    resolution_homology,
)
from .interp import (
    NotACocycle,
    NotStronglyAbelian,
    algebra_extension_roundtrip,
    deformation_check,
    inner_derivations,
    module_extension_roundtrip,
    restricted_derivations,
)

"""Exact representation theory of the Jordanian quantum algebra.

Finite-dimensional modules of the h-deformed enveloping algebra of sl(2),
their coupling theory (transition tables, deformed Clebsch-Gordan
coefficients, certified decompositions), irreducible tensor operators in
fermionic, bosonic and generator realizations, and the factorization of
matrix elements through reduced matrix elements.  All arithmetic is exact:
matrix entries are polynomials in the deformation parameter with
coefficients in the ring of rationals extended by square roots of integers.
"""

from .coupling import (alpha_coeff, alpha_table, cgc_matrix, coupled_basis,
                       coupled_bra, coupled_ket, coupled_ladder, coupled_spins,
                       decompose, intermediate_bra, intermediate_ket, sl2_cgc,
                       triangle_allowed, uh_cgc, uh_cgc_bra,
                       verify_alpha_orthogonality,
                       verify_intermediate_action,
                       verify_intermediate_orthonormality)
from .halfint import HalfInt, as_half, casimir_eigenvalue, dim_of, half, \
    weight_index, weight_range
from .hpoly import HPoly, as_hpoly
from .irreps import (GenMatrices, Generator, Irrep, antipode_matrix,
                     casimir_ladder_form, casimir_matrix, coproduct_gens,
                     coproduct_matrix, coproduct_terms, cosh_hx, counit,
                     exp_hx, generator_matrix, irrep, ladder_factor,
                     sinh_hx, sl2_from_gens, sl2_irrep, verify_casimir,
                     verify_defining_relations, verify_hopf_axioms)
from .polymatrix import (PolyMatrix, ShapeError, anticommutator, commutator,
                         exp_nilpotent, kron, unipotent_inverse)
from .radical import RadScalar, as_rad, falling_binomial, sqrt_factorial_ratio
from .report import Check, Report
from .serialize import (matrix_from_json, matrix_to_json, scalar_from_json,
                        scalar_to_json)
from .tensorops import (FockBlock, OpSpaceContext, TensorOpFamily,
                        adjoint_action, boson_lowering_action,
                        boson_lowering_family, boson_raising_action,
                        boson_raising_family, boson_realization,
                        boson_transfer_matrices, couple_tensor_ops,
                        fermion_modes, fermion_realization,
                        fermion_wigner_families, identity_family,
                        rank1_generators, restrict_family, restrict_gens,
                        verify_adjoint_is_representation,
                        verify_boson_action,
                        verify_fermion_sector_exchange,
                        verify_tensor_operator)
from .wigner import (ChannelMismatch, ReducedMatrixElement,
                     SelectionRuleError, matrix_element, phi_vector,
                     reduced_matrix_element, verify_overlap_recurrence,
                     verify_phi_recurrence, verify_wigner_eckart,
                     wigner_eckart_weight)

__version__ = "0.1.0"

__all__ = [
    "HalfInt", "half", "as_half", "dim_of", "weight_range", "weight_index",
    "casimir_eigenvalue",
    "RadScalar", "as_rad", "falling_binomial", "sqrt_factorial_ratio",
    "HPoly", "as_hpoly",
    "PolyMatrix", "ShapeError", "kron", "commutator", "anticommutator",
    "exp_nilpotent", "unipotent_inverse",
    "Check", "Report",
    "scalar_to_json", "scalar_from_json", "matrix_to_json",
    "matrix_from_json",
    "Generator", "GenMatrices", "Irrep", "irrep", "sl2_irrep",
    "generator_matrix", "ladder_factor", "exp_hx", "sinh_hx", "cosh_hx",
    "sl2_from_gens", "casimir_matrix", "casimir_ladder_form",
    "coproduct_terms", "coproduct_matrix", "coproduct_gens", "counit",
    "antipode_matrix", "verify_defining_relations", "verify_casimir",
    "verify_hopf_axioms",
    "alpha_coeff", "alpha_table", "intermediate_ket", "intermediate_bra",
    "coupled_ladder", "coupled_spins", "coupled_basis", "coupled_bra",
    "coupled_ket", "cgc_matrix",
    "decompose", "sl2_cgc", "uh_cgc", "uh_cgc_bra", "triangle_allowed",
    "verify_alpha_orthogonality", "verify_intermediate_orthonormality",
    "verify_intermediate_action",
    "OpSpaceContext", "TensorOpFamily", "FockBlock", "adjoint_action",
    "fermion_modes", "fermion_realization", "fermion_wigner_families",
    "boson_transfer_matrices", "boson_raising_family",
    "boson_lowering_family", "boson_realization", "boson_raising_action",
    "boson_lowering_action", "rank1_generators", "identity_family",
    "couple_tensor_ops", "restrict_gens", "restrict_family",
    "verify_adjoint_is_representation", "verify_tensor_operator",
    "verify_fermion_sector_exchange", "verify_boson_action",
    "SelectionRuleError", "ChannelMismatch", "ReducedMatrixElement",
    "matrix_element", "phi_vector", "wigner_eckart_weight",
    "reduced_matrix_element", "verify_phi_recurrence",
    "verify_overlap_recurrence", "verify_wigner_eckart",
    "__version__",
]

"""Exact representation theory of the Jordanian quantum algebra.

Finite-dimensional modules of the h-deformed enveloping algebra of sl(2),
their coupling theory (transition tables, deformed Clebsch-Gordan
coefficients, certified decompositions), irreducible tensor operators in
fermionic, bosonic and generator realizations, and the factorization of
matrix elements through reduced matrix elements.  All arithmetic is exact:
matrix entries are polynomials in the deformation parameter with
coefficients in the ring of rationals extended by square roots of integers.
"""

from importlib import import_module

# The public API: each module with the names it exports.  This one table
# fills the package namespace and __all__.
_API = {
    "coupling": """
        alpha_coeff alpha_table cgc_matrix coupled_basis coupled_bra
        coupled_ket coupled_ladder coupled_spins decompose intermediate_bra
        intermediate_ket sl2_cgc triangle_allowed uh_cgc uh_cgc_bra
        verify_alpha_orthogonality verify_intermediate_action
        verify_intermediate_orthonormality""",
    "halfint": """
        HalfInt as_half casimir_eigenvalue dim_of half weight_index
        weight_range""",
    "hpoly": """
        HPoly as_hpoly""",
    "irreps": """
        GenMatrices Generator Irrep antipode_matrix casimir_ladder_form
        casimir_matrix coproduct_gens coproduct_matrix coproduct_terms cosh_hx
        counit exp_hx generator_matrix irrep ladder_factor sinh_hx
        sl2_irrep verify_casimir verify_defining_relations verify_hopf_axioms""",
    "polymatrix": """
        PolyMatrix ShapeError anticommutator commutator exp_nilpotent kron
        unipotent_inverse""",
    "radical": """
        RadScalar as_rad falling_binomial sqrt_factorial_ratio""",
    "report": """
        Check Report""",
    "serialize": """
        matrix_from_json matrix_to_json scalar_from_json scalar_to_json""",
    "tensorops": """
        FockBlock OpSpaceContext TensorOpFamily adjoint_action
        boson_lowering_action boson_lowering_family boson_raising_action
        boson_raising_family boson_realization boson_transfer_matrices
        couple_tensor_ops fermion_modes fermion_realization
        fermion_wigner_families identity_family rank1_generators
        restrict_family restrict_gens verify_adjoint_is_representation
        verify_boson_action verify_fermion_sector_exchange
        verify_tensor_operator""",
    "wigner": """
        ChannelMismatch ReducedMatrixElement SelectionRuleError matrix_element
        phi_vector reduced_matrix_element verify_overlap_recurrence
        verify_phi_recurrence verify_wigner_eckart wigner_eckart_weight""",
}

for _name, _exports in _API.items():
    _module = import_module(f".{_name}", __name__)
    globals().update((name, getattr(_module, name)) for name in _exports.split())

__version__ = "0.1.0"

__all__ = [name for names in _API.values() for name in names.split()]
__all__.append("__version__")
del import_module, _name, _exports, _module

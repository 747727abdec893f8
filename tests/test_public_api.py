"""The public names: ``from jordanian import *`` exports exactly this set."""

import jordanian

PUBLIC = set("""
    ChannelMismatch Check FockBlock GenMatrices Generator HPoly HalfInt
    Irrep OpSpaceContext PolyMatrix RadScalar ReducedMatrixElement
    Report SelectionRuleError ShapeError TensorOpFamily __version__
    adjoint_action alpha_coeff alpha_table anticommutator
    antipode_matrix as_half as_hpoly as_rad boson_lowering_action
    boson_lowering_family boson_raising_action boson_raising_family
    boson_realization boson_transfer_matrices casimir_eigenvalue
    casimir_ladder_form casimir_matrix cgc_matrix commutator
    coproduct_gens coproduct_matrix coproduct_terms cosh_hx counit
    couple_tensor_ops coupled_basis coupled_bra coupled_ket
    coupled_ladder coupled_spins decompose dim_of exp_hx exp_nilpotent
    falling_binomial fermion_modes fermion_realization
    fermion_wigner_families generator_matrix half identity_family
    intermediate_bra intermediate_ket irrep kron ladder_factor
    matrix_element matrix_from_json matrix_to_json phi_vector
    rank1_generators reduced_matrix_element restrict_family
    restrict_gens scalar_from_json scalar_to_json sinh_hx sl2_cgc
    sl2_irrep sqrt_factorial_ratio triangle_allowed uh_cgc
    uh_cgc_bra unipotent_inverse verify_adjoint_is_representation
    verify_alpha_orthogonality verify_boson_action verify_casimir
    verify_defining_relations verify_fermion_sector_exchange
    verify_hopf_axioms verify_intermediate_action
    verify_intermediate_orthonormality verify_overlap_recurrence
    verify_phi_recurrence verify_tensor_operator verify_wigner_eckart
    weight_index weight_range wigner_eckart_weight
""".split())


def test_star_import_exports_the_public_names():
    namespace = {}
    exec("from jordanian import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == PUBLIC
    assert len(jordanian.__all__) == len(PUBLIC)
    for name in PUBLIC:
        assert namespace[name] is getattr(jordanian, name)

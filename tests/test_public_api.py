"""The package's public names, pinned.  Every name here is a production
route; the oracles the tests compare against live in ``tests/``, so a
test-only route that enters ``parsym.__all__`` changes this list."""

import parsym

PUBLIC_NAMES = [
    "CapExceeded", "ClosureReport", "Composition", "DiagramTensor", "EHMatrix",
    "EMPTY_DIAGRAM", "Family", "GfReport", "NSymElement", "NSymTensor", "ParSymElement",
    "PartitionDiagram", "QSymImage", "antipode", "bell", "bell_sequence",
    "boolean_transform", "bullet", "bullet_cuts", "bullet_decompose", "bullet_fold",
    "character_zeta", "chi", "closure_report", "compositions", "coproduct", "counit",
    "e_basis_expand", "e_h_matrix", "enumerate_diagrams", "enumerate_family",
    "even_bell_sequence", "family_dimension", "family_dimension_sequence",
    "family_generator_counts", "family_member", "from_json_obj", "h",
    "identity_diagram", "irreducible_count", "irreducible_count_sequence",
    "is_bullet_irreducible", "is_tensor_irreducible", "m_distribution", "m_statistic",
    "nsym_antipode", "nsym_coproduct", "nsym_counit", "nsym_h", "parse",
    "parse_composition", "phi", "phi_generator", "propagation_number", "qsym_image",
    "render", "render_composition", "takeuchi_antipode", "tensor", "tensor_cuts",
    "tensor_factorize", "tensor_fold", "to_json_obj", "verify_gf_identity",
    "verify_hopf_axioms", "verify_nsym_hopf_axioms", "vertical_compose", "zeta_nsym",
]


def test_public_names_are_pinned():
    assert parsym.__all__ == PUBLIC_NAMES
    # a star import binds exactly these, and none of the submodules
    namespace: dict = {}
    exec("from parsym import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES

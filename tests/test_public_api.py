"""The package's public names and their parameters, pinned.  Every name
here is a production route; the oracles the tests compare against live in
``tests/``, so a test-only route that enters ``parsym.__all__`` changes this
list, and a new parameter or option of a public callable changes
``PARAMETERS``."""

import inspect

import parsym

PUBLIC_NAMES = [
    "CapExceeded", "ClosureReport", "Composition", "DiagramTensor", "EHMatrix",
    "EMPTY_DIAGRAM", "Family", "GfReport", "NSymElement", "NSymTensor", "ParSymElement",
    "PartitionDiagram", "QSymImage", "antipode", "bell", "bell_sequence",
    "boolean_transform", "bullet", "bullet_cuts", "bullet_decompose", "bullet_fold",
    "character_zeta", "chi", "closure_report", "compositions", "coproduct", "counit",
    "e_basis_expand", "e_h_matrix", "enumerate_diagrams", "enumerate_family",
    "even_bell_sequence", "family_dimension", "family_dimension_sequence",
    "family_generator_counts", "from_json_obj", "h",
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


# the parameter names of every public function and class constructor, in order
PARAMETERS = {
    "ClosureReport": "family max_degree checks counterexample",
    "DiagramTensor": "terms",
    "EHMatrix": "degree basis matrix determinant",
    "GfReport": "truncation_order lhs rhs",
    "NSymElement": "terms",
    "NSymTensor": "terms",
    "ParSymElement": "terms",
    "PartitionDiagram": "order blocks",
    "QSymImage": "terms",
    "antipode": "a",
    "bell": "n",
    "bell_sequence": "n",
    "boolean_transform": "terms",
    "bullet": "a b",
    "bullet_cuts": "d",
    "bullet_decompose": "d",
    "bullet_fold": "factors",
    "character_zeta": "a",
    "chi": "a",
    "closure_report": "family max_degree",
    "compositions": "n",
    "coproduct": "a",
    "counit": "a",
    "e_basis_expand": "d",
    "e_h_matrix": "n",
    "enumerate_diagrams": "k max_order rule",
    "enumerate_family": "k family max_order",
    "even_bell_sequence": "n",
    "family_dimension": "family k",
    "family_dimension_sequence": "family n",
    "family_generator_counts": "family max_k",
    "from_json_obj": "obj",
    "h": "d",
    "identity_diagram": "k",
    "irreducible_count": "k",
    "irreducible_count_sequence": "n",
    "is_bullet_irreducible": "d",
    "is_tensor_irreducible": "d",
    "m_distribution": "k family max_order",
    "m_statistic": "d",
    "nsym_antipode": "a",
    "nsym_coproduct": "a",
    "nsym_counit": "a",
    "nsym_h": "alpha",
    "parse": "text",
    "parse_composition": "text",
    "phi": "a",
    "phi_generator": "n",
    "propagation_number": "d",
    "qsym_image": "a",
    "render": "d",
    "render_composition": "alpha",
    "takeuchi_antipode": "a",
    "tensor": "a b",
    "tensor_cuts": "d",
    "tensor_factorize": "d",
    "tensor_fold": "factors",
    "to_json_obj": "d",
    "verify_gf_identity": "n",
    "verify_hopf_axioms": "max_degree seed",
    "verify_nsym_hopf_axioms": "max_degree seed",
    "vertical_compose": "a b",
    "zeta_nsym": "a",
}
# a value, a type alias, and two classes whose constructors come from the
# standard library (Exception, Enum)
WITHOUT_PARAMETERS = {"CapExceeded", "Composition", "EMPTY_DIAGRAM", "Family"}
# the public methods of those classes, once per class that defines them
METHODS = {
    "LinearCombination.basis": "key",
    "LinearCombination.coefficient": "self key",
    "LinearCombination.extend": "self f cls",
    "LinearCombination.one": "",
    "LinearCombination.zero": "",
    "PartitionDiagram.is_empty": "self",
}


def _parameters(f) -> str:
    return " ".join(inspect.signature(f).parameters)


def test_public_parameters_are_pinned():
    assert sorted([*PARAMETERS, *WITHOUT_PARAMETERS]) == PUBLIC_NAMES
    assert {name: _parameters(getattr(parsym, name)) for name in PARAMETERS} == PARAMETERS
    methods = {
        f.__qualname__: _parameters(f)
        for cls in (getattr(parsym, name) for name in PARAMETERS)
        if inspect.isclass(cls)
        for f in (getattr(cls, attr) for attr in dir(cls) if not attr.startswith("_"))
        if inspect.isroutine(f) and f.__module__.startswith("parsym")
    }
    assert methods == METHODS

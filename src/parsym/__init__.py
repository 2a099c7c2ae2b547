"""Exact computer algebra for the combinatorial Hopf algebra whose basis
words are partition diagrams under horizontal concatenation."""

from types import ModuleType as _ModuleType

from .algebra import (
    DiagramTensor,
    EHMatrix,
    ParSymElement,
    antipode,
    character_zeta,
    coproduct,
    counit,
    e_basis_expand,
    e_h_matrix,
    h,
    takeuchi_antipode,
    verify_hopf_axioms,
)
from .closures import (
    ClosureReport,
    closure_report,
    family_generator_counts,
    m_distribution,
)
from .diagrams import (
    EMPTY_DIAGRAM,
    CapExceeded,
    PartitionDiagram,
    bullet,
    bullet_cuts,
    bullet_decompose,
    bullet_fold,
    enumerate_diagrams,
    from_json_obj,
    identity_diagram,
    is_bullet_irreducible,
    is_tensor_irreducible,
    m_statistic,
    parse,
    propagation_number,
    render,
    tensor,
    tensor_cuts,
    tensor_factorize,
    tensor_fold,
    to_json_obj,
    vertical_compose,
)
from .families import Family, enumerate_family
from .nsym import (
    Composition,
    NSymElement,
    NSymTensor,
    QSymImage,
    chi,
    nsym_antipode,
    nsym_coproduct,
    nsym_counit,
    nsym_h,
    parse_composition,
    phi,
    phi_generator,
    qsym_image,
    render_composition,
    verify_nsym_hopf_axioms,
    zeta_nsym,
)
from .sequences import (
    GfReport,
    bell,
    bell_sequence,
    boolean_transform,
    compositions,
    even_bell_sequence,
    family_dimension,
    family_dimension_sequence,
    irreducible_count,
    irreducible_count_sequence,
    verify_gf_identity,
)

# the public names, without the submodules the imports above bind
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
__version__ = "0.1.0"

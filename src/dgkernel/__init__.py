"""dgkernel: exact chain-complex and DG-category computations over Z.

Everything is dense arbitrary-precision integer linear algebra: Smith
normal form drives kernels, cokernels, and homology; bounded complexes
carry the Koszul-signed tensor and hom calculus; small DG-categories
carry coends, weighted colimits, and Cauchy-data verification.
"""

from .zlinalg import (
    FPAbGroup,
    IntMatrix,
    ShapeMismatch,
    SmithDecomposition,
    cokernel,
    kernel_basis,
    smith_normal_form,
)
from .complexes import (
    ChainMap,
    Complex,
    GradedGroups,
    Proto,
    adjunction_iso_LU,
    adjunction_iso_UR,
    canonical_presentation,
    chain_map_basis,
    compose,
    d_hom,
    direct_sum_complexes,
    forget_U,
    functor_L,
    functor_R,
    hom_complex,
    homology_H,
    identity_map,
    make_complex,
    suspension,
    unit_complex,
)
from .monoidal import (
    decompose_LZ_tensor,
    symmetry,
    sten_iso,
    tensor,
    tensor_proto,
    verify_duality_LR,
)
from .cones import (
    SplitSequence,
    coequalizer_protosplit_pair,
    cokernel_protosplit,
    cone_as_cokernel,
    cone_homotopy_iso,
    cylinder_factorization,
    direct_sum,
    idempotent_of,
    is_protosplitting,
    mapping_cone,
    mc1_iso_LU,
    recognize_cone,
    split_idempotent,
)
from .ell import (
    EllHom,
    EllModule,
    decode,
    ell_compose,
    ell_hom_rank,
    encode,
    yoneda_rank_check,
)
from .dgcat import (
    CauchyData,
    DGModule,
    Elt,
    FiniteDGCategory,
    ModuleTransform,
    coend_tensor,
    direct_sum_modules,
    g_retraction_from_cauchy,
    module_from_complex,
    module_presentation,
    representable,
    representable_cauchy_data,
    solve_cauchy_counit,
    suspend_module,
    verify_cauchy_data,
    verify_protosplit_quotient,
    weighted_colimit,
)
from .totals import (
    DoubleComplex,
    embed_i,
    tot_adjunction_check,
    tot_via_weighted_colimit,
    total_complex,
    weight_J,
)

__version__ = "0.1.0"

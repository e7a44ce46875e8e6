"""Harmonic analysis on finite groups: normalized positive definite
functions, the states of the group von Neumann algebra they encode,
Fourier multiplier channels, and the convex face geometry that classifies
the algebra up to *-isomorphism."""

from .characters import (
    CharacterTable,
    character_table,
    class_sum_structure_constants,
    minimal_central_projections,
)
from .channels import (
    ChoiCertificate,
    FourierMultiplierChannel,
    apply,
    build_channel,
    compose,
    is_completely_positive,
    is_unital,
    schur_symbol,
)
from .errors import DomainError, InputFormatError
from .faces import (
    FaceChain,
    FaceDescriptor,
    block_face_chain,
    descriptor_from_projection,
    face_membership,
    maximal_chain_length,
    split_faces,
    state_decomposition,
)
from .groups import (
    ConjugacyPartition,
    FiniteGroup,
    build_named,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    direct_product,
    from_permutation_generators,
    quaternion_group,
    symmetric_group,
    validate_group,
)
from .linalg import (
    DEFAULT_TOL,
    PsdVerdict,
    Tolerance,
    is_psd,
    polar_unitary,
)
from .posdef import (
    GnsRepresentation,
    GroupFunction,
    NormalState,
    a_norm,
    constant_one,
    convex_combine,
    delta_e,
    from_state,
    gns,
    is_extreme,
    is_positive_definite,
    random_hermitian_symmetric,
    random_p1,
    to_state,
)
from .vn import (
    AffineHomeoDescriptor,
    AffineHomeomorphism,
    BlockDecomposition,
    HomeoGroupDescription,
    VNInvariant,
    apply_descriptor,
    block_decompose,
    canonical_phase,
    central_state_function,
    construct_affine_homeomorphism,
    fit_affine_map_from_pairs,
    homeo_group_description,
    pure_state_function,
    random_descriptor,
    verify_jordan_form,
    vn_invariant,
    vn_isomorphic,
)

__version__ = "0.1.0"

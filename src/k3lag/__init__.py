"""Exact-arithmetic lattice toolkit for Lagrangian classes on K3 surfaces.

Everything is computed over Z and Q with zero tolerance: Lagrangian
lattices of Kaehler directions, the equality classifier with
machine-checkable certificates, realizability witnesses, canonical forms
for primitive vectors, and nef isotropic classes via reflection walks.
"""

from .criteria import (
    CertificateCheck,
    ClassifyReport,
    RealizabilityReport,
    SlagCertificate,
    certificate_for,
    classify,
    decompose_positive,
    lag_lattice,
    positive_from_isotropic,
    realizable,
    realize_witness,
    slag_certificate,
    split_radical,
    verify_certificate,
)
from .eichler import (
    CanonicalFormResult,
    canonical_form,
    orth_witnesses,
    transvection,
)
from .enumeration import (
    RootReport,
    Unknown,
    find_isotropic,
    find_positive,
    root_slice,
    roots_generate,
    short_vectors,
)
from .errors import LatticeError
from .fibration import (
    NefWalkResult,
    SyzReport,
    make_nef,
    reflection,
    syz_witness,
)
from .hodge import (
    GaussianRational,
    PeriodData,
    RotationPhase,
    kahler_sign,
    phase_square,
    rotated_picard,
    validate_period,
)
from .lattice import (
    FormalVector,
    Isometry,
    Lattice,
    Sublattice,
    direct_sum,
    e8_lattice,
    from_diagonal,
    hyperbolic_plane,
    inner,
    is_primitive,
    k3_lattice,
    norm,
    orth_complement,
    radical,
    saturate,
    signature,
    sublattice_index,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

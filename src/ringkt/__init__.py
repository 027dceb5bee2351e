"""ringkt: exact K-theory of ring C*-algebras over rings of integers.

Everything computes in exact arithmetic (int / Fraction); no floating point
enters any result.  The package exposes four layers:

* :mod:`ringkt.abgrp` — integer/rational linear algebra (Smith normal form,
  kernels, cokernels), descriptors of countable abelian groups, and a
  directed-colimit engine with a certified input class;
* :mod:`ringkt.numfield` — monogenic number fields in the power-basis
  convention: signatures, real-embedding signs, roots of unity, residue
  systems, fundamental units of real quadratic fields;
* :mod:`ringkt.ktheory` — the structure matrices of the level-zero
  inclusions, closed-form K-groups (cross-checked against the colimit
  engine), six-term crossed-product steps, and the final exterior-algebra
  classification reports;
* :mod:`ringkt.cli` — the ``ringkt`` command-line interface emitting
  deterministic JSON.
"""

from .abgrp import (
    ColimitReport,
    DirectedSystem,
    GroupDescriptor,
    cokernel,
    colimit,
    identified,
    image_lattice_basis,
    invariant_factors,
    kernel_lattice_basis,
    smith_normal_form,
)
from .errors import (
    AmbiguityError,
    CrossCheckError,
    HypothesisError,
    InputError,
    RingKTError,
    UnsupportedSystemError,
)
from .ktheory import (
    ActionDescriptor,
    AmbiguityReport,
    ClassificationReport,
    EndoBlocks,
    GradedKGroup,
    KappaMatrix,
    PVStepResult,
    RESULT_TAGS,
    classify_A,
    classify_B,
    exterior_graded_ranks,
    identity_action,
    involution_action,
    k_full_adele_Q,
    k_of_A0,
    k_of_A_truncated_Q,
    k_of_B0,
    kappa,
    kappa_inf,
    pv_step,
    rank_one_inclusion_matrix,
    rank_one_system,
)
from .numfield import (
    FieldElement,
    NumberField,
    fundamental_unit_real_quadratic,
    parse_field,
    parse_polynomial,
    signature,
)

__version__ = "0.1.0"

__all__ = [
    "ActionDescriptor",
    "AmbiguityError",
    "AmbiguityReport",
    "ClassificationReport",
    "ColimitReport",
    "CrossCheckError",
    "DirectedSystem",
    "EndoBlocks",
    "FieldElement",
    "GradedKGroup",
    "GroupDescriptor",
    "HypothesisError",
    "InputError",
    "KappaMatrix",
    "NumberField",
    "PVStepResult",
    "RESULT_TAGS",
    "RingKTError",
    "UnsupportedSystemError",
    "classify_A",
    "classify_B",
    "cokernel",
    "colimit",
    "exterior_graded_ranks",
    "fundamental_unit_real_quadratic",
    "identified",
    "identity_action",
    "image_lattice_basis",
    "invariant_factors",
    "involution_action",
    "k_full_adele_Q",
    "k_of_A0",
    "k_of_A_truncated_Q",
    "k_of_B0",
    "kappa",
    "kappa_inf",
    "kernel_lattice_basis",
    "parse_field",
    "parse_polynomial",
    "pv_step",
    "rank_one_inclusion_matrix",
    "rank_one_system",
    "signature",
    "smith_normal_form",
    "__version__",
]

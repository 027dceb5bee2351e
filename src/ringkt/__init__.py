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

Each submodule loads on first use: ``ringkt.colimit`` imports
:mod:`ringkt.abgrp` when it is first read (PEP 562), and a CLI verb loads
only the modules it reads.  Only the small :mod:`ringkt.errors` loads with
the package.
"""

import importlib

from . import errors  # noqa: F401  (small: it loads with the package)

__version__ = "0.1.0"

# Each exported name of a submodule, with the submodule that defines it.
_EXPORTS = {
    "abgrp": (
        "ColimitReport",
        "DirectedSystem",
        "GroupDescriptor",
        "cokernel",
        "colimit",
        "identified",
        "image_lattice_basis",
        "invariant_factors",
        "kernel_lattice_basis",
        "smith_normal_form",
    ),
    "errors": (
        "AmbiguityError",
        "CrossCheckError",
        "HypothesisError",
        "InputError",
        "RingKTError",
        "UnsupportedSystemError",
    ),
    "ktheory": (
        "ActionDescriptor",
        "AmbiguityReport",
        "ClassificationReport",
        "EndoBlocks",
        "GradedKGroup",
        "KappaMatrix",
        "PVStepResult",
        "RESULT_TAGS",
        "classify_A",
        "classify_B",
        "exterior_graded_ranks",
        "identity_action",
        "involution_action",
        "k_full_adele_Q",
        "k_of_A0",
        "k_of_A_truncated_Q",
        "k_of_B0",
        "kappa",
        "kappa_inf",
        "pv_step",
        "rank_one_inclusion_matrix",
        "rank_one_system",
    ),
    "numfield": (
        "FieldElement",
        "NumberField",
        "fundamental_unit_real_quadratic",
        "parse_field",
        "parse_polynomial",
        "signature",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER) + ["__version__"]


def __getattr__(name):
    """Import the submodule ``name`` names, or the one that owns it, on first
    read, and keep the value here so that the next read is a plain lookup."""
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _OWNER:
        value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

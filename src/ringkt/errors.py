"""Error hierarchy shared by the library and the command line tool.

Every error carries the process exit code the CLI maps it to, so the
translation layer in ``cli.py`` stays trivial:

* ``InputError`` (exit 2): malformed or out-of-domain input (bad polynomial,
  non-monic / reducible minimal polynomial, malformed system JSON, an even
  modulus for the centered residue style, a directed system outside the
  engine's supported class, ...).
* ``HypothesisError`` (exit 3): input is well-formed but the requested result
  only exists under a structural hypothesis the input fails (for example the
  adelic classification requires exactly the two roots of unity +-1).
* ``CrossCheckError`` (exit 4): an internal dual-route verification failed --
  a closed form disagreed with the independent colimit engine, or one of the
  ``verify`` assertion batteries found a mismatch.  This is a bug escalation,
  never a user mistake.
"""


class RingKTError(Exception):
    """Base class; ``exit_code`` is what the CLI exits with."""

    exit_code = 1


class InputError(RingKTError):
    """Malformed or unsupported input."""

    exit_code = 2


class UnsupportedSystemError(InputError):
    """A directed system outside the engine's certified class.

    Raised with a diagnostic instead of guessing: e.g. a non-commuting
    family, scaling laws that fit no monomial, or a filtration whose
    extensions cannot be certified split.
    """


class HypothesisError(RingKTError):
    """The input fails a structural hypothesis of the requested theorem."""

    exit_code = 3


class CrossCheckError(RingKTError):
    """Two independent computation routes disagreed."""

    exit_code = 4


class AmbiguityError(RingKTError):
    """Raised only if caller code treats an unresolved extension as a group."""

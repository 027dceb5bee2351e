"""Trace the certificates of the residue sieve on a fixed corpus of
polynomials, so that two checkouts can be compared line by line with ``diff``.

For each polynomial the trace gives what a caller sees, the refusal text or
``(r1, r2)``, the discriminant and the order ``w`` of the roots of unity (or
its error text), and then, in the order they happen:

- ``eisenstein p a``: the field was proved irreducible by Eisenstein's
  criterion for ``f(x + a)`` at ``p``, before any residue row was read;
- ``row p``: a residue row built at the unramified prime ``p``;
- ``setup p``: the setup of an exact search (``_local_factors``) at ``p``;
- ``lift m p``: a lift of a primitive m-th root of unity from ``p``;
- ``read big sum value``: a read-back, with the sum of the lifts mod the
  lift modulus ``big``, and the value read (``None``, or ``disc * alpha``
  and its traces).

The corpus is regenerated from ``--seed``: the named fields below, 1500
random monic polynomials of degree 1..9 with coefficients in +-20, and 500
products of two random monic factors of degree 1..4 with coefficients in
+-9.  ``--sympy`` adds, per polynomial, whether sympy's
``Poly.is_irreducible`` agrees with the field's acceptance, and the count of
disagreements on stderr.  Run from the repository root::

    python tools/sieve_trace.py [--seed N] [--limit N] [--sympy] > trace.txt
"""

import argparse
import contextlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ringkt import numfield  # noqa: E402
from ringkt.errors import CrossCheckError, InputError  # noqa: E402
from ringkt.numfield import NumberField, _ResidueSieve, parse_polynomial  # noqa: E402

# The fields of the benchmark's table, the roots-of-unity agreement table,
# the census fields and a few more with many residue factors.
NAMED = [
    "x^2 + 1", "x^2 + x + 1", "x^4 + 1", "x^4 + x^3 + x^2 + x + 1", "x^4 - x^2 + 1",
    "x^6 + x^3 + 1", "x^6 + x^5 + x^4 + x^3 + x^2 + x + 1", "x^8 + 1",
    "x^3 - 3x + 1", "x^3 - x^2 - 2x + 1", "x^4 - 4x^2 + 2",
    "x^3 - 2", "x^3 - 13", "x^4 - 3", "x^5 - 5", "x^6 - 7", "x^2 - 5", "x^2 + 7",
    "x^2 + 2", "x^8 - x^4 + 1", "x^12 - x^6 + 1",
    "x^16 - x^8 + 1", "x^16 + x^14 - x^10 - x^8 - x^6 + x^2 + 1",  # Phi48, Phi60
    "x^32 + 1", "x^4 - 10x^2 + 1", "x^4 + 4", "x^4 - x^3 - 2x + 2", "x^6 + 1",
    "x^16 + 1", "x^8 - x^6 + x^4 - x^2 + 1",  # Phi20
]
RANDOM_COUNT, PRODUCT_COUNT = 1500, 500


def corpus(seed):
    """The named fields, then the random and the product polynomials, as
    ascending coefficient lists."""
    rng = random.Random(seed)

    def monic(degree, size):
        return [rng.randint(-size, size) for _ in range(degree)] + [1]

    out = [parse_polynomial(text) for text in NAMED]
    out += [monic(rng.randint(1, 9), 20) for _ in range(RANDOM_COUNT)]
    for _ in range(PRODUCT_COUNT):
        a = monic(rng.randint(1, 4), 9)
        out.append(numfield._int_mul(a, monic(rng.randint(1, 4), 9)))
    return out


@contextlib.contextmanager
def _recording(events):
    """Wrap the Eisenstein check and the sieve's row builder, setup, lift and
    read-back so that each call appends its line to ``events`` (the check
    only when it proves f); the originals come back on exit."""
    eisenstein = numfield._eisenstein_shift
    rows = numfield._factor_degrees_mod_p
    setup = _ResidueSieve._local_factors
    lift = _ResidueSieve._lift_primitive_root
    read = _ResidueSieve._read_back

    def traced_eisenstein(coeffs, disc):
        certificate = eisenstein(coeffs, disc)
        if certificate:
            events.append("eisenstein {} {}".format(*certificate))
        return certificate

    def traced_rows(coeffs, p, xp):
        events.append(f"row {p}")
        return rows(coeffs, p, xp)

    def traced_setup(self, p):
        events.append(f"setup {p}")
        return setup(self, p)

    def traced_lift(self, m, p):
        events.append(f"lift {m} {p}")
        return lift(self, m, p)

    def traced_read(self, lifts, big):
        total = [0] * (len(self.coeffs) - 1)
        for lift in lifts:
            for i, c in enumerate(lift):
                total[i] = (total[i] + c) % big
        value = read(self, lifts, big)
        events.append(f"read {big} {total} {value}")
        return value

    numfield._eisenstein_shift = traced_eisenstein
    numfield._factor_degrees_mod_p = traced_rows
    _ResidueSieve._local_factors = traced_setup
    _ResidueSieve._lift_primitive_root = traced_lift
    _ResidueSieve._read_back = traced_read
    try:
        yield
    finally:
        numfield._eisenstein_shift = eisenstein
        numfield._factor_degrees_mod_p = rows
        _ResidueSieve._local_factors = setup
        _ResidueSieve._lift_primitive_root = lift
        _ResidueSieve._read_back = read


def trace(coeffs):
    """``(accepted, lines)``: whether ``coeffs`` defines a field, and the
    trace lines of its answer and certificates."""
    events = []
    with _recording(events):
        try:
            k = NumberField(coeffs)
        except InputError as exc:
            return False, [f"refused {exc}", *events]
        try:
            w = k.roots_of_unity_order
        except CrossCheckError as exc:
            w = f"error {exc}"
    return True, [f"field {(k.r1, k.r2)} {k.disc} {w}", *events]


def _sympy_irreducible(coeffs):
    import sympy

    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(coeffs)), x, domain="QQ").is_irreducible


def main(argv=None, out=sys.stdout):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=20121, help="the corpus seed (default 20121)")
    parser.add_argument("--limit", type=int, default=None,
                        help="trace only the first N polynomials of the corpus")
    parser.add_argument("--sympy", action="store_true",
                        help="add sympy's irreducibility agreement")
    args = parser.parse_args(argv)
    disagree = 0
    for coeffs in corpus(args.seed)[:args.limit]:
        accepted, lines = trace(coeffs)
        print(f"poly {coeffs}", file=out)
        if args.sympy:
            agrees = accepted == _sympy_irreducible(coeffs)
            disagree += not agrees
            print(f"  sympy {'agrees' if agrees else 'DISAGREES'}", file=out)
        for line in lines:
            print(f"  {line}", file=out)
    if args.sympy:
        print(f"{disagree} disagreements with sympy", file=sys.stderr)
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())

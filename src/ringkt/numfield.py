"""Exact invariants of number fields given by a monic integer polynomial.

A field is presented as ``Q[x]/(f)`` for a monic irreducible ``f`` with
integer coefficients; elements are written on the power basis
``1, theta, ..., theta^(n-1)`` where ``theta`` is the class of ``x``, and the
order ``Z[theta]`` models the integers of the field throughout (the monogenic
power-basis convention; every report that depends on it says so).

Highlights:

* irreducibility of the defining polynomial proved in plain integers, by
  the first of three routes that succeeds: Eisenstein's criterion after a
  shift ``x -> x + a`` at a small prime dividing the discriminant (a
  certificate ``(p, a)`` checked by O(n) congruences); the residue degrees
  at a few unramified primes (Musser's degree-set test, each prime
  cross-checked by Berlekamp's factor count); and, when those primes prove
  nothing, an exact search for idempotents: ``f`` is
  reducible exactly when ``Q[x]/(f)`` has an idempotent other than 0 and 1,
  and each candidate is a sum of idempotents lifted from one residue
  factorization (at most ``2^(r-1)`` sums, ``r`` the fewest residue factors
  at any prime read);
* ``signature`` via exact Sturm chains, each term a positive integer multiple
  of the signed remainder (no floating point anywhere);
* the discriminant as the determinant of the trace form, and the norm as
  that of multiplication by the element (whose inverse solves ``M x = e_0``);
* ``roots_of_unity_order``, certified by the residue sieve in plain integers:
  residue-field witnesses first, an exact p-adic lift for the survivors
  (``_ResidueSieve`` describes the route);
* ``residue_system`` for the quotients ``Z[theta]/(d)`` in the standard or
  centered digit styles;
* ``real_sign_vector`` / ``sign_parity`` of an element under all real
  embeddings (ordered by ascending real root), one Tarski query per root,
  the parity checked against the sign of the norm;
* ``fundamental_unit_real_quadratic`` by continued fractions for fields
  ``x^2 - D``.

Polynomials are lists/tuples of coefficients in ascending order of degree.
The public Sturm routines take rational coefficients and scale them to
integers first; every chain, every product in the field and every residue
computation then runs on plain integers.  A field element keeps its
coordinates as ``Fraction``s, and a product reads them as integer numerators
over one positive denominator.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .abgrp import (_as_int, _as_rational, _determinant, _factor_multiplicity, _is_prime,
                    determinant, solve_exact)
from .errors import CrossCheckError, HypothesisError, InputError

# ---------------------------------------------------------------------------
# dense univariate polynomials (ascending coefficients) over Z
# ---------------------------------------------------------------------------


def poly_trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _numerators(coeffs):
    """The integer numerators of rational ``coeffs`` over their least
    positive common denominator, and that denominator."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _rationals(values, what):
    """``values`` as a list of ints and ``Fraction``s, by abgrp's rational
    rule (``_as_rational``): a bool, a float, a string or any other value
    raises ``InputError`` naming ``what``."""
    return _as_rational([list(values)], what)[0]


def _integer_multiple(p):
    """``p`` times the positive lcm of its denominators: trimmed integers."""
    return poly_trim(_numerators(_rationals(p, "polynomial coefficient"))[0])


def _primitive(p):
    """An integer polynomial divided by its positive content."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def _int_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q, i):
                out[j] += a * b
    return out


def _reduce_monic(a, f):
    """``a mod f`` over Z for a monic integer ``f`` of degree n, as n
    coefficients: the pseudo-remainder, whose scale is 1 here, padded."""
    r = _pseudo_remainder(a, f)
    return r + [0] * (len(f) - 1 - len(r))


def _power_mod(base, e, f):
    """``base^e mod f`` in ``Z[x]/(f)`` for a monic integer ``f`` of degree n,
    as n coefficients: square and multiply on integers."""
    out = [1] + [0] * (len(f) - 2)
    while e:
        if e & 1:
            out = _reduce_monic(_int_mul(out, base), f)
        e >>= 1
        if e:
            base = _reduce_monic(_int_mul(base, base), f)
    return out


def _homogeneous_value(p, a, b):
    """``b^d p(a/b)`` for an integer ``p`` of degree d: the integer ``sum c_i
    a^i b^(d - i)``, which has the sign of ``p(a/b)`` when ``b > 0``."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * a + c * scale
        scale *= b
    return acc


# ---------------------------------------------------------------------------
# Sturm chains and real root isolation, in integers
# ---------------------------------------------------------------------------


def _pseudo_remainder(a, b):
    """``|lc b|^(deg a - deg b + 1) a mod b`` for integer polynomials, trimmed
    (``a`` itself when ``deg a < deg b``): each step scales the running value
    by ``|lc b|`` and cancels its top term with an integer multiple of ``b``,
    read on its nonzero coefficients only (a cyclotomic ``b`` has few)."""
    lc, db = b[-1], len(b) - 1
    scale, low = abs(lc), [(i, c if lc > 0 else -c) for i, c in enumerate(b[:-1]) if c]
    a = list(a)
    while len(a) > db:
        top = a.pop()
        shift = len(a) - db
        if scale != 1:
            a = [scale * c for c in a]
        if top:
            for i, y in low:
                a[shift + i] -= top * y
    return poly_trim(a)


def _signed_remainders(p, q):
    """The signed remainder sequence ``p, q, -rem(p, q), ...`` of integer
    polynomials to its last nonzero term (Basu--Pollack--Roy, *Algorithms in
    Real Algebraic Geometry*, ch. 2), each term after ``q`` replaced by a
    positive multiple: ``-prem(a, b)`` (``_pseudo_remainder``) divided by its
    positive content, Collins' primitive remainder sequence (J. ACM 14,
    1967).  Positive factors leave the sign of every term at every point, so
    the sign changes, and the Sturm and Tarski counts read off them, are those
    of the rational sequence; no ``Fraction`` is formed.

    >>> _signed_remainders([1, -3, 0, 1], [-1, 0, 1])  # x^3 - 3x + 1, x^2 - 1
    [[1, -3, 0, 1], [-1, 0, 1], [-1, 2], [1]]
    """
    chain = [poly_trim(p), poly_trim(q)]
    while chain[-1]:
        chain.append(_primitive([-c for c in _pseudo_remainder(chain[-2], chain[-1])]))
    return [c for c in chain if c]


def _sturm_sequence(p):
    """The signed remainder sequence of ``(p, p')`` for a primitive integer
    ``p``, every term primitive; its last term is a gcd of ``p`` and ``p'``."""
    return _signed_remainders(p, _primitive(_derivative(p)))


def _exact_quotient(a, g):
    """``a / g`` for integer polynomials, ``g`` primitive: by Gauss's lemma
    the quotient is integral whenever ``g`` divides ``a`` over Q.  Raise
    ``CrossCheckError`` when it does not divide."""
    a, dg = list(a), len(g) - 1
    quot = [0] * max(0, len(a) - dg)
    for shift in range(len(quot) - 1, -1, -1):
        c, r = divmod(a[shift + dg], g[-1])
        if r:
            break  # a quotient coefficient that is not an integer
        quot[shift] = c
        if c:
            for i, y in enumerate(g, shift):
                a[i] -= c * y
    else:
        if not any(a[:dg]):
            return quot
    raise CrossCheckError(f"gcd(p, p') {g} does not divide the Sturm chain term {poly_trim(a)}")


def sturm_chain(p):
    """The Sturm chain of a rational polynomial, up to positive factors:
    ``p`` scaled to a primitive integer polynomial, then the signed remainder
    sequence of ``(p, p')`` (``_signed_remainders``).  Its last term is a gcd
    of ``p`` and ``p'``, primitive; when that is nonconstant every term is
    divided by it exactly, in integers, so the chain counts the distinct
    roots of ``p`` even at an endpoint on a multiple root.  The zero
    polynomial, which vanishes everywhere, raises ``InputError``."""
    p = _primitive(_integer_multiple(p))
    if not p:
        raise InputError("the zero polynomial vanishes everywhere; it has no Sturm chain")
    chain = _sturm_sequence(p)
    g = chain[-1]
    if len(g) == 1:
        return chain
    return [_exact_quotient(c, g) for c in chain]


def _sign_changes(vals):
    signs = [1 if v > 0 else -1 for v in vals if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _chain_changes_at(chain, x):
    """Sign changes of an integer chain at a rational ``x``, each term's sign
    read off ``_homogeneous_value`` (a ``Fraction``'s denominator is positive)."""
    a, b = x.numerator, x.denominator
    return _sign_changes([_homogeneous_value(c, a, b) for c in chain])


def _chain_changes_at_infinity(chain, positive):
    vals = []
    for c in chain:
        lead = c[-1]
        if positive:
            vals.append(lead)
        else:
            vals.append(lead if (len(c) - 1) % 2 == 0 else -lead)
    return _sign_changes(vals)


def _count_in(chain, lo, hi):
    """Sign changes at ``lo`` less those at ``hi`` (None = -inf / +inf)."""
    va = _chain_changes_at(chain, lo) if lo is not None else _chain_changes_at_infinity(chain, False)
    vb = _chain_changes_at(chain, hi) if hi is not None else _chain_changes_at_infinity(chain, True)
    return va - vb


def count_real_roots(p, lo=None, hi=None):
    """Number of distinct real roots of ``p`` in ``(lo, hi]`` (None = +-inf).

    An interval with ``lo > hi`` and the zero polynomial raise ``InputError``;
    ``lo == hi`` gives 0.
    """
    lo, hi = (None if x is None else Fraction(*_rationals([x], "interval end")) for x in (lo, hi))
    if lo is not None and hi is not None and lo > hi:
        raise InputError(f"count_real_roots needs lo <= hi, got the interval ({lo}, {hi}]")
    return _count_in(sturm_chain(p), lo, hi)


def root_bound(p):
    """A rational bound B with all real roots of ``p`` inside (-B, B)."""
    p = poly_trim([Fraction(c) for c in _rationals(p, "polynomial coefficient")])
    lead = abs(p[-1])
    b = Fraction(1) + max((abs(c) / lead for c in p[:-1]), default=Fraction(0))
    return b + 1


def isolate_real_roots(p):
    """Disjoint rational intervals ``(lo, hi]``, ascending, one root each.

    A multiple root is one root; endpoints are perturbed away from roots.
    """
    return [(lo, hi) for lo, hi, _ in _isolating_intervals(sturm_chain(p))]


def integer_roots(p):
    """The distinct integer roots of the rational ``p``, ascending, with nothing
    factored: each isolating interval, halved below width 1, holds one
    integer, tested exactly.

    >>> integer_roots([6, -5, 1]), integer_roots([-2, 0, 1]), integer_roots([4, -4, 1])
    ([2, 3], [], [2])
    """
    chain = sturm_chain(p)
    out = []
    for lo, hi, v_lo in _isolating_intervals(chain):
        while hi - lo >= 1:
            mid = (lo + hi) / 2
            # one root in (lo, hi]: the count at lo holds while lo moves
            lo, hi = (lo, mid) if _chain_changes_at(chain, mid) != v_lo else (mid, hi)
        k = math.floor(hi)
        if k > lo and not _homogeneous_value(chain[0], k, 1):
            out.append(k)
    return out


def _isolating_intervals(chain):
    """``(lo, hi, changes at lo)`` per root of the squarefree ``chain[0]``,
    ascending.  A split passes the sign changes at its endpoints down, so
    each point is read once."""
    p = chain[0]
    b = root_bound(p)
    out = []

    def split(lo, hi, v_lo, v_hi):
        if v_lo - v_hi == 1:
            out.append((lo, hi, v_lo))
        if v_lo - v_hi < 2:
            return
        mid = (lo + hi) / 2
        while _homogeneous_value(p, mid.numerator, mid.denominator) == 0:
            mid = (lo + mid) / 2
        v_mid = _chain_changes_at(chain, mid)
        split(lo, mid, v_lo, v_mid)
        split(mid, hi, v_mid, v_hi)

    split(-b, b, _chain_changes_at(chain, -b), _chain_changes_at(chain, b))
    return out


def signature(coeffs):
    """(r1, r2): numbers of real embeddings and conjugate complex pairs.

    A polynomial with a repeated root (a nonconstant gcd with its
    derivative) is refused: the Sturm count sees each distinct root once.

    >>> signature([-1, -1, 0, 0, 0, 1])  # x^5 - x - 1
    (1, 2)
    """
    p = _primitive(_integer_multiple(coeffs))
    n = len(p) - 1
    if n < 1:
        raise InputError("signature needs a polynomial of degree >= 1")
    chain = _sturm_sequence(p)
    if len(chain[-1]) > 1:
        raise InputError("non-squarefree polynomial has no well-defined signature")
    r1 = _count_in(chain, None, None)
    return r1, (n - r1) // 2


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# The largest exponent ``parse_polynomial`` reads.  It refuses a larger one
# before the dense coefficient list is built: ``x^10000000 - 2`` took 0.7 s
# and 109 MB to build, and a field of degree 20000 already runs without end
# (the trace form alone takes O(n^2) steps), so no refused input has an
# answer today.
_MAX_EXPONENT = 10 ** 5

# One term of ``parse_polynomial``'s grammar, read from position ``pos``.
_TERM_RE = re.compile(r" *(?P<sign>[+-])? *(?P<num>\d+)?"
                      r"(?P<var>(?(num) *(?:\* *)?)x(?: *(?:\^|\*\*) *(?P<exp>\d+))?)? *")


def parse_polynomial(text):
    """Parse ``"x^3 - 2x + 5"`` style input into ascending integer coefficients.

    A term is an optional sign, then an integer, ``x``, or an integer and
    ``x`` with spaces and at most one ``*`` between them; ``x`` may carry an
    exponent, ``^e`` or ``**e``.  Every term after the first needs its sign,
    and spaces may surround signs and ``^``.  Nothing else is read: ``x^2 2``
    and ``2*3x`` are refused, not joined into ``x^22`` and ``23x``.  An
    exponent above ``_MAX_EXPONENT`` is refused before any list is built.

    >>> parse_polynomial("x^2 - 2")
    [-2, 0, 1]
    """
    if not isinstance(text, str) or not text.strip():
        raise InputError("empty polynomial")
    coeffs = {}
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        num, sign = m.group("num"), m.group("sign")
        if (num is None and m.group("var") is None) or (pos and sign is None):
            raise InputError(f"malformed term {text[pos:].strip()!r} in polynomial {text!r}")
        try:
            coeff = int(num) if num is not None else 1
            exp = int(m.group("exp") or 1) if m.group("var") else 0
        except ValueError as exc:  # an integer past Python's digit cap
            raise InputError(f"a term of the polynomial cannot be read: {exc}") from exc
        if exp > _MAX_EXPONENT:
            raise InputError(f"exponent {exp} in polynomial {text!r} is above the limit "
                             f"of {_MAX_EXPONENT}")
        coeffs[exp] = coeffs.get(exp, 0) + (-coeff if sign == "-" else coeff)
        pos = m.end()
    deg = max(coeffs)
    out = [coeffs.get(i, 0) for i in range(deg + 1)]
    if not any(out):
        raise InputError("the zero polynomial does not present a field")
    return out


def poly_discriminant(coeffs):
    """Discriminant of a monic integer polynomial, 0 for a constant: the
    determinant of the trace form ``Tr(theta^(i+j))`` (Cohen, *A Course in
    Computational Algebraic Number Theory*, ch. 4).

    Row ``i`` of the form holds the power sum ``s_(i+j)`` at column ``j``,
    so only the cells of the nonzero power sums are built (a binomial's form
    has ``n`` of them) and eliminated; ``_trace_bound`` keeps the dense form.

    >>> poly_discriminant([-2, 0, 1]), poly_discriminant([1, 1, 0, 1])  # x^2 - 2, x^3 + x + 1
    (8, -31)
    """
    coeffs = poly_trim(_rationals(coeffs, "polynomial coefficient"))
    n = len(coeffs) - 1
    if n < 1:
        return 0
    s = [_as_int(x, "matrix entry") for x in _power_sums(coeffs)]
    nonzero = [k for k, x in enumerate(s) if x]
    rows = []
    for i in range(n):  # the nonzero s_k with i <= k < i + n
        row = nonzero[bisect_left(nonzero, i):bisect_left(nonzero, i + n)]
        rows.append({k - i: s[k] for k in row})
    return _determinant(rows)


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False, repr=False)
class FieldElement:
    """An element of ``Q[x]/(f)`` on the power basis, with exact arithmetic.

    Products and powers run in ``Z[x]/(f)`` on the integer numerators over
    one positive denominator (``_numerators``), reduced by the monic integer
    ``f``.  Two elements are equal when they lie in the same field object
    and have the same coordinates.
    """

    __slots__ = ("field", "coeffs")
    field: NumberField
    coeffs: tuple

    def __init__(self, field, coeffs):
        coeffs = [Fraction(c) for c in _rationals(coeffs, "element coordinate")]
        if len(coeffs) > field.degree:
            nums, den = _numerators(coeffs)
            coeffs = [Fraction(c, den) for c in _reduce_monic(nums, field.coeffs)]
        coeffs += [Fraction(0)] * (field.degree - len(coeffs))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs[: field.degree]))

    def __copy__(self):  # immutable; a deep copy would reach the field's sieve
        return self

    def __deepcopy__(self, memo):
        return self

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero

    def _rational(self, other):
        """``other`` as a ``Fraction``, or None for an element of this field."""
        if not isinstance(other, FieldElement):
            return Fraction(*_rationals([other], "field operand"))
        if other.field is not self.field:
            raise InputError("elements live in different fields")
        return None

    def __add__(self, other):
        c = self._rational(other)
        if c is not None:
            return FieldElement(self.field, (self.coeffs[0] + c,) + self.coeffs[1:])
        return FieldElement(self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        c = self._rational(other)
        if c is not None:
            return FieldElement(self.field, (self.coeffs[0] - c,) + self.coeffs[1:])
        return FieldElement(self.field, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        c = self._rational(other)
        return FieldElement(self.field, [c - self.coeffs[0]] + [-a for a in self.coeffs[1:]])

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.coeffs])

    def __mul__(self, other):
        c = self._rational(other)
        a, da = _numerators(self.coeffs)
        if c is not None:
            return FieldElement(self.field, [Fraction(x * c.numerator, da * c.denominator)
                                             for x in a])
        b, db = _numerators(other.coeffs)
        return FieldElement(self.field, [Fraction(x, da * db) for x in _int_mul(a, b)])

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        return self._rational(other) * self.inverse()

    def __pow__(self, e):
        e = _as_int(e, "exponent")
        if e < 0:
            return self.inverse() ** (-e)
        base, den = _numerators(self.coeffs)
        den **= e
        return FieldElement(self.field, [Fraction(c, den) for c in _power_mod(base, e, self.field.coeffs)])

    def inverse(self):
        """The ``x`` with ``M x = e_0`` for the multiplication matrix ``M``."""
        if self.is_zero:
            raise InputError("division by zero in the field")
        rows, den = _multiplication_rows(self)
        e0 = [[1]] + [[0]] * (self.field.degree - 1)
        x = solve_exact([list(col) for col in zip(*rows)], e0)
        return FieldElement(self.field, [den * c for c, in x])

    def norm(self):
        """Field norm (product of the images under all embeddings): the
        determinant of multiplication by the element.

        >>> parse_field("x^2 - 2").element([Fraction(1, 2), 1]).norm()  # 1/4 - 2
        Fraction(-7, 4)
        """
        rows, den = _multiplication_rows(self)
        return Fraction(determinant(rows), den ** self.field.degree)

    def __repr__(self):
        return f"FieldElement({self.as_string()!r})"

    def as_string(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "theta" if i == 1 else f"theta^{i}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{c}*{var}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _multiplication_rows(elem):
    """The integer rows ``theta^j * den * elem``, j = 0..n-1, on the power
    basis, and ``den``, the common denominator of the coordinates: shift and
    reduce with the monic f.  Their determinant is ``den^n`` times the norm."""
    row, den = _numerators(elem.coeffs)
    rows = [row]
    for _ in range(elem.field.degree - 1):
        rows.append(_reduce_monic([0] + rows[-1], elem.field.coeffs))
    return rows, den


# ---------------------------------------------------------------------------
# the number field
# ---------------------------------------------------------------------------

# Most representatives ``residue_system`` lists: it builds all ``d^n`` of them.
_RESIDUE_LIMIT = 2 ** 16
# Highest field degree.  Fresh ``field-info`` on ``x^n - c``, the cheapest
# fields of high degree (their trace form is sparse), on a 2-vCPU machine with
# Python 3.11.7: with Musser's rows alone the largest answered within 20 s was
# x^4500 - 7 (16 s), and x^4600 - 7, x^4800 - 6, x^5000 - 6 and x^5000 - 7
# were killed after 24 s; with the Eisenstein step x^5000 - 2 and x^5000 - 7
# take about 2.2 s, most of it the dense n x n trace form (400 MB).
_MAX_DEGREE = 5000


class NumberField:
    """``Q[x]/(f)`` for monic irreducible integer ``f``; power basis order.

    A degree above ``_MAX_DEGREE`` is refused before the discriminant is built.
    Irreducibility is proved in plain integers, and ``f`` needs a nonzero
    discriminant.  Three routes are tried in turn.  First Eisenstein's
    criterion after a shift (``_eisenstein_shift``): ``f(x + a)`` Eisenstein
    at a small prime ``p`` dividing the discriminant, as for ``x^n - 2`` and
    the prime-power cyclotomic fields; no residue row is read.  Then the
    residue degrees of ``f`` at a few unramified primes must leave no degree
    a proper factor over Q could have (Musser's degree-set test);
    Berlekamp's factor count cross-checks every prime that proof reads.
    When those primes prove nothing (a Galois group without the needed cycle
    types, as for ``x^4 - x^2 + 1``), ``f`` is irreducible exactly when
    ``Q[x]/(f)`` has no idempotent but 0 and 1, and the search for one
    (``_ResidueSieve.split_idempotent``) is exact and finite.  Musser's proof
    stops reading primes once the possible degrees stall while an odd prime
    read splits ``f`` into at most two factors, where the search reads back
    one sum.  The discriminant and the residue sieve stay with the field;
    the sieve also certifies the roots of unity, on the same table, built on
    demand.  No step calls sympy.
    """

    def __init__(self, coeffs):
        coeffs = poly_trim([_as_int(c, "polynomial coefficient") for c in coeffs])
        n = len(coeffs) - 1
        if n < 1:
            raise InputError("a field needs a polynomial of degree >= 1")
        if coeffs[-1] != 1:
            raise InputError("the defining polynomial must be monic")
        if n > _MAX_DEGREE:
            raise InputError(f"degree {n} is above the limit of {_MAX_DEGREE} for a field")
        disc = poly_discriminant(coeffs)
        sieve = _ResidueSieve(coeffs, disc) if disc else None
        proved = sieve and (_eisenstein_shift(coeffs, disc) or sieve.proves_irreducible()
                            or sieve.split_idempotent() is None)
        if not proved:
            raise InputError("the defining polynomial must be irreducible over Q")
        self.coeffs = tuple(coeffs)
        self.degree = n
        self.r1, self.r2 = signature(coeffs)
        self._w = None
        self._disc = disc
        self._sieve = sieve

    # -- simple invariants ---------------------------------------------------

    @property
    def unit_rank(self):
        return self.r1 + self.r2 - 1

    @property
    def disc(self):
        """Discriminant of the defining polynomial (power-basis convention)."""
        return self._disc

    def element(self, coeffs):
        return FieldElement(self, coeffs)

    def parse_element(self, text):
        """Comma-separated rational coordinates on the power basis; every
        coordinate must be given, so ``"1,,1"`` is refused, not read as 1 + theta."""
        parts = [p.strip() for p in str(text).split(",")]
        if not any(parts):
            raise InputError("empty element coordinates")
        if "" in parts:
            raise InputError(f"element coordinates {text!r} leave a coordinate empty")
        try:
            coords = [Fraction(p) for p in parts]
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad element coordinates {text!r}") from exc
        if len(coords) > self.degree:
            raise InputError(
                f"element has {len(coords)} coordinates but the field has degree {self.degree}"
            )
        return FieldElement(self, coords)

    def polynomial_string(self):
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                base = "x" if i == 1 else f"x^{i}"
                term = base if abs(c) == 1 else f"{abs(c)}{base}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)

    def to_json_dict(self):
        return {
            "poly": self.polynomial_string(),
            "coeffs": list(self.coeffs),
            "degree": self.degree,
            "signature": [self.r1, self.r2],
            "disc": self.disc,
            "roots_of_unity_order": self.roots_of_unity_order,
            "unit_rank": self.unit_rank,
            "integral_basis_convention": "power basis Z[theta]",
        }

    # -- real embeddings -----------------------------------------------------

    @functools.cached_property
    def _intervals(self):
        return isolate_real_roots(self.coeffs)

    def real_sign_vector(self, elem):
        """Signs (+1/-1) of ``elem`` under the real embeddings, ascending.

        The embeddings are ordered by the ascending real roots of the
        defining polynomial.  The sign at the one root of f in an isolating
        interval ``(lo, hi]`` is a Tarski query (Basu--Pollack--Roy, ch. 2):
        the sign changes at ``lo`` less those at ``hi`` of the signed
        remainder sequence of ``(f, f' g mod f)``, g the element's polynomial
        times its positive common denominator, computed in integers
        (``_signed_remainders``).  A query other than +-1 raises
        ``CrossCheckError``.

        >>> k = parse_field("x^2 - 2")
        >>> k.real_sign_vector(k.element([1, 1]))  # 1 - sqrt(2), 1 + sqrt(2)
        (-1, 1)
        """
        if not isinstance(elem, FieldElement) or elem.field is not self:
            raise InputError("real_sign_vector needs an element of this field")
        if elem.is_zero:
            raise InputError("the zero element has no sign vector")
        f = self.coeffs
        g, _ = _numerators(elem.coeffs)
        chain = _signed_remainders(f, _reduce_monic(_int_mul(_derivative(f), g), f))
        # adjacent intervals share an endpoint: read each point once
        points = {x for interval in self._intervals for x in interval}
        changes = {x: _chain_changes_at(chain, x) for x in points}
        out = []
        for lo, hi in self._intervals:
            query = changes[lo] - changes[hi]
            if query not in (1, -1):
                raise CrossCheckError(f"the Tarski query of {elem.as_string()} on the "
                                      f"isolating interval ({lo}, {hi}] is {query}, not +-1")
            out.append(query)
        return tuple(out)

    def sign_parity(self, elem):
        """``(-1)**(number of negative real embeddings)`` of an element.

        The norm must have this sign, as each complex pair enters it as
        ``|sigma|^2 > 0``; a disagreement raises ``CrossCheckError``.
        """
        parity = -1 if self.real_sign_vector(elem).count(-1) % 2 else 1
        norm = elem.norm()
        if (norm > 0) != (parity > 0):
            raise CrossCheckError(f"{elem.as_string()} has sign parity {parity} but norm {norm}")
        return parity

    # -- residue systems ------------------------------------------------------

    def residue_system(self, d, style="standard"):
        """Coordinate representatives of ``Z[theta]/(d)``, lexicographic.

        ``standard`` uses digits ``0 <= l < d``; ``centered`` uses digits
        ``-d' <= l <= d'`` for odd ``d = 2 d' + 1`` (an even modulus has no
        symmetric digit set and is rejected).  A system of more than
        ``_RESIDUE_LIMIT`` elements is refused.
        """
        d = _as_int(d, "the residue modulus")
        if d < 2:
            raise InputError("the residue modulus must be an integer >= 2")
        if style == "standard":
            digits = range(d)
        elif style == "centered":
            if d % 2 == 0:
                raise InputError(
                    "the centered style needs an odd modulus: an even modulus "
                    "has no symmetric set of digits"
                )
            half = (d - 1) // 2
            digits = range(-half, half + 1)
        else:
            raise InputError(f"unknown residue style {style!r}")
        count = d ** self.degree
        if count > _RESIDUE_LIMIT:
            raise InputError(f"the residue system modulo {d} has {d}^{self.degree} = {count} "
                             f"elements, above the limit of {_RESIDUE_LIMIT}")
        return [tuple(v) for v in itertools.product(digits, repeat=self.degree)]

    # -- roots of unity --------------------------------------------------------

    @property
    def roots_of_unity_order(self):
        """Order of the group of roots of unity in the field, computed once: 2
        when the field has a real embedding, and otherwise the order the
        residue sieve certifies (``_ResidueSieve.roots_of_unity_order``, whose
        class describes the route).  No step calls sympy.

        >>> parse_field("x^2 + 1").roots_of_unity_order
        4
        """
        if self._w is None:
            self._w = 2 if self.r1 else self._sieve.roots_of_unity_order()
        return self._w


def _root_of_unity_candidates(n):
    """Even orders ``m > 2`` with ``phi(m) | n``, in descending order: the
    orders a primitive root of unity in a degree-n field can have.

    Each prime power ``p^e`` exactly dividing such an m has ``phi(p^e) =
    p^(e-1) (p - 1)`` dividing ``phi(m)``, hence n, so m is built from the
    primes ``p = d + 1`` for the divisors d of n.

    >>> _root_of_unity_candidates(4)
    [12, 10, 8, 6, 4]
    """
    orders = [(1, 1)]  # (m, phi(m)) over the primes taken so far
    for d in range(1, n + 1):
        p = d + 1
        if n % d or not _is_prime(p):
            continue
        grown = []
        for m, phi in orders:
            q, phi_q = p, d  # p^e and phi(p^e)
            while n % (phi * phi_q) == 0:
                grown.append((m * q, phi * phi_q))
                q, phi_q = q * p, phi_q * p
        orders += grown
    return sorted((m for m, _ in orders if m % 2 == 0 and m > 2), reverse=True)


def _primes():
    """2, 3, 5, 7, ...: every prime in ascending order, by trial division."""
    return filter(_is_prime, itertools.count(2))


def _subset_sums(degrees, n):
    """The sums of sub-multisets of ``degrees`` strictly between 0 and ``n``."""
    sums = {0}
    for d in degrees:
        sums |= {t + d for t in sums}
    return sums & set(range(1, n))


@functools.cache
def _first_primes(count):
    """The first ``count`` primes, found once per process."""
    return tuple(itertools.islice(_primes(), count))


def _eisenstein_shift(coeffs, disc):
    """A certificate ``(p, a)`` that the monic integer ``f`` of discriminant
    ``disc`` is irreducible, or None: ``f(x + a)`` is Eisenstein at ``p``,
    that is ``f = (x - a)^n`` mod p and ``p^2`` does not divide ``f(a)``.

    An Eisenstein prime is totally ramified, so it divides ``disc``; only
    those among the first ``IRREDUCIBILITY_PRIMES`` primes are tried, each
    by O(n) congruences and no shift over Z.  There is one candidate ``a``
    mod p: for ``n = p^v m``, p not dividing m, ``(x - a)^n = (x^(p^v) -
    a)^m`` mod p, whose coefficient at ``x^(n - p^v)`` is ``-m a``.  As
    ``f'(a) = 0`` mod p, ``f(a)`` mod ``p^2`` is the same for every lift of
    ``a``.  The binomials ``C(n, i)`` mod p are Lucas': ``(1 + x)^n = prod_j
    (1 + x^(p^j))^(n_j)`` mod p over the base-p digits ``n_j`` of n.

    >>> _eisenstein_shift([1, 0, 0, 0, 1], 256)  # x^4 + 1 = Phi_8: (x + 1)^4 + 1
    (2, 1)
    >>> _eisenstein_shift([1, 0, -1, 0, 1], 144) is None  # Phi_12: no certificate
    True
    """
    n = len(coeffs) - 1
    for p in _first_primes(_ResidueSieve.IRREDUCIBILITY_PRIMES):
        if disc % p:
            continue
        low = 1  # p^v, the largest power of p dividing n
        while n % (low * p) == 0:
            low *= p
        a = -coeffs[n - low] * pow(n // low, -1, p) % p
        value = 0
        for c in reversed(coeffs):  # f(a) mod p^2, by Horner
            value = (value * a + c) % (p * p)
        if value % p or not value:
            continue
        binomials, step, rest = {0: 1}, 1, n  # the nonzero C(n, i) mod p, by Lucas
        while rest:
            rest, digit = divmod(rest, p)
            binomials = {i + t * step: c * math.comb(digit, t) % p
                         for i, c in binomials.items() for t in range(digit + 1)}
            step *= p
        power = 1  # (-a)^(n - i) mod p
        for i in range(n, -1, -1):
            if (coeffs[i] - binomials.get(i, 0) * power) % p:
                break
            power = power * -a % p
        else:
            return p, a
    return None


class _ResidueSieve:
    """Residue degrees of one field at its unramified primes, and the two
    exact certificates read off them: that the defining polynomial is
    irreducible, and the order of the roots of unity in the field.

    For a prime ``p`` not dividing the discriminant, the residue degrees of
    the primes above ``p`` are the degrees of the irreducible factors of the
    defining polynomial mod p (Dedekind--Kummer).  The table of these
    patterns over the unramified primes 2, 3, 5, ... is built lazily, once
    per field: the irreducibility certificate reads its first rows, and the
    sieve for every candidate order reads the same rows.  ``NumberField``
    asks the sieve only when Eisenstein's criterion after a shift
    (``_eisenstein_shift``, no residue row) gave no certificate; for a field
    that criterion proves, the sieve for the roots of unity builds the rows
    it reads, on the same primes.

    *One walk serves every row.*  The sieve keeps ``x^k mod f`` over Z
    (``_powers_of_x``) and advances it as the table grows, so the first
    Frobenius step of the row at ``p`` is that walk at ``k = p``, reduced
    mod p: one O(n) shift per integer ``k`` up to the largest prime read,
    instead of about ``log2 p`` products and divisions mod ``(f, p)`` per
    row.  The walk's coefficients grow like ``k log2 R`` bits, ``R`` the root
    bound of ``f``, and stay bounded for a cyclotomic ``f``.  ``frobenius``
    keeps ``x^p mod (f, p)`` for every tabulated ``p``; the exact searches
    read it through ``frobenius_at``.  Berlekamp's count (``_factor_counts``)
    keeps its own square-and-multiply ladder.

    *Irreducibility*, the second and third routes after Eisenstein's (Musser,
    J. ACM 25, 1978): a factor of degree ``d`` over Q reduces mod p to a
    product of some of the factors mod p, so ``d`` is a sum of residue
    degrees at every unramified ``p``.  When no ``d`` in
    ``1..n-1`` is such a sum at all of the first ``IRREDUCIBILITY_PRIMES``
    primes, the polynomial is irreducible.  Each prime that proof read is
    cross-checked by Berlekamp's count of the factors mod p.  When a degree
    stays possible, ``split_idempotent`` decides.  Rows are read only while
    they can still matter: the proof also stops once the possible degrees
    have not narrowed for ``STALL_PRIMES`` primes in a row and an odd prime
    read splits f into at most two residue factors.  No row proves anything
    for a Galois group without the needed cycle types (``x^4 + 1``), and the
    search at such a prime reads back one sum.

    *Roots of unity* (``roots_of_unity_order``, for a field with no real
    embedding).  The candidates are the even ``m > 2`` with ``phi(m) | n``,
    in descending order.  For ``p`` not dividing ``m`` either, a root of
    unity of order ``m`` forces ``m | p^f - 1`` for every residue degree
    ``f`` at ``p``, so a residue-field witness ``(p, f)`` refutes ``m``; its
    degrees are re-derived from the factor counts ``n - rank(Q^d - I)`` over
    GF(p^d), d = 1..n (``_confirm_degrees``), and a mismatch, or degrees
    that do not refute ``m``, raises ``CrossCheckError``.  Each candidate
    reads the first ``PRIME_COUNT`` primes of the table not dividing ``m``
    (2 never counts), and fewer for a likely true order: after
    ``WITNESS_WAIT * n`` primes without a witness it stops at the first
    admissible prime (``m | p^f - 1`` for every ``f``) with at most two
    residue factors.  A candidate without a witness runs the exact lift
    (``_lift_primitive_root``) at the admissible prime read that the prime
    rule picks, with at most ``phi(m)`` combinations at the stop prime.  A
    "yes" is checked in K; a "no" needs a witness among the first
    ``PRIME_COUNT + CROSS_CHECK_PRIMES`` primes not dividing ``m``
    (``confirm_refuted``).
    The first exact hit is the answer, its first row read re-derived the
    same way; with every candidate refuted the answer is 2.

    *One setup for both exact searches.*  The prime rule
    (``_fewest_factors``) takes the prime read with the fewest residue
    factors, the smallest on ties.  There ``_local_factors`` splits f into
    its residue factors ``g_i`` (Cantor--Zassenhaus, from ``frobenius_at``)
    with local idempotents ``e_i = (f/g_i)^(p^deg g_i - 1)`` mod ``(f, p)``
    and takes the least power ``p^k`` above ``2B``; each search Newton-lifts
    its residues to ``p^k``, and ``_read_back`` reads a sum of lifts back in
    integers.  ``B`` bounds ``disc * alpha`` for an integral ``alpha`` of
    absolute value at most 1 at every embedding: its traces ``t_j =
    Tr(alpha theta^j)`` have ``|t_j| <= n R^j``, and ``T c = t`` for its
    coordinates ``c`` and the trace matrix ``T``, so Cramer and Hadamard
    bound ``disc * c = adj(T) t`` by ``B`` (``det T = disc``).  The trace
    form and ``B`` are built once per field (``_trace_bound``).
    """

    PRIME_COUNT = 50
    # A "no" of the exact route needs a witness within this many more primes.
    CROSS_CHECK_PRIMES = 200
    # About twice the most that 1408 random irreducible polynomials of degree
    # 2..9 (coefficients in +-20) needed, 14; past it the idempotent search
    # decides, as it must for Galois groups without the needed cycle types.
    IRREDUCIBILITY_PRIMES = 30
    # Musser's stall stop, a ski-rental rule: one more row is the rent, the
    # idempotent search at an odd prime with two residue factors (one
    # read-back) the purchase, and renting while the rows read since the last
    # narrowing cost at most one search costs at most about twice the better
    # choice.  One search against one of the first 30 rows, in process
    # (medians of 31, 2-vCPU shared machine): x^4 + 1 0.27 against 0.027 ms,
    # x^8 + 1 0.58 against 0.063 ms, ratios 10 and 9; 8 rows stays at or
    # below both break-even points.  Among 1400 random irreducible
    # polynomials of degree 2..9 (coefficients in +-20), the longest stall
    # before a narrowing was at most 7 rows for 1393; the other 7 (stalls of
    # 8 and 9) go to the search.
    STALL_PRIMES = 8
    # The true order's stop: after WITNESS_WAIT * n primes without a witness,
    # the expected wait at the witness density 1/(2n) that ``confirm_refuted``
    # rests on, the first admissible prime with at most two residue factors
    # ends the sieve for that order.  The lift there reads back at most phi(m)
    # sums; two factors is the bound the stall stop uses too.
    WITNESS_WAIT = 2

    def __init__(self, coeffs, disc):
        self.coeffs = coeffs
        self.disc = disc
        self.table = {}      # p -> residue degrees, p unramified, ascending
        self.frobenius = {}  # p -> x^p mod (f, p), for the same p
        self._primes = []    # the keys of the table, in ascending order
        self._candidates = _primes()
        self._walk = enumerate(_powers_of_x(coeffs))  # (k, x^k mod f over Z)
        self._confirmed = set()

    def _unramified(self):
        """The unramified primes in ascending order, extending the table."""
        for i in itertools.count():
            while i == len(self._primes):
                p = next(self._candidates)
                if self.disc % p:
                    power = next(power for k, power in self._walk if k == p)
                    xp = self.frobenius[p] = _trim_mod(power, p)
                    self._primes.append(p)
                    self.table[p] = _factor_degrees_mod_p(self.coeffs, p, xp)
            yield self._primes[i]

    def frobenius_at(self, p):
        """``x^p mod (f, p)`` at an unramified ``p``, off the walk; the table
        is extended up to ``p`` first when it does not reach it yet."""
        next(q for q in self._unramified() if q >= p)
        return self.frobenius[p]

    @functools.cached_property
    def _open_degrees(self):
        """The degrees in ``1..n-1`` that a proper factor over Q could still
        have, and the primes read: the first ``IRREDUCIBILITY_PRIMES``
        unramified ones, or fewer when no degree is left or at the stall
        stop (``STALL_PRIMES``).  Berlekamp's count cross-checks each prime
        read when no degree is left, and otherwise each prime whose residue
        degrees narrowed the possible ones (no other row is a premise of the
        idempotent search)."""
        n = len(self.coeffs) - 1
        possible = set(range(1, n))
        primes = itertools.islice(self._unramified(), self.IRREDUCIBILITY_PRIMES)
        read, narrowed = [], []
        stall, short = 0, False  # primes since the last narrowing; an odd prime with <= 2 factors
        while (possible and not (short and stall >= self.STALL_PRIMES)
               and (p := next(primes, None)) is not None):
            read.append(p)
            left = possible & _subset_sums(self.table[p], n)
            if left == possible:
                stall += 1
            else:
                narrowed.append(p)
                stall = 0
            short = short or (p > 2 and len(self.table[p]) <= 2)
            possible = left
        for p in narrowed if possible else read:
            self._check_count(p, self.table[p])
        return possible, read

    def _check_count(self, p, degrees):
        """Raise ``CrossCheckError`` unless Berlekamp's count of the factors
        of f mod p is the number of residue ``degrees`` read at ``p``."""
        count = next(_factor_counts(self.coeffs, p))
        if count != len(degrees):
            raise CrossCheckError(
                f"residue degrees mod {p} disagree: distinct-degree factorization "
                f"gives {degrees}, Berlekamp's Q-matrix counts {count} factors"
            )

    def proves_irreducible(self):
        """True when the residue degrees prove the defining polynomial
        irreducible; False when the first ``IRREDUCIBILITY_PRIMES`` unramified
        primes leave a possible factor degree (which proves nothing)."""
        return not self._open_degrees[0]

    # -- the two exact searches: one prime rule, one setup, one read-back ----

    def _fewest_factors(self, primes):
        """The prime rule: the fewest residue factors, then the smallest prime."""
        return min(primes, key=lambda q: (len(self.table[q]), q))

    @functools.cached_property
    def _trace_bound(self):
        """The trace matrix ``T``, the trace bounds ``n R^j`` and ``B^2``
        rounded down (class docstring), built once."""
        form, tbound = _trace_form(self.coeffs)
        cols = [sum(x * x for x in row) for row in form]  # T is symmetric
        return form, tbound, sum(b * b for b in tbound) * math.prod(cols) // min(cols)

    def _local_factors(self, p):
        """The setup at an odd unramified ``p``: the lift modulus, the least
        power of ``p`` above ``2B``, ``f`` reduced mod ``p``, and ``(k, g, e)``
        per residue factor ``g`` of degree ``k`` with its local idempotent
        ``e``."""
        big, bound_sq = p, self._trace_bound[2]
        while big * big <= 4 * bound_sq:
            big *= p
        f = _trim_mod(self.coeffs, p)
        parts = _distinct_degree_parts(f, p, self.frobenius_at(p))
        return big, f, list(_local_idempotents(f, p, parts))

    def _read_back(self, lifts, big):
        """``disc * alpha`` and the traces ``Tr(alpha theta^j)``, in integers,
        for the ``alpha`` whose coordinates mod ``big`` are the sum of the
        coordinate lists ``lifts`` and whose ``disc * alpha`` reads exactly as
        symmetric residues; None when a trace is not an integer within its
        bound, which no integral ``alpha`` of absolute value at most 1 at every
        embedding can have."""
        form, tbound, _ = self._trace_bound
        disc, coords = self.disc, [0] * len(form)
        for lift in lifts:
            for i, c in enumerate(lift):
                coords[i] += c
        read = [(disc * c + big // 2) % big - big // 2 for c in coords]
        traces = [sum(a * b for a, b in zip(row, read)) for row in form]  # disc * t
        if any(t % disc or abs(t) > b * abs(disc) for t, b in zip(traces, tbound)):
            return None
        return read, [t // disc for t in traces]

    def split_idempotent(self):
        """The coordinates of an idempotent of ``Q[x]/(f)`` other than 0 and
        1, or None when there is none: then ``f`` is irreducible.

        If ``f = G H`` over Z, the idempotent ``eps`` that is 1 mod G and 0
        mod H is integral, and 0 or 1 at every embedding.  At the prime the
        rule picks among those ``_open_degrees`` read (an odd one), ``eps`` or
        ``1 - eps`` reduces to ``e_S``, the sum of the local idempotents over a
        set ``S`` of residue factors that holds ``g_0`` and whose degree sum
        is a possible factor degree.  So each ``e_i`` is Newton-lifted (``e <-
        e^2 (3 - 2e)``) and every such ``S`` but the full set is read back, at
        most ``2^(r-1)`` sums.  ``e_S`` is accepted only if ``eps^2 = eps`` in
        ``Q[x]/(f)``; ``Tr(eps)``, the degree of its factor, must then equal
        the degree sum of ``S``, or the search raises ``CrossCheckError``.

        >>> f = [4, 0, 0, 0, 1]  # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2)
        >>> _ResidueSieve(f, poly_discriminant(f)).split_idempotent()
        [Fraction(1, 2), Fraction(1, 4), Fraction(0, 1), Fraction(-1, 8)]
        >>> f = [1, 0, 0, 0, 1]  # x^4 + 1: every prime splits it, yet no idempotent
        >>> _ResidueSieve(f, poly_discriminant(f)).split_idempotent() is None
        True
        """
        possible, read = self._open_degrees
        if not possible:
            return None
        p = self._fewest_factors(q for q in read if q > 2)
        fz, disc = list(self.coeffs), self.disc
        big, _, local = self._local_factors(p)
        lifts = [(k, _lift_idempotent(e, fz, p, big)) for k, _, e in local]
        self._check_count(p, [k for k, _ in lifts])  # so each g_i is irreducible
        (k0, e0), rest = lifts[0], lifts[1:]
        for size in range(len(rest)):
            for chosen in itertools.combinations(rest, size):
                degree = k0 + sum(k for k, _ in chosen)
                if degree not in possible:
                    continue
                found = self._read_back([e0, *(e for _, e in chosen)], big)
                if found is None:
                    continue
                eps, traces = found  # disc times the candidate: eps^2 = disc * eps if idempotent
                if _reduce_monic(_int_mul(eps, eps), fz) != [disc * c for c in eps]:
                    continue
                if traces[0] != degree:
                    raise CrossCheckError(
                        f"an idempotent lifted from mod {p} has trace {traces[0]}, but its "
                        f"residue factors have degree sum {degree}"
                    )
                return [Fraction(c, disc) for c in eps]
        return None

    def roots_of_unity_order(self):
        """The order of the roots of unity of a field without a real
        embedding, certified as the class docstring describes."""
        for m in _root_of_unity_candidates(len(self.coeffs) - 1):
            witness = self.witness(m)
            if witness is not None:
                self.check_witness(m, *witness)
            elif self._contains_primitive_root(m):
                self._confirm_degrees(next(self._primes_for(m)))  # spot-check the first row read
                return m
        return 2

    def _contains_primitive_root(self, m):
        """The exact test: does the field contain a primitive m-th root of
        unity?  A "no" is backed by a witness (``confirm_refuted``)."""
        admissible = [p for p in self._primes_for(m) if self._admissible(m, p)]
        if admissible and self._lift_primitive_root(
                m, self._fewest_factors(admissible)) is not None:
            return True
        self.confirm_refuted(m)
        return False

    def _lift_primitive_root(self, m, p):
        """The coordinates of a primitive m-th root of unity of K lifted from
        an admissible ``p``, or None.  Each residue field holds ``phi(m)``
        primitive m-th roots.  A root ``zeta`` of K gives one in each, and so
        does ``zeta^j`` for ``j`` a unit mod m, so the first field's root is
        fixed.  Each field's root is Newton-lifted once as ``z_i``, 1 in the
        other fields: the first field's is read as ``z_0`` alone, and each
        other field's powers ``z_i^j`` come from one walk of ``m - 2``
        successive products mod ``(f, p^k)``.  ``1 + sum (z_i^j_i - 1)`` is
        read back for each of the ``phi(m)^(r-1)`` combinations.  ``alpha`` is
        accepted only if ``alpha^m = 1`` and ``alpha^(m/q) != 1`` for the
        primes ``q | m``, on its reduced integer numerators."""
        fz, n = list(self.coeffs), len(self.coeffs) - 1
        primes_m = list(_factor_multiplicity(m))
        big, f, local = self._local_factors(p)
        if any((p ** k - 1) % m for k, _, _ in local):
            return None  # a residue field without m-th roots: a witness, not a lift
        shifts = []  # per field: z^j - 1 for its lifted root z, zero in the other fields
        for k, g, e in local:
            cofactor = (p ** k - 1) // m
            y = next(y for y in (_polymod_pow(t, cofactor, g, p) for t in _trial_elements(p))
                     if _polymod_pow(y, m, g, p) == [1]
                     and all(_polymod_pow(y, m // q, g, p) != [1] for q in primes_m))
            start = _poly_sub_mod([1], _polymod_mul(e, _poly_sub_mod([1], y, p), f, p), p)
            z = _lift_unit_root(start, m, fz, p, big)
            # z, z^2, ..., z^(m-1) by successive products; z alone in the first field
            powers = itertools.accumulate(itertools.repeat(z, m - 1 if shifts else 1),
                                          lambda a, b: _polymod_mul(a, b, fz, big))
            shifts.append([_poly_sub_mod(zj, [1], big)
                           for j, zj in enumerate(powers, 1) if math.gcd(j, m) == 1])
        for combo in itertools.product(*shifts):
            found = self._read_back([[1], *combo], big)
            if found is None:
                continue  # not integral traces within the bounds: no root of unity
            common = math.gcd(self.disc, *found[0])
            nums, den = [c // common for c in found[0]], self.disc // common

            def is_one(e):  # alpha^e = 1
                return _power_mod(nums, e, fz) == [den ** e] + [0] * (n - 1)

            if is_one(m) and not any(is_one(m // q) for q in primes_m):
                return [Fraction(c, den) for c in nums]
        return None

    def _primes_for(self, m):
        """The primes the sieve tests for order ``m``, in ascending order: the
        first ``PRIME_COUNT`` not dividing ``m``, or fewer at the true order's
        stop, the first admissible prime with at most two residue factors
        past ``WITNESS_WAIT * n`` of them (class docstring)."""
        n = len(self.coeffs) - 1
        primes = itertools.islice((p for p in self._unramified() if m % p), self.PRIME_COUNT)
        for i, p in enumerate(primes):
            yield p
            if i >= self.WITNESS_WAIT * n and len(self.table[p]) <= 2 and self._admissible(m, p):
                return

    def _admissible(self, m, p):
        """``m | p^f - 1`` for every residue degree ``f`` at ``p``."""
        return all(pow(p, f, m) == 1 for f in self.table[p])

    def _witness_among(self, m, primes):
        return next(((p, f) for p in primes for f in self.table[p] if pow(p, f, m) != 1), None)

    def witness(self, m):
        """First ``(p, f)`` ruling out a primitive m-th root of unity, or None."""
        return self._witness_among(m, self._primes_for(m))

    def confirm_refuted(self, m):
        """Back a "no" of the exact route with a checked witness among the
        first ``PRIME_COUNT + CROSS_CHECK_PRIMES`` primes not dividing ``m``.
        Their density is at least ``1/(2n)``: a Frobenius that fixes an
        embedding of K but not ``zeta_m`` is one."""
        count = self.PRIME_COUNT + self.CROSS_CHECK_PRIMES
        primes = itertools.islice((p for p in self._unramified() if m % p), count)
        witness = self._witness_among(m, primes)
        if witness is None:
            raise CrossCheckError(
                f"the exact route finds no root of unity of order {m}, but no residue "
                f"witness among the first {count} primes refutes it"
            )
        self.check_witness(m, *witness)

    def _confirm_degrees(self, p):
        """Raise ``CrossCheckError`` unless the factor counts of f over
        GF(p^d), d = 1..n, which fix the degrees, match the table's at ``p``."""
        if p in self._confirmed:
            return
        read = sorted(self.table.get(p, ()))
        n = len(self.coeffs) - 1
        want = [sum(math.gcd(d, f) for f in read) for d in range(1, n + 1)]
        counts = list(_factor_counts(self.coeffs, p))
        if counts != want:
            raise CrossCheckError(
                f"residue degrees mod {p} disagree: the sieve read {read}, with {want} "
                f"factors over GF({p}^d) for d = 1..{n}; n - rank(Q^d - I) gives {counts}"
            )
        self._confirmed.add(p)

    def check_witness(self, m, p, f):
        """A refuted candidate: the witness must refute ``m`` on checked degrees."""
        self._confirm_degrees(p)
        if not (m % p and self.disc % p and f in self.table[p] and pow(p, f, m) != 1):
            raise CrossCheckError(
                f"the residue-field witness (p={p}, f={f}) does not refute "
                f"roots of unity of order {m}"
            )


def _trim_mod(a, p):
    """``a`` reduced mod ``p``, without leading zero coefficients."""
    a = [x % p for x in a]
    while a and not a[-1]:
        a.pop()
    return a


def _polymod_reduce(a, f, p):
    """The remainder of ``a`` by ``f`` over Z/p, reduced and trimmed.

    One division in place, the one reduction loop of the GF(p)[x] kernel:
    ``a`` may be unreduced (any integers) and is overwritten, and ``f`` has a
    leading coefficient invertible mod ``p``.  The running value stays
    unreduced: each quotient coefficient is read mod ``p`` from it and stored
    over the term it cancels, so ``a[deg f:]`` ends as the quotient, reduced;
    only the remainder is reduced, once.
    """
    db = len(f) - 1
    inv = 1 if f[-1] == 1 else pow(f[-1], -1, p)
    low = f[:-1]  # the top term cancels mod p and is not read again
    for top in range(len(a) - 1, db - 1, -1):
        c = a[top] = a[top] * inv % p
        if c:
            for i, y in enumerate(low, top - db):
                a[i] -= c * y
    return _trim_mod(a[:db], p)


def _polymod_mul(a, b, f, p):
    """``a b mod (f, p)``, reduced and trimmed: the schoolbook product,
    unreduced, with each cross term formed once for a square (``a is b``),
    then reduced in the same list."""
    if not (a and b):
        return []
    n = len(a)
    out = [0] * (n + len(b) - 1)
    if a is b:
        for i, x in enumerate(a):
            if x:
                out[2 * i] += x * x
                x += x
                for j in range(i + 1, n):
                    out[i + j] += x * a[j]
    else:
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
    return _polymod_reduce(out, f, p)


def _polymod_divmod(a, b, p):
    """Quotient and remainder of ``a`` by ``b`` over Z/p, both reduced and
    trimmed, for the exact divisions that split off a factor (the remainder
    alone is ``_polymod_reduce``'s).

    ``a`` may be unreduced (any integers); ``b`` is reduced mod ``p`` and has
    a leading coefficient invertible mod ``p``.
    """
    a = list(a)
    while a and not a[-1] % p:
        a.pop()
    rem = _polymod_reduce(a, b, p)
    return a[len(b) - 1:], rem


def _polymod_gcd(a, b, p):
    a, b = _trim_mod(a, p), _trim_mod(b, p)
    while b:
        a, b = b, _polymod_reduce(a, b, p)  # a is this loop's own list
    return a


def _rank_mod_p(rows, p):
    """Rank over GF(p) of an integer matrix (Gaussian elimination)."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(rank + 1, len(rows)):
            c = rows[i][col] * inv % p
            if c:
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _factor_counts(coeffs, p):
    """Numbers of irreducible factors of f over GF(p^d), d = 1..n, for f
    squarefree mod p: ``sum gcd(d, f_i) = n - rank(Q^d - I)``, as ``a ->
    a^(p^d)`` fixes the subfields ``F_(p^gcd(d, f_i))`` of the ``F_(p^f_i)``.
    The first count is Berlekamp's (Math. Comp. 24, 1970; Cohen, section
    3.4).  It shares two values with ``_factor_degrees_mod_p``, each reached
    by another method: ``x^p mod f``, which the distinct-degree side reads off
    the sieve's walk of ``x^k mod f`` over Z and this side takes from its own
    square-and-multiply ladder, and the products ``x^(ip) mod f``, the rows of
    ``Q`` here and the Frobenius rows there.  What stays independent is the
    gcd chain there and the rank of ``Q^d - I`` here, with ``x^(p^d)`` from
    the ladder.

    >>> list(_factor_counts([1, 0, 0, 0, 1], 3))  # x^4 + 1: two quadratics mod 3
    [2, 4, 2, 4]
    """
    f = _trim_mod(coeffs, p)
    n = len(f) - 1
    xq = [0, 1]
    for _ in range(n):
        xq = _polymod_pow(xq, p, f, p)  # x^(p^d) mod f; row i of Q^d is xq^i mod f
        power, q_minus_i = [1], []
        for i in range(n):
            row = power + [0] * (n - len(power))
            row[i] -= 1
            q_minus_i.append(row)
            power = _polymod_mul(power, xq, f, p)
        yield n - _rank_mod_p(q_minus_i, p)


def _distinct_degree_parts(f, p, xp):
    """``(k, g_k)``, ``g_k`` the product of the degree-k irreducible factors of
    ``f`` over F_p, for ``f`` reduced and squarefree mod p.

    ``xp`` is ``x^p mod (f, p)``, reduced and trimmed, from the caller (the
    sieve reads it off its walk of ``x^k mod f``); past it, Frobenius is
    F_p-linear, so ``x^(p^k) = sum c_i x^(ip) mod f`` for ``x^(p^(k-1)) = sum
    c_i x^i``: one matrix-vector product with the rows ``x^(ip) mod f``,
    built once at the first ``k = 2`` (Cohen, section 3.4).

    >>> _distinct_degree_parts([1, 0, 0, 0, 1], 3, [0, 0, 0, 1])  # x^4 + 1 mod 3: x^3
    [(2, [1, 0, 0, 0, 1])]
    """
    parts = []
    work = f[:]
    k = 0
    while len(work) > 1:
        k += 1
        if len(work) - 1 < 2 * k:
            # whatever is left is a single irreducible factor
            parts.append((len(work) - 1, work))
            break
        if k == 1:
            xq = xp
        else:
            if k == 2:
                rows = [[1], xq]  # rows[i] = x^(ip) mod f, i < deg f
                while len(rows) < len(f) - 1:
                    rows.append(_polymod_mul(rows[-1], xq, f, p))
            step = [0] * (len(f) - 1)
            for c, row in zip(xq, rows):
                if c:
                    for j, y in enumerate(row):
                        step[j] += c * y
            xq = _trim_mod(step, p)  # x^(p^k) mod f
        g = _polymod_gcd(work, _poly_sub_mod(xq, [0, 1], p), p)
        if len(g) > 1:
            parts.append((k, g))
            work = _polymod_divmod(work, g, p)[0]
    return parts


def _factor_degrees_mod_p(coeffs, p, xp):
    """Degrees (with multiplicity) of the irreducible factors of f mod p,
    given ``xp = x^p mod (f, p)``.

    Only called for p not dividing the discriminant, so f mod p is squarefree
    and distinct-degree factorization determines the degrees exactly.
    """
    parts = _distinct_degree_parts(_trim_mod(coeffs, p), p, xp)
    return [k for k, g in parts for _ in range((len(g) - 1) // k)]


def _powers_of_x(f):
    """``x^k mod f`` over Z for k = 0, 1, 2, ..., ``f`` monic of degree n, as
    lists of n coefficients.  Each step multiplies by x: a shift, then one
    subtraction of the top coefficient times ``f``, exact because ``f`` is
    monic; so ``x^k mod (f, p)`` is the k-th power reduced mod p, for any p.

    >>> list(itertools.islice(_powers_of_x([1, 0, 1]), 6))[5]  # x^5 mod (x^2 + 1)
    [0, 1]
    """
    power = [1] + [0] * (len(f) - 2)
    low, middle = -f[0], [-c for c in f[1:-1]]  # x^n = -(f_0 + ... + f_(n-1) x^(n-1))
    while True:
        yield power
        top = power[-1]
        if top:  # a zero coefficient of f leaves its entry as it is
            power = [top * low] + [a + top * c if c else a for a, c in zip(power, middle)]
        else:
            power = [0] + power[:-1]


def _trial_elements(p):
    """x, x + 1, ..., 2x, ..., x^2, ...: every nonconstant polynomial over F_p."""
    for j in itertools.count(p):
        digits = []
        while j:
            j, d = divmod(j, p)
            digits.append(d)
        yield digits


def _equal_degree_split(g, k, p):
    """The irreducible factors of ``g``, a product of distinct irreducibles of
    degree ``k`` over F_p for an odd prime p (Cantor--Zassenhaus; Cohen,
    section 3.4.3): ``gcd(h, a^((p^k - 1)/2) - 1)`` for the trial ``a``."""
    todo, out = [g], []
    trials = _trial_elements(p)
    while todo:
        h = todo.pop()
        if len(h) - 1 == k:
            out.append(h)
            continue
        b = _polymod_pow(next(trials), (p ** k - 1) // 2, h, p)
        d = _polymod_gcd(h, _poly_sub_mod(b, [1], p), p)
        todo += [d, _polymod_divmod(h, d, p)[0]] if 1 < len(d) < len(h) else [h]
    return out


def _local_idempotents(f, p, parts):
    """``(k, g, e)`` for each irreducible factor ``g`` of degree ``k`` of
    ``f`` mod an odd prime ``p`` (``parts`` from ``_distinct_degree_parts``):
    ``e = (f/g)^(p^k - 1)`` mod ``(f, p)`` is 1 mod ``g`` and 0 mod the other
    factors, as ``f/g`` is a unit mod ``g`` and divisible by them."""
    for k, part in parts:
        for g in _equal_degree_split(part, k, p):
            yield k, g, _polymod_pow(_polymod_divmod(f, g, p)[0], p ** k - 1, f, p)


def _lift_idempotent(e, f, p, big):
    """The idempotent of ``(Z/big)[x]/(f)`` that is ``e`` mod p, for big a
    power of p: Newton's ``e <- e^2 (3 - 2e)``, squaring the modulus."""
    mod = p
    while mod < big:
        mod = min(mod * mod, big)
        e = _polymod_mul(_polymod_mul(e, e, f, mod), _poly_sub_mod([3], [2 * c for c in e], mod),
                         f, mod)
    return e


def _lift_unit_root(y, m, f, p, big):
    """The m-th root of unity in ``(Z/big)[x]/(f)`` that is ``y`` mod p, for
    big a power of p: Newton's ``y <- y - y (y^m - 1)/m``, squaring the modulus."""
    mod = p
    while mod < big:
        mod = min(mod * mod, big)
        step = _polymod_mul(y, _poly_sub_mod(_polymod_pow(y, m, f, mod), [1], mod), f, mod)
        inv = pow(m, -1, mod)
        y = _poly_sub_mod(y, [c * inv for c in step], mod)
    return y


def _power_sums(coeffs):
    """The power sums ``s_k = Tr(theta^k)``, ``k < 2n - 1``, of the roots of
    the monic ``f`` of degree ``n``, by Newton's identities.  Each reads only
    the nonzero coefficients of ``f``, so a binomial costs O(n) steps, not
    O(n^2)."""
    n = len(coeffs) - 1
    terms = [(i, coeffs[n - i]) for i in range(1, n + 1) if coeffs[n - i]]  # ascending i
    s, live = [n], 0  # live: the terms with i < k
    for k in range(1, 2 * n - 1):
        while live < len(terms) and terms[live][0] < k:
            live += 1
        s.append(-(k * coeffs[n - k] if k <= n else 0)
                 - sum(c * s[k - i] for i, c in terms[:live]))
    return s


def _trace_form(coeffs):
    """The dense trace matrix ``T_ij = Tr(theta^(i+j))`` (``_power_sums``),
    and the bounds ``n R^j`` on ``|Tr(alpha theta^j)|`` for a root of unity
    ``alpha``, ``R`` the Cauchy root bound of the monic ``f``."""
    n = len(coeffs) - 1
    s = _power_sums(coeffs)
    r = 1 + max(abs(c) for c in coeffs[:-1])
    return [s[j:j + n] for j in range(n)], [n * r ** j for j in range(n)]


def _poly_sub_mod(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = (out[i] + x) % p
    for i, x in enumerate(b):
        out[i] = (out[i] - x) % p
    return out


def _polymod_pow(base, e, f, p):
    """base(x)^e mod f over Z/p (square and multiply from the top bit, each
    multiply by the reduced base): p prime, or f monic."""
    if not e:
        return [1]
    b = out = _polymod_reduce(list(base), f, p)
    for bit in bin(e)[3:]:
        out = _polymod_mul(out, out, f, p)
        if bit == "1":
            out = _polymod_mul(out, b, f, p)
    return out


# ---------------------------------------------------------------------------
# module-level operation names
# ---------------------------------------------------------------------------


def parse_field(text):
    """Build a NumberField from a polynomial string (monic, irreducible)."""
    return NumberField(parse_polynomial(text))


# A resource bound, not a check: the period of sqrt(D) can grow like sqrt(D).
_MAX_CF_TERMS = 10_000


def fundamental_unit_real_quadratic(field):
    """Fundamental unit of a field ``x^2 - D`` by continued fractions.

    Returns the element ``p + q*theta`` from the first convergent ``p/q`` of
    ``sqrt(D)`` with ``p^2 - D q^2 = +-1``.  Only the radicand presentation
    ``x^2 - D`` (D > 1 squarefree) is supported; other real quadratic
    presentations raise with a distinct message, and so does a period longer
    than ``_MAX_CF_TERMS`` terms.
    """
    if field.degree != 2 or field.r1 != 2:
        raise HypothesisError("fundamental units are computed for real quadratic fields only")
    c0, c1, _ = field.coeffs
    if c1 != 0 or c0 >= 0:
        raise InputError(
            "only the radicand presentation x^2 - D is supported for "
            "fundamental units"
        )
    d = -c0
    for p, e in _factor_multiplicity(d).items():
        if e >= 2:
            raise InputError(f"radicand {d} is not squarefree (divisible by {p}^2)")

    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    p_prev, p_cur = 1, a0
    q_prev, q_cur = 0, 1
    for _ in range(_MAX_CF_TERMS):
        val = p_cur * p_cur - d * q_cur * q_cur
        if val in (1, -1):
            unit = field.element([p_cur, q_cur])
            if unit.norm() not in (1, -1):
                raise CrossCheckError(
                    f"the convergent {p_cur}/{q_cur} of sqrt({d}) gives a unit of "
                    f"norm {unit.norm()}, not +-1"
                )
            return unit
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    raise InputError(
        f"the continued fraction of sqrt({d}) has no unit convergent within "
        f"{_MAX_CF_TERMS} terms"
    )

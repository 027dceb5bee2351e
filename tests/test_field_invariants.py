"""Field invariants against the routes they replaced.

The library reads the discriminant off the trace form, the norm and the
inverse off the multiplication matrix, and each real sign off one Tarski
query.  The references below are the earlier, independent routes: the
Sylvester resultant (discriminant and norm), the extended Euclid inverse in
Q[x], and the sign refinement that bisects an isolating interval until the
element's polynomial has no root in it.  Results must agree by ``repr``.
"""

import math
from fractions import Fraction
from itertools import zip_longest

import pytest
from conftest import (poly_deriv, poly_divmod, poly_gcd, poly_mul, poly_scale, ref_changes_at,
                      ref_sturm_chain)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringkt import numfield
from ringkt.abgrp import _poly_eval, determinant
from ringkt.errors import CrossCheckError
from ringkt.numfield import (
    FieldElement,
    NumberField,
    isolate_real_roots,
    parse_field,
    poly_discriminant,
    poly_trim,
)

# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def _sylvester_resultant(f, g):
    """Res(f, g) for integer polynomials, as the Sylvester determinant."""
    f, g = poly_trim(list(f)), poly_trim(list(g))
    n, m = len(f) - 1, len(g) - 1
    if n < 0 or m < 0:
        return 0
    if m == 0:
        return g[0] ** n
    if n == 0:
        return f[0] ** m
    size = n + m
    fd, gd = list(reversed(f)), list(reversed(g))
    rows = [[0] * i + fd + [0] * (size - n - 1 - i) for i in range(m)]
    rows += [[0] * i + gd + [0] * (size - m - 1 - i) for i in range(n)]
    return determinant(rows)


def _reference_discriminant(coeffs):
    n = len(poly_trim(list(coeffs))) - 1
    res = _sylvester_resultant(coeffs, [i * c for i, c in enumerate(coeffs)][1:])
    return -res if (n * (n - 1) // 2) % 2 else res


def _reference_norm(elem):
    g = poly_trim(list(elem.coeffs))
    if not g:
        return Fraction(0)
    den = math.lcm(*(c.denominator for c in g))
    g_int = [int(c * den) for c in g]
    return Fraction(_sylvester_resultant(elem.field.coeffs, g_int), den ** elem.field.degree)


def _reference_inverse(elem):
    """Extended Euclid in Q[x]: s * elem + t * f = 1."""
    f = [Fraction(c) for c in elem.field.coeffs]
    a, b = list(elem.coeffs), f
    s0, s1 = [Fraction(1)], []
    while poly_trim(b):
        q, r = poly_divmod(a, b)
        a, b = b, r
        qs1 = poly_mul(q, s1)
        s0, s1 = s1, poly_trim([x - y for x, y in zip_longest(s0, qs1, fillvalue=0)])
    inv = poly_scale(s0, Fraction(1) / poly_trim(a)[-1])
    return FieldElement(elem.field, poly_divmod(inv, f)[1])


def _squarefree_part(p):
    """``p`` divided by ``gcd(p, p')``."""
    g = poly_gcd(p, poly_deriv(p))
    return poly_trim(p) if len(g) <= 1 else poly_divmod(p, g)[0]


def _reference_sign_vector(field, elem):
    """Bisect each isolating interval of f until g has no root in it, then
    read the sign of g at the midpoint."""
    g = poly_trim(list(elem.coeffs))
    f = [Fraction(c) for c in field.coeffs]
    if field.degree == 1:
        return (1 if _poly_eval(g, -f[0]) > 0 else -1,)
    fchain = ref_sturm_chain(f)
    gsf = _squarefree_part(g)
    gchain = ref_sturm_chain(gsf) if len(gsf) > 1 else None
    out = []
    for lo, hi in isolate_real_roots(field.coeffs):
        while gchain and ref_changes_at(gchain, lo) - ref_changes_at(gchain, hi) > 0:
            mid = (lo + hi) / 2
            while _poly_eval(f, mid) == 0:
                mid = (lo + mid) / 2
            if ref_changes_at(fchain, lo) - ref_changes_at(fchain, mid) == 1:
                hi = mid
            else:
                lo = mid
        out.append(1 if _poly_eval(g, (lo + hi) / 2) > 0 else -1)
    return tuple(out)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-60, 60), min_size=1, max_size=9).map(lambda c: c + [1]))
def test_discriminant_matches_the_sylvester_route(coeffs):
    assert repr(poly_discriminant(coeffs)) == repr(_reference_discriminant(coeffs))


def test_discriminant_of_a_constant_is_zero():
    assert poly_discriminant([5]) == _reference_discriminant([5]) == 0
    assert poly_discriminant([1, 0, 0]) == 0  # trailing zeros: the constant 1


# degree 1 to 8, real and imaginary, one with a 7-digit coefficient
_FIELDS = [parse_field(p) for p in (
    "x - 3", "x^2 - 3", "x^2 + x + 1", "x^3 - 1000003x + 1", "x^4 - 4x^2 + x + 1",
    "x^5 - 5x + 1", "x^6 + x^3 + 1", "x^7 - 7x + 3", "x^8 - 2",
)]


@st.composite
def _elements(draw):
    field = draw(st.sampled_from(_FIELDS))
    coords = draw(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=200),
                           min_size=field.degree, max_size=field.degree))
    assume(any(coords))
    return field, field.element(coords)


@settings(max_examples=100, deadline=None)
@given(_elements())
def test_norm_and_inverse_match_the_resultant_and_euclid_routes(case):
    field, elem = case
    assert repr(elem.norm()) == repr(_reference_norm(elem))
    assert repr(elem.inverse().coeffs) == repr(_reference_inverse(elem).coeffs)


@settings(max_examples=80, deadline=None)
@given(_elements())
def test_sign_vector_matches_the_refinement_route(case):
    field, elem = case
    got = field.real_sign_vector(elem)
    assert repr(got) == repr(_reference_sign_vector(field, elem))
    assert len(got) == field.r1


def test_norm_of_zero_is_a_zero_fraction():
    k = parse_field("x^3 - 2")
    zero = k.element([0])
    assert repr(zero.norm()) == repr(_reference_norm(zero)) == "Fraction(0, 1)"


# ---------------------------------------------------------------------------
# call-time checks
# ---------------------------------------------------------------------------


def test_sign_parity_disagreeing_with_the_norm_raises(monkeypatch):
    k = parse_field("x^3 - 2")
    a = k.element([-2, 1])  # theta - 2 < 0 at the one real root
    assert k.sign_parity(a) == -1
    monkeypatch.setattr(NumberField, "real_sign_vector", lambda self, elem: (1,))
    with pytest.raises(CrossCheckError, match="sign parity 1 but norm -6"):
        k.sign_parity(a)


def test_sign_parity_with_a_wrong_norm_raises(monkeypatch):
    k = parse_field("x^2 - 2")
    a = k.element([1, 1])
    monkeypatch.setattr(FieldElement, "norm", lambda self: Fraction(1))
    with pytest.raises(CrossCheckError, match="sign parity -1 but norm 1"):
        k.sign_parity(a)


def test_a_tarski_query_other_than_one_raises(monkeypatch):
    k = parse_field("x^2 - 2")
    assert k.real_sign_vector(k.element([1, 1])) == (-1, 1)  # isolates the roots once
    monkeypatch.setattr(numfield, "_chain_changes_at", lambda chain, x: 0)
    with pytest.raises(CrossCheckError, match="Tarski query .* is 0, not"):
        k.real_sign_vector(k.element([1, 1]))

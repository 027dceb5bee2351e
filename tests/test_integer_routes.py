"""Sturm and Tarski chains and products in a field, in integers, against the
Fraction routes they replaced (``ref_signed_remainders``, ``ref_sturm_chain``,
``poly_mul`` and ``reduce_mod`` in ``conftest``).

An integer chain term is a positive multiple of the rational one, so it must
have the same sign at every point; an integer product must give the same
``Fraction`` coordinates.
"""

import math
from fractions import Fraction

import pytest
from conftest import (poly_mul, reduce_mod, ref_changes_at, ref_signed_remainders,
                      ref_sturm_chain)
from hypothesis import given, settings
from hypothesis import strategies as st

from ringkt import abgrp, numfield
from ringkt.abgrp import DirectedSystem, GroupDescriptor, _poly_eval, colimit
from ringkt.errors import InputError
from ringkt.numfield import (_chain_changes_at, _signed_remainders, isolate_real_roots,
                             parse_field, poly_trim, root_bound, signature, sturm_chain)


def _ref_isolate_real_roots(p):
    """The isolation of the library, on the Fraction chain."""
    chain = ref_sturm_chain([Fraction(c) for c in p])
    p = chain[0]
    b = root_bound(p)

    def count(lo, hi):
        return ref_changes_at(chain, lo) - ref_changes_at(chain, hi)

    out = []

    def split(lo, hi, k):
        if k == 1:
            out.append((lo, hi))
        elif k > 1:
            mid = (lo + hi) / 2
            while _poly_eval(p, mid) == 0:
                mid = (lo + mid) / 2
            left = count(lo, mid)
            split(lo, mid, left)
            split(mid, hi, k - left)

    split(-b, b, count(-b, b))
    return out


def _is_positive_multiple(p, q):
    """Is ``p`` a positive rational multiple of ``q``?"""
    return (len(p) == len(q) and (p[-1] > 0) == (q[-1] > 0)
            and all(a * q[-1] == b * p[-1] for a, b in zip(p, q)))


def _ref_power(elem, e):
    """``elem^e`` by square and multiply with ``poly_mul`` and ``reduce_mod``."""
    f, n = elem.field.coeffs, elem.field.degree
    base = elem.inverse() if e < 0 else elem
    out, base, e = [Fraction(1)], list(base.coeffs), abs(e)
    while e:
        if e & 1:
            out = reduce_mod(poly_mul(out, base), f)
        base = reduce_mod(poly_mul(base, base), f)
        e >>= 1
    return tuple(out + [Fraction(0)] * (n - len(out)))


# Sparse coefficients make degree gaps (even deg a - deg b) and repeated roots.
_COEFF = st.one_of(st.integers(-3, 3), st.sampled_from([0, 0, 0]),
                   st.fractions(-7, 7, max_denominator=6))
_POLY = st.lists(_COEFF, min_size=1, max_size=6).filter(lambda c: c[-1] != 0)
_FIELDS = [parse_field(p) for p in ("x^2 - 3", "x^3 - x - 7", "x^4 - 10x^2 + 1",
                                    "x^4 + 1", "x^5 - 5x + 1")]


@settings(max_examples=15, deadline=None)
@given(p=_POLY, q=_POLY, square=st.lists(_COEFF, min_size=1, max_size=3).filter(lambda c: c[-1] != 0),
       points=st.lists(st.fractions(-9, 9, max_denominator=12), min_size=1, max_size=4),
       field=st.sampled_from(_FIELDS), data=st.data())
def test_integer_routes_match_the_fraction_routes(p, q, square, points, field, data):
    # chains: term by term a positive multiple, primitive past q; equal counts
    ip = numfield._integer_multiple(p)
    iq = numfield._integer_multiple(q)
    chain = _signed_remainders(ip, iq)
    ref = ref_signed_remainders([Fraction(c) for c in p], [Fraction(c) for c in q])
    assert len(chain) == len(ref)
    assert all(_is_positive_multiple(a, b) for a, b in zip(chain, ref))
    assert all(math.gcd(*c) == 1 for c in chain[2:])
    with_square = poly_trim(poly_mul(poly_mul(square, square), p))  # a repeated root
    polys = [poly for poly in (p, with_square) if len(poly) > 1]
    for poly in polys:
        ints, fracs = sturm_chain(poly), ref_sturm_chain([Fraction(c) for c in poly])
        for x in points:
            assert _chain_changes_at(ints, x) == ref_changes_at(fracs, x)
    for poly in polys:
        assert isolate_real_roots(poly) == _ref_isolate_real_roots(poly)
    # products and powers in K, coordinates with denominators
    n = field.degree
    coords = st.lists(st.fractions(-20, 20, max_denominator=9), min_size=n, max_size=n)
    a = field.element(data.draw(coords.filter(any)))
    b = field.element(data.draw(coords))
    want = reduce_mod(poly_mul(list(a.coeffs), list(b.coeffs)), field.coeffs)
    assert (a * b).coeffs == tuple(want + [Fraction(0)] * (n - len(want)))
    for e in (data.draw(st.integers(-3, 7)), 0, 1):
        assert (a ** e).coeffs == _ref_power(a, e)


class _NoProducts(Fraction):
    """A Fraction that refuses to multiply or divide."""

    def _refuse(self, *args):
        raise AssertionError("Fraction product in numfield")

    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = __floordiv__ = __mod__ = _refuse
    __divmod__ = __pow__ = _refuse


def test_chains_and_products_make_no_fraction_product(monkeypatch):
    """Every Fraction numfield builds refuses products, and the chain and
    product routines are fed integers only, while fields that take every
    route (the exact roots-of-unity hit, the idempotent search of x^4 + 1
    and x^8 + 1, real signs) are parsed and read."""
    monkeypatch.setattr(numfield, "Fraction", _NoProducts)
    for name in ("_signed_remainders", "_reduce_monic", "_int_mul", "_homogeneous_value"):
        original = getattr(numfield, name)

        def only_integers(*args, _original=original):
            for arg in args:
                assert all(type(c) is int for c in (arg if isinstance(arg, (list, tuple))
                                                    else [arg]))
            return _original(*args)

        monkeypatch.setattr(numfield, name, only_integers)
    answers = {"x^4 + 1": 8, "x^8 + 1": 16, "x^4 - x^2 + 1": 12, "x^6 + x^3 + 1": 18,
               "x^2 + 5": 2, "x^3 - 2": 2, "x^4 - 10x^2 + 1": 2}
    for poly, w in answers.items():
        k = parse_field(poly)
        assert k.roots_of_unity_order == w
        if k.r1:
            signs = k.real_sign_vector(k.element([Fraction(1, 3), -1, Fraction(2, 5)]))
            assert len(signs) == k.r1
        half = k.element([Fraction(1, 2), 1])
        assert half * half * 3 == 3 * half ** 2 and (half ** -2) * half ** 2 == k.element([1])


@pytest.mark.parametrize("coeffs", [[1, 0, -2, 0, 1], [4, 0, 4, 0, 1], [0, 0, 1],
                                    [Fraction(1, 4), -1, 1]])
def test_signature_refuses_a_repeated_root(coeffs):
    # (x^2 - 1)^2 and (x^2 + 2)^2 have an even number of non-real roots,
    # x^2 and (x - 1/2)^2 an odd one
    assert len(ref_sturm_chain([Fraction(c) for c in coeffs])[0]) < len(coeffs)
    with pytest.raises(InputError, match="non-squarefree"):
        signature(coeffs)


def test_signature_of_a_rational_polynomial():
    assert signature([Fraction(-1, 2), 0, Fraction(1, 3)]) == (2, 0)  # x^2/3 - 1/2
    assert signature([Fraction(1, 3), 0, 0, Fraction(-1, 2)]) == (1, 1)  # 1/3 - x^3/2


def test_the_bisections_read_each_point_of_a_chain_once(monkeypatch):
    """Both Sturm bisections pass the sign changes at their endpoints down:
    within one isolation, one eigenvalue split, and one sign vector, no
    (chain, point) pair is read twice."""
    seen = []
    read = numfield._chain_changes_at
    monkeypatch.setattr(numfield, "_chain_changes_at", lambda chain, x: seen.append(
        (tuple(map(tuple, chain)), x)) or read(chain, x))
    phi60 = [1, 0, 1, 0, 0, 0, -1, 0, -1, 0, -1, 0, 0, 0, 1, 0, 1]
    polys = {"x^16 + x^14 - x^10 - x^8 - x^6 + x^2 + 1": phi60, "x^8 + 1": [1] + [0] * 7 + [1],
             "x^4 - 10x^2 + 1": [1, 0, -10, 0, 1],
             "(x - 1)(x - 2)...(x - 6)": [720, -1764, 1624, -735, 175, -21, 1]}
    for name, poly in polys.items():
        seen.clear()
        intervals = isolate_real_roots(poly)
        assert intervals == _ref_isolate_real_roots(poly), name
        assert len(seen) == len(set(seen)), name
    assert len(intervals) == 6

    # a sign vector reads its Tarski chain once at an endpoint two intervals share
    k = parse_field("x^4 - 10x^2 + 1")
    ends = [x for interval in k._intervals for x in interval]
    seen.clear()
    assert k.real_sign_vector(k.element([0, 1])) == (-1, -1, 1, 1)
    assert (len(ends), len(set(ends))) == (8, 5)
    assert len(seen) == len(set(seen)) == 5

    split = abgrp._eigen_powers
    per_call = []

    def recording(t):
        seen.clear()
        out = split(t)
        per_call.append(list(seen))
        return out

    monkeypatch.setattr(abgrp, "_eigen_powers", recording)
    system = DirectedSystem.from_family(2, lambda d: [[2 * d - 1, 1 - d], [2 * d - 2, 2 - d]])
    assert colimit(system).invariants == GroupDescriptor(free_rank=1, q_rank=1)
    assert per_call and max(map(len, per_call)) > 2
    assert all(len(points) == len(set(points)) for points in per_call)

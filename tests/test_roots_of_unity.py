"""Roots of unity: the sieve-first search and the routes that back each verdict.

The search runs the exact norm-descent test only on candidate orders the
residue-field sieve cannot refute, so the agreement of the two routes on
refuted candidates is checked here, candidate by candidate.
"""

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringkt import numfield
from ringkt.errors import CrossCheckError
from ringkt.numfield import _ResidueSieve, _root_of_unity_candidates, parse_field

# (field, w): imaginary quadratics with and without extra roots of unity and
# the cyclotomic fields of orders 8, 5, 12, 9 and 7.
AGREEMENT_TABLE = [
    ("x^2 + 1", 4),
    ("x^2 + x + 1", 6),
    ("x^2 + 2", 2),
    ("x^2 + 7", 2),
    ("x^4 + 1", 8),
    ("x^4 + x^3 + x^2 + x + 1", 10),
    ("x^4 - x^2 + 1", 12),
    ("x^6 + x^3 + 1", 18),
    ("x^6 + x^5 + x^4 + x^3 + x^2 + x + 1", 14),
]


@pytest.mark.parametrize("poly,w", AGREEMENT_TABLE, ids=[p for p, _ in AGREEMENT_TABLE])
def test_routes_agree_on_every_candidate(poly, w):
    k = parse_field(poly)
    sieve = _ResidueSieve(k.coeffs, k.disc)
    for m in _root_of_unity_candidates(k.degree):
        exact = k._contains_primitive_root(m)
        assert exact == (w % m == 0), m
        witness = sieve.witness(m)
        if witness is not None:
            assert not exact, m
            sieve.check_witness(m, *witness)
    # The golden value, through the sieve-first search.
    assert k.roots_of_unity_order == w


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(st.integers(-30, 30), min_size=1, max_size=9).map(lambda c: c + [1]),
    p=st.sampled_from([3, 5, 7, 11, 13, 31, 97, 211]),
)
def test_residue_degrees_match_gf_p_factorization(coeffs, p):
    # the sieve's table entry for p against sympy's factorization over GF(p)
    assume(numfield.poly_discriminant(coeffs) % p)
    poly = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"), modulus=p)
    expect = sorted(f.degree() for f, mult in poly.factor_list()[1] for _ in range(mult))
    assert sorted(numfield._factor_degrees_mod_p(coeffs, p)) == expect


def _expr_route_norm(k, m):
    """The norm as it was once built, on ``Expr`` with ``subs``: the first
    squarefree ``Res_x(f(x), Phi_m(y - s x))`` over the fixed shift order."""
    x, y = sympy.symbols("x y")
    f_expr = sum(int(c) * x ** i for i, c in enumerate(k.coeffs))
    phi = sympy.cyclotomic_poly(m, y)
    for s in (1, -1, 2, -2, 3, -3, 5, -5, 7, -7):
        norm = sympy.Poly(sympy.resultant(f_expr, phi.subs(y, y - s * x), x), y)
        if sympy.degree(sympy.gcd(norm, norm.diff(y)), y) == 0:
            return norm


@pytest.mark.parametrize("poly,w", AGREEMENT_TABLE, ids=[p for p, _ in AGREEMENT_TABLE])
def test_norm_on_poly_matches_the_expr_route(poly, w, monkeypatch):
    # Same first squarefree shift, same norm, hence the same factors are read.
    k = parse_field(poly)
    seen = []
    original = sympy.factor_list

    def recorded(norm, *args, **kwargs):
        seen.append(norm)
        return original(norm, *args, **kwargs)

    monkeypatch.setattr(sympy, "factor_list", recorded)
    for m in _root_of_unity_candidates(k.degree):
        seen.clear()
        assert k._contains_primitive_root(m) == (w % m == 0)
        reference = _expr_route_norm(k, m)
        assert seen == [reference]
        assert original(seen[0]) == original(reference)


def test_roots_of_unity_golden_x8_plus_1():
    # Candidates 30, 24 and 20 are refuted by the sieve; only 16 runs exact.
    assert parse_field("x^8 + 1").roots_of_unity_order == 16


def test_sieve_tests_the_first_fifty_unramified_primes_not_dividing_m():
    k = parse_field("x^4 + 1")
    sieve = _ResidueSieve(k.coeffs, k.disc)
    for m in (12, 10, 8):
        want = [p for p in sympy.primerange(3, 1000) if m % p and k.disc % p][:50]
        assert list(sieve._primes_for(m)) == want


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(sympy, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sympy, name, counted)
    return calls


def test_exact_route_runs_only_on_survivors(monkeypatch):
    cyclotomic = _count_calls(monkeypatch, "cyclotomic_poly")
    factor_list = _count_calls(monkeypatch, "factor_list")
    # Both candidates 6 and 4 of x^2 + 7 are refuted by witnesses.
    assert parse_field("x^2 + 7").roots_of_unity_order == 2
    assert cyclotomic == [] and factor_list == []
    # 12 and 10 are refuted; the one exact test is on the answer 8.  The
    # witness re-checks factor over GF(p) without calling sympy.factor_list.
    assert parse_field("x^4 + 1").roots_of_unity_order == 8
    assert [args[0] for args in cyclotomic] == [8]
    assert len(factor_list) == 1


# ---------------------------------------------------------------------------
# fault injection: every CrossCheckError path of the search
# ---------------------------------------------------------------------------


def test_false_witness_degrees_raise(monkeypatch):
    # x^4 + 1 mod 3 factors as two quadratics; the false pattern [1, 1, 1, 1]
    # refutes the true order 8 (3 - 1 = 2) and, unchecked, gives w = 2.
    honest = numfield._factor_degrees_mod_p

    def lying(coeffs, p):
        return [1, 1, 1, 1] if p == 3 else honest(coeffs, p)

    monkeypatch.setattr(numfield, "_factor_degrees_mod_p", lying)
    with pytest.raises(CrossCheckError, match="mod 3 disagree"):
        parse_field("x^4 + 1").roots_of_unity_order


def test_false_exact_hit_on_a_surviving_candidate_raises(monkeypatch):
    # A table that refutes nothing lets 12 survive the sieve, and the exact
    # route claims a root of order 12; the spot check of the table at the
    # first prime read for 12 (p = 5, two quadratic factors) contradicts it.
    # The irreducibility proof would read the false [4] at p = 3 first, and
    # Berlekamp's count would stop it there (see test_irreducibility.py), so
    # the proof is skipped to let the lie reach the survivor check.
    monkeypatch.setattr(numfield, "_factor_degrees_mod_p", lambda coeffs, p: [4])
    monkeypatch.setattr(_ResidueSieve, "proves_irreducible", lambda self: True)
    monkeypatch.setattr(numfield.NumberField, "_contains_primitive_root",
                        lambda self, m: True)
    with pytest.raises(CrossCheckError, match="mod 5 disagree"):
        parse_field("x^4 + 1").roots_of_unity_order


def test_witness_that_does_not_refute_raises(monkeypatch):
    # The degrees at 5 are right ([2, 2]), but 12 divides 5^2 - 1.
    honest = _ResidueSieve.witness

    def wrong(self, m):
        honest(self, m)  # fills the table as the real search does
        return 5, 2

    monkeypatch.setattr(_ResidueSieve, "witness", wrong)
    with pytest.raises(CrossCheckError, match=r"\(p=5, f=2\) does not refute .* order 12"):
        parse_field("x^4 + 1").roots_of_unity_order

"""Residue rows on demand: the two early stops of the residue sieve.

Musser's certificate stops once the possible factor degrees stall while an
odd prime read has at most two residue factors (``STALL_PRIMES``), and the
sieve for a likely true order stops, after ``WITNESS_WAIT * n`` primes, at the
first admissible prime with one residue factor.  The same sieve with both
stops switched off reads every row it read before them, and is the oracle:
every answer must be the same.  The census rows keep the fields whose
certificate path the stops change inside a deadline.
"""

import pytest
import sympy
from conftest import cyclotomic, deadline, int_poly_mul
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringkt.errors import InputError
from ringkt.numfield import NumberField, _ResidueSieve, parse_field, parse_polynomial


def _answers(coeffs):
    """What a caller sees: the refusal text, or (r1, r2) and w."""
    try:
        k = NumberField(coeffs)
    except InputError as exc:
        return str(exc)
    return (k.r1, k.r2), k.roots_of_unity_order


def _answers_without_stops(coeffs):
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(_ResidueSieve, "STALL_PRIMES", _ResidueSieve.IRREDUCIBILITY_PRIMES)
        patched.setattr(_ResidueSieve, "WITNESS_WAIT", _ResidueSieve.PRIME_COUNT)
        return _answers(coeffs)


_MONIC = st.lists(st.integers(-20, 20), min_size=2, max_size=8).map(lambda c: c + [1])
_FACTOR = st.lists(st.integers(-20, 20), min_size=1, max_size=4).map(lambda c: c + [1])
_PRODUCTS = st.tuples(_FACTOR, _FACTOR).map(lambda ab: int_poly_mul(*ab))

# The fields of the benchmark's `fields` workload: the fixed cyclotomic and
# totally real ones, and one of each seeded family (pure, real and imaginary
# quadratic).
BENCH_TABLE = [
    "x^2 + 1", "x^2 + x + 1", "x^4 + 1", "x^4 + x^3 + x^2 + x + 1", "x^4 - x^2 + 1",
    "x^6 + x^3 + 1", "x^6 + x^5 + x^4 + x^3 + x^2 + x + 1", "x^8 + 1",
    "x^3 - 3x + 1", "x^3 - x^2 - 2x + 1", "x^4 - 4x^2 + 2",
    "x^3 - 2", "x^3 - 13", "x^4 - 3", "x^5 - 5", "x^6 - 7", "x^2 - 5", "x^2 + 7",
]


def _with_examples(test):
    for poly in reversed(BENCH_TABLE):
        test = example(coeffs=parse_polynomial(poly))(test)
    return test


@settings(max_examples=40, deadline=None)
@given(coeffs=st.one_of(_MONIC, _PRODUCTS))
@_with_examples
def test_the_stops_change_no_answer(coeffs):
    assert _answers(coeffs) == _answers_without_stops(coeffs)


def test_the_stall_stop_reads_fewer_rows_for_the_same_search():
    # x^4 - 10x^2 + 1 (Q(sqrt 2, sqrt 3)): no prime is inert, so no row proves
    # it irreducible; the search runs at 5 (two residue factors) either way.
    coeffs = parse_polynomial("x^4 - 10x^2 + 1")
    k = NumberField(coeffs)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(_ResidueSieve, "STALL_PRIMES", _ResidueSieve.IRREDUCIBILITY_PRIMES)
        full = NumberField(coeffs)
    assert len(full._sieve.table) == _ResidueSieve.IRREDUCIBILITY_PRIMES
    assert len(k._sieve.table) < len(full._sieve.table)
    for sieve in (k._sieve, full._sieve):
        possible, read = sieve._open_degrees
        assert min((q for q in read if q > 2), key=lambda q: (len(sieve.table[q]), q)) == 5
    assert k.roots_of_unity_order == 2


def test_phi7_true_order_from_one_exact_test_after_2n_primes(monkeypatch):
    # Phi_7, n = 6: candidates 18, 14, 6 and 4.  18 has a witness; 14 reads
    # the first 2n = 12 primes not dividing 14 without one, then stops at the
    # next inert prime (order 6 mod 7), where 14 | p^6 - 1.  The one exact
    # test is on the answer, and it lifts at 3, the smallest inert prime.
    calls, lifts = [], []
    contains, lift = NumberField._contains_primitive_root, NumberField._lift_primitive_root
    monkeypatch.setattr(NumberField, "_contains_primitive_root",
                        lambda self, m: calls.append(m) or contains(self, m))
    monkeypatch.setattr(NumberField, "_lift_primitive_root",
                        lambda self, m, p: lifts.append(p) or lift(self, m, p))
    k = parse_field("x^6 + x^5 + x^4 + x^3 + x^2 + x + 1")
    assert k.roots_of_unity_order == 14
    assert calls == [14] and lifts == [3]
    unramified = [p for p in sympy.primerange(3, 1000) if p != 7]
    n = 6
    stop = next(i for i, p in enumerate(unramified) if i >= 2 * n and p % 7 in (3, 5))
    assert list(k._sieve._primes_for(14)) == unramified[:stop + 1]
    assert max(k._sieve.table) == unramified[stop]  # no row past the stop was built


# ---------------------------------------------------------------------------
# census: parse plus w of the fields whose certificate path the stops change
# ---------------------------------------------------------------------------


CENSUS = [
    ("Phi48", cyclotomic(48), (0, 8), 48),
    ("Phi60", cyclotomic(60), (0, 8), 60),
    ("x^12 - x^6 + 1", parse_polynomial("x^12 - x^6 + 1"), (0, 6), 36),
    ("x^32 + 1", parse_polynomial("x^32 + 1"), (0, 16), 64),
    ("x^4 - 10x^2 + 1", parse_polynomial("x^4 - 10x^2 + 1"), (4, 0), 2),
]


@pytest.mark.parametrize("name,coeffs,signature,w", CENSUS, ids=[c[0] for c in CENSUS])
def test_census_parse_and_w_within_the_deadline(name, coeffs, signature, w):
    with deadline(2):
        k = NumberField(coeffs)
        assert (k.r1, k.r2) == signature
        assert k.roots_of_unity_order == w


def test_census_cyclotomic_polynomials_match_sympy():
    x = sympy.Symbol("x")
    for m in (48, 60):
        assert cyclotomic(m) == [int(c) for c in
                                  reversed(sympy.Poly(sympy.cyclotomic_poly(m, x)).all_coeffs())]
    assert cyclotomic(36) == parse_polynomial("x^12 - x^6 + 1")

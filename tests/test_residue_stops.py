"""Residue rows on demand: the two early stops of the residue sieve.

Musser's certificate stops once the possible factor degrees stall while an
odd prime read has at most two residue factors (``STALL_PRIMES``), and the
sieve for a likely true order stops, after ``WITNESS_WAIT * n`` primes, at the
first admissible prime with at most two residue factors, where the exact lift
reads back at most phi(m) sums.  The same sieve with both
stops switched off reads every row it read before them, and is the oracle:
every answer must be the same.  The census rows keep the fields whose
certificate path the stops change, a field of degree 1200, two fields whose
witness primes have residue degrees up to 37 and 60, and the refusal of a
degree above ``numfield._MAX_DEGREE`` inside a deadline.
"""

import pytest
import sympy
from conftest import cyclotomic, deadline, int_poly_mul
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringkt import numfield
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
    contains, lift = _ResidueSieve._contains_primitive_root, _ResidueSieve._lift_primitive_root
    monkeypatch.setattr(_ResidueSieve, "_contains_primitive_root",
                        lambda self, m: calls.append(m) or contains(self, m))
    monkeypatch.setattr(_ResidueSieve, "_lift_primitive_root",
                        lambda self, m, p: lifts.append(p) or lift(self, m, p))
    k = parse_field("x^6 + x^5 + x^4 + x^3 + x^2 + x + 1")
    assert k.roots_of_unity_order == 14
    assert calls == [14] and lifts == [3]
    unramified = [p for p in sympy.primerange(3, 1000) if p != 7]
    n = 6
    stop = next(i for i, p in enumerate(unramified) if i >= 2 * n and p % 7 in (3, 5))
    assert list(k._sieve._primes_for(14)) == unramified[:stop + 1]
    assert max(k._sieve.table) == unramified[stop]  # no row past the stop was built


@pytest.mark.parametrize("poly,w,lift_prime", [("x^4 + 1", 8, 3), ("x^4 - x^2 + 1", 12, 5),
                                                ("x^8 + 1", 16, 3)])
def test_true_order_without_an_inert_prime_stops_after_2n_primes(poly, w, lift_prime, monkeypatch):
    # No unramified prime is inert in these fields, but every one not dividing
    # w has at most two residue factors and is admissible (w | p^f - 1 for
    # every residue degree f).  So the sieve for w reads the first 2n primes
    # and the next one, not 50, and builds no row past them.  The one exact
    # test is on the answer, at the smallest prime with the fewest factors.
    calls, lifts = [], []
    contains, lift = _ResidueSieve._contains_primitive_root, _ResidueSieve._lift_primitive_root
    monkeypatch.setattr(_ResidueSieve, "_contains_primitive_root",
                        lambda self, m: calls.append(m) or contains(self, m))
    monkeypatch.setattr(_ResidueSieve, "_lift_primitive_root",
                        lambda self, m, p: lifts.append(p) or lift(self, m, p))
    k = parse_field(poly)
    assert k.roots_of_unity_order == w
    assert calls == [w] and lifts == [lift_prime]
    n = k.degree
    unramified = [p for p in sympy.primerange(3, 1000) if k.disc % p]
    assert list(k._sieve._primes_for(w)) == unramified[:2 * n + 1]
    assert sorted(k._sieve.table) == unramified[:2 * n + 1]


def test_the_true_order_stop_waits_for_at_most_two_residue_factors(monkeypatch):
    # x^6 + 3 (w = 6) has no inert prime either.  Past the first 2n = 12
    # primes, 47 splits it into three residue factors and 79 is the first with
    # two, so the sieve for 6 stops at 79, not 47, and not at the 50th prime.
    lifts = []
    lift = _ResidueSieve._lift_primitive_root
    monkeypatch.setattr(_ResidueSieve, "_lift_primitive_root",
                        lambda self, m, p: lifts.append(p) or lift(self, m, p))
    k = parse_field("x^6 + 3")
    assert k.roots_of_unity_order == 6 and lifts == [7]
    read = list(k._sieve._primes_for(6))
    assert read[12] == 47 and k._sieve.table[47] == [2, 2, 2]
    assert read[-1] == 79 and k._sieve.table[79] == [3, 3]
    assert all(len(k._sieve.table[p]) > 2 for p in read[12:-1])
    assert max(k._sieve.table) == 79


@pytest.mark.parametrize("poly,w,factors", [("x^6 + x^5 + x^4 + x^3 + x^2 + x + 1", 14, 1),
                                            ("x^4 + 1", 8, 2)])
def test_the_lift_forms_only_the_powers_it_reads(poly, w, factors, monkeypatch):
    # The first residue field's root is fixed, so its lifted z is read as z
    # alone; each other field walks z^2, ..., z^(w-1) by successive products
    # mod (f, p^k), w - 2 of them, after its own lift.  Phi_7 lifts at 3, one
    # residue factor: no product mod p^k but Newton's.  x^4 + 1 lifts at 3,
    # two factors: six products follow the second lift, and none the first.
    events, newton = [], []
    lift_root, mul = numfield._lift_unit_root, numfield._polymod_mul

    def lifted(*args):
        newton.append(1)
        z = lift_root(*args)
        newton.pop()
        events.append("lift")
        return z

    def product(a, b, f, p):
        if not newton:
            events.append(p)
        return mul(a, b, f, p)

    monkeypatch.setattr(numfield, "_lift_unit_root", lifted)
    monkeypatch.setattr(numfield, "_polymod_mul", product)
    k = parse_field(poly)
    big = k._sieve._local_factors(3)[0]
    events.clear()
    assert k.roots_of_unity_order == w
    walk = [big] * (w - 2) if factors > 1 else []
    assert [e for e in events if e in ("lift", big)] == ["lift"] * factors + walk


@pytest.mark.parametrize("poly,w", [("x^4 - x^2 + 1", 12), ("x^8 - x^4 + 1", 24),
                                    ("x^12 - x^6 + 1", 36)])
def test_both_exact_searches_share_one_trace_form(poly, w, monkeypatch):
    # No Eisenstein certificate and no row prove these irreducible, so parse
    # runs the idempotent search and w runs the lift: two setups, and the
    # trace form is built once for them; the discriminant reads only the
    # power sums.
    built, setups = [], []
    trace_form, local = numfield._trace_form, _ResidueSieve._local_factors
    monkeypatch.setattr(numfield, "_trace_form",
                        lambda coeffs: built.append(1) or trace_form(coeffs))
    monkeypatch.setattr(_ResidueSieve, "_local_factors",
                        lambda self, p: setups.append(p) or local(self, p))
    k = parse_field(poly)
    assert k.roots_of_unity_order == w
    assert len(setups) == 2 and len(built) == 1


# ---------------------------------------------------------------------------
# census: parse plus w of the fields whose certificate path the stops change,
# a field of high degree, and the refusal of a degree above the bound
# ---------------------------------------------------------------------------


CENSUS = [
    ("Phi48", cyclotomic(48), (0, 8), 48),
    ("Phi60", cyclotomic(60), (0, 8), 60),
    ("x^12 - x^6 + 1", parse_polynomial("x^12 - x^6 + 1"), (0, 6), 36),
    ("x^32 + 1", parse_polynomial("x^32 + 1"), (0, 16), 64),
    ("x^4 - 10x^2 + 1", parse_polynomial("x^4 - 10x^2 + 1"), (4, 0), 2),
    # Eisenstein at 2: no residue row at parse, and w = 2 for a real field
    ("x^1200 - 2", parse_polynomial("x^1200 - 2"), (2, 599), 2),
    # witnesses with residue degrees up to 37 and 60: the degree check reads
    # only the divisors of the degrees read
    ("x^60 + x + 1", parse_polynomial("x^60 + x + 1"), (0, 30), 2),
    ("x^300 + 2", parse_polynomial("x^300 + 2"), (0, 150), 2),
]


@pytest.mark.parametrize("name,coeffs,signature,w", CENSUS, ids=[c[0] for c in CENSUS])
def test_census_parse_and_w_within_the_deadline(name, coeffs, signature, w):
    with deadline(2):
        k = NumberField(coeffs)
        assert (k.r1, k.r2) == signature
        assert k.roots_of_unity_order == w


def test_census_a_degree_above_the_bound_is_refused_within_the_deadline():
    coeffs = parse_polynomial("x^20000 - 2")
    with deadline(2), pytest.raises(InputError, match="degree 20000 is above the limit of 5000"):
        NumberField(coeffs)


def test_census_cyclotomic_polynomials_match_sympy():
    x = sympy.Symbol("x")
    for m in (48, 60):
        assert cyclotomic(m) == [int(c) for c in
                                  reversed(sympy.Poly(sympy.cyclotomic_poly(m, x)).all_coeffs())]
    assert cyclotomic(36) == parse_polynomial("x^12 - x^6 + 1")

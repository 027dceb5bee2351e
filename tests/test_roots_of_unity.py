"""Roots of unity: the sieve-first search and the routes that back each verdict.

The search runs the exact test, a p-adic lift checked in the field, only on
candidate orders the residue-field sieve cannot refute, so the agreement of
the routes on refuted candidates is checked here, candidate by candidate.  An
independent oracle, Trager's norm descent with sympy (resultants and
factorization over Q), checks the lift on the smaller fields.
"""

import itertools

import pytest
import sympy
from conftest import poly_divmod, poly_mul, walked_xp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringkt import numfield
from ringkt.errors import CrossCheckError
from ringkt.ktheory import classify_A
from ringkt.numfield import _ResidueSieve, _root_of_unity_candidates, parse_field

# (field, w): imaginary quadratics with and without extra roots of unity and
# the cyclotomic fields of orders 8, 5, 12, 9 and 7.
SMALL_TABLE = [
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
# ... and those of orders 16, 24 and 36, where the norm descent took seconds.
AGREEMENT_TABLE = SMALL_TABLE + [
    ("x^8 + 1", 16),
    ("x^8 - x^4 + 1", 24),
    ("x^12 - x^6 + 1", 36),
]


def _euler_phi(m):
    out = 1
    for p, e in numfield._factor_multiplicity(m).items():
        out *= p ** (e - 1) * (p - 1)
    return out


def test_candidates_match_the_brute_force_list():
    # Every even m with phi(m) | n is at most 2 n^2 (phi(m) >= sqrt(m / 2)),
    # so the scan of all even m <= 2 n^2 + 2 is the whole list.
    phi = {m: _euler_phi(m) for m in range(4, 2 * 120 * 120 + 3, 2)}
    for n in range(1, 121):
        want = [m for m in range(2 * n * n + 2, 3, -2) if n % phi[m] == 0]
        assert _root_of_unity_candidates(n) == want, n


@pytest.mark.parametrize("poly,w", AGREEMENT_TABLE, ids=[p for p, _ in AGREEMENT_TABLE])
def test_routes_agree_on_every_candidate(poly, w):
    k = parse_field(poly)
    sieve = _ResidueSieve(k.coeffs, k.disc)
    for m in _root_of_unity_candidates(k.degree):
        exact = k._sieve._contains_primitive_root(m)
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
    assert sorted(numfield._factor_degrees_mod_p(coeffs, p, walked_xp(coeffs, p))) == expect


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


def _gcd_degree_in_k(k, phi_coeffs, h_coeffs, s):
    """Degree of the gcd over the field of Phi_m(y) and h(y + s*theta)."""
    s_theta = k.element([0, s])
    hk = [h_coeffs[-1]]
    for a in reversed(h_coeffs[:-1]):  # Horner in K[y]: hk * (y + s*theta) + a
        hk = poly_mul(hk, [s_theta, 1])
        hk[0] += a
    a, b = phi_coeffs, hk  # Euclid in K[y]; only the degree matters
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return len(a) - 1


def _trager_contains(k, m):
    """The oracle: Trager's norm descent.  For a shift ``s`` making ``N(y) =
    Res_x(f(x), Phi_m(y - s x))`` squarefree, the degree-n irreducible factors
    of ``N`` over Q are the norms of the linear factors of ``Phi_m`` over the
    field, that is, of its roots in the field; a gcd in the field confirms
    the first one."""
    x, y = sympy.symbols("x y")
    zy = sympy.ZZ[y]  # polynomials in x over Z[y]: the resultant eliminates x
    f_poly = sympy.Poly(list(reversed(k.coeffs)), x, domain=zy)
    phi = sympy.cyclotomic_poly(m, y, polys=True)
    phi_coeffs = [int(c) for c in reversed(phi.all_coeffs())]
    for s in (1, -1, 2, -2, 3, -3, 5, -5, 7, -7):
        shift = sympy.Poly.from_list([-s, zy.gens[0]], x, domain=zy)  # y - s*x
        phi_shifted = sympy.Poly(0, x, domain=zy)
        for c in reversed(phi_coeffs):  # Horner: Phi_m(y - s*x)
            phi_shifted = phi_shifted * shift + c
        # Poly.resultant would turn the element of Z[y] into an Expr.
        norm = sympy.Poly(f_poly.rep.resultant(phi_shifted.rep).to_dense(), y)
        if sympy.degree(sympy.gcd(norm, norm.diff(y)), y) > 0:
            continue
        for factor, _mult in sympy.factor_list(norm)[1]:
            if sympy.degree(factor, y) == k.degree:
                h = [int(c) for c in reversed(sympy.Poly(factor, y).all_coeffs())]
                assert _gcd_degree_in_k(k, phi_coeffs, h, s) == 1, (k.coeffs, m)
                return True
        return False
    raise AssertionError(f"no squarefree norm for order {m}")


@pytest.mark.parametrize("poly,w", SMALL_TABLE, ids=[p for p, _ in SMALL_TABLE])
def test_norm_on_poly_matches_the_expr_route(poly, w, monkeypatch):
    # The oracle's norm on Poly is the norm of the Expr route: same first
    # squarefree shift, same norm, hence the same factors are read.
    k = parse_field(poly)
    seen = []
    original = sympy.factor_list

    def recorded(norm, *args, **kwargs):
        seen.append(norm)
        return original(norm, *args, **kwargs)

    monkeypatch.setattr(sympy, "factor_list", recorded)
    for m in _root_of_unity_candidates(k.degree):
        seen.clear()
        assert _trager_contains(k, m) == (w % m == 0)
        reference = _expr_route_norm(k, m)
        assert seen == [reference]
        assert original(seen[0]) == original(reference)


def _admissible_primes(k, m):
    """The unramified primes p not dividing m with ``m | p^f - 1`` for every
    residue degree f: where the lift of a primitive m-th root can run."""
    sieve = _ResidueSieve(k.coeffs, k.disc)
    for p in sieve._unramified():
        if m % p and all(pow(p, f, m) == 1 for f in sieve.table[p]):
            yield p


@pytest.mark.parametrize("poly,w", SMALL_TABLE, ids=[p for p, _ in SMALL_TABLE])
def test_lift_forced_at_the_first_admissible_primes(poly, w):
    # Every candidate, the refuted ones included, at its first three
    # admissible primes: the lift agrees with w and with the oracle.
    k = parse_field(poly)
    for m in _root_of_unity_candidates(k.degree):
        expect = w % m == 0
        assert _trager_contains(k, m) == expect, m
        for p in itertools.islice(_admissible_primes(k, m), 3):
            root = k._sieve._lift_primitive_root(m, p)
            assert (root is not None) == expect, (m, p)
            if root is not None:
                root = k.element(root)
                assert (root ** m - 1).is_zero
                assert all(root ** (m // q) - 1 for q in numfield._factor_multiplicity(m))


def test_a_residue_field_without_mth_roots_gives_no_lift():
    # 5 splits x^2 + 1 into two residue fields GF(5), whose units have order
    # 4, so no primitive 8th root lives there and no lift is tried
    k = parse_field("x^2 + 1")
    assert k._sieve._lift_primitive_root(8, 5) is None
    assert k._sieve._lift_primitive_root(4, 5) in ([0, 1], [0, -1])


def test_roots_of_unity_golden_x8_plus_1():
    # Candidates 30, 24 and 20 are refuted by the sieve; only 16 runs exact.
    assert parse_field("x^8 + 1").roots_of_unity_order == 16


def test_sieve_tests_the_first_fifty_unramified_primes_not_dividing_m(monkeypatch):
    # With the true order's stop switched off; with it, the sieve for 8 stops
    # after 2n primes (test_residue_stops.py).
    monkeypatch.setattr(_ResidueSieve, "WITNESS_WAIT", _ResidueSieve.PRIME_COUNT)
    k = parse_field("x^4 + 1")
    sieve = _ResidueSieve(k.coeffs, k.disc)
    for m in (12, 10, 8):
        want = [p for p in sympy.primerange(3, 1000) if m % p and k.disc % p][:50]
        assert list(sieve._primes_for(m)) == want


def _record_exact_tests(monkeypatch):
    calls = []
    original = numfield._ResidueSieve._contains_primitive_root

    def counted(self, m):
        calls.append(m)
        return original(self, m)

    monkeypatch.setattr(numfield._ResidueSieve, "_contains_primitive_root", counted)
    return calls


def test_exact_route_runs_only_on_survivors(monkeypatch):
    calls = _record_exact_tests(monkeypatch)
    # Both candidates 6 and 4 of x^2 + 7 are refuted by witnesses.
    assert parse_field("x^2 + 7").roots_of_unity_order == 2
    assert calls == []
    # 12 and 10 are refuted; the one exact test is on the answer 8.
    assert parse_field("x^4 + 1").roots_of_unity_order == 8
    assert calls == [8]


def test_a_no_on_a_survivor_is_confirmed_by_a_further_witness(monkeypatch):
    # With one sieve prime, 6 and 4 survive for x^2 + 7: 5 is inert, and both
    # divide 5^2 - 1.  The lift at 5 finds no root of either order, and the
    # split prime 11 (11 != 1 mod 6, 11 != 1 mod 4) confirms both refusals.
    monkeypatch.setattr(_ResidueSieve, "PRIME_COUNT", 1)
    calls = _record_exact_tests(monkeypatch)
    assert parse_field("x^2 + 7").roots_of_unity_order == 2
    assert calls == [6, 4]


# ---------------------------------------------------------------------------
# fault injection: every CrossCheckError path of the search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lie,match", [
    ([1, 1, 1, 1], "mod 3 disagree"),
    ([2], r"mod 3 disagree: .* \[2\], which do not sum"),
], ids=["all-linear", "dropped-factor"])
def test_false_witness_degrees_raise(monkeypatch, lie, match):
    # x^4 + 1 mod 3 factors as two quadratics; the false pattern [1, 1, 1, 1]
    # refutes the true order 8 (3 - 1 = 2) and, unchecked, gives w = 2; [2]
    # drops a factor and fails the degree sum.
    honest = numfield._factor_degrees_mod_p

    def lying(coeffs, p, xp):
        return lie if p == 3 else honest(coeffs, p, xp)

    monkeypatch.setattr(numfield, "_factor_degrees_mod_p", lying)
    with pytest.raises(CrossCheckError, match=match):
        parse_field("x^4 + 1").roots_of_unity_order


def test_false_factor_count_over_gf_p2_raises(monkeypatch):
    # x^4 + 1 is two quadratics mod 3, the witness against order 10, so the
    # degree check reads the counts over GF(3) and GF(3^2).  A count over
    # GF(3^2) that does not fit the degrees [2, 2] stops the search; the
    # count over GF(p) stays honest.
    honest = numfield._factor_counts

    def lying(coeffs, p, ds):
        return [c + (p == 3 and d == 2) for d, c in zip(ds, honest(coeffs, p, ds))]

    monkeypatch.setattr(numfield, "_factor_counts", lying)
    with pytest.raises(CrossCheckError, match=r"mod 3 disagree: .* d = \[1, 2\]"):
        parse_field("x^4 + 1").roots_of_unity_order


def _sieve_at(poly, p):
    """A fresh sieve of ``poly`` whose table reaches ``p``."""
    coeffs = numfield.parse_polynomial(poly)
    sieve = _ResidueSieve(coeffs, numfield.poly_discriminant(coeffs))
    sieve.frobenius_at(p)
    return sieve


def _partitions(n, most=None):
    if n == 0:
        yield []
        return
    for k in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield [k] + rest


@pytest.mark.parametrize("poly,p,row", [
    ("x^6 + x^5 + x^4 + x^3 + x^2 + x + 1", 11, [3, 3]),  # Phi7: the witness against 18
    ("x^8 + 1", 7, [2, 2, 2, 2]),  # the witness against 30 and 20
])
def test_every_other_partition_at_a_witness_prime_raises(poly, p, row):
    sieve = _sieve_at(poly, p)
    assert sieve.table[p] == row
    sieve._confirm_degrees(p)
    others = [part for part in _partitions(sum(row)) if sorted(part) != row]
    assert len(others) == {6: 10, 8: 21}[sum(row)]
    for part in others:
        sieve.table[p] = part
        sieve._confirmed.discard(p)
        with pytest.raises(CrossCheckError, match=f"mod {p} disagree"):
            sieve._confirm_degrees(p)


def test_the_degree_sum_is_a_premise_of_the_check():
    # x^3 - 2 = (x - 3)(x^2 + 3x + 4) mod 5.  [1, 1] has D = {1} and the same
    # count over GF(5), 2, so only the sum refutes it.
    sieve = _sieve_at("x^3 - 2", 5)
    assert sieve.table[5] == [1, 2]
    assert numfield._factor_counts(sieve.coeffs, 5, [1]) == [2]
    sieve.table[5] = [1, 1]
    with pytest.raises(CrossCheckError, match="mod 5 disagree: .* do not sum to the degree 3"):
        sieve._confirm_degrees(5)


def test_the_degree_check_ranks_only_at_the_divisors_of_the_degrees(monkeypatch):
    # x^4 + 1 is [2, 2] mod 3: D = {1, 2}, so two ranks, not four
    counts, rank = [], numfield._rank_mod_p

    def spy(rows, p):
        r = rank(rows, p)
        counts.append(len(rows) - r)
        return r

    monkeypatch.setattr(numfield, "_rank_mod_p", spy)
    sieve = _sieve_at("x^4 + 1", 3)
    assert sieve.table[3] == [2, 2]
    sieve._confirm_degrees(3)
    assert counts == [2, 4]  # the factors over GF(3) and GF(3^2)


def test_false_exact_hit_on_a_surviving_candidate_raises(monkeypatch):
    # A table that refutes nothing lets 12 survive the sieve, and the exact
    # route claims a root of order 12; the spot check of the table at the
    # first prime read for 12 (p = 5, two quadratic factors) contradicts it.
    # The irreducibility proof would read the false [4] at p = 3 first, and
    # Berlekamp's count would stop it there (see test_irreducibility.py), so
    # the proof is skipped to let the lie reach the survivor check.
    monkeypatch.setattr(numfield, "_factor_degrees_mod_p", lambda coeffs, p, xp: [4])
    monkeypatch.setattr(_ResidueSieve, "proves_irreducible", lambda self: True)
    monkeypatch.setattr(numfield._ResidueSieve, "_contains_primitive_root",
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


def test_lift_that_finds_nothing_raises(monkeypatch):
    # Q(i) contains i, so no residue witness refutes the order 4: a lift that
    # finds nothing is a fault, not an answer.  Believing it would give w = 2
    # and let classify_A accept Q(i).
    monkeypatch.setattr(numfield._ResidueSieve, "_lift_primitive_root",
                        lambda self, m, p: None)
    with pytest.raises(CrossCheckError, match="no root of unity of order 4, but no residue witness"):
        parse_field("x^2 + 1").roots_of_unity_order
    with pytest.raises(CrossCheckError):
        classify_A(parse_field("x^2 + 1"))

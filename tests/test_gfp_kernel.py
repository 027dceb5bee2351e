"""The GF(p)[x] kernel behind the residue-degree table, against a plain
reference kernel kept here: every step of a division reduced mod p, and
x^(p^k) mod f recomputed by square and multiply at each degree.  Remainders,
powers mod f and the distinct-degree parts are unique, so the two kernels must
agree object for object, on unreduced dividends and on composite moduli p^k
(monic f) as the p-adic lifts use them.  The rank mod p behind Berlekamp's
counts is checked against sympy's rank over GF(p)."""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from ringkt import numfield
from ringkt.numfield import _poly_sub_mod, _trim_mod

PRIMES = [p for p in range(2, 2000) if all(p % q for q in range(2, int(p ** 0.5) + 1))]
COEFFICIENT = st.integers(-10 ** 6, 10 ** 6)


def ref_divmod(a, b, p):
    a = _trim_mod(a, p)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    quot = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db:
        c = a[-1] * inv % p
        shift = len(a) - 1 - db
        quot[shift] = c
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - c * y) % p
        while a and not a[-1]:
            a.pop()
    return quot, a


def ref_mul(a, b, f, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_divmod(out, f, p)[1]


def ref_pow(base, e, f, p):
    out = [1]
    b = ref_divmod(base, f, p)[1]
    while e:
        if e & 1:
            out = ref_mul(out, b, f, p)
        b = ref_mul(b, b, f, p)
        e >>= 1
    return out


def ref_gcd(a, b, p):
    a, b = _trim_mod(a, p), _trim_mod(b, p)
    while b:
        a, b = b, ref_divmod(a, b, p)[1]
    return a


def ref_distinct_degree_parts(f, p):
    parts = []
    work = f[:]
    k = 0
    xq = [0, 1]
    while len(work) > 1:
        k += 1
        xq = ref_pow(xq, p, f, p)
        if len(work) - 1 < 2 * k:
            parts.append((len(work) - 1, work))
            break
        g = ref_gcd(work, _poly_sub_mod(xq, [0, 1], p), p)
        if len(g) > 1:
            parts.append((k, g))
            work = ref_divmod(work, g, p)[0]
    return parts


@st.composite
def monic(draw):
    n = draw(st.integers(1, 12))
    return draw(st.lists(COEFFICIENT, min_size=n, max_size=n)) + [1]


@settings(max_examples=60, deadline=None)
@given(f=monic(), p=st.sampled_from(PRIMES), k=st.integers(1, 3), scale=st.integers(1, 10 ** 6),
       a=st.lists(COEFFICIENT, max_size=26), b=st.lists(COEFFICIENT, max_size=14),
       e=st.integers(0, 5000))
def test_kernel_matches_the_reference(f, p, k, scale, a, b, e):
    # divmod: an unreduced dividend by a reduced divisor, monic or not
    for divisor in (_trim_mod(f, p), _trim_mod([scale * c for c in f], p)):
        if divisor:
            assert numfield._polymod_divmod(a, divisor, p) == ref_divmod(a, divisor, p)
    # gcd of the unreduced draws
    assert numfield._polymod_gcd(a, b, p) == ref_gcd(a, b, p)
    # mul (a square too: one list as both operands) and pow mod (f, p^k), f
    # monic and unreduced
    q = p ** k
    assert numfield._polymod_mul(a, b, f, q) == ref_mul(a, b, f, q)
    assert numfield._polymod_mul(a, a, f, q) == ref_mul(a, a, f, q)
    assert numfield._polymod_pow(a, e, f, q) == ref_pow(a, e, f, q)
    # the distinct-degree parts of f mod p, squarefree
    g = _trim_mod(f, p)
    assume(len(ref_gcd(g, [i * c for i, c in enumerate(g)][1:], p)) == 1)
    assert numfield._distinct_degree_parts(g, p, ref_pow([0, 1], p, g, p)) == \
        ref_distinct_degree_parts(g, p)


def _sieve_rows(f, count):
    """The first ``count`` rows of f's residue-degree table, as the sieve builds them."""
    sieve = numfield._ResidueSieve(f, numfield.poly_discriminant(f))
    return sieve, list(itertools.islice(sieve._unramified(), count))


@settings(max_examples=4, deadline=None)
@given(f=monic())
def test_walked_frobenius_matches_the_ladder(f):
    # x^p mod (f, p) off the walk of x^k mod f over Z, at each of the first 60
    # primes, against square and multiply; each row built from the walk's x^p
    # against the row built from the ladder's.
    powers = numfield._powers_of_x(f)
    ladder = {p: ref_pow([0, 1], p, f, p) for p in PRIMES[:60]}
    for k, power in zip(range(PRIMES[59] + 1), powers):
        if k in ladder:
            assert _trim_mod(power, k) == ladder[k]
    assume(numfield.poly_discriminant(f))
    sieve, read = _sieve_rows(f, 60)
    for p in (p for p in read if p in ladder):
        assert sieve.frobenius[p] == ladder[p]
        assert sieve.table[p] == numfield._factor_degrees_mod_p(f, p, ladder[p])


def test_walk_of_a_large_coefficient_field():
    # x^12 + 10^20 x + 7 to 250 rows (p up to 1621): the walk's coefficients
    # reach thousands of bits, yet every 25th row's x^p is the ladder's.
    f = [7, 10 ** 20] + [0] * 10 + [1]
    sieve, read = _sieve_rows(f, 250)
    assert len(read) == 250 and read[-1] > 1600
    for p in read[::25] + read[-1:]:
        assert sieve.frobenius[p] == ref_pow([0, 1], p, f, p)
        assert sum(sieve.table[p]) == 12


MATRIX = st.integers(1, 9).flatmap(
    lambda c: st.lists(st.lists(st.integers(-50, 50), min_size=c, max_size=c), max_size=9))


@settings(max_examples=80, deadline=None)
@given(rows=MATRIX, p=st.sampled_from(PRIMES[:30]), mix=st.lists(st.integers(-3, 3), max_size=9))
def test_rank_mod_p_matches_sympy(rows, p, mix):
    if rows:  # and a row that depends on the others
        rows = rows + [[sum(k * row[j] for k, row in zip(mix, rows)) for j in range(len(rows[0]))]]
    copy = [row[:] for row in rows]
    want = DomainMatrix.from_list(rows, GF(p)).rank() if rows else 0
    assert numfield._rank_mod_p(rows, p) == want
    assert rows == copy

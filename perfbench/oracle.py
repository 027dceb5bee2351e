"""Known answers computed without the code under test.

Small exact integer helpers the benchmark uses to build inputs whose answers
it knows by construction (unimodular conjugators, U.D.V products, primes) and
to check results (matrix products, determinants, field norms, invariant
factor chains of small orders).
"""

import math
from fractions import Fraction


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def determinant(a):
    """Exact determinant by Fraction elimination."""
    n = len(a)
    rows = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        p = rows[col][col]
        det *= p
        for i in range(col + 1, n):
            f = rows[i][col] / p
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return det


def unimodular_pair(rng, n, steps, coeffs=(-2, -1, 1, 2)):
    """A seeded unimodular integer matrix P and its inverse.

    P is a product of elementary matrices E = I + c e_ij; the inverse is the
    product of the inverse factors in reverse order, so no inversion is done.
    """
    p = identity(n)
    p_inv = identity(n)
    if n < 2:
        sign = rng.choice((-1, 1))
        return [[sign]] if n else [], [[sign]] if n else []
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(coeffs)
        for row in p:               # P <- P E: column j += c * column i
            row[j] += c * row[i]
        p_inv[i] = [x - c * y for x, y in zip(p_inv[i], p_inv[j])]  # E^-1 P^-1
    return p, p_inv


def is_prime(n):
    if n < 2:
        return False
    for f in range(2, math.isqrt(n) + 1):
        if n % f == 0:
            return False
    return True


def prime_in_window(rng, lo, hi, avoid=()):
    """A seeded prime in [lo, hi) different from every prime in ``avoid``."""
    while True:
        n = rng.randrange(lo, hi) | 1
        if n not in avoid and is_prime(n):
            return n


def _prime_exponents(x):
    out = {}
    f = 2
    while f * f <= x:
        while x % f == 0:
            out[f] = out.get(f, 0) + 1
            x //= f
        f += 1
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


def invariant_chain(orders):
    """Ascending invariant factors of a direct sum of cyclic groups.

    Only for the small orders the generators produce (2, 3, 5 and products).
    """
    exps = {}
    for x in orders:
        if x > 1:
            for p, e in _prime_exponents(x).items():
                exps.setdefault(p, []).append(e)
    if not exps:
        return ()
    for lst in exps.values():
        lst.sort(reverse=True)
    slots = max(len(v) for v in exps.values())
    out = []
    for s in range(slots):
        f = 1
        for p, lst in exps.items():
            if s < len(lst):
                f *= p ** lst[s]
        out.append(f)
    return tuple(sorted(out))


def poly_mul_mod(a, b, f):
    """Product of two polynomials (ascending ints) modulo monic ``f``."""
    n = len(f) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for k in range(len(out) - 1, n - 1, -1):
        c = out[k]
        if c:
            for i in range(n + 1):
                out[k - n + i] -= c * f[i]
    return (out + [0] * n)[:n]


def field_norm(coeffs, elem):
    """Norm of ``elem`` (power-basis ints) in Q[x]/(f): det of multiplication."""
    n = len(coeffs) - 1
    cols = []
    for j in range(n):
        basis = [0] * j + [1]
        cols.append(poly_mul_mod(elem, basis, coeffs))
    mat = [[cols[j][i] for j in range(n)] for i in range(n)]
    return determinant(mat)


def sign_of_sqrt_form(a, b, d):
    """Sign of a + b*sqrt(d) for integers a, b and d > 1 not a square."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        s = a if a else b
        return 1 if s > 0 else -1
    # opposite signs: the larger magnitude decides
    if a * a > b * b * d:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1

"""Shared exact-arithmetic test helpers."""

import contextlib
import faulthandler
import itertools
import random
import signal
from fractions import Fraction

from ringkt.abgrp import _poly_eval, as_int_matrix, mat_mul, mat_shape
from ringkt.errors import CrossCheckError, InputError
from ringkt.numfield import _powers_of_x, _trim_mod, poly_trim

# ---------------------------------------------------------------------------
# Polynomials over Q (or over a field, with ``FieldElement`` coefficients):
# the Fraction routes the library's integer Sturm chains and products in K
# replaced, kept as test-local references.
# ---------------------------------------------------------------------------


def poly_degree(p):
    p = poly_trim(p)
    return len(p) - 1 if p else -1


def poly_neg(p):
    return [-c for c in p]


def poly_scale(p, c):
    return poly_trim([x * c for x in p])


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def poly_divmod(p, q):
    q = poly_trim(q)
    if not q:
        raise InputError("polynomial division by zero")
    p = poly_trim(p)
    dq = len(q) - 1
    inv = Fraction(1) / q[-1]
    quot = [Fraction(0)] * max(0, len(p) - dq)
    while len(p) - 1 >= dq and p:
        shift = len(p) - 1 - dq
        c = p[-1] * inv
        quot[shift] = c
        for i, y in enumerate(q):
            p[shift + i] -= c * y
        p = poly_trim(p)
    return poly_trim(quot), p


def poly_deriv(p):
    return poly_trim([Fraction(i) * Fraction(c) for i, c in enumerate(p)][1:])


def reduce_mod(p, f):
    """``p mod f`` over Q, trimmed."""
    _, r = poly_divmod([Fraction(c) for c in p], [Fraction(c) for c in f])
    return r


def ref_signed_remainders(p, q):
    """The signed remainder sequence ``p, q, -rem(p, q), ...`` over Q."""
    chain = [poly_trim(p), poly_trim(q)]
    while chain[-1]:
        chain.append(poly_neg(poly_divmod(chain[-2], chain[-1])[1]))
    return [c for c in chain if c]


def ref_sturm_chain(p):
    """The Sturm chain over Q: the signed remainder sequence of ``(p, p')``,
    every term divided by its last when that is nonconstant."""
    chain = ref_signed_remainders(p, poly_deriv(p))
    g = chain[-1]
    if len(g) == 1:
        return chain
    out = []
    for c in chain:
        q, r = poly_divmod(c, g)
        if r:
            raise CrossCheckError(f"gcd(p, p') does not divide the Sturm chain: remainder {r}")
        out.append(q)
    return out


def ref_changes_at(chain, x):
    """Sign changes of a rational chain at ``x``, by Horner in ``Fraction``s."""
    signs = [v > 0 for v in (_poly_eval(c, x) for c in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def poly_gcd(p, q):
    a, b = poly_trim(p), poly_trim(q)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        a = poly_scale(a, Fraction(1) / a[-1])
    return a


def walked_xp(coeffs, p):
    """x^p mod (f, p) as the residue sieve reads it, off the walk of x^k mod f."""
    return _trim_mod(next(itertools.islice(_powers_of_x(coeffs), p, None)), p)


def int_poly_mul(a, b):
    """The product of two integer polynomials, untrimmed."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def cyclotomic(m):
    """Phi_m in ascending coefficients: x^m - 1 divided by Phi_d for d | m, d < m."""
    out = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            out = poly_divmod(out, cyclotomic(d))[0]
    return [int(c) for c in out]


def identity_matrix(k):
    """The dense ``k x k`` integer identity."""
    return [[int(i == j) for j in range(k)] for i in range(k)]


def bareiss_determinant(a):
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination: the dense route ``abgrp.determinant`` replaced, kept as the
    oracle."""
    m, n = mat_shape(a)
    if m != n:
        raise InputError("determinant needs a square matrix")
    mat = as_int_matrix(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if mat[i][k]), None)
            if piv is None:
                return 0
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def random_int_matrix(rng, max_side=8, lo=-50, hi=50):
    m = rng.randint(1, max_side)
    n = rng.randint(1, max_side)
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def check_smith_form(a, u, d, v):
    """Assert the full Smith normal form contract for a = u d v."""
    m, n = mat_shape(a)
    assert mat_shape(u) == (m, m)
    assert mat_shape(d) == (m, n)
    assert mat_shape(v) == (n, n)
    # u and v are unimodular
    assert abs(bareiss_determinant(u)) == 1
    assert abs(bareiss_determinant(v)) == 1
    # d is diagonal and nonnegative
    diag = []
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
            elif i == j:
                assert d[i][j] >= 0
    diag = [d[i][i] for i in range(min(m, n))]
    # divisibility chain (zeroes only at the end)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    # the decomposition reproduces a exactly
    assert mat_mul(mat_mul(u, d), v) == [list(map(int, row)) for row in a]


def hnf_basis(vectors):
    """The Hermite normal form of the lattice spanned by the integer
    ``vectors``, by sympy's ``hermite_normal_form``, as a list of vectors
    (its columns); ``[]`` for the zero lattice.  At full rank a nonzero
    maximal minor is a multiple of the lattice's determinant, and sympy then
    works modulo it (Cohen's *Course*, Algorithm 2.4.8), so large entries
    cost no growth."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import hermite_normal_form
    from sympy.polys.matrices import DomainMatrix

    if not any(map(any, vectors)):
        return []
    m = Matrix(vectors).T
    dm = DomainMatrix.from_Matrix(m).convert_to(ZZ)
    _, cols = dm.to_field().rref()
    det = abs(int(dm.extract(list(range(m.rows)), list(cols)).det())) if len(cols) == m.rows else None
    h = hermite_normal_form(m, D=det)
    return [[int(x) for x in h.col(j)] for j in range(h.cols)]


def in_lattice(hnf, vec):
    """True iff the integer vector ``vec`` is an integer combination of the
    vectors ``hnf``, a Hermite normal form as ``hnf_basis`` gives it (each
    vector zero past its pivot, pivots rising).  Back-substitution from the
    last pivot, so ``vec``'s entries may be of any size."""
    vec = list(vec)
    for row in reversed(hnf):
        c = max(j for j, x in enumerate(row) if x)
        q, r = divmod(vec[c], row[c])
        if r:
            return False
        vec = [x - q * y for x, y in zip(vec, row)]
    return not any(vec)


def random_unimodular(rng, n, steps=8):
    """A random unimodular n x n integer matrix and its inverse.

    Each step negates a row or adds a multiple of one row to another; the
    inverse takes the opposite column operation, so no inversion is needed.
    """
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            u[i] = [-x for x in u[i]]
            for row in u_inv:
                row[i] = -row[i]
        else:
            q = rng.randint(-3, 3)
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
            for row in u_inv:
                row[j] -= q * row[i]
    return u, u_inv


@contextlib.contextmanager
def deadline(seconds):
    """Fail a block that runs past ``seconds`` of wall time instead of
    letting it hang.

    ``signal.setitimer`` raises ``TimeoutError`` in the block (main thread
    only).  Python handles a signal only between bytecodes, so a block stuck
    in one long integer operation (entries that grow without bound) is not
    interrupted that way; ``faulthandler`` then dumps every thread's stack
    and ends the process ``seconds + 10`` seconds after the deadline.
    """
    def expire(signum, frame):
        raise TimeoutError

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    faulthandler.dump_traceback_later(2 * seconds + 10, exit=True)
    try:
        yield
    except TimeoutError:
        # A fresh exception: the interrupted frame may have no line number,
        # which pytest cannot render.
        raise TimeoutError(f"still running after {seconds} s") from None
    finally:
        faulthandler.cancel_dump_traceback_later()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def trimmed_laws(laws):
    """Laws ``(diag, cells)`` to compare as polynomials: each law's
    coefficients as ``Fraction``s with no zero above the degree (a None law
    stays None), and the cells sorted, less those zero on both classes."""
    def trimmed(law):
        if law is None:
            return None
        out = []
        for coeffs in law:
            coeffs = list(map(Fraction, coeffs))
            while len(coeffs) > 1 and not coeffs[-1]:
                coeffs.pop()
            out.append(tuple(coeffs))
        return tuple(out)

    diag, cells = laws
    return ([trimmed(law) for law in diag],
            sorted((r, c, trimmed(law)) for r, c, law in cells
                   if law is None or any(map(any, law))))


def seeded_rng(name):
    """Deterministic RNG per test, keyed by a label."""
    return random.Random(f"ringkt::{name}")


def numpy_real_root_count(coeffs):
    """Floating-point oracle: distinct real roots of a squarefree integer
    polynomial (ascending coefficients), or None when numerically ambiguous."""
    import numpy as np

    roots = np.roots(list(reversed([float(c) for c in coeffs])))
    if any(1e-9 < abs(r.imag) < 1e-4 for r in roots):
        return None  # numerically ambiguous; the caller skips these
    return sum(1 for r in roots if abs(r.imag) <= 1e-9)

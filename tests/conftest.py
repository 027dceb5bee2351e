"""Shared exact-arithmetic test helpers."""

import random

from ringkt.abgrp import determinant, mat_mul, mat_shape


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
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
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

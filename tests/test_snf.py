"""Property tests for the Smith normal form behind ``smith_normal_form``,
``kernel_lattice_basis`` and ``cokernel``.

Reference: ``_tracked_u_snf`` below, the elimination that carried ``u``
through every row operation.  The library now rebuilds ``u`` once from
``a @ v^-1`` and a log of the row operations, with the same pivots, so every
output must be the same object for object.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_rng
from ringkt import abgrp
from ringkt.abgrp import (
    GroupDescriptor,
    _is_unimodular,
    _sparse_rows,
    as_int_matrix,
    cokernel,
    identity_matrix,
    kernel_lattice_basis,
    mat_mul,
    mat_shape,
    smith_normal_form,
)
from ringkt.errors import CrossCheckError


def _tracked_u_snf(a):
    """``(u, d, v, v^-1)`` with ``u`` updated inside the elimination loop."""
    m, n = mat_shape(a)
    d = as_int_matrix(a)
    u = identity_matrix(m)
    v = identity_matrix(n)
    vi = identity_matrix(n)

    def row_swap(r, s):
        d[r], d[s] = d[s], d[r]
        for row in u:
            row[r], row[s] = row[s], row[r]

    def row_negate(r):
        d[r] = [-x for x in d[r]]
        for row in u:
            row[r] = -row[r]

    def row_add(r, s, q):
        d[r] = [x + q * y for x, y in zip(d[r], d[s])]
        for row in u:
            row[s] -= q * row[r]

    def col_swap(c, s):
        for row in d:
            row[c], row[s] = row[s], row[c]
        v[c], v[s] = v[s], v[c]
        for row in vi:
            row[c], row[s] = row[s], row[c]

    def col_add(c, s, q):
        for row in d:
            row[c] += q * row[s]
        v[s] = [x - q * y for x, y in zip(v[s], v[c])]
        for row in vi:
            row[c] += q * row[s]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = d[i][j]
                if x and (best is None or abs(x) < abs(best[0])):
                    best = (x, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        p = d[t][t]
        dirty = False
        for i in range(t + 1, m):
            if d[i][t] % p:
                row_add(i, t, -(d[i][t] // p))
                dirty = True
        if dirty:
            continue
        for j in range(t + 1, n):
            if d[t][j] % p:
                col_add(j, t, -(d[t][j] // p))
                dirty = True
        if dirty:
            continue
        for i in range(t + 1, m):
            if d[i][t]:
                row_add(i, t, -(d[i][t] // p))
        for j in range(t + 1, n):
            if d[t][j]:
                col_add(j, t, -(d[t][j] // p))
        stray = next(
            ((i, j) for i in range(t + 1, m) for j in range(t + 1, n) if d[i][j] % p),
            None,
        )
        if stray is not None:
            row_add(t, stray[0], 1)
            continue
        if d[t][t] < 0:
            row_negate(t)
        t += 1
    return u, d, v, vi


def assert_matches_reference(a):
    """``smith_normal_form``, ``kernel_lattice_basis`` and ``cokernel`` of
    ``a`` equal what the tracked-u reference gives, repr for repr."""
    m, n = mat_shape(a)
    u, d, v, vi = _tracked_u_snf(a)
    assert repr(smith_normal_form(a)) == repr((u, d, v))
    free = [j for j in range(n) if j >= min(m, n) or d[j][j] == 0]
    assert repr(kernel_lattice_basis(a)) == repr([[vi[i][j] for i in range(n)] for j in free])
    diag = [d[i][i] for i in range(min(m, n))]
    want = GroupDescriptor(free_rank=m - sum(1 for x in diag if x),
                           torsion=[x for x in diag if x > 1])
    assert repr(cokernel(a)) == repr(want)


@st.composite
def snf_matrices(draw):
    """Integer matrices up to 9 x 9 with entries in +-1, +-50 or +-10^6, at a
    drawn density, with some rows and columns forced to zero and, at times,
    a row replaced by a combination of two others (rank deficiency)."""
    m = draw(st.integers(1, 9))
    n = draw(st.integers(1, 9))
    bound = draw(st.sampled_from((1, 50, 10**6)))
    density = draw(st.sampled_from((1, 3, 6, 10)))
    cells = draw(st.lists(st.integers(-bound, bound), min_size=m * n, max_size=m * n))
    keep = draw(st.lists(st.integers(0, 9), min_size=m * n, max_size=m * n))
    a = [[x if k < density else 0 for x, k in zip(cells[i * n:(i + 1) * n], keep[i * n:(i + 1) * n])]
         for i in range(m)]
    if m > 1 and draw(st.booleans()):
        i, k, l = (draw(st.integers(0, m - 1)) for _ in range(3))
        c = draw(st.integers(-3, 3))
        a[i] = [c * x + y for x, y in zip(a[k], a[l])] if i not in (k, l) else [0] * n
    for i in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        a[i] = [0] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in a:
            row[j] = 0
    return a


@settings(max_examples=100, deadline=None)
@given(snf_matrices())
def test_snf_matches_tracked_u_reference(a):
    assert_matches_reference(a)


@pytest.mark.parametrize("rank", [40, 30])
def test_snf_matches_tracked_u_reference_at_side_40(rank):
    rng = seeded_rng(f"snf-side-40-rank-{rank}")
    a = [[rng.randint(-50, 50) for _ in range(40)] for _ in range(rank)]
    while len(a) < 40:
        x, y = rng.sample(range(rank), 2)
        c = rng.randint(-2, 2)
        a.append([p + c * q for p, q in zip(a[x], a[y])])
    rng.shuffle(a)
    assert_matches_reference(a)


@settings(max_examples=60, deadline=None)
@given(snf_matrices())
def test_snf_contract(a):
    m, n = mat_shape(a)
    u, d, v = smith_normal_form(a)
    assert mat_shape(u) == (m, m) and mat_shape(d) == (m, n) and mat_shape(v) == (n, n)
    assert _is_unimodular(_sparse_rows(u)) and _is_unimodular(_sparse_rows(v))
    assert all(d[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    diag = [d[i][i] for i in range(min(m, n))]
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert y == 0 if x == 0 else y % x == 0
    assert mat_mul(mat_mul(u, d), v) == a


def test_rebuilt_u_checks_the_division(monkeypatch):
    # A diagonal entry that does not divide its column of a @ v^-1 is caught
    # when u is rebuilt, not returned as a wrong u.
    real = abgrp._snf

    def lying(a, **track):
        d, v, vi_cols, log = real(a, **track)
        d[0][0] *= 3
        return d, v, vi_cols, log

    monkeypatch.setattr(abgrp, "_snf", lying)
    with pytest.raises(CrossCheckError, match=r"not divisible by d\[0\]\[0\]"):
        smith_normal_form([[2, 4], [6, 8]])


def _full_matrix_cokernel(a):
    """``cokernel`` by the route that eliminated the whole matrix, zero rows
    and zero columns included."""
    return abgrp._diagonal_cokernel(abgrp._snf(as_int_matrix(a))[0])[1]


@st.composite
def padded_matrices(draw):
    """A random integer matrix with zero rows and zero columns inserted at
    random positions."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = draw(st.lists(st.lists(st.integers(-20, 20), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, len(a[0])))
        for row in a:
            row.insert(j, 0)
    for _ in range(draw(st.integers(0, 3))):
        a.insert(draw(st.integers(0, len(a))), [0] * len(a[0]))
    return a


@settings(max_examples=80, deadline=None)
@given(padded_matrices())
def test_cokernel_of_the_support_matches_the_full_matrix(a):
    assert repr(cokernel(a)) == repr(_full_matrix_cokernel(a))


@pytest.mark.parametrize("a, want", [
    ([[0]], "Z"),
    ([[0, 0, 0], [0, 0, 0]], "Z^2"),
    ([[0, 0], [0, 0], [0, 0]], "Z^3"),
    ([[0, 0, 0, 0], [0, 0, -6, 0]], "Z + Z/6"),
    ([[0, 0], [0, 0], [0, 1]], "Z^2"),
    ([[0, 2, 0, 4, 0], [0, 0, 0, 0, 0], [0, 6, 0, 8, 0]], "Z + Z/2 + Z/4"),
    ([[2, 0, 4, 0, 0, 0], [0, 0, 0, 0, 3, 0]], "Z/6"),
])
def test_cokernel_fixed_cases(a, want):
    # all-zero matrices give Z^m; one nonzero cell; non-square m x n
    assert str(cokernel(a)) == want == str(_full_matrix_cokernel(a))

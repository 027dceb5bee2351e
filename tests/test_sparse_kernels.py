"""Property tests for the sparse matrix kernels behind ``mat_mul``, ``rank``,
``rref_fractions`` and ``solve_exact``.

References: the dense triple loop (the cell type it gives is part of the
contract, since callers serialize cells), ``sympy.Matrix.rank`` and
``sympy.Matrix.rref``.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringkt import ktheory
from ringkt.abgrp import (GroupDescriptor, as_int_matrix, mat_mul, rank, rref_fractions,
                          solve_exact)
from ringkt.errors import InputError
from ringkt.ktheory import ActionDescriptor, GradedKGroup, kappa, pv_step

KINDS = ("int", "fraction", "mixed")
DENSITIES = (0.0, 0.1, 0.3, 0.6, 1.0)


@st.composite
def matrices(draw, rows=None, cols=None, kind=None):
    """Int, Fraction or mixed matrices at a drawn density, with some rows
    and columns forced to zero."""
    m = rows if rows is not None else draw(st.integers(1, 7))
    n = cols if cols is not None else draw(st.integers(1, 7))
    kind = kind or draw(st.sampled_from(KINDS))
    density = draw(st.sampled_from(DENSITIES))
    zero_rows = draw(st.sets(st.integers(0, m - 1), max_size=m))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n))

    def cell(i, j):
        as_fraction = kind == "fraction" or (kind == "mixed" and draw(st.booleans()))
        keep = draw(st.floats(0, 1, exclude_max=True)) < density
        if keep and i not in zero_rows and j not in zero_cols:
            num = draw(st.integers(-9, 9).filter(bool))
            den = draw(st.integers(1, 5)) if as_fraction else 1
            return Fraction(num, den) if as_fraction else num
        return Fraction(0) if as_fraction else 0

    return [[cell(i, j) for j in range(n)] for i in range(m)]


@st.composite
def products(draw):
    m, n, p = (draw(st.integers(1, 7)) for _ in range(3))
    return draw(matrices(rows=m, cols=n)), draw(matrices(rows=n, cols=p))


def naive_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def cell_types(a):
    return [[type(x) for x in row] for row in a]


def to_sympy(a):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in a])


def from_sympy(a):
    return [[Fraction(int(a[i, j].p), int(a[i, j].q)) for j in range(a.cols)]
            for i in range(a.rows)]


@st.composite
def linear_systems(draw):
    """``(a, x, e)``: a coefficient matrix, a solution block and one
    right-hand column that may lie outside the column span of ``a``."""
    a = draw(matrices())
    m, n = len(a), len(a[0])
    return a, draw(matrices(rows=n)), draw(matrices(rows=m, cols=1))


@settings(max_examples=100, deadline=None)
@given(products())
@example(([[1, 2, 3]], [[1], [0], [2]]))                    # 1 x n times n x 1
@example(([[2], [0], [Fraction(1, 2)]], [[1, 0, 3]]))      # n x 1 times 1 x n
@example(([[0, 0], [0, 0]], [[Fraction(0), 0], [0, 0]]))   # zero cells keep types
def test_mat_mul_matches_triple_loop(ab):
    a, b = ab
    got = mat_mul(a, b)
    want = naive_mul(a, b)
    assert got == want
    assert cell_types(got) == cell_types(want)


@settings(max_examples=100, deadline=None)
@given(matrices())
@example([[0, 0, 0]])
@example([[0], [Fraction(3, 2)], [0]])
def test_rank_matches_sympy(a):
    want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in a]).rank()
    assert rank(a) == want
    # rank over Q ignores the entry types and is invariant under transposition
    assert rank([list(col) for col in zip(*a)]) == want


@settings(max_examples=100, deadline=None)
@given(matrices())
@example([[0, 0, 0], [1, 2, 3]])                   # m < n, zero row first
@example([[2], [0], [Fraction(1, 3)], [4]])        # m > n
@example([[0, 1], [0, 2], [0, 0]])                 # zero column and row
@example([[Fraction(0), 0], [0, 0]])               # zero matrix
def test_rref_fractions_matches_sympy(a):
    rows, pivots = rref_fractions(a)
    want, want_pivots = to_sympy(a).rref()
    assert pivots == list(want_pivots)
    assert rows == from_sympy(want)
    assert all(type(x) is Fraction for row in rows for x in row)


@settings(max_examples=100, deadline=None)
@given(linear_systems())
@example(([[1, 0], [0, 1], [0, 0]], [[2], [3]], [[0], [0], [1]]))    # inconsistent
@example(([[1, 2], [2, 4]], [[1], [1]], [[1], [2]]))                 # rank-deficient
@example(([[Fraction(1, 2)]], [[3, 0]], [[1]]))                      # 1 x 1
def test_solve_exact_contract(system):
    a, x, e = system
    n = len(a[0])
    b = mat_mul(a, x)
    if rank(a) < n:
        with pytest.raises(InputError, match="full column rank"):
            solve_exact(a, b)
        return
    got = solve_exact(a, b)
    assert mat_mul(a, got) == b
    assert got == x  # full column rank: the solution is unique
    aug = [row + col for row, col in zip(a, e)]
    if rank(aug) > n:
        with pytest.raises(InputError, match="inconsistent"):
            solve_exact(a, e)
    else:
        assert mat_mul(a, solve_exact(a, e)) == e


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(2, 40), st.integers(2, 40))
def test_mat_mul_of_dense_kappa_matches_compose(n, a, b):
    dense = mat_mul(kappa(n, a).dense(), kappa(n, b).dense())
    assert dense == kappa(n, a).compose(kappa(n, b)).dense()


def test_phi_mix_cells_stay_fractions(monkeypatch):
    # The six-term step echelons the rows of [q - I | mix]; the rational
    # cells reach it as Fractions, integer-valued ones and q - I included.
    seen = []

    def recording(rows):
        rows = list(rows)
        seen.extend(rows)
        return ktheory_echelon(rows)

    g = GradedKGroup(GroupDescriptor(free_rank=2, q_rank=2), GroupDescriptor.zero())
    act = ActionDescriptor.build(g, deg0={"q": [[2, 0], [0, 3]], "mix": [[1, 0], [0, "1/2"]]})
    ktheory_echelon = ktheory._echelon
    monkeypatch.setattr(ktheory, "_echelon", recording)
    pv_step(g, act)
    assert seen == [{0: 1, 2: 1}, {1: 2, 3: Fraction(1, 2)}]
    assert all(type(x) is Fraction for row in seen for x in row.values())


def test_as_int_matrix_entry_rules():
    a = [[1, Fraction(4, 1)], [0, -3]]
    out = as_int_matrix(a)
    assert out == [[1, 4], [0, -3]]
    assert cell_types(out) == [[int, int], [int, int]]
    assert out[1] is not a[1]
    with pytest.raises(InputError):
        as_int_matrix([[1, True]])
    with pytest.raises(InputError):
        as_int_matrix([[False]])
    with pytest.raises(InputError):
        as_int_matrix([[1, 2], [Fraction(1, 2), 0]])

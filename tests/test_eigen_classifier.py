"""The eigen classifier's common flag against the route it replaced.

The library reads the flag of a commuting family off one joint split: every
map in turn splits each current space by the generalized eigenspaces of its
restriction, whose integer eigenvalues come from the characteristic
polynomial and Sturm isolation.  The reference below is the earlier route: a
recursion that takes a common eigenvector of the largest joint eigenvalue
tuple (sympy's ``eigenvects``), quotients every map by it and recurses.  Both
must give the same list, and the refusals keep their texts.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ringkt import abgrp
from ringkt.abgrp import (DirectedSystem, GroupDescriptor, colimit, identity_matrix, mat_mul,
                          solve_exact)
from ringkt.errors import CrossCheckError, UnsupportedSystemError

IRRATIONAL = ("a restricted structure map has an irrational eigenvalue; "
              "the system is outside the certified class")

# ---------------------------------------------------------------------------
# reference: the quotient recursion with sympy's eigenvectors
# ---------------------------------------------------------------------------


def _sympy_rational_eigenspaces(t):
    mat = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                        for row in t])
    out = []
    for val, _mult, vecs in mat.eigenvects():
        if not val.is_rational:
            raise UnsupportedSystemError(IRRATIONAL)
        basis = [[Fraction(int(sympy.Rational(v[i]).p), int(sympy.Rational(v[i]).q))
                  for v in vecs] for i in range(mat.rows)]
        out.append((Fraction(int(val.p), int(val.q)), basis))
    return out


def _recursive_flag(ts):
    dim = len(ts[0])
    if dim == 0:
        return []
    spaces = [((), [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)])]
    for t in ts:
        new = []
        for vals, b in spaces:
            (restricted,) = abgrp._restricted_maps([t], b)
            for val, sub in _sympy_rational_eigenspaces(restricted):
                new.append((vals + (val,), mat_mul(b, sub)))
        spaces = new
    spaces.sort(key=lambda item: (tuple(-abs(v) for v in item[0]), item[0]))
    vals, b = spaces[0]
    vec = [row[0] for row in b]
    # Quotient every map by the chosen common eigendirection.
    pivot = max(range(dim), key=lambda i: (abs(vec[i]), -i))
    others = [i for i in range(dim) if i != pivot]
    basis_cols = [[Fraction(int(i == j)) for j in others] for i in range(dim)]
    full = [[Fraction(vec[i])] + basis_cols[i] for i in range(dim)]
    quotient_maps = []
    for t in ts:
        coords = solve_exact(full, mat_mul(t, basis_cols))
        quotient_maps.append([coords[i + 1] for i in range(dim - 1)])
    return [vals] + _recursive_flag(quotient_maps)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def _poly_of(u, coeffs):
    """``sum c_i u^i`` for a square integer matrix ``u``."""
    n = len(u)
    out, power = [[0] * n for _ in range(n)], identity_matrix(n)
    for c in coeffs:
        out = [[x + c * y for x, y in zip(ro, rp)] for ro, rp in zip(out, power)]
        power = mat_mul(power, u)
    return out


@st.composite
def commuting_families(draw):
    """Polynomials in an upper-triangular integer matrix (repeated diagonal
    entries make some families non-diagonalizable), conjugated by a
    unimodular matrix built from elementary row operations."""
    n = draw(st.integers(1, 4))
    u = [[draw(st.integers(-2, 3)) if i == j else draw(st.integers(-2, 2)) if i < j else 0
          for j in range(n)] for i in range(n)]
    p, p_inv = identity_matrix(n), identity_matrix(n)
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.integers(-2, 2))
        if i != j:
            p[i] = [x + c * y for x, y in zip(p[i], p[j])]  # row i += c * row j
            for row in p_inv:  # ... and column j -= c * column i of the inverse
                row[j] -= c * row[i]
    polys = draw(st.lists(st.lists(st.integers(-2, 2), min_size=1, max_size=3),
                          min_size=1, max_size=3))
    return [mat_mul(mat_mul(p, _poly_of(u, q)), p_inv) for q in polys]


@settings(max_examples=40, deadline=None)
@given(ts=commuting_families())
def test_joint_split_matches_the_quotient_recursion(ts):
    assert abgrp._common_flag_eigenvalues(ts) == _recursive_flag(ts)


def test_generalized_eigenspace_of_a_jordan_block():
    (k, basis), = abgrp._rational_eigenspaces([[Fraction(2), Fraction(1)],
                                               [Fraction(0), Fraction(2)]])
    assert k == 2 and len(basis[0]) == 2
    assert abgrp._common_flag_eigenvalues([[[2, 1], [0, 2]], [[3, 0], [0, 3]]]) == [(2, 3)] * 2


# ---------------------------------------------------------------------------
# refusals keep their texts
# ---------------------------------------------------------------------------


def _d_plus(dim, offdiag):
    """``d * I`` plus constant off-diagonal entries ``{(row, col): value}``."""
    return DirectedSystem.symbolic(
        dim, [{"kind": "mult_d"}] * dim,
        [{"row": r, "col": c, "poly": [v]} for (r, c), v in offdiag.items()])


@pytest.mark.parametrize("offdiag, dim", [
    ({(0, 1): 2, (1, 0): 1}, 2),  # d +- sqrt(2)
    ({(0, 1): -1, (1, 0): 1}, 2),  # d +- i
    ({(0, 1): 1, (1, 2): 1, (2, 0): 1}, 3),  # d + 1, d + the cube roots of unity
])
def test_irrational_eigenvalues_keep_the_refusal_text(offdiag, dim):
    with pytest.raises(UnsupportedSystemError) as exc:
        colimit(_d_plus(dim, offdiag))
    assert str(exc.value) == IRRATIONAL
    m = _d_plus(dim, offdiag).matrix(1)
    with pytest.raises(UnsupportedSystemError, match="irrational eigenvalue"):
        _recursive_flag([m])


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------


def test_wrong_eigenvalues_are_stopped_by_the_trace(monkeypatch):
    split = abgrp._rational_eigenspaces
    monkeypatch.setattr(abgrp, "_rational_eigenspaces",
                        lambda t: [(k + 1, basis) for k, basis in split(t)])
    system = DirectedSystem.from_family(2, lambda d: [[2 * d - 1, 1 - d], [2 * d - 2, 2 - d]])
    with pytest.raises(CrossCheckError, match="structure map 0 do not sum to its trace"):
        colimit(system)
    monkeypatch.setattr(abgrp, "_rational_eigenspaces", split)
    assert colimit(system).invariants == GroupDescriptor(free_rank=1, q_rank=1)

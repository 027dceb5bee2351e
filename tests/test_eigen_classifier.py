"""The eigen classifier's common flag against the routes it replaced.

The library reads the flag of a commuting family off ranks: every map in
turn extends each joint eigenvalue tuple by each integer root ``k`` of its
characteristic polynomial (Faddeev--LeVerrier in ints, Sturm isolation),
stacks ``(t - k)^n`` onto the tuple's rows, and reads the tuple's
multiplicity as ``n`` less the rank, on sparse integer rows.  Two references
below must give the same list:

* the restriction route it replaced: every map in turn splits each current
  space by the generalized eigenspaces of its restriction, solved exactly
  over Q, each eigenspace a Hermite kernel basis;
* the route before that: a recursion that takes a common eigenvector of the
  largest joint eigenvalue tuple (sympy's ``eigenvects``), quotients every
  map by it and recurses.

The refusals keep their texts, and the split itself builds no dense matrix,
no Q-solve and no lattice basis.
"""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import identity_matrix
from ringkt import abgrp, numfield
from ringkt.abgrp import DirectedSystem, GroupDescriptor, colimit, mat_mul, solve_exact
from ringkt.errors import CrossCheckError, UnsupportedSystemError

IRRATIONAL = ("a restricted structure map has an irrational eigenvalue; "
              "the system is outside the certified class")
NOT_COMMUTING = ("structure maps do not commute and no common triangular coordinate "
                 "order exists; the system is outside the certified class")
WINDOW = ("window rank depends on the starting level; "
          "the system is outside the certified class")

# ---------------------------------------------------------------------------
# reference: the restriction route, with Hermite kernel bases
# ---------------------------------------------------------------------------


def _restricted_maps(maps, basis):
    """Each map of sparse rows on the column span of ``basis``, which it
    preserves: ``t`` with ``m @ basis == basis @ t``, solved exactly."""
    rows, r = abgrp._sparse_rows(basis), len(basis[0])
    return [solve_exact(basis, abgrp._dense_rows(abgrp._sparse_mul(m, rows), r)) for m in maps]


def _hnf_eigenspaces(t):
    """``(k, columns of its generalized eigenspace)`` per rational eigenvalue
    ``k`` of the restricted map ``t``: the integer roots of its
    characteristic polynomial (Faddeev--LeVerrier over Q), each eigenspace
    the Hermite kernel basis of ``(t - k)^n`` scaled to integers."""
    n = len(t)
    poly, tm = [Fraction(1)], t
    for k in range(1, n + 1):
        poly.append(-sum(tm[i][i] for i in range(n)) / k)
        tm = mat_mul(t, [[x + poly[-1] * (i == j) for j, x in enumerate(row)]
                         for i, row in enumerate(tm)])
    out = []
    for k in numfield.integer_roots(poly[::-1]):
        shifted = [[x - k * (i == j) for j, x in enumerate(row)] for i, row in enumerate(t)]
        den = math.lcm(*(x.denominator for row in shifted for x in row))
        power = step = [[int(x * den) for x in row] for row in shifted]
        for _ in range(n - 1):
            power = mat_mul(power, step)
        vecs = abgrp._kernel_basis(abgrp._sparse_rows(power), n)
        assert vecs, k
        out.append((k, [list(col) for col in zip(*vecs)]))
    return out


def _restricted_flag(ts):
    """The flag of the dense integer family ``ts`` by restriction: each map
    in turn splits every space by the eigenspaces of its restriction, and
    each tuple comes as often as its space has dimensions."""
    r = len(ts[0])
    spaces = [((), identity_matrix(r))]
    for t in ts:
        spaces = [(vals + (k,), mat_mul(b, sub))
                  for vals, b in spaces
                  for k, sub in _hnf_eigenspaces(_restricted_maps([abgrp._sparse_rows(t)], b)[0])]
    return sorted((vals for vals, b in spaces for _ in b[0]),
                  key=lambda vals: (tuple(-abs(v) for v in vals), vals))


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
            (restricted,) = _restricted_maps([abgrp._sparse_rows(t)], b)
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
    flag = abgrp._common_flag_eigenvalues(list(map(abgrp._sparse_rows, ts)))
    assert flag == _restricted_flag(ts) == _recursive_flag(ts)


JORDAN = [{0: 2, 1: 1}, {1: 2}]  # [[2, 1], [0, 2]]


def test_generalized_eigenspace_of_a_jordan_block():
    # (t - 2)^2 is zero: its kernel, the generalized eigenspace, is the plane
    (k, power), = abgrp._eigen_powers(JORDAN)
    assert k == 2 and power == [{}, {}]
    assert abgrp._common_flag_eigenvalues([JORDAN, [{0: 3}, {1: 3}]]) == [(2, 3)] * 2


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


def _conjugated_diag(x, y):
    """``diag(x, y)`` conjugated by ``[[1, 1], [1, 2]]``: a cycle in the zero pattern."""
    p, p_inv = [[1, 1], [1, 2]], [[2, -1], [-1, 1]]
    return mat_mul(mat_mul(p, [[x, 0], [0, y]]), p_inv)


@pytest.mark.parametrize("family, text", [
    (lambda d: [[1, 1], [1, 2 + d]], NOT_COMMUTING),
    # singular only at d = 101: its eigen law d - 101 has a root on the chain
    (lambda d: _conjugated_diag(d - 101, 2), WINDOW),
], ids=["not-commuting", "drops-rank"])
def test_eigen_path_refusals_keep_their_texts(family, text):
    with pytest.raises(UnsupportedSystemError) as exc:
        colimit(DirectedSystem.from_family(2, family))
    assert str(exc.value) == text


def test_a_nilpotent_cycle_has_an_empty_flag():
    # [[d, d], [-d, -d]] squares to zero: a cycle whose one coefficient
    # matrix is nilpotent, so the eigen flag has no living direction
    system = DirectedSystem.symbolic(
        2, [{"kind": "mult_d"}, {"kind": "poly", "coeffs": [0, -1]}],
        [{"row": 0, "col": 1, "kind": "mult_d"}, {"row": 1, "col": 0, "poly": [0, -1]}])
    assert system.matrix(2) == [[3, 3], [-3, -3]]
    report = colimit(system)
    assert report.invariants == GroupDescriptor.zero() and report.rank == 0


# ---------------------------------------------------------------------------
# each distinct coefficient matrix is split once
# ---------------------------------------------------------------------------


def test_each_distinct_coefficient_matrix_is_split_once(monkeypatch):
    split, counts = abgrp._common_flag_eigenvalues, []
    monkeypatch.setattr(abgrp, "_common_flag_eigenvalues",
                        lambda ts: counts.append(len(ts)) or split(ts))
    cycle = {(0, 1): 1, (1, 0): 1}
    # A JSON law is one polynomial on both classes, so the odd and the even
    # coefficient matrices are equal: the cycle alone for the identity
    # diagonal, the cycle and I for d I.
    unit_cycle = [{"row": r, "col": c, "poly": [v]} for (r, c), v in cycle.items()]
    system = DirectedSystem.symbolic(2, [{"kind": "identity"}] * 2, unit_cycle)
    assert str(colimit(system).invariants) == "Loc{2}"
    with pytest.raises(UnsupportedSystemError, match="fits no monomial"):
        colimit(_d_plus(2, cycle))
    # parity laws whose classes differ: J on odd d and I + J on even d
    one = ((1,), (1,))
    system = DirectedSystem.from_laws(2, [((1,), (2,))] * 2, [(0, 1, one), (1, 0, one)])
    assert str(colimit(system).invariants) == "Loc{2,3}"
    assert counts == [1, 2, 2]


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------


def test_a_root_without_an_eigenspace_is_a_cross_check_failure(monkeypatch):
    monkeypatch.setattr(numfield, "integer_roots", lambda poly: [5])
    with pytest.raises(CrossCheckError, match=r"\(t - 5\)\^2 has no kernel, though 5 is a root"):
        abgrp._eigen_powers(JORDAN)


def test_an_inexact_faddeev_leverrier_division_is_a_cross_check_failure(monkeypatch):
    # every product gains 1 at (0, 0): on the zero map, tr(t M_2) = 1 is odd
    mul = abgrp._sparse_mul

    def off_by_one(a, b):
        out = mul(a, b)
        out[0][0] = out[0].get(0, 0) + 1
        return out

    assert abgrp._eigen_powers([{}, {}]) == [(0, [{}, {}])]
    monkeypatch.setattr(abgrp, "_sparse_mul", off_by_one)
    with pytest.raises(CrossCheckError, match="the trace of t M_2 is not divisible by 2"):
        abgrp._eigen_powers([{}, {}])


def test_wrong_eigenvalues_are_stopped_by_the_trace(monkeypatch):
    split = abgrp._eigen_powers
    monkeypatch.setattr(abgrp, "_eigen_powers",
                        lambda t: [(k + 1, power) for k, power in split(t)])
    system = DirectedSystem.from_family(2, lambda d: [[2 * d - 1, 1 - d], [2 * d - 2, 2 - d]])
    with pytest.raises(CrossCheckError, match="structure map 0 do not sum to its trace"):
        colimit(system)
    monkeypatch.setattr(abgrp, "_eigen_powers", split)
    assert colimit(system).invariants == GroupDescriptor(free_rank=1, q_rank=1)


# ---------------------------------------------------------------------------
# the split runs on sparse integer rows alone
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("system, outcome", [
    (DirectedSystem.from_family(2, lambda d: [[2 * d - 1, 1 - d], [2 * d - 2, 2 - d]]), "Z + Q"),
    (DirectedSystem.from_family(2, lambda d: _conjugated_diag(d, 2)), "Loc{2} + Q"),
    (DirectedSystem.symbolic(2, [{"kind": "identity"}] * 2, [
        {"row": 0, "col": 1, "poly": [1]}, {"row": 1, "col": 0, "poly": [1]}]), "Loc{2}"),
    (_d_plus(2, {(0, 1): 2, (1, 0): 1}), IRRATIONAL),
], ids=["trace-pair", "conjugated", "unit-cycle", "irrational"])
def test_the_joint_split_forms_no_dense_matrix_solve_or_basis(monkeypatch, system, outcome):
    def refuse(*args):
        raise AssertionError("the joint split formed a dense matrix, a solve or a basis")

    for name in ("solve_exact", "rref_fractions", "_kernel_basis", "_hnf", "mat_mul"):
        monkeypatch.setattr(abgrp, name, refuse)
    split, calls = abgrp._eigen_powers, []
    monkeypatch.setattr(abgrp, "_eigen_powers", lambda t: calls.append(t) or split(t))
    try:
        got = str(colimit(system).invariants)
    except UnsupportedSystemError as exc:
        got = str(exc)
    assert got == outcome and calls

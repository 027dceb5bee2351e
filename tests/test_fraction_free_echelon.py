"""The fraction-free echelon against the elimination over Q it replaced.

``abgrp._echelon`` scales a rational row to integers once, clears each column
as ``a * row - b * piv`` in Python ints and keeps every pivot row primitive.
``ref_echelon`` below is the route it replaced (each step subtracts
``row[c] / piv[c]`` times the pivot row, in ``Fraction``s), kept as the
oracle, with the ``rref_fractions`` and ``solve_exact`` that were built on it.
``determinant`` and ``_is_unimodular`` read the determinant off the same
echelon; the dense Bareiss loop (``conftest.bareiss_determinant``) is their
reference.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bareiss_determinant, random_unimodular
from ringkt import abgrp, ktheory
from ringkt.abgrp import (DirectedSystem, determinant, mat_mul, mat_shape, rank,
                          rref_fractions, solve_exact)
from ringkt.errors import InputError
from test_colimit_image import _composite_ranks, _horizon_maps, _late_drop, _triangular_json
from test_sparse_kernels import linear_systems, matrices

# ---------------------------------------------------------------------------
# the replaced Fraction routes
# ---------------------------------------------------------------------------


def ref_subtract(row, f, piv):
    for j, y in piv.items():
        v = row.get(j, 0) - f * y
        if v:
            row[j] = v
        else:
            row.pop(j, None)


def ref_echelon(rows):
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = row
                break
            ref_subtract(row, Fraction(row[c]) / piv[c], piv)
    return pivots


def ref_rref_fractions(a):
    m, n = mat_shape(a)
    reduced = {}
    for c, row in sorted(ref_echelon(abgrp._sparse_rows(a)).items(), reverse=True):
        inv = Fraction(1) / row[c]
        row = {j: x * inv for j, x in row.items()}
        for k in [k for k in row if k != c and k in reduced]:
            ref_subtract(row, row[k], reduced[k])
        reduced[c] = row
    pivots = sorted(reduced)
    rows = [[Fraction(0)] * n for _ in range(m)]
    for out, c in zip(rows, pivots):
        for j, x in reduced[c].items():
            out[j] = x
    return rows, pivots


def ref_solve_exact(a, b):
    m, n = mat_shape(a)
    mb, p = mat_shape(b)
    if mb != m:
        raise InputError("incompatible shapes in solve_exact")
    rows, pivots = ref_rref_fractions([list(ra) + list(rb) for ra, rb in zip(a, b)])
    if len([c for c in pivots if c < n]) != n:
        raise InputError("solve_exact: coefficient matrix is not of full column rank")
    if any(c >= n for c in pivots):
        raise InputError("solve_exact: inconsistent linear system")
    x = [[Fraction(0)] * p for _ in range(n)]
    for r, c in enumerate(pivots):
        for j in range(p):
            x[c][j] = rows[r][n + j]
    return x


def outcome(fn, *args):
    """``repr`` of the result, or the type and message of an ``InputError``."""
    try:
        return repr(fn(*args))
    except InputError as exc:
        return f"InputError: {exc}"


# ---------------------------------------------------------------------------
# the echelon, the RREF and the solver against the references
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(matrices())
@example([[Fraction(1, 2), 3], [1, 6]])                    # mixed, rank 1
@example([[4, 6, 0], [0, 0, 0], [Fraction(-3, 4), 5, 1]])  # content 2, a zero row
@example([[0, Fraction(2, 3)], [0, 1], [7, 0]])            # m > n
def test_echelon_matches_the_fraction_echelon(a):
    rows = abgrp._sparse_rows(a)
    got, want = abgrp._echelon(rows), ref_echelon(rows)
    assert sorted(got) == sorted(want)
    for c, row in got.items():
        ref = want[c]
        assert all(type(x) is int for x in row.values())
        assert math.gcd(*row.values()) == 1
        # a nonzero rational multiple of the reference row: same support,
        # and row / row[c] == ref / ref[c] cell by cell
        assert row.keys() == ref.keys()
        assert all(x * ref[c] == ref[j] * row[c] for j, x in row.items())
    assert repr(rref_fractions(a)) == repr(ref_rref_fractions(a))


@settings(max_examples=60, deadline=None)
@given(linear_systems())
@example(([[1, 0], [0, 1], [0, 0]], [[2], [3]], [[0], [0], [1]]))    # inconsistent
@example(([[1, 2], [2, 4]], [[1], [1]], [[1], [2]]))                 # rank-deficient
@example(([[Fraction(1, 2)]], [[3, 0]], [[1]]))                      # 1 x 1
def test_solve_exact_matches_the_fraction_solver(system):
    a, x, e = system
    b = abgrp.mat_mul(a, x)
    for rhs in (b, e):
        assert outcome(solve_exact, a, rhs) == outcome(ref_solve_exact, a, rhs)


# ---------------------------------------------------------------------------
# the determinant off the same echelon
# ---------------------------------------------------------------------------


@st.composite
def square_int_matrices(draw):
    """A random square int matrix, a product of random elementary matrices
    (det +-1), or such a product with one row doubled (det +-2)."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(("random", "elementary", "doubled")))
    if kind == "random":
        entry = st.integers(-3, 3)
        return kind, [[draw(entry) for _ in range(n)] for _ in range(n)]
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    u, _ = random_unimodular(rng, n, steps=draw(st.integers(0, 4 * n)))
    if kind == "doubled":
        i = draw(st.integers(0, n - 1))
        u[i] = [2 * x for x in u[i]]
    return kind, u


@settings(max_examples=150, deadline=None)
@given(square_int_matrices())
@example(("random", [[2, 1], [1, 1]]))
@example(("random", [[2, 0], [0, 1]]))
@example(("random", [[0, 0], [0, 0]]))
@example(("random", [[6, 4], [4, 3]]))    # det 2 from pivots 6 and 1/3
def test_is_unimodular_matches_the_determinant(case):
    kind, a = case
    got = abgrp._is_unimodular(abgrp._sparse_rows(a))
    assert got == (abs(bareiss_determinant(a)) == 1)
    if kind != "random":
        assert got is (kind == "elementary")


@st.composite
def determinant_cases(draw):
    """A square int matrix up to 12 x 12 of any density with entries up to
    10^6, as drawn, with one row repeated, or with its rows permuted."""
    n = draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    bound = draw(st.sampled_from((1, 9, 10 ** 6)))
    density = draw(st.sampled_from((0.1, 0.4, 0.8, 1.0)))
    a = [[rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n)]
         for _ in range(n)]
    kind = draw(st.sampled_from(("drawn", "repeated", "permuted")))
    if kind == "repeated" and n > 1:
        i, j = rng.sample(range(n), 2)
        a[i] = list(a[j])
    elif kind == "permuted":
        rng.shuffle(a)
    return a


@settings(max_examples=120, deadline=None)
@given(determinant_cases())
@example([[0, 3], [2, 5]])                    # pivot columns out of row order
@example([[0, 0, 1], [1, 0, 0], [0, 1, 0]])   # a 3-cycle: sign +1
@example([[4, 6], [6, 9]])                    # singular with no zero entry
def test_determinant_matches_bareiss(a):
    assert determinant(a) == bareiss_determinant(a)


# The one rational rule of the elimination's public entry points.
_RATIONAL_ENTRY_POINTS = {
    "rank": rank,
    "rref_fractions": rref_fractions,
    "solve_exact(a, .)": lambda a: solve_exact(a, [[1], [2]]),
    "solve_exact(., b)": lambda b: solve_exact([[1, 0], [0, 1]], b),
    "mat_mul(a, .)": lambda a: mat_mul(a, [[2], [3]]),
    "mat_mul(., b)": lambda b: mat_mul([[2, 3]], b),
}


@pytest.mark.parametrize("bad", [1.5, True, "1", None])
@pytest.mark.parametrize("name", list(_RATIONAL_ENTRY_POINTS))
def test_the_elimination_entry_points_refuse_non_rational_entries(name, bad):
    with pytest.raises(InputError, match="is not an integer or a Fraction"):
        _RATIONAL_ENTRY_POINTS[name]([[1, Fraction(1, 2)], [3, bad]])
    assert _RATIONAL_ENTRY_POINTS[name]([[1, Fraction(1, 2)], [3, 4]]) is not None


# ---------------------------------------------------------------------------
# integer rows in, no Fraction built
# ---------------------------------------------------------------------------


class NoFraction:
    def __init__(self, *args):
        raise AssertionError("a Fraction was built")


def test_the_echelon_builds_no_fraction_on_integer_rows(monkeypatch):
    systems = []

    def recording(system):
        systems.append(system)
        return abgrp.colimit(system)

    monkeypatch.setattr(ktheory, "colimit", recording)
    ktheory.k_of_B0(6, engine_check=True)
    monkeypatch.undo()
    rng = random.Random(24)
    systems.append(DirectedSystem.from_json(_triangular_json(rng, 9)))
    systems.append(_late_drop([-3, 1]))  # a late drop and a window of higher rank
    chains = [_horizon_maps(system) for system in systems]
    assert len(chains) == 4

    def walks(maps):
        dim = len(maps[0])
        return [list(abgrp._image_bases(maps, dim)),
                list(abgrp._image_bases(maps[len(maps) // 2:], dim))]

    ranks = [_composite_ranks(maps) for maps in chains]
    done = [walks(maps) for maps in chains]

    monkeypatch.setattr(abgrp, "Fraction", NoFraction)
    with pytest.raises(AssertionError, match="Fraction was built"):
        abgrp.Fraction(1, 2)
    for maps, want, bases in zip(chains, ranks, done):
        assert _composite_ranks(maps) == want == [len(basis) for basis in bases[0]]
        assert walks(maps) == bases
        assert all(type(x) is int for walk in bases for basis in walk
                   for v in basis for x in v.values())
        for m in (*maps, abgrp._composite(maps)):
            pivots = abgrp._echelon(m)
            assert all(type(x) is int for row in pivots.values() for x in row.values())

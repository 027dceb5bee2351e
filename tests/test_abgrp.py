"""Tests for exact linear algebra, group descriptors and the colimit engine."""

import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_smith_form, random_int_matrix, random_unimodular, seeded_rng
from ringkt import abgrp
from ringkt.abgrp import (
    ColimitReport,
    DirectedSystem,
    GroupDescriptor,
    cokernel,
    colimit,
    determinant,
    identified,
    image_lattice_basis,
    invariant_factors,
    kernel_lattice_basis,
    mat_mul,
    rank,
    smith_normal_form,
    solve_exact,
)
from ringkt.errors import CrossCheckError, InputError, UnsupportedSystemError
from ringkt.ktheory import k_of_A0, k_of_B0, rank_one_system


def _dense_mat_vec(a, v):
    """The dense product ``a @ v``: a reference apart from the engine's sparse rows."""
    return [sum(x * y for x, y in zip(row, v)) for row in a]


# ---------------------------------------------------------------------------
# Smith normal form, cokernel, kernel
# ---------------------------------------------------------------------------


def test_snf_worked_example():
    a = [[2, 4], [6, 8]]
    u, d, v = smith_normal_form(a)
    assert [d[i][i] for i in range(2)] == [2, 4]
    check_smith_form(a, u, d, v)


def test_snf_zero_and_identity():
    u, d, v = smith_normal_form([[0, 0], [0, 0]])
    check_smith_form([[0, 0], [0, 0]], u, d, v)
    assert all(d[i][i] == 0 for i in range(2))
    u, d, v = smith_normal_form([[1, 0], [0, 1]])
    check_smith_form([[1, 0], [0, 1]], u, d, v)
    assert [d[i][i] for i in range(2)] == [1, 1]


def test_snf_rectangular():
    a = [[2, 0, 0], [0, 0, 6]]
    u, d, v = smith_normal_form(a)
    check_smith_form(a, u, d, v)
    assert [d[i][i] for i in range(2)] == [2, 6]


def test_snf_random_properties():
    rng = seeded_rng("snf-module")
    for _ in range(120):
        a = random_int_matrix(rng)
        u, d, v = smith_normal_form(a)
        check_smith_form(a, u, d, v)


def test_cokernel_examples():
    assert cokernel([[2, 4], [6, 8]]) == GroupDescriptor(torsion=(2, 4))
    assert cokernel([[1, 0], [0, 1]]).is_trivial
    assert cokernel([[0, 0], [0, 0]]) == GroupDescriptor.free(2)
    assert cokernel([[2, 0], [0, 3]]) == GroupDescriptor(torsion=(6,))
    # 3 generators, one relation of content 1: free of rank 2
    assert cokernel([[1], [2], [3]]) == GroupDescriptor.free(2)


def test_cokernel_of_a_large_chain():
    # diagonal entries of more than 100 bits: a random one of that size has a
    # prime factor that trial division does not reach
    rng = seeded_rng("large-chain")
    for _ in range(5):
        chain = [rng.getrandbits(101) | 1 << 100]
        for _ in range(2):
            chain.append(chain[-1] * (rng.getrandbits(40) | 1 << 39))
        diag = chain + [0]  # and one free summand
        d = [[diag[i] if i == j else 0 for j in range(4)] for i in range(4)]
        u, u_inv = random_unimodular(rng, 4)
        v, _ = random_unimodular(rng, 4)
        assert mat_mul(u, u_inv) == [[int(i == j) for j in range(4)] for i in range(4)]
        got = cokernel(mat_mul(mat_mul(u, d), v))
        assert got.free_rank == 1
        assert got.torsion == tuple(chain)


def test_kernel_lattice_is_saturated():
    rng = seeded_rng("kernel-module")
    for _ in range(60):
        a = random_int_matrix(rng, max_side=5, lo=-6, hi=6)
        basis = kernel_lattice_basis(a)
        for vec in basis:
            assert all(x == 0 for x in _dense_mat_vec(a, vec))
        if basis:
            bmat = [[vec[i] for vec in basis] for i in range(len(basis[0]))]
            assert rank(bmat) == len(basis)
            # Saturation: the basis extends to a basis of the ambient lattice,
            # so its Smith form has all invariant factors equal to one.
            _, d, _ = smith_normal_form(bmat)
            diag = [d[i][i] for i in range(min(len(bmat), len(basis)))]
            assert all(x == 1 for x in diag if x)
        # dimension check: rank-nullity over Q
        assert len(basis) == len(a[0]) - rank(a)


def test_image_lattice_basis():
    a = [[2, 4], [6, 8]]
    basis = image_lattice_basis(a)
    assert len(basis) == 2
    # The generated subgroup has index |det| = 8
    bmat = [[vec[i] for vec in basis] for i in range(2)]
    assert abs(determinant(bmat)) == 8


def _nonzero_invariants(a):
    _, d, _ = smith_normal_form(a)
    return [x for x in (d[i][i] for i in range(min(len(a), len(a[0])))) if x]


def test_image_lattice_basis_spans_the_column_lattice():
    rng = seeded_rng("image-lattice-span")
    for _ in range(60):
        m, n, r = rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 4)
        # A product through Z^r keeps the rank at most r, so deficient ranks occur.
        left = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(m)]
        right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
        a = mat_mul(left, right) if r else [[0] * n for _ in range(m)]
        basis = image_lattice_basis(a)
        assert len(basis) == rank(a)
        if not basis:
            continue
        bmat = [[vec[i] for vec in basis] for i in range(m)]
        coords = solve_exact(bmat, a)
        assert all(x.denominator == 1 for row in coords for x in row)
        assert _nonzero_invariants(bmat) == _nonzero_invariants(a)


# ---------------------------------------------------------------------------
# group descriptors
# ---------------------------------------------------------------------------


def test_invariant_factor_normalization():
    assert invariant_factors([4, 2, 3]) == (2, 12)
    assert invariant_factors([2, 2]) == (2, 2)
    assert invariant_factors([1, 1]) == ()
    assert invariant_factors([6, 4]) == (2, 12)
    assert invariant_factors([30]) == (30,)


def _factoring_invariant_factors(orders):
    """Reference: split each order into prime powers, then collect the
    largest power of every prime into the last factor, the next largest into
    the one before, and so on."""
    exps = {}
    for x in orders:
        for p, e in sympy.factorint(x).items():
            exps.setdefault(p, []).append(e)
    if not exps:
        return ()
    for lst in exps.values():
        lst.sort(reverse=True)
    out = []
    for s in range(max(len(lst) for lst in exps.values())):
        f = 1
        for p, lst in exps.items():
            if s < len(lst):
                f *= p ** lst[s]
        out.append(f)
    return tuple(reversed(out))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 5000), max_size=8))
def test_invariant_factors_match_factoring_reference(orders):
    assert invariant_factors(orders) == _factoring_invariant_factors(orders)


def _pairwise_exchange_invariant_factors(orders):
    """Reference: ``Z/x + Z/y`` is ``Z/gcd(x, y) + Z/lcm(x, y)``, exchanged
    between every pair in turn, so ``chain[i]`` ends dividing every later
    order (Cohen, *A Course in Computational Algebraic Number Theory*, 2.4)."""
    chain = [x for x in orders if x > 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = math.gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    return tuple(x for x in chain if x > 1)


@st.composite
def repeated_orders(draw):
    """Orders in runs: a few values, some of them large and sharing factors,
    each repeated up to 40 times, the runs shuffled together at times."""
    base = draw(st.lists(st.integers(1, 2**40), min_size=1, max_size=4))
    values = draw(st.lists(st.sampled_from(base + [a * b for a in base for b in base]),
                           min_size=1, max_size=6))
    orders = [x for x in values for _ in range(draw(st.integers(1, 40)))]
    if draw(st.booleans()):
        draw(st.randoms(use_true_random=False)).shuffle(orders)
    return orders


@settings(max_examples=60, deadline=None)
@given(repeated_orders())
def test_invariant_factors_match_the_pairwise_exchange(orders):
    assert invariant_factors(orders) == _pairwise_exchange_invariant_factors(orders)


def test_descriptor_canonical_equality():
    a = GroupDescriptor(free_rank=1, torsion=(4, 2, 3))
    b = GroupDescriptor(free_rank=1, torsion=(12, 2))
    assert a == b
    assert hash(a) == hash(b)
    assert GroupDescriptor(loc=[(3, 2), (2, 3)]) == GroupDescriptor(loc=[(2, 3)] * 2)
    # empty localization support is just Z
    assert GroupDescriptor(loc=[()]) == GroupDescriptor.free(1)


def test_descriptor_predicates_and_str():
    assert GroupDescriptor.zero().is_trivial
    assert GroupDescriptor.free(3).is_free
    assert GroupDescriptor.rationals(2).is_divisible
    assert not GroupDescriptor.localized([2]).is_divisible
    assert not GroupDescriptor(torsion=(2,)).is_divisible
    d = GroupDescriptor(free_rank=1, q_rank=2, loc=[(2, 3)], torsion=(2, 4))
    assert str(d) == "Z + Loc{2,3} + Q^2 + Z/2 + Z/4"
    assert str(GroupDescriptor.zero()) == "0"


def test_descriptor_sum_and_json_round_trip():
    d = GroupDescriptor.free(1).direct_sum(
        GroupDescriptor.rationals(1), GroupDescriptor(torsion=(2, 6))
    )
    assert d == GroupDescriptor(free_rank=1, q_rank=1, torsion=(2, 6))
    assert GroupDescriptor.from_json_dict(d.to_json_dict()) == d


def test_descriptor_validation():
    with pytest.raises(InputError):
        GroupDescriptor(free_rank=-1)
    with pytest.raises(InputError):
        GroupDescriptor(loc=[(4,)])
    with pytest.raises(InputError):
        GroupDescriptor(torsion=(0,))


@pytest.mark.parametrize("make, text", [
    (lambda: GroupDescriptor(loc=5), "'loc' 5 is not iterable"),
    (lambda: GroupDescriptor(loc=[2]), "a 'loc' support 2 is not iterable"),
    (lambda: GroupDescriptor(torsion=5), "'torsion' 5 is not iterable"),
    (lambda: invariant_factors(5), "cyclic orders 5 is not iterable"),
], ids=["loc", "loc-support", "torsion", "invariant-factors"])
def test_a_summand_list_that_is_not_iterable_is_refused(make, text):
    with pytest.raises(InputError) as exc:
        make()
    assert text in str(exc.value)


def test_every_iterable_summand_list_is_accepted():
    want = GroupDescriptor(loc=[[2], [3, 5]], torsion=[2, 4])
    assert GroupDescriptor(loc=({2}, (p for p in (5, 3))), torsion=(4, 2)) == want
    assert GroupDescriptor(loc=(s for s in ([2], (3, 5))), torsion={2, 4}) == want
    assert GroupDescriptor(torsion=(x for x in (4, 2))) == GroupDescriptor(torsion=[2, 4])
    assert invariant_factors(x for x in (4, 2, 3)) == invariant_factors({4, 2, 3}) == (2, 12)


def test_localization_primes_are_decided_or_refused():
    # 2^61 - 1 is prime, and far beyond trial division
    assert str(GroupDescriptor(loc=[[2 ** 61 - 1]])) == "Loc{2305843009213693951}"
    # a strong pseudoprime to the first 12 prime bases; base 41 exposes it
    with pytest.raises(InputError, match="318665857834031151167461 is not prime"):
        GroupDescriptor(loc=[[318665857834031151167461]])
    # the least strong pseudoprime to all 13 bases, and a prime above it
    for n in (3317044064679887385961981, 2 ** 89 - 1):
        with pytest.raises(InputError, match=f"cannot decide whether {n} is prime"):
            GroupDescriptor(loc=[[n]])


def test_descriptor_integer_rule():
    assert GroupDescriptor(free_rank=Fraction(2, 1), q_rank=Fraction(1)) == \
        GroupDescriptor(free_rank=2, q_rank=1)
    assert GroupDescriptor(loc=[(Fraction(3, 1),)]) == GroupDescriptor.localized([3])
    for bad in (
        {"free_rank": 1.5},
        {"free_rank": 1.0},
        {"q_rank": True},
        {"q_rank": Fraction(1, 2)},
        {"loc": [(2.5,)]},
        {"free_rank": "1"},
    ):
        with pytest.raises(InputError, match="not an integer"):
            GroupDescriptor(**bad)
    with pytest.raises(InputError, match="not an integer"):
        GroupDescriptor.from_json_dict({"free": 1.5, "torsion": [2.9]})


def test_descriptors_are_immutable():
    g = GroupDescriptor(free_rank=1, torsion=(2,))
    with pytest.raises(AttributeError, match="cannot assign to field"):
        g.free_rank = 2
    with pytest.raises(AttributeError, match="cannot assign to field"):
        g.tag = "new"
    assert g == GroupDescriptor(free_rank=1, torsion=(2,))


def test_descriptors_survive_copies_and_pickles():
    # each of these raised FrozenInstanceError when it reached the frozen setattr
    g = GroupDescriptor(free_rank=1, q_rank=2, loc=[(3, 2), (5,)], torsion=(4, 2, 3))
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and hash(twin) == hash(g) and str(twin) == str(g)
    assert copy.deepcopy([g, g]) == [g, g]


def test_descriptor_fields_cannot_be_deleted():
    # del once emptied the slot, and every later read of it raised
    g = GroupDescriptor(free_rank=1)
    with pytest.raises(AttributeError, match="cannot delete field"):
        del g.free_rank
    assert g.free_rank == 1


def test_invariant_factors_integer_rule():
    assert invariant_factors([Fraction(4, 1), 2]) == (2, 4)
    for bad in ([2.9], [True], [Fraction(5, 2)], [2, 4.0]):
        with pytest.raises(InputError, match="not an integer"):
            invariant_factors(bad)


# ---------------------------------------------------------------------------
# directed systems: construction and serialization
# ---------------------------------------------------------------------------


def _rank3_system(d_chain=None):
    """The rank-3 symbolic family [[2d, d, d-1], [0, 0, 1], [0, 0, 1]]."""
    return DirectedSystem.symbolic(
        3,
        [{"kind": "poly", "coeffs": [0, 2]}, {"kind": "zero"}, {"kind": "identity"}],
        [
            {"row": 0, "col": 1, "kind": "mult_d"},
            {"row": 0, "col": 2, "poly": [-1, 1]},
            {"row": 1, "col": 2, "poly": [1]},
        ],
        d_chain=d_chain,
    )


def test_system_json_round_trip():
    sys31 = _rank3_system()
    again = DirectedSystem.from_json(sys31.to_json())
    assert again.matrix(1) == sys31.matrix(1)
    assert again.matrix(5) == sys31.matrix(5)

    ex = DirectedSystem.explicit([[[1, 1], [0, 1]], [[2, 0], [0, 2]]])
    again = DirectedSystem.from_json(ex.to_json())
    assert again.matrix(2) == [[2, 0], [0, 2]]


def test_system_validation():
    with pytest.raises(InputError):
        DirectedSystem.explicit([])
    with pytest.raises(InputError):
        DirectedSystem.explicit([[[1, 2]]])  # not square
    with pytest.raises(InputError, match="'matrices' must be a list"):
        DirectedSystem.explicit(5)
    with pytest.raises(InputError):
        DirectedSystem.symbolic(2, [{"kind": "identity"}])  # one law missing
    with pytest.raises(InputError):
        DirectedSystem.symbolic(1, [{"kind": "nope"}])
    with pytest.raises(InputError):
        DirectedSystem.symbolic(
            2, [{"kind": "identity"}] * 2, [{"row": 0, "col": 0, "poly": [1]}]
        )
    with pytest.raises(InputError):
        DirectedSystem.from_json({"mode": "weird"})
    with pytest.raises(InputError):
        DirectedSystem.symbolic(1, [{"kind": "identity"}], d_chain=[1])
    # an empty coefficient list is refused, as in a diagonal law; zero is [0]
    with pytest.raises(InputError, match="offdiag 'poly' needs a non-empty list"):
        DirectedSystem.symbolic(2, [{"kind": "identity"}] * 2, [{"row": 0, "col": 1, "poly": []}])


def test_an_empty_d_chain_is_refused():
    # [] once passed the entry checks and ended in an IndexError in colimit
    with pytest.raises(InputError, match="d_chain needs at least one entry"):
        DirectedSystem.symbolic(1, [{"kind": "identity"}], d_chain=[])
    one = DirectedSystem.symbolic(1, [{"kind": "identity"}], d_chain=[2])
    assert colimit(one).invariants == GroupDescriptor.free(1)


def test_a_system_with_no_steps_is_refused():
    # DirectedSystem(3) once built, and colimit then raised a bare IndexError
    with pytest.raises(InputError, match="needs a family or explicit steps"):
        DirectedSystem(3)
    with pytest.raises(InputError, match="needs a family or explicit steps"):
        DirectedSystem(2, d_chain=[2, 3])


@pytest.mark.parametrize("first, second", [([1], [0]), ([0], [1])])
def test_an_offdiag_cell_given_twice_is_refused(first, second):
    # The last entry for a cell once won, so the order decided the answer:
    # Z + Loc{2} one way, the split-safety refusal the other.
    laws = [{"kind": "poly", "coeffs": [2]}, {"kind": "identity"}]
    twice = [{"row": 1, "col": 0, "poly": first}, {"row": 1, "col": 0, "poly": second}]
    with pytest.raises(InputError, match=r"offdiag cell \(1, 0\) is given twice"):
        DirectedSystem.symbolic(2, laws, twice)
    with pytest.raises(InputError, match=r"offdiag cell \(1, 0\) is given twice"):
        DirectedSystem.symbolic(2, laws, [twice[0], {"row": 1, "col": 0, "kind": "mult_d"}])
    once = DirectedSystem.symbolic(2, laws, twice[:1] + [{"row": 0, "col": 1, "poly": [0]}])
    assert once.to_json()["offdiag"] == [{"row": 1, "col": 0, "poly": first},
                                         {"row": 0, "col": 1, "poly": [0]}]


def test_scaling_law_integer_rule():
    ok = DirectedSystem.symbolic(
        1, [{"kind": "poly", "coeffs": [Fraction(6, 1)]}])
    assert ok.matrix(1) == [[6]]
    ok = DirectedSystem.symbolic(1, [{"kind": "diag_power", "exp": Fraction(2, 1)}])
    assert ok.matrix(1) == [[4]]
    for law in (
        {"kind": "poly", "coeffs": [6.7]},
        {"kind": "poly", "coeffs": [0, True]},
        {"kind": "diag_power", "exp": 1.5},
        {"kind": "diag_power", "exp": False},
    ):
        with pytest.raises(InputError, match="not an integer"):
            DirectedSystem.symbolic(1, [law])


def test_symbolic_system_integer_rule():
    laws = [{"kind": "identity"}] * 2
    ok = DirectedSystem.symbolic(
        Fraction(2, 1), laws,
        [{"row": Fraction(0, 1), "col": 1, "poly": [Fraction(3, 1)]}])
    assert ok.matrix(1) == [[1, 3], [0, 1]]
    for dim, off in (
        (2.0, ()),
        (True, ()),
        (2, [{"row": 0.5, "col": 1, "poly": [1]}]),
        (2, [{"row": 0, "col": True, "poly": [1]}]),
        (2, [{"row": 0, "col": 1, "poly": [1.5]}]),
    ):
        with pytest.raises(InputError, match="not an integer"):
            DirectedSystem.symbolic(dim, laws, off)
    with pytest.raises(InputError, match="not an integer"):
        DirectedSystem.from_family(2.5, lambda d: [[1]])


def test_d_chain_steps_are_read_at_their_parameters():
    sysw = _rank3_system(d_chain=[3, 5])
    # evaluated when built: a finite chain of two steps, with no family
    assert sysw._family is None and sysw.finite_length == 2
    assert sysw.matrix(1) == [[6, 3, 2], [0, 0, 1], [0, 0, 1]]
    assert sysw.matrix(2) == [[10, 5, 4], [0, 0, 1], [0, 0, 1]]
    with pytest.raises(InputError, match="outside the explicit chain"):
        sysw.matrix(3)
    with pytest.raises(InputError, match="1-based"):
        sysw.matrix(0)


# ---------------------------------------------------------------------------
# colimit classification
# ---------------------------------------------------------------------------


def test_colimit_identity_family():
    rep = colimit(DirectedSystem.symbolic(2, [{"kind": "identity"}] * 2))
    assert rep.invariants == GroupDescriptor.free(2)
    assert not rep.truncated
    assert rep.relations == ()


def test_colimit_mult_d():
    rep = colimit(DirectedSystem.symbolic(1, [{"kind": "mult_d"}]))
    assert rep.invariants == GroupDescriptor.rationals(1)
    assert not rep.truncated


def test_colimit_constant_scaling_localizes():
    rep = colimit(DirectedSystem.symbolic(1, [{"kind": "poly", "coeffs": [6]}]))
    assert rep.invariants == GroupDescriptor.localized([2, 3])
    rep = colimit(DirectedSystem.symbolic(1, [{"kind": "poly", "coeffs": [-1]}]))
    assert rep.invariants == GroupDescriptor.free(1)


def test_colimit_diagonal_power_family():
    rep = colimit(
        DirectedSystem.symbolic(
            3,
            [
                {"kind": "diag_power", "exp": 2},
                {"kind": "diag_power", "exp": 1},
                {"kind": "diag_power", "exp": 0},
            ],
        )
    )
    assert rep.invariants == GroupDescriptor(free_rank=1, q_rank=2)
    assert not rep.truncated


def test_colimit_rank3_system():
    rep = colimit(_rank3_system())
    assert rep.invariants == GroupDescriptor(free_rank=1, q_rank=1)
    assert not rep.truncated
    assert rep.rank == 2
    # exactly one defining identification at level one: e1 ~ 2 e2
    assert rep.relations == (((1, (1, 0, 0)), (1, (0, 2, 0))),)


def test_colimit_explicit_chains():
    rep = colimit(DirectedSystem.explicit([[[1, 1], [0, 1]]] * 3))
    assert rep.invariants == GroupDescriptor.free(2)
    assert not rep.truncated

    rep = colimit(DirectedSystem.explicit([[[2]]] * 3))
    assert rep.invariants == GroupDescriptor.free(1)
    assert rep.truncated
    assert rep.rank == 1

    rep = colimit(DirectedSystem.explicit([[[2, 0], [0, 0]]]))
    assert rep.invariants == GroupDescriptor.free(1)
    assert rep.truncated


def test_colimit_custom_chain_is_truncated():
    rep = colimit(_rank3_system(d_chain=[3, 5]))
    assert rep.truncated
    assert rep.rank == 2


def test_colimit_dense_commuting_family_uses_eigen_path():
    # P diag(d, 1) P^-1 for P = [[1, 1], [1, 2]]: all entries nonzero.
    sysd = DirectedSystem.from_family(
        2, lambda d: [[2 * d - 1, 1 - d], [2 * d - 2, 2 - d]]
    )
    rep = colimit(sysd)
    assert rep.invariants == GroupDescriptor(free_rank=1, q_rank=1)
    assert not rep.truncated


def test_colimit_rejects_non_commuting_dense_family():
    def bad(d):
        if d % 2:
            return [[d, 1], [1, d]]
        return [[d, 2], [3, d]]

    with pytest.raises(UnsupportedSystemError):
        colimit(DirectedSystem.from_family(2, bad))


def test_colimit_rejects_non_monomial_law():
    with pytest.raises(UnsupportedSystemError):
        colimit(DirectedSystem.symbolic(1, [{"kind": "poly", "coeffs": [-2, 1]}]))


# ---------------------------------------------------------------------------
# one flag reader for the triangular and the eigen path
# ---------------------------------------------------------------------------


def _conj(a, b):
    """``P diag(a, b) P^-1`` for ``P = [[1, 1], [1, 2]]``: no entry vanishes
    on the chain, so the union pattern has a cycle and the eigen path reads it."""
    return mat_mul(mat_mul([[1, 1], [1, 2]], [[a, 0], [0, b]]), [[2, -1], [-1, 1]])


def _late(d):
    """1 below d = 50 and 2 from there on, inside the window of d = 2 .. 131
    that the laws are read off, so no polynomial of degree <= 63 fits it."""
    return 1 if d < 50 else 2


_SPLIT = "non-free direction 1 couples into non-divisible direction 0"
_NO_MONOMIAL = "fits no monomial"


@pytest.mark.parametrize("family, eigen, outcome", [
    (lambda d: [[3, 1], [0, 2]], False, _SPLIT),
    (lambda d: [[d, 1], [0, 2]], False, "Loc{2} + Q"),
    (lambda d: _conj(3, 2), True, _SPLIT),
    (lambda d: _conj(d, 2), True, "Loc{2} + Q"),
    (lambda d: [[d, 0], [0, _late(d)]], False, _NO_MONOMIAL),
    # an entry of the cycle fits no polynomial, so no eigen law is read
    (lambda d: _conj(d, _late(d)), True, _NO_MONOMIAL),
], ids=["const-split", "grow-split-ok", "conj-const-split", "conj-grow-split-ok",
        "late-change", "conj-late-change"])
def test_both_paths_read_one_flag(monkeypatch, family, eigen, outcome):
    read = abgrp._eigen_laws
    eigen_calls = []
    monkeypatch.setattr(abgrp, "_eigen_laws", lambda *a: eigen_calls.append(1) or read(*a))
    system = DirectedSystem.from_family(2, family)
    if outcome in (_SPLIT, _NO_MONOMIAL):
        with pytest.raises(UnsupportedSystemError, match=outcome):
            colimit(system)
    else:
        rep = colimit(system)
        assert str(rep.invariants) == outcome and not rep.truncated
    assert bool(eigen_calls) == eigen


@pytest.mark.parametrize("family", [lambda d: [[d, 1], [0, 2]], lambda d: _conj(d, 2)],
                         ids=["triangular", "eigen"])
def test_a_lost_direction_trips_the_survivor_count(monkeypatch, family):
    typed = abgrp._direction_type
    calls = []

    def lose_the_first(law):
        calls.append(law)
        return None if len(calls) == 1 else typed(law)

    monkeypatch.setattr(abgrp, "_direction_type", lose_the_first)
    with pytest.raises(UnsupportedSystemError, match="the flag keeps 1 of 2 directions, "
                       "but the stabilized composite has rank 2"):
        colimit(DirectedSystem.from_family(2, family))


@pytest.mark.parametrize("coeffs", [[-3, 1], [-2, 1]])
def test_linear_law_with_a_root_on_the_chain_is_refused(coeffs):
    """``d - 3`` and ``d - 2`` vanish once on the chain d = 2, 3, 4, ...

    A zero step kills only what was born before it, so the colimit is the
    colimit of the tail, which multiplies by 1, 2, 3, ...: the true answer is
    Q, not 0.  Both laws are refused today; a change may turn the refusal
    into Q, never into 0.
    """
    system = DirectedSystem.symbolic(1, [{"kind": "poly", "coeffs": coeffs}])
    with pytest.raises(UnsupportedSystemError,
                       match="window rank depends on the starting level"):
        colimit(system)


def test_colimit_refuses_odd_class_growth_that_never_inverts_two():
    # Odd d multiply by d and even d by 1: every odd prime is inverted, 2 never.
    system = DirectedSystem.from_family(1, lambda d: [[d if d % 2 else 1]])
    with pytest.raises(UnsupportedSystemError, match=r"Z\[1/p : p odd\]"):
        colimit(system)


@pytest.mark.parametrize("family", [
    lambda d: [[2 * d if d % 2 else 1]],
    lambda d: [[d if d % 2 else 2]],
    lambda d: [[1 if d % 2 else d]],
])
def test_colimit_parity_laws_that_invert_two_give_q(family):
    report = colimit(DirectedSystem.from_family(1, family))
    assert report.invariants == GroupDescriptor.rationals(1)
    assert not report.truncated


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _primes_dividing_infinitely_many(step):
    """The primes in ``_SMALL_PRIMES`` dividing ``step(d)`` for infinitely many d.

    Whether p divides ``c * d^e`` depends on d mod p, and the law on d mod 2,
    so it holds for infinitely many d when it holds for one d in a period 2p.
    """
    return {p for p in _SMALL_PRIMES if any(step(d) % p == 0 for d in range(2, 2 * p + 2))}


@settings(max_examples=60, deadline=None)
@given(c_odd=st.integers(-12, 12), e_odd=st.integers(0, 3),
       c_even=st.integers(-12, 12), e_even=st.integers(0, 3))
def test_parity_family_inverts_the_primes_dividing_infinitely_many_steps(
        c_odd, e_odd, c_even, e_even):
    def step(d):
        return c_odd * d ** e_odd if d % 2 else c_even * d ** e_even

    system = DirectedSystem.from_family(1, lambda d: [[step(d)]])
    support = _primes_dividing_infinitely_many(step)
    if 0 in (c_odd, c_even):
        expected = GroupDescriptor.zero()
    elif 13 not in support:
        # 13 exceeds every |c|, so only d carries it: the support is finite.
        expected = GroupDescriptor(loc=[tuple(support)])
    elif 2 in support:
        expected = GroupDescriptor.rationals(1)
    else:
        # Every odd prime and not 2: Z[1/p : p odd] has no descriptor.
        with pytest.raises(UnsupportedSystemError):
            colimit(system)
        return
    assert colimit(system).invariants == expected


_ID = {"kind": "identity"}


# Each malformed step next to the symbolic laws and offdiag entries that
# would make the same step, which ``symbolic`` refuses when it is built.
@pytest.mark.parametrize("rows, laws, offdiag", [
    ([{0: 1}, {2: 1}], [_ID, _ID], [{"row": 1, "col": 2, "poly": [1]}]),     # column out of range
    ([{0: 1}, {-1: 1}], [_ID, _ID], [{"row": 1, "col": -1, "poly": [1]}]),   # negative column
    ([{0: True}, {1: 1}], [{"kind": "poly", "coeffs": [True]}, _ID], []),     # bool entry
    ([{0: Fraction(1, 2)}, {1: 1}],                                           # non-integral entry
     [{"kind": "poly", "coeffs": [Fraction(1, 2)]}, _ID], []),
    ([{0: 1}], [_ID], []),                                                    # wrong row count
    ([{0: 1}, {1: Fraction(1, 2)}],                                           # ... in a later row
     [_ID, {"kind": "poly", "coeffs": [Fraction(1, 2)]}], []),
    ([{1: 1}, {True: 1}], [_ID, _ID], [{"row": 1, "col": True, "poly": [1]}]),  # bool column
], ids=[f"rows{i}" for i in range(7)])
def test_malformed_sparse_rows_are_refused(rows, laws, offdiag):
    # every public constructor checks a step where it enters
    refusals = (
        lambda: DirectedSystem.from_family(2, lambda d: rows).matrix(1),
        lambda: DirectedSystem.explicit([[{0: 1}, {1: 1}], rows]),
        lambda: DirectedSystem.from_json({"mode": "explicit", "matrices": [[{0: 1}, {1: 1}], rows]}),
        lambda: DirectedSystem.symbolic(2, laws, offdiag),
        lambda: DirectedSystem.from_json(
            {"mode": "symbolic", "dim": 2, "law": laws, "offdiag": offdiag}),
    )
    for refused in refusals:
        with pytest.raises(InputError):
            refused()


def test_steps_drop_their_zeros():
    # d - 3 vanishes at d = 3, the second step; the symbolic family drops
    # that zero itself, with no check of its rows after it was built
    system = DirectedSystem.symbolic(1, [{"kind": "poly", "coeffs": [-3, 1]}])
    assert system._step(2) == [{}]
    assert system._step(1) == [{0: -1}]
    feed = DirectedSystem.symbolic(2, [_ID, _ID], [{"row": 0, "col": 1, "poly": [-4, 1]}])
    assert feed._step(3) == [{0: 1}, {1: 1}]
    assert feed._step(4) == [{0: 1, 1: 1}, {1: 1}]
    # a caller's family is checked, and its zeros dropped, in every row
    family = DirectedSystem.from_family(2, lambda d: [{0: 1}, {0: 0, 1: Fraction(2, 1)}])
    assert family._step(1) == [{0: 1}, {1: 2}]
    assert type(family._step(1)[1][1]) is int


def test_sparse_and_dense_steps_are_one_system():
    sparse = DirectedSystem.explicit([[{0: 2}, {0: 1, 1: Fraction(3, 1)}]])
    dense = DirectedSystem.explicit([[[2, 0], [1, 3]]])
    assert sparse.to_json() == dense.to_json() == {"mode": "explicit", "matrices": [[[2, 0], [1, 3]]]}
    assert colimit(sparse) == colimit(dense)


def test_colimit_shift_family_dies():
    rep = colimit(
        DirectedSystem.symbolic(
            2,
            [{"kind": "zero"}, {"kind": "zero"}],
            [{"row": 0, "col": 1, "kind": "identity"}],
        )
    )
    assert rep.invariants.is_trivial
    assert rep.rank == 0


def test_colimit_report_json():
    rep = colimit(_rank3_system())
    obj = rep.to_json_dict()
    assert obj["invariants"] == {"free": 1, "q": 1, "loc": [], "torsion": []}
    assert obj["truncated"] is False
    assert obj["relations"] == [[[1, [1, 0, 0]], [1, [0, 2, 0]]]]
    assert isinstance(rep, ColimitReport)


# ---------------------------------------------------------------------------
# identification of elements
# ---------------------------------------------------------------------------


def test_identified_rank3():
    sys31 = _rank3_system()
    assert identified(sys31, (1, (1, 0, 0)), (1, (0, 2, 0))) is True
    assert identified(sys31, (1, (1, 0, 0)), (1, (0, 1, 0))) is False
    # levels can differ: e1 at level 1 pushes to (4, 0, 0) at level 2
    assert identified(sys31, (1, (1, 0, 0)), (2, (4, 0, 0))) is True
    assert identified(sys31, (2, (1, 0, 0)), (1, (1, 0, 0))) is False


def test_identified_explicit_chain():
    sys2 = DirectedSystem.explicit([[[2]], [[2]]])
    assert identified(sys2, (1, (1,)), (2, (2,))) is True
    assert identified(sys2, (1, (1,)), (1, (2,))) is False
    with pytest.raises(InputError):
        identified(sys2, (4, (1,)), (1, (1,)))


def test_identified_wrong_certified_rank_raises():
    # A certified rank one below the true rank is never reached by the
    # window, so a "no" cannot be certified and the walk must fail loudly.
    sys31 = _rank3_system()
    report = colimit(sys31)
    sys31._analysis_cache = dataclasses.replace(report, rank=report.rank - 1)
    for decide in (identified, _window_identified):
        with pytest.raises(CrossCheckError):
            decide(sys31, (1, (1, 0, 0)), (1, (0, 1, 0)))
        # a difference that vanishes is still found before the bound
        assert decide(sys31, (1, (1, 0, 0)), (1, (0, 2, 0))) is True


def test_identified_outlasts_a_window_rank_plateau():
    # Seven dead coordinates on a path; at d = 5 every arc but the first
    # vanishes, so the window from level 4 keeps rank 1 for six steps before
    # dropping to the certified rank 0.  The colimit is 0, so every element
    # is identified with 0; a plateau rule would have answered "no".
    dim = 7
    off = [{"row": 1, "col": 0, "poly": [1]}] + [
        {"row": i + 1, "col": i, "poly": [-5, 1]} for i in range(1, dim - 1)
    ]
    chain = DirectedSystem.symbolic(dim, [{"kind": "zero"}] * dim, off)
    assert colimit(chain).rank == 0
    e0 = (1,) + (0,) * (dim - 1)
    assert identified(chain, (4, e0), (4, (0,) * dim)) is True


# An identity coordinate feeds a path of dead coordinates along a unit
# subdiagonal, so the colimit is Z.
@pytest.mark.parametrize("system, level", [
    # the symbolic chain of 65 zero laws: one step per dead coordinate
    (DirectedSystem.symbolic(66, [{"kind": "identity"}] + [{"kind": "zero"}] * 65,
                             [{"row": i + 1, "col": i, "poly": [1]} for i in range(65)]), 65),
    # 40 coordinates that die on even d: two steps per dead coordinate
    (DirectedSystem.from_laws(41, [((1,), (1,))] + [((1,), (0,))] * 40,
                              [(i + 1, i, ((1,), (1,))) for i in range(40)]), 79),
], ids=["zero-65", "zero-on-even-40"])
def test_identified_walks_to_a_stabilization_level_past_64(system, level):
    # The window from level 1 reaches the certified rank 1 only at the
    # stabilization level, within the proved 2 * dim steps.
    report = colimit(system)
    assert (str(report.invariants), report.rank, report.stabilization_level) == ("Z", 1, level)
    e0 = (1,) + (0,) * (system.dim - 1)
    for decide in (identified, _window_identified):
        assert decide(system, (1, e0), (1, (0,) * system.dim)) is False


def test_a_vanishing_difference_answers_yes_without_a_colimit(monkeypatch):
    def refuse(system):
        raise RuntimeError("the colimit was classified")

    monkeypatch.setattr(abgrp, "colimit", refuse)
    system = rank_one_system()
    # equal at the comparison level, and equal one step on
    assert identified(system, (1, (1, 0, 0)), (2, (4, 0, 0))) is True
    assert identified(system, (1, (1, 0, 0)), (1, (0, 2, 0))) is True
    # a difference that survives the step needs the certified rank
    with pytest.raises(RuntimeError, match="classified"):
        identified(system, (1, (1, 0, 0)), (1, (0, 1, 0)))


def test_a_yes_is_given_on_a_system_colimit_refuses():
    # d - 1 fits no monomial, so the colimit is refused; the second
    # coordinate dies at the first step all the same
    system = DirectedSystem.symbolic(2, [{"kind": "poly", "coeffs": [-1, 1]}, {"kind": "zero"}])
    with pytest.raises(UnsupportedSystemError, match=_NO_MONOMIAL):
        colimit(system)
    assert identified(system, (1, (0, 1)), (1, (0, 0))) is True
    with pytest.raises(UnsupportedSystemError, match=_NO_MONOMIAL):
        identified(system, (1, (1, 0)), (1, (0, 0)))


def test_a_refusal_is_classified_once(monkeypatch):
    calls = []
    laws = abgrp._colimit_laws
    monkeypatch.setattr(abgrp, "_colimit_laws", lambda system: calls.append(1) or laws(system))
    system = DirectedSystem.symbolic(2, [{"kind": "poly", "coeffs": [-1, 1]}, {"kind": "zero"}])
    texts = []
    for _ in range(3):
        with pytest.raises(UnsupportedSystemError, match=_NO_MONOMIAL) as exc:
            identified(system, (1, (1, 0)), (1, (0, 0)))
        texts.append(str(exc.value))
    assert calls == [1] and texts == texts[:1] * 3


@pytest.mark.parametrize("error", [CrossCheckError, InputError])
def test_only_a_refusal_is_kept(monkeypatch, error):
    calls = []

    def fail(system):
        calls.append(1)
        raise error("not a refusal")

    monkeypatch.setattr(abgrp, "_colimit_laws", fail)
    # a family without laws, read off its samples
    system = DirectedSystem.from_family(1, lambda d: [[d]])
    for _ in range(2):
        with pytest.raises(error, match="not a refusal"):
            colimit(system)
    assert calls == [1, 1]
    monkeypatch.undo()
    assert str(colimit(system).invariants) == "Q"


_SCALING_LAWS = {
    "Q": ({"kind": "mult_d"}, {"kind": "diag_power", "exp": 2},
          {"kind": "poly", "coeffs": [0, -3]}, {"kind": "poly", "coeffs": [0, 2]}),
    "Z": ({"kind": "identity"}, {"kind": "poly", "coeffs": [-1]}),
    "Loc": ({"kind": "poly", "coeffs": [2]}, {"kind": "poly", "coeffs": [6]},
            {"kind": "poly", "coeffs": [-3]}),
    "dead": ({"kind": "zero"},),
}


@st.composite
def triangular_systems(draw):
    """A certified triangular symbolic system: acyclic feeds that run only
    into ``Q`` coordinates or out of ``Z`` ones, so every filtration splits."""
    dim = draw(st.integers(2, 8))
    types = draw(st.lists(st.sampled_from(sorted(_SCALING_LAWS)), min_size=dim, max_size=dim))
    laws = [draw(st.sampled_from(_SCALING_LAWS[t])) for t in types]
    order = draw(st.permutations(range(dim)))
    offdiag = []
    for i in range(dim):
        for j in range(dim):
            if order.index(i) < order.index(j) and (types[i] == "Q" or types[j] == "Z"):
                coeffs = draw(st.sampled_from(([], [1], [0, 1], [-2, 1], [2, -1], [0, -2])))
                if coeffs:
                    offdiag.append({"row": i, "col": j, "poly": coeffs})
    return DirectedSystem.symbolic(dim, laws, offdiag)


def _push(system, level, vec, target):
    for t in range(level, target):
        vec = _dense_mat_vec(system.matrix(t), vec)
    return vec


def _window_identified(system, a, b):
    """The route ``identified`` replaced on the canonical chain: the window
    ``M_(base+k) ... M_base`` multiplied out and echelonized at each step."""
    (la, va), (lb, vb) = a, b
    r = colimit(system).rank
    base = max(la, lb)
    diff = [x - y for x, y in zip(_push(system, la, va, base), _push(system, lb, vb, base))]
    if not any(diff):
        return True
    window = None
    for level in range(base, base + 2 * system.dim):
        step = system._step(level)
        diff = abgrp._apply(step, diff)
        if not any(diff):
            return True
        window = step if window is None else abgrp._sparse_mul(step, window)
        if len(abgrp._echelon(window)) == r:
            return False
    raise CrossCheckError(f"the window from level {base} did not reach rank {r}")


@settings(max_examples=60, deadline=None)
@given(system=triangular_systems(), data=st.data())
def test_identified_matches_far_pushforward(system, data):
    report = colimit(system)
    assert not report.truncated
    small = st.lists(st.integers(-2, 2), min_size=system.dim, max_size=system.dim)
    la = data.draw(st.integers(1, 20))
    va = data.draw(small)
    if data.draw(st.booleans()):
        lb, vb = data.draw(st.integers(1, 20)), data.draw(small)
    else:
        # the same class: va pushed on, plus multiples of level-1 relations
        lb = data.draw(st.integers(la, 20))
        vb = _push(system, la, va, lb)
        for (_, x), (_, y) in report.relations:
            k = data.draw(st.integers(-2, 2))
            rel = _push(system, 1, [p - q for p, q in zip(x, y)], lb)
            vb = [u + k * w for u, w in zip(vb, rel)]
    top = max(la, lb) + 64
    expect = _push(system, la, va, top) == _push(system, lb, vb, top)
    assert identified(system, (la, va), (lb, vb)) is expect
    assert _window_identified(system, (la, va), (lb, vb)) is expect


def _conjugated(system, p, p_inv):
    """The system ``P M_t P^-1``: the same colimit, seen in another basis."""
    return DirectedSystem.from_family(system.dim, lambda d: mat_mul(
        mat_mul(p, abgrp._dense_rows(system._family(d), system.dim)), p_inv))


@settings(max_examples=30, deadline=None)
@given(system=triangular_systems(), data=st.data())
def test_colimit_invariant_under_constant_conjugation(system, data):
    report = colimit(system)
    dim = system.dim
    # a signed permutation only relabels the union pattern
    perm = data.draw(st.permutations(range(dim)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=dim, max_size=dim))
    p = [[signs[i] if j == perm[i] else 0 for j in range(dim)] for i in range(dim)]
    p_inv = [list(col) for col in zip(*p)]
    relabelled = colimit(_conjugated(system, p, p_inv))
    assert (relabelled.invariants, relabelled.rank) == (report.invariants, report.rank)
    # a general unimodular P may leave the certified class, but never changes the answer
    u, u_inv = random_unimodular(random.Random(data.draw(st.integers(0, 2 ** 32))), dim)
    try:
        mixed = colimit(_conjugated(system, u, u_inv))
    except UnsupportedSystemError:
        return
    assert (mixed.invariants, mixed.rank) == (report.invariants, report.rank)


def test_identified_validation():
    sys31 = _rank3_system()
    with pytest.raises(InputError):
        identified(sys31, (0, (1, 0, 0)), (1, (1, 0, 0)))
    with pytest.raises(InputError):
        identified(sys31, (1, (1, 0)), (1, (1, 0, 0)))
    for vec in (5, None):
        with pytest.raises(InputError, match="an element vector must be a list"):
            identified(sys31, (1, (1, 0, 0)), (1, vec))

def test_identified_integer_rule():
    sys31 = _rank3_system()
    assert identified(sys31, (1, (Fraction(2, 1), 0, 0)), (1, (0, 4, 0))) is True
    for vec in ((1.9, 0, 0), (1.0, 0, 0), (True, 0, 0), (Fraction(1, 2), 0, 0)):
        with pytest.raises(InputError, match="not an integer"):
            identified(sys31, (1, vec), (1, (1, 0, 0)))
    assert identified(sys31, (1, (1, 0, 0)), (Fraction(2, 1), (4, 0, 0))) is True
    for level in (True, 2.0, Fraction(3, 2)):
        with pytest.raises(InputError, match="not an integer"):
            identified(sys31, (level, (1, 0, 0)), (1, (1, 0, 0)))


# ---------------------------------------------------------------------------
# the flag, typed once per law
# ---------------------------------------------------------------------------


def _flag_sum_by_pairs(flag, r, typed):
    """The route ``_flag_sum`` replaced: every direction typed on its own,
    with no law shared."""
    types = [abgrp._direction_type(law) for law, _ in flag]
    survivors = [t for t in types if t is not None]
    if len(survivors) != r:
        raise UnsupportedSystemError(
            f"the flag keeps {len(survivors)} of {len(flag)} directions, but the "
            f"stabilized composite has rank {r}")
    for p, (_, into) in enumerate(flag):
        if types[p] is not None and not types[p].is_free:
            for q in into:
                if types[q] is not None and not types[q].is_divisible:
                    raise UnsupportedSystemError(
                        f"cannot certify a split filtration: non-free direction {p} "
                        f"couples into non-divisible direction {q}; refusing to guess "
                        "the extension")
    return GroupDescriptor.zero().direct_sum(*survivors)


def _outcome(flag_sum, args):
    try:
        return flag_sum(*args)
    except UnsupportedSystemError as exc:
        return str(exc)


def _assert_flags_match_the_pair_route(run):
    """Every flag that ``run()``, which may be refused, builds gives the same
    descriptor or refusal on both routes; ``run`` is called twice, so it
    reads no report ``colimit`` kept.  The library types each distinct
    law once where it builds the flag, and ``_flag_sum`` reads the types, so
    a law refused while typing refuses the run before ``_flag_sum``.  A
    second run records such a refusal and types the law as a stand-in
    instead, so that the flag reaches ``_flag_sum``; there the pair route
    types every direction of it on its own and must give the refusal the
    first run raised."""
    try:
        run()
        raised = None
    except UnsupportedSystemError as exc:
        raised = str(exc)
    calls, refusals, flag_sum, direction_type = [], [], abgrp._flag_sum, abgrp._direction_type

    def typing(law):
        try:
            return direction_type(law)
        except UnsupportedSystemError as exc:
            refusals.append(str(exc))
            return GroupDescriptor.free(1)

    def reading(flag, r, typed):
        calls.append((flag, r, typed, refusals[:1]))
        refusals.clear()
        return flag_sum(flag, r, typed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(abgrp, "_direction_type", typing)
        mp.setattr(abgrp, "_flag_sum", reading)
        try:
            run()
        except UnsupportedSystemError:
            pass
    assert calls
    for *args, refusal in calls:
        if refusal:
            assert refusal == [raised]
        library = refusal[0] if refusal else _outcome(flag_sum, args)
        assert library == _outcome(_flag_sum_by_pairs, args)


@settings(max_examples=40, deadline=None)
@given(system=triangular_systems())
def test_flag_sum_matches_the_pair_route_on_triangular_systems(system):
    _assert_flags_match_the_pair_route(lambda: abgrp._colimit_laws(system))


@pytest.mark.parametrize("n", range(1, 7))
def test_flag_sum_matches_the_pair_route_on_the_b0_parity_systems(n):
    _assert_flags_match_the_pair_route(lambda: k_of_B0(n, engine_check=True))


@pytest.mark.parametrize("n", range(1, 6))
def test_flag_sum_matches_the_pair_route_on_the_kappa_family(n):
    _assert_flags_match_the_pair_route(lambda: k_of_A0(n, engine_check=True))


@pytest.mark.parametrize("family", [
    lambda d: [[d - 1, 0], [0, 0]],  # fits no monomial
    lambda d: [[3, 1], [0, 2]],  # a split the flag cannot certify
    lambda d: _conj(3, 2),  # the same on the eigen path
], ids=["no-monomial", "split", "eigen-split"])
def test_flag_sum_matches_the_pair_route_on_refusals(family):
    _assert_flags_match_the_pair_route(lambda: colimit(DirectedSystem.from_family(2, family)))


def test_each_value_sequence_is_typed_once(monkeypatch):
    typed, counts, flag_sum, direction_type = [], [], abgrp._flag_sum, abgrp._direction_type

    def count(flag, r, given):
        # the laws typed since the last flag, as it was built: each of its
        # distinct laws once, in the order of the flag (no eigen law here)
        assert typed == list(dict.fromkeys(law for law, _ in flag)) == list(given)
        counts.append(len(typed))
        typed.clear()
        return flag_sum(flag, r, given)

    monkeypatch.setattr(abgrp, "_flag_sum", count)
    monkeypatch.setattr(abgrp, "_direction_type",
                        lambda law: typed.append(law) or direction_type(law))
    n = 6
    # the parity systems hold 2^(n-1) coordinates each, one law d^(n-k) per
    # degree k: typed once per law, given or read off the samples
    k_of_B0(n, engine_check=True)
    for parity in (0, 1):
        degrees = [k for k in range(parity, n + 1, 2) for _ in range(math.comb(n, k))]
        colimit(DirectedSystem.from_family(len(degrees), lambda d, degrees=degrees: [
            {i: d ** (n - k)} for i, k in enumerate(degrees)]))
    assert counts == [4, 3, 4, 3]
    assert sum(counts[:2]) == len({n - k for k in range(n + 1)})

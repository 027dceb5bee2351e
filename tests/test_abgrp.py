"""Tests for exact linear algebra, group descriptors and the colimit engine."""

import dataclasses
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_smith_form, random_int_matrix, random_unimodular, seeded_rng
from ringkt import abgrp
from ringkt.abgrp import (
    _fit_monomial,
    ColimitReport,
    DirectedSystem,
    GroupDescriptor,
    cokernel,
    colimit,
    compose_window,
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
    assert cokernel([[2, 0], [0, 3]]) == GroupDescriptor.cyclic(6)
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
    assert not GroupDescriptor.cyclic(2).is_divisible
    d = GroupDescriptor(free_rank=1, q_rank=2, loc=[(2, 3)], torsion=(2, 4))
    assert str(d) == "Z + Loc{2,3} + Q^2 + Z/2 + Z/4"
    assert str(GroupDescriptor.zero()) == "0"


def test_descriptor_sum_and_json_round_trip():
    d = GroupDescriptor.free(1).direct_sum(
        GroupDescriptor.rationals(1), GroupDescriptor.cyclic(2, 6)
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


def test_compose_window_example():
    sysw = _rank3_system(d_chain=[3, 5])
    assert compose_window(sysw, 1, 1) == [[6, 3, 2], [0, 0, 1], [0, 0, 1]]
    expected = mat_mul([[10, 5, 4], [0, 0, 1], [0, 0, 1]],
                       [[6, 3, 2], [0, 0, 1], [0, 0, 1]])
    assert compose_window(sysw, 1, 2) == expected
    assert compose_window(sysw, 2, 2) == [[10, 5, 4], [0, 0, 1], [0, 0, 1]]
    with pytest.raises(InputError):
        compose_window(sysw, 2, 3)
    with pytest.raises(InputError):
        compose_window(sysw, 0, 1)


def test_compose_window_rebracketing():
    sys31 = _rank3_system()
    w13 = compose_window(sys31, 1, 3)
    w12 = compose_window(sys31, 1, 2)
    w33 = compose_window(sys31, 3, 3)
    assert w13 == mat_mul(w33, w12)


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
    """1 along the materialized chain, 2 at the confirmation samples d = 101, 102."""
    return 1 if d < 50 else 2


_SPLIT = "non-free direction 1 couples into non-divisible direction 0"
_NO_MONOMIAL = "fits no monomial"


@pytest.mark.parametrize("family, eigen, outcome", [
    (lambda d: [[3, 1], [0, 2]], False, _SPLIT),
    (lambda d: [[d, 1], [0, 2]], False, "Loc{2} + Q"),
    (lambda d: _conj(3, 2), True, _SPLIT),
    (lambda d: _conj(d, 2), True, "Loc{2} + Q"),
    (lambda d: [[d, 0], [0, _late(d)]], False, _NO_MONOMIAL),
    # certified as Z + Q while the eigen path skipped the confirmation samples
    (lambda d: _conj(d, _late(d)), True, _NO_MONOMIAL),
], ids=["const-split", "grow-split-ok", "conj-const-split", "conj-grow-split-ok",
        "late-change", "conj-late-change"])
def test_both_paths_read_one_flag(monkeypatch, family, eigen, outcome):
    read = abgrp._eigen_flag
    eigen_calls = []
    monkeypatch.setattr(abgrp, "_eigen_flag", lambda *a: eigen_calls.append(1) or read(*a))
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

    def lose_the_first(samples):
        calls.append(samples)
        return None if len(calls) == 1 else typed(samples)

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


def _fit_monomial_by_search(samples):
    """The search that ``_fit_monomial`` replaced: try e = 0..63 in turn."""
    if all(lam == 0 for _, lam in samples):
        return ("zero",)
    if any(lam == 0 for _, lam in samples):
        return None
    d1, l1 = samples[0]
    for e in range(0, 64):
        c = Fraction(l1, d1 ** e)
        if all(Fraction(lam, d ** e) == c for d, lam in samples[1:]):
            return ("monomial", c, e)
    return None


@settings(max_examples=200, deadline=None)
@given(ds=st.lists(st.integers(1, 120), min_size=1, max_size=6, unique=True),
       num=st.integers(-40, 40), den=st.integers(1, 12), e=st.integers(0, 70),
       how=st.sampled_from(["fit", "perturbed", "random", "zero"]),
       noise=st.lists(st.integers(-30, 30), min_size=6, max_size=6))
def test_fit_monomial_agrees_with_the_exponent_search(ds, num, den, e, how, noise):
    lams = [Fraction(num * d ** e, den) for d in ds]
    if how == "perturbed":
        lams[-1] += noise[0] or 1
    elif how == "random":
        lams = [Fraction(x) for x in noise[:len(ds)]]
    elif how == "zero":
        lams[0] = Fraction(0)
    samples = list(zip(ds, lams))
    assert _fit_monomial(samples) == _fit_monomial_by_search(samples)


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


@pytest.mark.parametrize("rows", [
    [{0: 1}, {2: 1}],                  # column out of range
    [{0: 1}, {-1: 1}],                 # negative column
    [{0: True}, {1: 1}],               # bool entry
    [{0: Fraction(1, 2)}, {1: 1}],     # non-integral entry
    [{0: 1}],                          # wrong row count
])
def test_malformed_sparse_rows_are_refused(rows):
    with pytest.raises(InputError):
        DirectedSystem.from_family(2, lambda d: rows).matrix(1)
    with pytest.raises(InputError):
        DirectedSystem.explicit([[{0: 1}, {1: 1}], rows])


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
    with pytest.raises(CrossCheckError):
        identified(sys31, (1, (1, 0, 0)), (1, (0, 1, 0)))
    # a difference that vanishes is still found before the bound
    assert identified(sys31, (1, (1, 0, 0)), (1, (0, 2, 0))) is True


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


def _conjugated(system, p, p_inv):
    """The system ``P M_t P^-1``: the same colimit, seen in another basis."""
    return DirectedSystem.from_family(
        system.dim, lambda d: mat_mul(mat_mul(p, system.matrix_at(d)), p_inv))


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

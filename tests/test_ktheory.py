"""Tests for the K-theory layer: structure matrices, base K-groups,
six-term steps, and classification reports."""

import json
import pathlib
from fractions import Fraction

import pytest
from conftest import deadline, identity_matrix, random_unimodular, seeded_rng
from hypothesis import given, settings
from hypothesis import strategies as st

from ringkt import ktheory
from ringkt.abgrp import (
    DirectedSystem,
    GroupDescriptor,
    cokernel,
    colimit,
    determinant,
    identified,
    mat_mul,
    rank,
    solve_exact,
    _dense_rows,
    _sparse_rows,
)
from ringkt.errors import AmbiguityError, HypothesisError, InputError
from ringkt.ktheory import (
    RESULT_TAGS,
    ActionDescriptor,
    AmbiguityReport,
    EndoBlocks,
    GradedKGroup,
    KappaMatrix,
    classify_A,
    classify_B,
    exterior_graded_ranks,
    identity_action,
    involution_action,
    k_full_adele_Q,
    k_of_A0,
    k_of_A_truncated_Q,
    k_of_B0,
    kappa,
    kappa_inf,
    pv_step,
    rank_one_inclusion_matrix,
    rank_one_system,
    subsets_graded_lex,
)
from ringkt.numfield import NumberField, parse_field


def even_subsets_graded_lex(n):
    """The even-size subsets of {1..n} in graded-lex order."""
    return [s for s in subsets_graded_lex(n) if len(s) % 2 == 0]


# ---------------------------------------------------------------------------
# subset bases
# ---------------------------------------------------------------------------


def test_subset_order():
    assert subsets_graded_lex(2) == [(), (1,), (2,), (1, 2)]
    assert subsets_graded_lex(3) == [
        (), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3),
    ]
    assert even_subsets_graded_lex(3) == [(), (1, 2), (1, 3), (2, 3)]
    assert len(subsets_graded_lex(5)) == 32
    assert len(even_subsets_graded_lex(5)) == 16


# ---------------------------------------------------------------------------
# structure matrices
# ---------------------------------------------------------------------------


def test_rank_one_matrices():
    assert rank_one_inclusion_matrix(2) == [[2, 1, 0], [0, 0, 1], [0, 0, 1]]
    assert rank_one_inclusion_matrix(3) == [[3, 1, 1], [0, 1, 0], [0, 0, 1]]
    assert rank_one_inclusion_matrix(5) == [[5, 2, 2], [0, 1, 0], [0, 0, 1]]
    # even multiplier 2d: first row (2d, d, d-1), the two projection rows agree
    for d in (2, 3, 4, 5, 10):
        m = rank_one_inclusion_matrix(2 * d)
        assert m == [[2 * d, d, d - 1], [0, 0, 1], [0, 0, 1]]


def test_kappa_inf_values():
    assert kappa_inf(3, 2) == (8, 2, 2, 2)
    assert kappa_inf(1, 7) == (7,)
    assert kappa_inf(2, 3) == (9, 1)
    n = 4
    subs = even_subsets_graded_lex(n)
    assert kappa_inf(n, 5) == tuple(5 ** (n - len(t)) for t in subs)


@pytest.mark.parametrize("n", range(1, 13))
def test_binomial_counts_match_the_subset_enumeration(n):
    """``kappa_inf`` and ``k_of_B0``'s degree lists count subsets by size;
    the enumeration in graded-lex order is the reference."""
    subs = subsets_graded_lex(n)
    for parity in (0, 1):
        assert ktheory._subset_sizes(n, parity) == [len(t) for t in subs if len(t) % 2 == parity]
    for d in (2, 3, 10):
        assert kappa_inf(n, d) == tuple(d ** (n - len(t)) for t in even_subsets_graded_lex(n))


def test_kappa_dense_shapes():
    k = kappa(2, 2)
    assert k.size == 6
    dense = k.dense()
    # finite block collapses onto the empty-set column; mixing row hits the
    # unit class; infinite diagonal is d^(n - |T|)
    assert [row[0] for row in dense[:4]] == [1, 1, 1, 1]
    assert dense[4][:4] == [0, 2, 2, 2]
    assert dense[4][4] == 4 and dense[5][5] == 1
    k3 = kappa(2, 3)
    d3 = k3.dense()
    assert all(d3[i][i] == 1 for i in range(4))
    assert d3[4][:4] == [4, 4, 4, 4]  # (3^2 - 1) / 2
    assert d3[4][4] == 9 and d3[5][5] == 1


def test_kappa_composition_exact():
    rng = seeded_rng("kappa-compose")
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rng.randint(2, 30)
        b = rng.randint(2, 30)
        lhs = kappa(n, a).compose(kappa(n, b))
        assert lhs == kappa(n, a * b)
        # composition is commutative
        assert kappa(n, b).compose(kappa(n, a)) == lhs


def _kappa_by_templates(n, d):
    """kappa(n, 2^a q) as the multiplier-2 template composed a times, then
    with the odd template: the construction the closed form replaced."""
    n2 = 2 ** n
    two = KappaMatrix(n, 2, False, (0,) + (2 ** (n - 1),) * (n2 - 1), kappa_inf(n, 2))
    a, q = 0, d
    while q % 2 == 0:
        a, q = a + 1, q // 2
    out = None
    for _ in range(a):
        out = two if out is None else out.compose(two)
    if q > 1:
        odd = KappaMatrix(n, q, True, ((q ** n - 1) // 2,) * n2, kappa_inf(n, q))
        out = odd if out is None else out.compose(odd)
    return out


def test_kappa_closed_form_matches_template_composition():
    for n in range(1, 7):
        for d in range(2, 257):
            assert kappa(n, d) == _kappa_by_templates(n, d), (n, d)


def test_the_two_kappa_routes_stay_apart(monkeypatch):
    # The closed form must not multiply blocks, nor the product of blocks
    # read the closed form; otherwise the composition law checks nothing.
    def refuse(*args):
        raise AssertionError("one structure-matrix route read the other")

    pairs = ((1, 2), (2, 6), (3, 5), (4, 12), (5, 64))
    built = {nd: kappa(*nd) for nd in pairs}
    six, five, thirty = kappa(2, 6), kappa(2, 5), kappa(2, 30)
    with monkeypatch.context() as patched:
        patched.setattr(KappaMatrix, "compose", refuse)
        assert {nd: kappa(*nd) for nd in pairs} == built
    monkeypatch.setattr(ktheory, "kappa", refuse)
    assert six.compose(five) == five.compose(six) == thirty


def test_kappa_sparse_matches_dense_product():
    rng = seeded_rng("kappa-dense")
    for _ in range(15):
        n = rng.randint(1, 3)
        a = rng.randint(2, 12)
        b = rng.randint(2, 12)
        sparse = kappa(n, a).compose(kappa(n, b)).dense()
        dense = mat_mul(kappa(n, a).dense(), kappa(n, b).dense())
        assert sparse == dense


def test_kappa_validation():
    with pytest.raises(InputError):
        kappa(0, 2)
    with pytest.raises(InputError):
        kappa(2, 1)
    with pytest.raises(InputError):
        kappa(1, 2).compose(kappa(2, 2))


def test_rank_one_system_matches_matrices():
    sys = rank_one_system()
    # canonical chain: step t uses multiplier t+1, i.e. the inclusion 2(t+1)
    for t in (1, 2, 3, 7):
        assert sys.matrix(t) == rank_one_inclusion_matrix(2 * (t + 1))
    rep = colimit(sys)
    assert str(rep.invariants) == "Z + Q"
    assert rep.relations == (((1, (1, 0, 0)), (1, (0, 2, 0))),)
    assert identified(sys, (1, (1, 0, 0)), (1, (0, 2, 0)))


# ---------------------------------------------------------------------------
# base K-groups (closed forms carry their own engine cross-check)
# ---------------------------------------------------------------------------


def test_k_of_B0_small():
    assert str(k_of_B0(1)) == "K0 = Q, K1 = Z"
    assert str(k_of_B0(2)) == "K0 = Z + Q, K1 = Q^2"
    assert str(k_of_B0(3)) == "K0 = Q^4, K1 = Z + Q^3"


def test_k_of_B0_closed_form_larger():
    for n in (4, 5, 6):
        g = k_of_B0(n, engine_check=False)
        total_q = g.k0.q_rank + g.k1.q_rank
        total_free = g.k0.free_rank + g.k1.free_rank
        assert total_q == 2 ** n - 1 and total_free == 1
        # the Z summand sits in degree n mod 2
        z_side = g.k0 if n % 2 == 0 else g.k1
        assert z_side.free_rank == 1
        assert z_side.q_rank == 2 ** (n - 1) - 1


def test_k_of_A0_small():
    assert str(k_of_A0(1)) == "K0 = Z + Q, K1 = 0"
    assert str(k_of_A0(2)) == "K0 = Z^2 + Q, K1 = 0"
    assert str(k_of_A0(3)) == "K0 = Z + Q^4, K1 = 0"


def test_k_of_A0_closed_form_larger():
    g = k_of_A0(4, engine_check=False)
    assert g.k0 == GroupDescriptor(free_rank=2, q_rank=7)
    assert g.k1.is_trivial
    g = k_of_A0(5, engine_check=False)
    assert g.k0 == GroupDescriptor(free_rank=1, q_rank=16)


def test_base_k_validation():
    for bad in (0, -1, "2"):
        with pytest.raises(InputError):
            k_of_B0(bad)
        with pytest.raises(InputError):
            k_of_A0(bad)


# Each integer parameter guarded by the integer rule (``abgrp._as_int``):
# a call taking the integer k, and a valid k.
_INTEGER_GUARDS = {
    "d_chain": (lambda k: DirectedSystem.symbolic(
        1, [{"kind": "mult_d"}], d_chain=[k]).matrix(1), 3),
    "kappa-n": (lambda k: kappa(k, 2), 2),
    "kappa-d": (lambda k: kappa(2, k), 3),
    "k_of_B0": (lambda k: k_of_B0(k), 2),
    "k_of_A0": (lambda k: k_of_A0(k), 2),
    "involution_action": (lambda k: involution_action(k), 2),
    "k_of_A_truncated_Q": (lambda k: k_of_A_truncated_Q(k), 2),
    # True once gave [(), (1,)] and 1.5 a bare TypeError
    "subsets_graded_lex": (lambda k: subsets_graded_lex(k), 2),
    "exterior_graded_ranks": (lambda k: exterior_graded_ranks(k, 0), 4),
    # True once read as 1 and 1.0 raised a bare TypeError
    "exterior_graded_ranks-parity": (lambda k: exterior_graded_ranks(3, k), 1),
    "residue_system": (lambda k: parse_field("x^2 + 1").residue_system(k), 3),
    "kappa_inf-n": (lambda k: kappa_inf(k, 2), 2),
    "kappa_inf-d": (lambda k: kappa_inf(2, k), 3),
    "classify_A-grading_offset": (lambda k: classify_A(parse_field("x - 1"), grading_offset=k), 1),
    "classify_B-grading_offset": (lambda k: classify_B(parse_field("x^2 + 1"), grading_offset=k), 1),
    "k_full_adele_Q-grading_offset": (lambda k: k_full_adele_Q(grading_offset=k), 1),
    "truncate": (lambda k: k_full_adele_Q(truncate=k), 2),
    # int(c) once read 1.5 as 1, so NumberField([1.5, 0, 1]) was Q(i)
    "NumberField": (lambda k: NumberField([k, 0, 1]).to_json_dict(), 1),
}


@pytest.mark.parametrize("name", sorted(_INTEGER_GUARDS))
def test_integer_rule_at_every_guard(name):
    call, k = _INTEGER_GUARDS[name]
    # True once read as 1, 1.5 as 1 (int()), 2.5 a bare TypeError, and
    # Fraction(5, 2) gave Fractions at some of these guards.
    for bad in (True, 1.5, 2.5, Fraction(5, 2)):
        with pytest.raises(InputError, match="not an integer"):
            call(bad)
    # repr, not ==: a Fraction that leaked into the result would show.
    assert repr(call(Fraction(k, 1))) == repr(call(k))


_REPORTS = {
    "classify_A": lambda **kw: classify_A(parse_field("x - 1"), **kw),
    "classify_B": lambda **kw: classify_B(parse_field("x^2 + 1"), **kw),
    "k_full_adele_Q": lambda **kw: k_full_adele_Q(**kw),
}


@pytest.mark.parametrize("name", sorted(_REPORTS))
def test_negative_truncate_is_refused(name):
    # -3 once gave an empty table without a word.
    with pytest.raises(InputError, match="truncate must be an integer >= 0"):
        _REPORTS[name](truncate=-3)
    assert _REPORTS[name](truncate=0).truncations[0]["m"] == 0
    with pytest.raises(InputError, match="truncate must be at most 16"):
        _REPORTS[name](truncate=17)


# ---------------------------------------------------------------------------
# six-term steps
# ---------------------------------------------------------------------------


def test_action_validation():
    g = GradedKGroup(GroupDescriptor.free(2), GroupDescriptor.zero())
    with pytest.raises(InputError):  # not unimodular
        ActionDescriptor.build(g, deg0={"z": [[2, 0], [0, 1]]})
    with pytest.raises(InputError):  # wrong shape
        ActionDescriptor.build(g, deg0={"z": [[1]]})
    for bad in (1.0, True, "1"):  # the integer rule
        with pytest.raises(InputError, match="not an integer"):
            ActionDescriptor.build(g, deg0={"z": [[bad, 0], [0, 1]]})
    gq = GradedKGroup(GroupDescriptor(q_rank=1), GroupDescriptor.zero())
    with pytest.raises(InputError):  # singular divisible block
        ActionDescriptor.build(gq, deg0={"q": [[0]]})
    # the rational rule: 0.1 was read as 3602879701896397/36028797018963968,
    # true as 1, and "abc" raised a bare ValueError
    for bad in (0.1, True, "abc", "1/0", None, [1]):
        with pytest.raises(InputError, match="not a rational number"):
            ActionDescriptor.build(gq, deg0={"q": [[bad]]})
    gm = GradedKGroup(GroupDescriptor(free_rank=1, q_rank=1), GroupDescriptor.zero())
    for bad in (0.5, True, "x"):
        with pytest.raises(InputError, match="not a rational number"):
            ActionDescriptor.build(gm, deg0={"mix": [[bad]]})
    for good in (3, Fraction(3), "3", " 6/2 "):
        act = ActionDescriptor.build(gq, deg0={"q": [[good]]})
        assert act.deg0.q_block == ({0: Fraction(3)},)
        assert type(act.deg0.q_block[0][0]) is Fraction
    with pytest.raises(InputError, match="must be a 1x1 matrix"):  # a bare TypeError once
        ActionDescriptor.build(gq, deg0={"q": [1]})
    for bad in ([], {"zz": [[1]]}, "z"):  # not an object with keys among z, q, mix
        with pytest.raises(InputError, match="an action block must be an object"):
            ActionDescriptor.build(gq, deg0=bad)
    gl = GradedKGroup(GroupDescriptor.localized((2,)), GroupDescriptor.zero())
    with pytest.raises(InputError):  # localized summands unsupported
        ActionDescriptor.build(gl)


def test_action_json_roundtrip():
    g = GradedKGroup(
        GroupDescriptor(free_rank=1, q_rank=1), GroupDescriptor.free(1)
    )
    act = ActionDescriptor.build(
        g,
        deg0={"z": [[1]], "q": [["1/2"]], "mix": [["1/3"]]},
        deg1={"z": [[-1]]},
    )
    again = ActionDescriptor.from_json(act.to_json_dict())
    assert again == act
    assert str(act.deg0.q_block[0][0]) == "1/2"


def test_involution_normal_form():
    # one six-term step of the order-two involution in both resolutions
    for m in (1, 2, 3):
        act = involution_action(m)
        res = pv_step(act.domain, act, resolution="elementary_divisors")
        half = 2 ** (m - 1)
        expected_coker = GroupDescriptor(free_rank=half, torsion=(2,) * half)
        assert res.coker0 == expected_coker
        assert res.coker1 == expected_coker
        assert res.ker0 == GroupDescriptor.free(half)
        expected_k = GroupDescriptor(free_rank=2 ** m, torsion=(2,) * half)
        assert res.k0 == expected_k and res.k1 == expected_k
        # the split is certified (free quotient), so require_split agrees
        strict = pv_step(act.domain, act)
        assert strict.k0 == expected_k and not strict.ambiguous


def test_involution_step_at_m_10_within_its_deadline():
    # The first timed row of the extreme-input census: two 512-square
    # diagonal Smith forms and the invariant factors of 512 orders.
    act = involution_action(10)
    with deadline(2):
        res = pv_step(act.domain, act)
    expected_k = GroupDescriptor(free_rank=1024, torsion=(2,) * 512)
    assert res.k0 == expected_k and res.k1 == expected_k


def test_pv_identity_action_doubles():
    # the crossed product by the trivial action is A (x) C(T), so the split
    # is certified even where a torsion quotient meets a free subgroup
    for g in (
        GradedKGroup(GroupDescriptor(free_rank=2, torsion=(3,)), GroupDescriptor.free(1)),
        GradedKGroup(GroupDescriptor(free_rank=1, torsion=(2,)), GroupDescriptor.free(1)),
    ):
        for resolution in ("require_split", "elementary_divisors"):
            res = pv_step(g, identity_action(g), resolution=resolution)
            assert not res.ambiguous
            assert res.k0 == g.k0.direct_sum(g.k1)
            assert res.k1 == g.k1.direct_sum(g.k0)


def test_pv_divisible_halving_step():
    # the first adjoined generator over the rationals: acts by 1/2 on the
    # divisible part of K0 = Z + Q and kills it exactly
    g = GradedKGroup(GroupDescriptor(free_rank=1, q_rank=1), GroupDescriptor.zero())
    act = ActionDescriptor.build(g, deg0={"z": [[1]], "q": [["1/2"]]})
    res = pv_step(g, act)
    assert str(res.graded()) == "K0 = Z, K1 = Z"
    assert res.ker0 == GroupDescriptor.free(1)
    assert res.coker0 == GroupDescriptor.free(1)


def test_pv_mix_inside_image_is_supported():
    g = GradedKGroup(GroupDescriptor(free_rank=1, q_rank=1), GroupDescriptor.zero())
    act = ActionDescriptor.build(g, deg0={"z": [[1]], "q": [[2]], "mix": [[1]]})
    res = pv_step(g, act, resolution="elementary_divisors")
    assert str(res.k0) == "Z" and str(res.k1) == "Z"


def test_pv_residual_mixing_rejected():
    g = GradedKGroup(GroupDescriptor(free_rank=1, q_rank=1), GroupDescriptor.zero())
    act = ActionDescriptor.build(g, deg0={"z": [[1]], "q": [[1]], "mix": [[1]]})
    with pytest.raises(InputError, match="mixes into a direction"):
        pv_step(g, act)
    g2 = GradedKGroup(GroupDescriptor(free_rank=1, q_rank=2), GroupDescriptor.zero())
    act2 = ActionDescriptor.build(
        g2, deg0={"z": [[1]], "q": [[1, 0], [0, 2]], "mix": [[1], [0]]}
    )
    with pytest.raises(InputError):
        pv_step(g2, act2)


def test_pv_ambiguity_handling():
    # torsion quotient over a non-divisible subgroup: Z/2 by Z/2
    g = GradedKGroup(GroupDescriptor.free(1), GroupDescriptor(torsion=(2,)))
    act = ActionDescriptor.build(g, deg0={"z": [[-1]]})
    res = pv_step(g, act)
    assert isinstance(res.k0, AmbiguityReport)
    assert res.k0.sub == GroupDescriptor(torsion=(2,))
    assert res.k0.quot == GroupDescriptor(torsion=(2,))
    assert res.ambiguous
    with pytest.raises(AmbiguityError):
        res.graded()
    forced = pv_step(g, act, resolution="elementary_divisors")
    assert forced.k0 == GroupDescriptor(torsion=(2, 2))
    assert forced.k1 == GroupDescriptor(torsion=(2,))
    # the sub/quot pair is exposed on the require_split result
    assert (res.coker0, res.ker1) == (
        GroupDescriptor(torsion=(2,)),
        GroupDescriptor(torsion=(2,)),
    )
    # JSON carries the pair either way
    blob = json.dumps(res.to_json_dict())
    assert "ambiguity" in blob


def test_pv_resolution_validation():
    g = GradedKGroup(GroupDescriptor.free(1), GroupDescriptor.zero())
    with pytest.raises(InputError):
        pv_step(g, identity_action(g), resolution="guess")
    with pytest.raises(InputError):
        pv_step(g, identity_action(g), resolution="report_both")
    with pytest.raises(InputError):
        pv_step(g, None)
    other = GradedKGroup(GroupDescriptor.free(2), GroupDescriptor.zero())
    with pytest.raises(InputError):
        pv_step(other, identity_action(g))


def test_pv_square_map_rank_balance():
    # for a square endomorphism the kernel and cokernel free ranks agree,
    # and the divisible nullities match on both sides
    rng = seeded_rng("pv-ranks")
    for _ in range(25):
        a = rng.randint(1, 4)
        z = [[1 if i == j else 0 for j in range(a)] for i in range(a)]
        for _ in range(rng.randint(0, 6)):
            i, j = rng.randrange(a), rng.randrange(a)
            if i != j:
                q = rng.randint(-3, 3)
                for c in range(a):
                    z[i][c] += q * z[j][c]
        g = GradedKGroup(GroupDescriptor.free(a), GroupDescriptor.zero())
        res = pv_step(g, ActionDescriptor.build(g, deg0={"z": z}),
                      resolution="elementary_divisors")
        assert res.ker0.free_rank == res.coker0.free_rank
        assert res.ker0.q_rank == res.coker0.q_rank == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_endo_blocks_accept_exactly_the_unimodular_z(z):
    n = len(z)
    if abs(determinant(z)) != 1:
        with pytest.raises(InputError, match="must be unimodular"):
            EndoBlocks.build(n, 0, z=z)
        return
    assert EndoBlocks.build(n, 0, z=z).z_block == tuple(_sparse_rows(z))


def _random_blocks(rng, a, b):
    z, _ = random_unimodular(rng, a, steps=rng.randint(0, 6)) if a else ([], [])
    q = [[rng.choice((1, 2, -1, Fraction(1, 2), 3)) if i == j else 0 for j in range(b)]
         for i in range(b)]
    mix = [[rng.randint(-2, 2) for _ in range(a)] for _ in range(b)]
    return {"z": z, "q": q, "mix": mix}


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_pv_step_invariant_under_unimodular_change_of_basis(rng):
    # z -> P z P^-1 and mix -> mix P^-1 is the same action in another basis of
    # the free part, so every kernel, cokernel and resolved group, or the
    # refusal, must come out the same under either resolution
    descs = [GroupDescriptor(free_rank=rng.randint(0, 3), q_rank=rng.randint(0, 2),
                             torsion=[rng.choice((2, 3, 4))] * rng.randint(0, 1))
             for _ in range(2)]
    g = GradedKGroup(*descs)
    given_blocks = [_random_blocks(rng, d.free_rank, d.q_rank) for d in descs]
    conjugated = []
    for d, blocks in zip(descs, given_blocks):
        a = d.free_rank
        if not a:
            conjugated.append(blocks)
            continue
        p, p_inv = random_unimodular(rng, a)
        conjugated.append({
            "z": mat_mul(mat_mul(p, blocks["z"]), p_inv),
            "q": blocks["q"],
            "mix": mat_mul(blocks["mix"], p_inv) if d.q_rank else [],
        })
    results = []
    for blocks in (given_blocks, conjugated):
        act = ActionDescriptor.build(g, *blocks)
        for resolution in ("require_split", "elementary_divisors"):
            try:
                results.append(pv_step(g, act, resolution=resolution))
            except InputError as exc:
                results.append(str(exc))
    assert results[:2] == results[2:]


PV_GOLDENS = json.loads(pathlib.Path(__file__).with_name("pv_goldens.json").read_text())


@pytest.mark.parametrize("name", sorted(PV_GOLDENS))
def test_pv_json_matches_golden(name):
    # pv_step(...).to_json_dict(), or the refusal text, under both
    # resolutions, as produced when the step still inverted the action blocks
    entry = PV_GOLDENS[name]
    for resolution in ("require_split", "elementary_divisors"):
        try:
            act = ActionDescriptor.from_json(entry["doc"])
            got = {"result": pv_step(act.domain, act, resolution=resolution).to_json_dict()}
        except InputError as exc:
            got = {"error": str(exc)}
        assert json.dumps(got, sort_keys=True) == json.dumps(entry[resolution], sort_keys=True)


def test_is_identity_matches_identity_comparison():
    # The in-place check against the comparison with a built identity matrix.
    seen = set()
    for entry in PV_GOLDENS.values():
        try:
            act = ActionDescriptor.from_json(entry["doc"])
        except InputError:
            continue
        for blocks in (act.deg0, act.deg1):
            a = len(blocks.z_block)
            want = all(_dense_rows(m, len(m)) == identity_matrix(len(m))
                       for m in (blocks.z_block, blocks.q_block)) and not any(
                           map(any, _dense_rows(blocks.mix, a)))
            assert blocks.is_identity == want
            seen.add(want)
    assert seen == {True, False}


def _reference_kernels_cokernels(g, given_blocks):
    """(ker0, coker0, ker1, coker1) of ``id - act^(-1)`` itself: each block is
    inverted over Q, and refused as ``EndoBlocks.build`` and ``pv_step`` do."""
    inverses = []
    for desc, blocks in zip((g.k0, g.k1), given_blocks):
        a, b = desc.free_rank, desc.q_rank
        unimodular = "the free-part block of an automorphism must be unimodular"
        try:
            z_inv = solve_exact(blocks["z"], identity_matrix(a)) if a else []
        except InputError:
            raise InputError(unimodular) from None
        if any(x.denominator != 1 for row in z_inv for x in row):
            raise InputError(unimodular)
        try:
            q_inv = solve_exact(blocks["q"], identity_matrix(b)) if b else []
        except InputError:
            raise InputError("the divisible-part block must be invertible") from None
        inverses.append((z_inv, q_inv))
    out = []
    for desc, blocks, (z_inv, q_inv) in zip((g.k0, g.k1), given_blocks, inverses):
        a, b = desc.free_rank, desc.q_rank
        phi_z = [[int(i == j) - int(z_inv[i][j]) for j in range(a)] for i in range(a)]
        phi_q = [[int(i == j) - q_inv[i][j] for j in range(b)] for i in range(b)]
        rank_q = rank(phi_q) if b else 0
        if a and b:
            # the mix block of act^(-1) is -q_inv . mix . z_inv
            phi_mix = mat_mul(mat_mul(q_inv, blocks["mix"]), z_inv)
            if rank([rq + rm for rq, rm in zip(phi_q, phi_mix)]) != rank_q:
                raise InputError(
                    "unsupported six-term step: the free part mixes into a "
                    "direction that survives in the divisible quotient, so "
                    "kernel and cokernel are not block sums; refusing to guess")
        torsion = GroupDescriptor(torsion=desc.torsion)
        free_null = a - rank(phi_z) if a else 0
        coker_z = cokernel(phi_z) if a else GroupDescriptor.zero()
        q_part = GroupDescriptor(q_rank=b - rank_q)
        out += [GroupDescriptor(free_rank=free_null).direct_sum(q_part, torsion),
                coker_z.direct_sum(q_part, torsion)]
    return tuple(out)


def _any_action_blocks(rng, a, b):
    """Free, divisible and mix blocks of any kind: z unimodular or not, q
    singular or not, mix inside the image of ``q - I`` or not."""
    if a and rng.random() < 0.6:
        z, _ = random_unimodular(rng, a, steps=rng.randint(0, 6))
    else:
        z = [[rng.randint(-2, 2) for _ in range(a)] for _ in range(a)]
    q = [[rng.choice((1, 1, 2, -1, 0, Fraction(1, 2))) if i == j
          else rng.choice((0, 0, 0, 1, Fraction(-1, 3))) for j in range(b)] for i in range(b)]
    mix = [[rng.choice((0, 0, 1, -2, Fraction(1, 3))) for _ in range(a)] for _ in range(b)]
    return {"z": z, "q": q, "mix": mix}


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_pv_step_matches_the_inverse_route(rng):
    # pv_step reads everything off act - id; inverting the blocks and taking
    # id - act^(-1) must give the same groups, or the same refusal
    descs = [GroupDescriptor(free_rank=rng.randint(0, 3), q_rank=rng.randint(0, 2),
                             torsion=[rng.choice((2, 3, 4))] * rng.randint(0, 1))
             for _ in range(2)]
    g = GradedKGroup(*descs)
    blocks = [_any_action_blocks(rng, d.free_rank, d.q_rank) for d in descs]
    try:
        res = pv_step(g, ActionDescriptor.build(g, *blocks))
        got = (res.ker0, res.coker0, res.ker1, res.coker1)
    except InputError as exc:
        got = str(exc)
    try:
        want = _reference_kernels_cokernels(g, blocks)
    except InputError as exc:
        want = str(exc)
    assert got == want


def test_classify_A_truncation_rows_match_six_term_steps():
    # a second route for the rational truncation table: the rows of the
    # exterior-algebra closed form against iterated six-term steps
    rows = classify_A(parse_field("x - 1"), truncate=8).truncations
    assert [row["m"] for row in rows] == list(range(9))
    for row in rows[1:]:
        g = k_of_A_truncated_Q(row["m"])
        assert g.k0.is_free and g.k1.is_free
        assert (row["k0_rank"], row["k1_rank"]) == (g.k0.free_rank, g.k1.free_rank)
        assert row["torsion"] == {"k0": [], "k1": []}


def test_k_of_A_truncated_Q():
    for m in range(1, 6):
        g = k_of_A_truncated_Q(m)
        half = 2 ** (m - 1)
        assert g == GradedKGroup(
            GroupDescriptor.free(half), GroupDescriptor.free(half)
        )
    # m = 30 once ran until memory was gone: 2^29 summands per degree
    for bad in (0, 17, 30):
        with pytest.raises(InputError, match="1 <= m <= 16"):
            k_of_A_truncated_Q(bad)


# ---------------------------------------------------------------------------
# exterior ranks and classification reports
# ---------------------------------------------------------------------------


def test_exterior_graded_ranks():
    assert exterior_graded_ranks(0, 0) == 1
    assert exterior_graded_ranks(0, 1) == 0
    for r in range(1, 12):
        assert exterior_graded_ranks(r, 0) == 2 ** (r - 1)
        assert exterior_graded_ranks(r, 1) == 2 ** (r - 1)
    with pytest.raises(InputError):
        exterior_graded_ranks(-1, 0)
    with pytest.raises(InputError):
        exterior_graded_ranks(3, 2)


def test_classify_B_rationals():
    q = parse_field("x - 1")
    gens = [q.parse_element(s) for s in ("2", "3", "5")]
    rep = classify_B(q, gens, truncate=3)
    assert rep.case == "odd-reals-even-signs"
    assert rep.formula(0) == "Lambda_odd(Gamma)"
    assert rep.formula(1) == "Lambda_even(Gamma)"
    assert rep.grading_offset == 1
    ranks = [(r["m"], r["k0_rank"], r["k1_rank"]) for r in rep.truncations]
    assert ranks == [(0, 0, 1), (1, 1, 1), (2, 2, 2), (3, 4, 4)]
    assert all(not r["torsion"]["k0"] and not r["torsion"]["k1"]
               for r in rep.truncations)


@pytest.mark.parametrize("gen", [1, None, "1,1", parse_field("x^2 - 3").element([1, 1])],
                         ids=["int", "none", "text", "other-field"])
def test_classify_B_refuses_a_generator_outside_the_field(gen):
    with pytest.raises(InputError, match="is not an element of the field"):
        classify_B(parse_field("x^2 - 2"), [gen])


def test_classify_B_gaussian():
    qi = parse_field("x^2 + 1")
    rep = classify_B(qi)
    assert rep.case == "no-real-embedding"
    assert rep.formula(0) == "Lambda_even(Gamma)"
    assert rep.grading_offset == 0


def test_classify_B_real_quadratic():
    f = parse_field("x^2 - 2")
    rep = classify_B(f, [f.parse_element("1,1")])
    assert rep.case == "even-reals"
    assert rep.formula(0) == "(Z/2) (x) Lambda_even(Gamma)"
    assert rep.formula(1) == "(Z/2) (x) Lambda_odd(Gamma)"
    rows = classify_B(f, truncate=2).truncations
    assert [(r["m"], r["torsion"]["k0"]) for r in rows] == [
        (0, [2]), (1, [2]), (2, [2, 2]),
    ]


def test_classify_B_odd_sign_generator():
    f = parse_field("x^3 - 2")
    theta = f.parse_element("0,1")
    rep = classify_B(f, [theta])
    assert rep.case == "odd-reals-even-signs"  # theta > 0 at the real root
    minus = f.parse_element("-1,-1")  # -(1 + theta) < 0 there
    rep2 = classify_B(f, [theta, minus])
    assert rep2.case == "odd-reals-odd-sign"
    assert rep2.formula(0).startswith("(Z/2)")


def test_classify_B_insufficient_data():
    q = parse_field("x - 1")
    with pytest.raises(InputError, match="supply at least one generator"):
        classify_B(q)


def test_classify_A_cases():
    assert classify_A(parse_field("x - 1")).case == "odd-real-embeddings"
    assert classify_A(parse_field("x^3 - 2")).formula(0) == "Lambda_even(Gamma)"
    rep = classify_A(parse_field("x^2 - 2"))
    assert rep.case == "even-real-embeddings"
    assert rep.formula(0) == "Lambda_even(Gamma) + (Z/2) (x) Lambda_even(Gamma)"
    imag = parse_field("x^2 + 5")
    assert imag.roots_of_unity_order == 2
    rep = classify_A(imag, truncate=2)
    assert rep.case == "totally-imaginary-two-roots"
    assert rep.formula(0) == "Lambda_even(Gamma)^2"
    assert [(r["m"], r["k0_rank"], r["k1_rank"]) for r in rep.truncations] == [
        (0, 2, 0), (1, 2, 2), (2, 4, 4),
    ]


def test_classify_A_hypothesis_failure():
    with pytest.raises(HypothesisError, match="roots of unity"):
        classify_A(parse_field("x^2 + 1"))
    with pytest.raises(HypothesisError):
        classify_A(parse_field("x^2 + x + 1"))


def test_full_adele_report():
    rep = k_full_adele_Q(truncate=3)
    assert rep.algebra == "A_full_Q"
    assert rep.formula(0) == "Lambda_even(Gamma)^2"
    assert rep.formula(1) == "Lambda_odd(Gamma)^2"
    assert [(r["m"], r["k0_rank"], r["k1_rank"]) for r in rep.truncations] == [
        (0, 2, 0), (1, 2, 2), (2, 4, 4), (3, 8, 8),
    ]


def test_grading_offset_override():
    q = parse_field("x - 1")
    rep = classify_B(q, [q.parse_element("2")], grading_offset=0)
    assert rep.formula(0) == "Lambda_even(Gamma)"
    with pytest.raises(InputError):
        classify_B(q, [q.parse_element("2")], grading_offset=2)


def test_report_citations_registered():
    q = parse_field("x - 1")
    reports = [
        classify_B(q, [q.parse_element("2")]),
        classify_A(q),
        k_full_adele_Q(),
    ]
    for rep in reports:
        assert rep.citations
        for tag in rep.citations:
            assert tag in RESULT_TAGS
    res = pv_step(
        GradedKGroup(GroupDescriptor.free(1), GroupDescriptor.zero()),
        identity_action(
            GradedKGroup(GroupDescriptor.free(1), GroupDescriptor.zero())
        ),
    )
    for tag in res.citations:
        assert tag in RESULT_TAGS


def test_report_json_shape():
    f = parse_field("x^2 - 2")
    rep = classify_B(f, [f.parse_element("1,1")], truncate=1)
    blob = json.loads(json.dumps(rep.to_json_dict()))
    assert blob["algebra"] == "B"
    assert set(blob["components"]) == {"k0", "k1"}
    assert blob["truncations"][0]["m"] == 0
    assert blob["citations"] == [
        "classification-ring-algebra", "exterior-parity-ranks",
    ]

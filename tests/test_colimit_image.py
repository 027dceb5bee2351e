"""Colimit ranks read off the image in one pass, and relations built on first read.

``abgrp._image_pass`` maps a spanning set of the image level by level and
echelonizes only where it reads a rank; the window's rank comes from a
complement of the image at level ``h``.  Two routes it replaced are kept here
as oracles: ``_composite_ranks`` (the product ``M_t ... M_1`` and one echelon
per level) and ``_image_ranks`` (a basis of the image, echelonized at every
level); the window's oracle is the echelon of its composite.  The relations
of a report come from the kernel of the composite up to the stabilization
level, printed as its Hermite normal form, and only when read; the kernel of
the composite up to the horizon, the lattice they replaced, is their oracle.
At full rank they are empty and no composite is formed, and
``identified`` reads its window's rank off a pushed spanning set.  An
isolated coordinate (every sampled map diagonal on it) skips the pass
(``_split_pass``), whose result is checked against the whole-system pass.
"""

import dataclasses
import json
import pathlib

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deadline, random_unimodular, seeded_rng
from ringkt import abgrp, ktheory
from ringkt.abgrp import DirectedSystem, colimit, identified, mat_mul
from ringkt.cli import main
from ringkt.errors import UnsupportedSystemError
from ringkt.ktheory import k_of_A0, k_of_B0, rank_one_system

GOLDENS = json.loads(
    (pathlib.Path(__file__).with_name("colimit_goldens.json")).read_text()
)
RANK_ONE_RELATIONS = tuple(((a[0], tuple(a[1])), (b[0], tuple(b[1])))
                           for a, b in GOLDENS["rank_one"]["relations"])


def _composite_ranks(maps):
    """Ranks of the progressive composites of sparse maps, by their products."""
    ranks = []
    w = None
    for m in maps:
        w = m if w is None else abgrp._sparse_mul(m, w)
        ranks.append(len(abgrp._echelon(w)))
    return ranks


def _image_ranks(maps):
    """Ranks of the progressive composites of sparse maps: a basis of each
    image, mapped by the next step and echelonized at every level."""
    dim = len(maps[0])
    basis = [{i: 1} for i in range(dim)]
    ranks = []
    for m in maps:
        pivots = abgrp._echelon(abgrp._sparse_mul(basis, abgrp._columns(m, dim)))
        ranks.append(len(pivots))
        basis = list(pivots.values())
    return ranks


def _window_rank(maps, h):
    """The rank of ``M_t ... M_(h+1)``, multiplied out."""
    return len(abgrp._echelon(abgrp._composite(maps[h:])))


def _horizon_maps(system):
    cap = max(14, system.dim + 6)
    return [system._step(t) for t in range(1, cap + 1)]


# ``d - 9`` vanishes at the eighth step, so a composite through it drops late.
_LAWS = ({"kind": "zero"}, {"kind": "identity"}, {"kind": "mult_d"},
         {"kind": "poly", "coeffs": [-9, 1]}, {"kind": "poly", "coeffs": [3]},
         {"kind": "poly", "coeffs": [0, -2]})
_FEEDS = ([1], [0, 1], [-9, 1], [2, -1], [0, -2])


@st.composite
def chains(draw):
    """Sparse maps of one of three kinds: a symbolic system of dim 1-8 with
    any feed pattern, an explicit chain, or a commuting family
    ``P diag(laws) P^-1`` whose union pattern has a cycle."""
    kind = draw(st.sampled_from(("symbolic", "explicit", "commuting")))
    if kind == "explicit":
        dim = draw(st.integers(1, 5))
        entry = st.integers(-2, 2)
        square = st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
        mats = draw(st.lists(square, min_size=1, max_size=6))
        return [abgrp._sparse_rows(m) for m in mats]
    dim = draw(st.integers(1, 8 if kind == "symbolic" else 4))
    laws = draw(st.lists(st.sampled_from(_LAWS), min_size=dim, max_size=dim))
    if kind == "symbolic":
        offdiag = [{"row": i, "col": j, "poly": draw(st.sampled_from(_FEEDS))}
                   for i in range(dim) for j in range(dim)
                   if i != j and draw(st.integers(0, 3)) == 0]
        return _horizon_maps(DirectedSystem.symbolic(dim, laws, offdiag))
    u, u_inv = random_unimodular(seeded_rng(f"commuting-{draw(st.integers(0, 999))}"), dim)
    polys = [abgrp._law_to_poly(law) for law in laws]

    def family(d):
        diag = [[abgrp._poly_eval(p, d) if i == j else 0 for j in range(dim)]
                for i, p in enumerate(polys)]
        return mat_mul(mat_mul(u, diag), u_inv)

    return _horizon_maps(DirectedSystem.from_family(dim, family))


def _check_pass(maps, h):
    """``_image_pass`` against both oracles; returns its output."""
    sets, r, stab, window = out = abgrp._image_pass(maps, h)
    ranks = _composite_ranks(maps)
    assert [len(abgrp._echelon(vecs)) for vecs in sets] == ranks == _image_ranks(maps)
    assert (r, stab) == (ranks[-1], 1 + ranks.index(ranks[-1]))
    assert window == _window_rank(maps, h) >= r
    assert abgrp._image_pass(maps)[1:] == (r, stab, None)
    return out


@settings(max_examples=40, deadline=None)
@given(maps=chains())
def test_image_ranks_equal_the_composite_ranks(maps):
    _check_pass(maps, len(maps) // 2)


@settings(max_examples=40, deadline=None)
@given(maps=chains())
def test_the_kernel_at_the_stabilization_level_is_the_horizon_kernel(maps):
    # Nested saturated lattices of one rank are equal: ker W_stab = ker W_t
    # for every later t, late drops (d - 9) included.
    _, r, stab, _ = abgrp._image_pass(maps)
    dim = len(maps[0])
    at_stab = abgrp._kernel_basis(abgrp._composite(maps[:stab]), dim)
    horizon = abgrp._kernel_basis(abgrp._composite(maps), dim)
    assert len(at_stab) == dim - r
    assert at_stab == horizon


def _late_drop(coeffs):
    return DirectedSystem.symbolic(
        2, [{"kind": "poly", "coeffs": coeffs}, {"kind": "mult_d"}],
        [{"row": 1, "col": 0, "poly": [1]}])


def test_a_late_root_drops_the_image_rank_at_its_step():
    maps = _horizon_maps(_late_drop([-9, 1]))
    sets, r, stab, window = _check_pass(maps, len(maps) // 2)
    # level 1 has two vectors and the last set rank one: the bisection path
    assert (len(sets[0]), r, stab, window) == (2, 1, 8, 1)
    assert _composite_ranks(maps) == [2] * 7 + [1] * 7


@pytest.mark.parametrize("coeffs", [[-3, 1], [-2, 1]])
def test_a_root_before_the_window_is_refused_by_the_window_rank(coeffs):
    system = DirectedSystem.symbolic(1, [{"kind": "poly", "coeffs": coeffs}])
    maps = _horizon_maps(system)
    sets, r, stab, window = _check_pass(maps, len(maps) // 2)
    assert (r, window) == (0, 1) and not sets[-1]
    with pytest.raises(UnsupportedSystemError,
                       match="^window rank depends on the starting level; the system "
                             "is outside the certified class$"):
        colimit(system)


def test_a_full_rank_window_start_has_an_empty_complement(monkeypatch):
    systems = []
    monkeypatch.setattr(ktheory, "colimit", lambda system: systems.append(system)
                        or colimit(system))
    k_of_B0(6, engine_check=True)
    assert len(systems) == 2
    for system in systems:
        maps = _horizon_maps(system)
        h = len(maps) // 2
        sets, r, stab, window = _check_pass(maps, h)
        assert r == window == len(sets[h - 1]) == system.dim and stab == 1
    pushed = []
    mul = abgrp._sparse_mul
    monkeypatch.setattr(abgrp, "_sparse_mul", lambda a, b: pushed.append(len(a)) or mul(a, b))
    abgrp._image_pass(maps, h)
    assert pushed == [system.dim] * (len(maps) - 1)


def test_a_rank_that_drops_past_the_horizon_keeps_the_refusal_text():
    system = _late_drop([-13, 1])
    maps = _horizon_maps(system)
    assert _check_pass(maps, len(maps) // 2)[2] == 12
    with pytest.raises(UnsupportedSystemError) as exc:
        colimit(system)
    assert str(exc.value) == ("composite rank did not stabilize within horizon 14: "
                              "[2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1]")


# ---------------------------------------------------------------------------
# relations: the kernel of the composite up to the horizon, built when read
# ---------------------------------------------------------------------------


def _triangular_json(rng, dim):
    """A seeded symbolic system in the engine's triangular class."""
    types = [rng.choice(("Q", "Q", "Z", "Loc", "dead")) for _ in range(dim)]
    laws = [rng.choice({"Q": ({"kind": "mult_d"}, {"kind": "diag_power", "exp": 2},
                              {"kind": "poly", "coeffs": [0, -3]}),
                        "Z": ({"kind": "identity"}, {"kind": "poly", "coeffs": [-1]}),
                        "Loc": ({"kind": "poly", "coeffs": [6]}, {"kind": "poly", "coeffs": [-2]}),
                        "dead": ({"kind": "zero"},)}[t]) for t in types]
    order = rng.sample(range(dim), dim)
    offdiag = [{"row": i, "col": j, "poly": [rng.randint(-2, 2), rng.choice((-1, 1))]}
               for i in range(dim) for j in range(dim)
               if order.index(i) < order.index(j) and (types[i] == "Q" or types[j] == "Z")
               and rng.random() < 0.4]
    return {"mode": "symbolic", "dim": dim, "law": laws, "offdiag": offdiag}


def _eager_relations(system, maps):
    w = maps[0]
    for m in maps[1:]:
        w = abgrp._sparse_mul(m, w)
    return abgrp._relation_pairs(abgrp._kernel_basis(w, system.dim))


def test_relations_are_the_kernel_of_the_horizon_composite():
    # The kernel is read at the stabilization level; the horizon composite's
    # kernel is the same lattice, so its Hermite form prints the same pairs.
    rng = seeded_rng("lazy-relations")
    with_relations = full_rank = 0
    for k in range(108):
        system = DirectedSystem.from_json(_triangular_json(rng, 1 + k % 12))
        report = colimit(system)
        horizon = _eager_relations(system, _horizon_maps(system))
        assert report.relations == horizon
        with_relations += bool(report.relations)
        full_rank += report.rank == system.dim
    assert with_relations > 50 and full_rank > 5


@pytest.mark.parametrize("n", range(1, 6))
def test_a0_relations_are_the_kernel_of_the_horizon_composite(n):
    system = DirectedSystem.from_family(ktheory.kappa(n, 2).size,
                                        lambda d: ktheory.kappa(n, d).dense())
    report = colimit(system)
    horizon = _eager_relations(system, report.maps)
    assert len(report.relations) == 2 ** n - 1
    assert report.relations == horizon


def test_finite_chain_relations_are_the_kernel_of_the_whole_chain():
    rng = seeded_rng("finite-relations")
    kinds = set()
    for k in range(60):
        dim = 1 + k % 5
        if k % 3:
            mats = [[[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
                    for _ in range(rng.randint(1, 4))]
        else:
            mats = [random_unimodular(rng, dim)[0] for _ in range(rng.randint(1, 4))]
        system = DirectedSystem.explicit(mats)
        report = colimit(system)
        maps = [system._step(t) for t in range(1, len(mats) + 1)]
        assert report.relations == _eager_relations(system, maps)
        kinds.add((report.truncated, report.rank == dim))
    assert kinds == {(False, True), (True, True), (True, False)}


def test_identified_and_full_rank_relations_form_no_composite(monkeypatch):
    def refuse(*args):
        raise AssertionError("a composite or its kernel was formed")

    monkeypatch.setattr(abgrp, "_composite", refuse)
    monkeypatch.setattr(abgrp, "_kernel_basis", refuse)
    products = []
    mul = abgrp._sparse_mul
    monkeypatch.setattr(abgrp, "_sparse_mul", lambda a, b: products.append(a) or mul(a, b))
    dim = 30
    subdiagonal = DirectedSystem.symbolic(
        dim, [{"kind": "mult_d"}] * dim,
        [{"row": i + 1, "col": i, "poly": [1]} for i in range(dim - 1)])
    squares = DirectedSystem.symbolic(3, [{"kind": "diag_power", "exp": 2}] * 3,
                                      [{"row": 0, "col": 2, "poly": [0, 1]}])
    sampled = DirectedSystem.from_family(dim, subdiagonal._family)
    pushes = []
    for system in (subdiagonal, squares, sampled):
        report = colimit(system)
        assert report.rank == system.dim and report.relations == ()
        e0 = (1,) + (0,) * (system.dim - 1)
        assert identified(system, (1, e0), (1, (0,) * system.dim)) is False
        assert identified(system, (2, e0), (1, e0)) is False
        pushed = tuple(abgrp._apply(system._step(1), e0))
        assert identified(system, (2, pushed), (1, e0)) is True
        steps = [id(m) for m in system._step_cache.values()]
        # every product maps a spanning set; none has a step on its left
        assert not any(id(a) in steps for a in products)
        pushes.append(len(products))
        products.clear()
    # the laws prove full rank, so only the sampled pass pushes a vector
    assert pushes[:2] == [0, 0] and pushes[2] > 0


# The kernel of the first step (the stabilization level) spans the same
# lattice as that of the horizon composite; their old bases printed other
# relations (2 e0 ~ e3 at the first step, 2 e2 ~ e3 at the horizon).  Both
# now print the Hermite normal form of the lattice.
_STAB_DIFFERS = {
    "mode": "symbolic", "dim": 5,
    "law": [{"kind": "zero"}, {"kind": "diag_power", "exp": 2}, {"kind": "zero"},
            {"kind": "mult_d"}, {"kind": "poly", "coeffs": [-1]}],
    "offdiag": [{"row": 3, "col": 0, "poly": [1, 0]}, {"row": 3, "col": 2, "poly": [1, 0]},
                {"row": 3, "col": 4, "poly": [-2, 1]}],
}


def test_relations_come_from_the_stabilization_level():
    system = DirectedSystem.from_json(_STAB_DIFFERS)
    report = colimit(system)
    assert (report.stabilization_level, str(report.invariants)) == (1, "Z + Q^2")
    assert report.relations == (((1, (1, 0, 0, 0, 0)), (1, (0, 0, 1, 0, 0))),
                                ((1, (2, 0, 0, 0, 0)), (1, (0, 0, 0, 1, 0))))
    assert report.relations == _eager_relations(system, [system._step(1)])
    assert report.relations == _eager_relations(system, _horizon_maps(system))


def test_the_rank_deficient_probe_reads_its_relations_in_time():
    # mult_d laws, a unit subdiagonal and a last law zero: rank dim - 1, and
    # stab = 1, so the relations are the kernel of one sparse step.  Read at
    # the horizon they took 4.5 s at dim 40 and never ended at dim 60.
    dim = 60
    system = DirectedSystem.symbolic(
        dim, [{"kind": "mult_d"}] * (dim - 1) + [{"kind": "zero"}],
        [{"row": i + 1, "col": i, "poly": [1]} for i in range(dim - 1)])
    with deadline(1):
        report = colimit(system)
        relations = report.relations
    assert (report.rank, report.stabilization_level) == (dim - 1, 1)
    assert relations == (((1, (0,) * (dim - 1) + (1,)), (1, (0,) * dim)),)


def test_engine_checks_never_build_the_relations(monkeypatch):
    def refuse(*args):
        raise AssertionError("_kernel_basis reached")

    monkeypatch.setattr(abgrp, "_kernel_basis", refuse)
    assert k_of_A0(5, engine_check=True) == k_of_A0(5, engine_check=False)
    assert k_of_B0(6, engine_check=True) == k_of_B0(6, engine_check=False)
    system = rank_one_system()
    assert identified(system, (1, (1, 0, 0)), (1, (0, 2, 0))) is True
    assert identified(system, (1, (1, 0, 0)), (1, (0, 1, 0))) is False
    report = colimit(system)
    monkeypatch.undo()
    # the report made while the kernel was refused builds its relations now
    assert report.to_json_dict() == GOLDENS["rank_one"]
    res = CliRunner().invoke(main, ["colim", "--system", "rank-one"], catch_exceptions=False)
    assert res.exit_code == 0
    assert json.loads(res.output) == GOLDENS["rank_one"]


def test_relations_are_built_once_and_compared(monkeypatch):
    # a fresh copy, so relations an earlier read cached are not reused
    report = dataclasses.replace(colimit(rank_one_system()))
    calls = []
    kernel = abgrp._kernel_basis
    monkeypatch.setattr(abgrp, "_kernel_basis", lambda *args: calls.append(1) or kernel(*args))
    assert report.relations == report.relations == RANK_ONE_RELATIONS
    assert calls == [1]
    assert report == colimit(rank_one_system())
    # identity maps below full rank: no relations, so the reports differ
    other = dataclasses.replace(report, maps=[[{0: 1}, {1: 1}, {2: 1}]])
    assert other.relations == () and other != report


def test_to_json_round_trips_and_keeps_the_colimit():
    rng = seeded_rng("json-round-trip")
    for k in range(72):
        if k % 3:
            obj = _triangular_json(rng, 1 + k % 12)
            if k % 3 == 2:
                obj["d_chain"] = sorted(rng.sample(range(2, 40), rng.randint(1, 6)))
            system = DirectedSystem.from_json(obj)
        else:
            dim = 1 + k % 5
            system = DirectedSystem.explicit(
                [[[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
                 for _ in range(rng.randint(1, 4))])
        obj = system.to_json()
        again = DirectedSystem.from_json(json.loads(json.dumps(obj)))
        assert again.to_json() == obj
        assert colimit(again).to_json_dict() == colimit(system).to_json_dict()


# ---------------------------------------------------------------------------
# isolated coordinates: read off their diagonal samples, not the image pass
# ---------------------------------------------------------------------------


def _union_pattern(maps):
    """Feed arcs of the union zero pattern, one map entry at a time."""
    feeds = [set() for _ in maps[0]]
    for m in maps:
        for i, row in enumerate(m):
            for j in row:
                if j != i:
                    feeds[j].add(i)
    return feeds


def _check_split(maps, h):
    """``_split_pass`` against the whole-system ``_image_pass``, the oracle;
    returns the number of isolated coordinates."""
    feeds, samples = abgrp._walk(maps)
    assert feeds == _union_pattern(maps)
    assert samples == [tuple(m[p].get(p, 0) for m in maps) for p in range(len(maps[0]))]
    levels, r, stab, window = abgrp._split_pass(maps, feeds, samples, h)
    sets, *whole = abgrp._image_pass(maps, h)
    assert [r, stab, window] == whole
    assert levels() == [len(abgrp._echelon(vecs)) for vecs in sets]
    coupled = {j for j, into in enumerate(feeds) if into}.union(*feeds)
    return len(maps[0]) - len(coupled)


@settings(max_examples=40, deadline=None)
@given(maps=chains())
def test_the_split_pass_matches_the_whole_image_pass(maps):
    _check_split(maps, len(maps) // 2)


def test_the_split_pass_matches_on_the_engine_check_systems(monkeypatch):
    systems = []
    monkeypatch.setattr(ktheory, "colimit", lambda system: systems.append(system)
                        or colimit(system))
    k_of_B0(5, engine_check=True)
    k_of_A0(4, engine_check=True)
    monkeypatch.undo()
    isolated = []
    for system in systems:
        maps = _horizon_maps(system)
        isolated.append(_check_split(maps, len(maps) // 2))
    # B0 is diagonal; kappa(4, d) has 2^3 - 1 isolated coordinates of 24
    assert [s.dim for s in systems] == isolated[:2] + [24] and isolated[2] == 7


def _beside(coeffs, at):
    """A law on the isolated coordinate ``at``, beside a coupled pair."""
    laws = [{"kind": "mult_d"}, {"kind": "identity"}]
    laws.insert(at, {"kind": "poly", "coeffs": coeffs})
    a, b = (i for i in range(3) if i != at)
    return DirectedSystem.symbolic(3, laws, [{"row": a, "col": b, "poly": [1]}])


@pytest.mark.parametrize("k", range(2, 16))
def test_a_late_root_on_an_isolated_coordinate_matches_the_whole_pass(k):
    for at in (0, 1):
        maps = _horizon_maps(_beside([-k, 1], at))
        assert _check_split(maps, len(maps) // 2) == 1


def test_a_coordinate_that_is_fed_but_feeds_none_is_coupled():
    # the unit at (1, 0) makes M nilpotent on the first two coordinates
    system = DirectedSystem.symbolic(3, [{"kind": "zero"}, {"kind": "zero"}, {"kind": "mult_d"}],
                                     [{"row": 1, "col": 0, "poly": [1]}])
    maps = _horizon_maps(system)
    assert _check_split(maps, len(maps) // 2) == 1


_WINDOW = ("window rank depends on the starting level; the system is outside "
           "the certified class")
_NO_FIT = ("diagonal scaling law fits no monomial c*d^e on a parity class; the system "
           "is outside the certified class")


@pytest.mark.parametrize("k, text", [
    *((k, _WINDOW) for k in range(2, 9)),
    *((k, _NO_FIT) for k in range(9, 13)),
    (13, "composite rank did not stabilize within horizon 14: [3, 3, 3, 3, 3, 3, 3, 3, 3, "
         "3, 3, 2, 2, 2]"),
    (14, "composite rank did not stabilize within horizon 14: [3, 3, 3, 3, 3, 3, 3, 3, 3, "
         "3, 3, 3, 2, 2]"),
    (15, "composite rank did not stabilize within horizon 14: [3, 3, 3, 3, 3, 3, 3, 3, 3, "
         "3, 3, 3, 3, 2]"),
])
def test_refusals_beside_a_coupled_pair_keep_their_text(k, text):
    for at in (0, 1):
        with pytest.raises(UnsupportedSystemError) as exc:
            colimit(_beside([-k, 1], at))
        assert str(exc.value) == text


def test_the_level_ranks_sum_an_isolated_drop_and_a_coupled_one():
    system = DirectedSystem.symbolic(
        3, [{"kind": "poly", "coeffs": [-14, 1]}, {"kind": "mult_d"},
            {"kind": "poly", "coeffs": [-9, 1]}], [{"row": 1, "col": 0, "poly": [1]}])
    with pytest.raises(UnsupportedSystemError) as exc:
        colimit(system)
    assert str(exc.value) == ("composite rank did not stabilize within horizon 14: "
                              "[3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 1, 1]")


def test_engine_checks_read_isolated_coordinates_off_their_laws(monkeypatch):
    pushed, typed, evaluated = [], [], []
    mul, direction_type, poly_eval = abgrp._sparse_mul, abgrp._direction_type, abgrp._poly_eval
    monkeypatch.setattr(abgrp, "_sparse_mul", lambda a, b: pushed.append(a) or mul(a, b))
    monkeypatch.setattr(abgrp, "_direction_type",
                        lambda fits: typed.append(fits) or direction_type(fits))
    monkeypatch.setattr(abgrp, "_poly_eval",
                        lambda p, x: evaluated.append((tuple(p), x)) or poly_eval(p, x))
    assert k_of_B0(6, engine_check=True) == k_of_B0(6, engine_check=False)
    # both systems are diagonal: no vector is pushed, each law is typed once,
    # and the one step read is the first, d = 2 (no horizon, no confirmation)
    assert pushed == []
    assert len(typed) == len(set(typed)) == 7
    laws = {(0,) * e + (1,) for e in range(7)}
    assert len(evaluated) == len(set(evaluated)) and set(evaluated) == {(p, 2) for p in laws}
    typed.clear()
    systems = []
    monkeypatch.setattr(ktheory, "colimit", lambda system: systems.append(system)
                        or colimit(system))
    assert k_of_A0(5, engine_check=True) == k_of_A0(5, engine_check=False)
    # A0 stabilizes at level 1: the coupled summand is pushed along no step
    assert len(typed) == len(set(typed)) < 10 and pushed == []
    assert [list(system._step_cache) for system in systems] == [[1]]


def test_identified_starts_its_window_from_the_step_columns(monkeypatch):
    system = rank_one_system()
    colimit(system)
    products = []
    mul = abgrp._sparse_mul
    monkeypatch.setattr(abgrp, "_sparse_mul", lambda a, b: products.append(a) or mul(a, b))
    # the window reaches the rank at its first step: nothing is multiplied
    assert identified(system, (1, (1, 0, 0)), (1, (0, 1, 0))) is False
    assert products == []

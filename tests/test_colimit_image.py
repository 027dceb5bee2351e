"""Colimit ranks read off the image level by level, and relations built on first read.

``abgrp._image_bases`` pushes an echelon basis of the image along the steps,
so a basis's length is its level's rank; every route reads its ranks from
it.  Its oracles multiply the steps out: ``_composite_ranks`` (the product
``M_t ... M_1`` and one echelon per level) and ``_window_rank`` (the echelon
of the window's composite).  The law route reads an isolated coordinate
(every step diagonal on it) off its diagonal law and walks only the coupled
ones; its ``rank`` and ``stabilization_level`` are checked against the same
oracles on the first ``max(14, dim + 6)`` steps of the whole system, the
horizon.  The cells that ``abgrp._family_laws`` reads off a family are
checked against the union zero pattern of the steps at d = 2 .. 131, the
window it reads, and their laws against the family's own.  The relations
of a report come from the kernel of the composite up to the stabilization
level, printed as its Hermite normal form, and only when read; the kernel
of the composite up to the horizon is their oracle.  At full rank they are
empty and no composite is formed, and ``identified`` reads its window's
rank off a pushed basis.
"""

import dataclasses
import json
import pathlib

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deadline, random_unimodular, seeded_rng, trimmed_laws
from ringkt import abgrp, ktheory
from ringkt.abgrp import DirectedSystem, GroupDescriptor, colimit, identified, mat_mul
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


def _window_rank(maps, h):
    """The rank of ``M_t ... M_(h+1)``, multiplied out."""
    return len(abgrp._echelon(abgrp._composite(maps[h:])))


def _horizon_maps(system):
    cap = max(14, system.dim + 6)
    return [system._step(t) for t in range(1, cap + 1)]


def _steps(system):
    """The steps a colimit reads: a finite chain's, or a family's horizon."""
    if system.finite_length is None:
        return _horizon_maps(system)
    return [system._step(t) for t in range(1, system.finite_length + 1)]


# ``d - 9`` vanishes at the eighth step, so a composite through it drops late.
_LAWS = ({"kind": "zero"}, {"kind": "identity"}, {"kind": "mult_d"},
         {"kind": "poly", "coeffs": [-9, 1]}, {"kind": "poly", "coeffs": [3]},
         {"kind": "poly", "coeffs": [0, -2]})
_FEEDS = ([1], [0, 1], [-9, 1], [2, -1], [0, -2])


@st.composite
def drawn_systems(draw):
    """A system of one of three kinds: a symbolic system of dim 1-8 with any
    feed pattern, an explicit chain, or a commuting family
    ``P diag(laws) P^-1`` whose union pattern has a cycle."""
    kind = draw(st.sampled_from(("symbolic", "explicit", "commuting")))
    if kind == "explicit":
        dim = draw(st.integers(1, 5))
        entry = st.integers(-2, 2)
        square = st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
        return DirectedSystem.explicit(draw(st.lists(square, min_size=1, max_size=6)))
    dim = draw(st.integers(1, 8 if kind == "symbolic" else 4))
    laws = draw(st.lists(st.sampled_from(_LAWS), min_size=dim, max_size=dim))
    if kind == "symbolic":
        offdiag = [{"row": i, "col": j, "poly": draw(st.sampled_from(_FEEDS))}
                   for i in range(dim) for j in range(dim)
                   if i != j and draw(st.integers(0, 3)) == 0]
        return DirectedSystem.symbolic(dim, laws, offdiag)
    u, u_inv = random_unimodular(seeded_rng(f"commuting-{draw(st.integers(0, 999))}"), dim)
    polys = [abgrp._law_to_poly(law) for law in laws]

    def family(d):
        diag = [[abgrp._poly_eval(p, d) if i == j else 0 for j in range(dim)]
                for i, p in enumerate(polys)]
        return mat_mul(mat_mul(u, diag), u_inv)

    return DirectedSystem.from_family(dim, family)


def _check_bases(maps, h):
    """``_image_bases`` against the products: its basis lengths along
    ``maps`` are the composite ranks, and along ``maps[h:]`` it ends at the
    window's rank.  Returns the composite ranks and the window's rank."""
    dim = len(maps[0])
    ranks, window = _composite_ranks(maps), _window_rank(maps, h)
    assert [len(basis) for basis in abgrp._image_bases(maps, dim)] == ranks
    *_, last = abgrp._image_bases(maps[h:], dim)
    assert len(last) == window >= ranks[-1]
    return ranks, window


_WINDOW = ("window rank depends on the starting level; the system is outside "
           "the certified class")
# the refusals of the law route that no rank is read for
_LAW_REFUSALS = (_WINDOW, "diagonal scaling law fits no monomial c*d^e on a parity class; "
                 "the system is outside the certified class",
                 "structure maps do not commute and no common triangular coordinate "
                 "order exists; the system is outside the certified class",
                 "a restricted structure map has an irrational eigenvalue; the system "
                 "is outside the certified class")


def _check_report(system):
    """A report's ``rank`` and ``stabilization_level`` against the products
    of the whole system's steps: the last composite rank of the horizon and
    the first level of it.  A family goes through the law route with its
    typing stage stubbed out, so that every family it does not refuse before
    typing gets a report.  Returns the composite ranks and the rank of the
    window from the middle of the horizon."""
    maps = _steps(system)
    ranks, window = _check_bases(maps, len(maps) // 2)
    r, stab = ranks[-1], ranks.index(ranks[-1]) + 1
    if system.finite_length is not None:
        report = colimit(system)
        assert (report.rank, report.stabilization_level) == (r, stab)
        return ranks, window
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(abgrp, "_direction_type", lambda law: None)
        patch.setattr(abgrp, "_flag_sum", lambda flag, r, typed: GroupDescriptor.free(r))
        try:
            report = abgrp._colimit_laws(system)
        except UnsupportedSystemError as exc:
            assert str(exc) in _LAW_REFUSALS
            return ranks, window
    assert (report.rank, report.stabilization_level) == (r, stab)
    return ranks, window


@settings(max_examples=40, deadline=None)
@given(system=drawn_systems())
def test_image_ranks_equal_the_composite_ranks(system):
    _check_report(system)


@settings(max_examples=40, deadline=None)
@given(system=drawn_systems())
def test_the_kernel_at_the_stabilization_level_is_the_horizon_kernel(system):
    # Nested saturated lattices of one rank are equal: ker W_stab = ker W_t
    # for every later t, late drops (d - 9) included.
    maps = _steps(system)
    dim = len(maps[0])
    ranks = [len(basis) for basis in abgrp._image_bases(maps, dim)]
    r, stab = ranks[-1], ranks.index(ranks[-1]) + 1
    at_stab = abgrp._kernel_basis(abgrp._composite(maps[:stab]), dim)
    horizon = abgrp._kernel_basis(abgrp._composite(maps), dim)
    assert len(at_stab) == dim - r
    assert at_stab == horizon


def _late_drop(coeffs):
    return DirectedSystem.symbolic(
        2, [{"kind": "poly", "coeffs": coeffs}, {"kind": "mult_d"}],
        [{"row": 1, "col": 0, "poly": [1]}])


def test_a_late_root_drops_the_image_rank_at_its_step():
    ranks, window = _check_report(_late_drop([-9, 1]))
    assert ranks == [2] * 7 + [1] * 7 and window == 1
    # the root d = 9 is on the chain, so the laws refuse it
    with pytest.raises(UnsupportedSystemError, match=f"^{_WINDOW}$"):
        colimit(_late_drop([-9, 1]))


@pytest.mark.parametrize("coeffs", [[-3, 1], [-2, 1]])
def test_a_root_before_the_window_is_refused_by_the_window_rank(coeffs):
    system = DirectedSystem.symbolic(1, [{"kind": "poly", "coeffs": coeffs}])
    ranks, window = _check_report(system)
    assert (ranks[-1], window) == (0, 1)
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
        ranks, window = _check_report(DirectedSystem.from_family(system.dim, system._family))
        assert ranks == [system.dim] * len(ranks) and window == system.dim


def test_a_rank_that_drops_late_in_the_horizon_is_refused_by_its_root():
    # d - 13 vanishes at level 12; no horizon is read, the root refuses it
    system = _late_drop([-13, 1])
    ranks, _ = _check_report(system)
    assert ranks.index(ranks[-1]) + 1 == 12
    with pytest.raises(UnsupportedSystemError) as exc:
        colimit(system)
    assert str(exc.value) == _WINDOW


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
    # the laws, given or read off the samples, prove full rank: no vector is pushed
    assert pushes == [0, 0, 0]


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
# isolated coordinates: read off their diagonal laws, not the image walk
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


def _isolated(system):
    """The number of isolated coordinates of the samples' union pattern;
    checks the cells that ``_family_laws`` reads off the samples, against the
    union pattern of the steps at d = 2 .. 131 in sorted order, and its laws,
    against the system's own nonzero laws, on the way."""
    laws = abgrp._family_laws(DirectedSystem.from_family(system.dim, system._family))
    feeds = _union_pattern([system._family(d) for d in range(2, 132)])
    assert [(i, j) for i, j, _ in laws[1]] == sorted((i, j) for j, into in enumerate(feeds)
                                                     for i in into)
    assert trimmed_laws(laws) == trimmed_laws(system.laws)
    return sum(not into and not any(p in other for other in feeds)
               for p, into in enumerate(feeds))


def test_the_sampled_report_matches_on_the_engine_check_systems(monkeypatch):
    systems = []
    monkeypatch.setattr(ktheory, "colimit", lambda system: systems.append(system)
                        or colimit(system))
    k_of_B0(5, engine_check=True)
    k_of_A0(4, engine_check=True)
    monkeypatch.undo()
    isolated = []
    for system in systems:
        sampled = DirectedSystem.from_family(system.dim, system._family)
        _check_report(sampled)
        isolated.append(_isolated(system))
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
        system = _beside([-k, 1], at)
        _check_report(system)
        assert _isolated(system) == 1


def test_a_coordinate_that_is_fed_but_feeds_none_is_coupled():
    # the unit at (1, 0) makes M nilpotent on the first two coordinates
    system = DirectedSystem.symbolic(3, [{"kind": "zero"}, {"kind": "zero"}, {"kind": "mult_d"}],
                                     [{"row": 1, "col": 0, "poly": [1]}])
    _check_report(system)
    assert _isolated(system) == 1


# d - k has the root k on the chain, so each is refused by its law
@pytest.mark.parametrize("k, text", [(k, _WINDOW) for k in range(2, 16)])
def test_refusals_beside_a_coupled_pair_keep_their_text(k, text):
    for at in (0, 1):
        with pytest.raises(UnsupportedSystemError) as exc:
            colimit(_beside([-k, 1], at))
        assert str(exc.value) == text


def test_the_level_ranks_sum_an_isolated_drop_and_a_coupled_one():
    system = DirectedSystem.symbolic(
        3, [{"kind": "poly", "coeffs": [-14, 1]}, {"kind": "mult_d"},
            {"kind": "poly", "coeffs": [-9, 1]}], [{"row": 1, "col": 0, "poly": [1]}])
    maps = _horizon_maps(system)
    coupled = [len(b) for b in abgrp._image_bases(maps, 3, [0, 1])]
    isolated = [len(b) for b in abgrp._image_bases(maps, 3, [2])]
    ranks = [x + y for x, y in zip(coupled, isolated)]
    assert ranks == _composite_ranks(maps) == [3] * 7 + [2] * 5 + [1] * 2
    with pytest.raises(UnsupportedSystemError) as exc:
        colimit(system)
    assert str(exc.value) == _WINDOW


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

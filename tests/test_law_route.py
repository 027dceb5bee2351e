"""Colimits decided from their laws, given or read off samples.

``abgrp._colimit_laws`` decides every family on the canonical chain from
its laws: its rank is proved, and the image walk stops at the first level
that reaches it.  The same steps handed over by
``DirectedSystem.from_family``, which carries no laws, have their laws read
off samples (``abgrp._family_laws``), the sampled route here: both give the
same report or the same refusal text.  The reader finds the polynomial of
least degree on each parity class from finite differences of the steps at
d = 2 .. 131, up to degree 63; a family that fits none is refused, and one
that changes past those steps is read as their law.  Given laws decide two
kinds of input that no sample reads: an exponent above 63, and an exponent
too large to sample in time.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deadline
from ringkt import abgrp
from ringkt.abgrp import DirectedSystem, GroupDescriptor, colimit
from ringkt.errors import CrossCheckError, InputError, UnsupportedSystemError
from ringkt.ktheory import kappa, kappa_laws, rank_one_system, subsets_graded_lex

_WINDOW = ("window rank depends on the starting level; the system is outside "
           "the certified class")
_NO_FIT = ("diagonal scaling law fits no monomial c*d^e on a parity class; the system "
           "is outside the certified class")


def _outcome(system):
    """The report as JSON, or the refusal text."""
    try:
        return colimit(system).to_json_dict()
    except UnsupportedSystemError as exc:
        return str(exc)


def _sampled(system):
    """The same steps, with no laws: they are read off samples."""
    return DirectedSystem.from_family(system.dim, system._family)


def _decided_from_laws(system):
    """The report of the law route, which must cover ``system``."""
    report = abgrp._colimit_laws(system)
    assert report is not None
    return report


@pytest.mark.parametrize("n", range(1, 7))
def test_kappa_laws_reproduce_the_rows(n):
    system = DirectedSystem.from_laws(kappa(n, 2).size, *kappa_laws(n))
    for d in range(2, 41):
        assert system._step(d - 1) == kappa(n, d).rows()


@pytest.mark.parametrize("n", range(1, 8))
def test_a0_law_route_matches_the_sampled_route(n):
    system = DirectedSystem.from_laws(kappa(n, 2).size, *kappa_laws(n))
    report = _decided_from_laws(system)
    assert report.stabilization_level == 1
    assert report.to_json_dict() == _outcome(_sampled(system))


@pytest.mark.parametrize("n", range(1, 10))
def test_b0_law_route_matches_the_sampled_route(n):
    for parity in (0, 1):
        degrees = [len(s) for s in subsets_graded_lex(n) if len(s) % 2 == parity]
        system = DirectedSystem.symbolic(
            len(degrees), [{"kind": "diag_power", "exp": n - k} for k in degrees])
        assert _decided_from_laws(system).to_json_dict() == _outcome(_sampled(system))


def test_rank_one_law_route_matches_the_sampled_route():
    system = rank_one_system()
    assert _decided_from_laws(system).to_json_dict() == _outcome(_sampled(system))


_DIAGONAL = (
    {"kind": "mult_d"}, {"kind": "diag_power", "exp": 2}, {"kind": "poly", "coeffs": [0, -3]},
    {"kind": "poly", "coeffs": [0, 0, 2]}, {"kind": "identity"}, {"kind": "poly", "coeffs": [-1]},
    {"kind": "poly", "coeffs": [2]}, {"kind": "poly", "coeffs": [6]},
    {"kind": "poly", "coeffs": [-3, 0]}, {"kind": "zero"},
)
# off-diagonal laws, the zero law and laws with a root on the chain among them
_FEEDS = ([1], [0, 1], [-2, 1], [2, -1], [0, -2], [-5, 1], [0], [1, 0, -1])


@st.composite
def law_systems(draw):
    """A symbolic system in the rule of the law route: acyclic feeds in a
    drawn order, with a chain of zero laws, each fed by the next, at the
    head of the order."""
    dim = draw(st.integers(1, 8))
    order = draw(st.permutations(range(dim)))
    chain = draw(st.integers(0, dim))
    laws = [None] * dim
    for k, i in enumerate(order):
        laws[i] = {"kind": "zero"} if k < chain else draw(st.sampled_from(_DIAGONAL))
    cells = {(order[k], order[k + 1]): [1] for k in range(chain - 1)}
    for i in range(dim):
        for j in range(dim):
            if order.index(i) < order.index(j) and (i, j) not in cells and draw(st.booleans()):
                cells[i, j] = draw(st.sampled_from(_FEEDS))
    offdiag = [{"row": i, "col": j, "poly": p} for (i, j), p in cells.items()]
    return DirectedSystem.symbolic(dim, laws, offdiag)


@settings(max_examples=150, deadline=None)
@given(system=law_systems())
def test_law_route_matches_the_sampled_route_on_acyclic_law_systems(system):
    sampled = _outcome(_sampled(system))
    try:
        report = _decided_from_laws(system)
    except UnsupportedSystemError as exc:
        assert str(exc) == sampled
        return
    assert report.to_json_dict() == sampled


def test_an_exponent_above_the_sampled_cap_gives_q():
    # 65 samples per class read a degree of at most 63 and confirm it
    system = DirectedSystem.symbolic(1, [{"kind": "diag_power", "exp": 64}])
    assert str(colimit(system).invariants) == "Q"
    with pytest.raises(UnsupportedSystemError, match="fits no monomial"):
        colimit(_sampled(system))


@st.composite
def class_laws(draw):
    """A law on one parity class: a monomial ``c d^e`` with ``e <= 63``; a
    product ``c prod (d - r)`` whose roots hold every d <= 15 of one class,
    101 or 102, and up to two more roots, so that it vanishes on the first
    samples of a class and at one far sample; or a polynomial of degree <= 6
    with integer weights on the binomials ``C(d, k)``, integer-valued with
    ``Fraction`` coefficients in d."""
    kind = draw(st.sampled_from(("monomial", "roots", "binomials")))
    if kind == "monomial":
        return (0,) * draw(st.integers(0, 63)) + (draw(st.integers(-3, 3).filter(bool)),)
    if kind == "roots":
        roots = [*range(draw(st.sampled_from((2, 3))), 16, 2), draw(st.sampled_from((101, 102))),
                 *draw(st.lists(st.integers(-3, 15), max_size=2))]
        coeffs = [draw(st.integers(-3, 3).filter(bool))]
        for r in roots:  # times (d - r)
            coeffs = [y - r * x for x, y in zip(coeffs + [0], [0] + coeffs)]
        return tuple(coeffs)
    weights = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=7))
    coeffs, binomial = [Fraction(0)] * len(weights), [Fraction(1)]
    for k, w in enumerate(weights):
        for i, b in enumerate(binomial):
            coeffs[i] += w * b
        # C(d, k + 1) = C(d, k) (d - k) / (k + 1)
        binomial = [(y - k * x) / (k + 1) for x, y in zip(binomial + [0], [0] + binomial)]
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


@settings(max_examples=60, deadline=None)
@given(odd=class_laws(), even=class_laws())
def test_family_laws_read_back_as_their_laws(odd, even):
    system = DirectedSystem.from_laws(1, [(odd, even)])
    sampled = _sampled(system)
    (law,), _ = abgrp._family_laws(sampled)
    assert law == (odd, even)
    assert _outcome(sampled) == _outcome(system)


@pytest.mark.parametrize("step", [lambda d: 1 if d < 50 else 2, lambda d: 2 ** d],
                         ids=["late-change", "exponential"])
def test_a_family_that_fits_no_polynomial_is_refused(step):
    system = DirectedSystem.from_family(1, lambda d: [[step(d)]])
    (law,), _ = abgrp._family_laws(system)
    assert law is None
    assert _outcome(system) == _NO_FIT


@pytest.mark.parametrize("below, text", [
    (1, _NO_FIT),  # the cycle reads the cell
    (0, "non-free direction 1 couples into non-divisible direction 0"),
], ids=["cycle", "acyclic"])
def test_a_cell_that_fits_no_polynomial_is_an_arc(below, text):
    system = DirectedSystem.from_family(2, lambda d: [[1, 2 ** d], [below, d]])
    assert (0, 1, None) in abgrp._family_laws(system)[1]
    assert text in str(_outcome(system))


def test_a_family_zero_on_the_first_samples_and_at_101_is_refused():
    # prod (d - j), j in {3, 5, ..., 15, 101}, on odd d and 1 on even d: zero
    # on the first seven odd d and at d = 101, but f(17) = -54190080.  Its
    # root at d = 3 refuses it, with the text its laws get.
    odd = (1,)
    for j in (*range(3, 16, 2), 101):
        odd = tuple(y - j * x for x, y in zip(odd + (0,), (0,) + odd))
    system = DirectedSystem.from_laws(1, [(odd, (1,))])
    assert abgrp._poly_eval(odd, 17) == -54190080
    assert _outcome(system) == _outcome(_sampled(system)) == _WINDOW


@pytest.mark.parametrize("e", [0, 1, 7, 31, 63])
def test_a_monomial_family_up_to_degree_63_answers(e):
    system = DirectedSystem.from_family(1, lambda d: [[-3 * d ** e]])
    assert str(colimit(system).invariants) == ("Loc{3}" if e == 0 else "Q")


def test_a_huge_exponent_gives_q_in_time():
    with deadline(1):
        system = DirectedSystem.symbolic(1, [{"kind": "diag_power", "exp": 100000}])
        report = colimit(system)
    assert (str(report.invariants), report.rank, report.stabilization_level) == ("Q", 1, 1)


def test_a_chain_of_eight_zero_laws_dies():
    # The laws prove rank 0 by level 8, and so do the laws read off the
    # samples: no window of 7 steps, on which the shift keeps rank 1, is read.
    dim = 8
    shift = [{"row": i + 1, "col": i, "poly": [1]} for i in range(dim - 1)]
    system = DirectedSystem.symbolic(dim, [{"kind": "zero"}] * dim, shift)
    report = colimit(system)
    assert (report.invariants, report.rank, report.stabilization_level) == (
        GroupDescriptor.zero(), 0, dim)
    assert _outcome(_sampled(system)) == report.to_json_dict()


def test_parity_laws_keep_the_odd_class_refusal_text():
    # d on odd d, 1 on even d: Z[1/p : p odd], refused on both routes
    system = DirectedSystem.from_laws(1, [((0, 1), (1,))])
    text = _outcome(system)
    assert "Z[1/p : p odd]" in text and text == _outcome(_sampled(system))
    # d/2 on even d inverts 2 as well
    halves = DirectedSystem.from_laws(1, [((0, 1), (0, Fraction(1, 2)))])
    assert str(colimit(halves).invariants) == "Q"


def test_one_route_decides_every_family(monkeypatch):
    decided, read = [], []
    decide, family_laws = abgrp._colimit_laws, abgrp._family_laws
    monkeypatch.setattr(abgrp, "_colimit_laws", lambda system: decided.append(system)
                        or decide(system))
    monkeypatch.setattr(abgrp, "_family_laws", lambda system: read.append(system)
                        or family_laws(system))
    cycle = [{"row": 0, "col": 1, "poly": [1]}, {"row": 1, "col": 0, "poly": [1]}]
    for diag, offdiag, expected in (
        ([{"kind": "poly", "coeffs": [-3, 1]}], [], _WINDOW),  # d - 3 vanishes at d = 3
        ([{"kind": "poly", "coeffs": [-1, 1]}], [], _NO_FIT),  # d - 1 vanishes off the chain
        ([{"kind": "identity"}] * 2, cycle, "Loc{2}"),  # eigen laws 2 and 0
        ([{"kind": "mult_d"}] * 2, cycle, _NO_FIT),  # eigen laws d + 1 and d - 1
    ):
        system = DirectedSystem.symbolic(len(diag), diag, offdiag)
        outcome = _outcome(system)
        assert (outcome if isinstance(outcome, str) else outcome["pretty"]) == expected
        assert decided.pop() is system and not read
    sampled = _sampled(DirectedSystem.symbolic(1, [{"kind": "mult_d"}]))
    assert str(colimit(sampled).invariants) == "Q"
    assert decided.pop() is sampled and read.pop() is sampled
    # a zero off-diagonal law closes no cycle
    system = DirectedSystem.symbolic(2, [{"kind": "identity"}] * 2, [
        {"row": 0, "col": 1, "poly": [1]}, {"row": 1, "col": 0, "poly": [0, 0]}])
    assert str(colimit(system).invariants) == "Z^2"


def _lying(dim, diag, cells, rows):
    """A system whose laws say one thing and whose steps, ``rows``, another."""
    return DirectedSystem(dim, family=lambda d: [dict(row) for row in rows],
                          laws=(tuple(diag), tuple(cells)))


def test_a_rank_the_laws_do_not_prove_raises():
    zero, one = ((0,), (0,)), ((1,), (1,))
    # two dead coordinates fed along an arc: rank 0 by level 2, but the
    # steps are the identity
    above = _lying(2, [zero, zero], [(0, 1, one)], [{0: 1}, {1: 1}])
    with pytest.raises(CrossCheckError, match="reach rank 0 by level 2, but level 2 has rank 2"):
        colimit(above)
    # one surviving coordinate beside a dead one: rank 1, but the steps vanish
    below = _lying(2, [one, zero], [(0, 1, one)], [{}, {}])
    with pytest.raises(CrossCheckError, match="reach rank 1 by level 1, but level 1 has rank 0"):
        colimit(below)


def test_laws_must_be_integer_valued_on_their_class():
    half = (0, Fraction(1, 2))  # d/2: an integer on even d only
    DirectedSystem.from_laws(1, [((1,), half)])
    with pytest.raises(InputError, match="not integer-valued on odd d"):
        DirectedSystem.from_laws(1, [(half, (1,))])
    with pytest.raises(InputError, match="not an integer or a Fraction"):
        DirectedSystem.from_laws(1, [((1.5,), (1,))])


_ONE = ((1,), (1,))


@pytest.mark.parametrize("diag, cells, text", [
    ([([1], [1])] * 2, [(0, 1, [[1], [1]])], None),  # lists are read as tuples
    ([(1, 1)] * 2, (), "a law's odd coefficients must be a list"),
    ([((1,),)] * 2, (), "a law must be a pair"),
    ([((1,), (1,), (1,))] * 2, (), "a law must be a pair"),
    ([(([1],), (1,))] * 2, (), "law coefficient [1] is not an integer or a Fraction"),
    ([_ONE, ((1.0,), (1,))], (), "law coefficient 1.0 is not an integer or a Fraction"),
    ([_ONE, ((True,), (1,))], (), "law coefficient True is not an integer or a Fraction"),
    ([_ONE] * 2, [(0, 1, (1, 1))], "a law's odd coefficients must be a list"),
    ([_ONE] * 2, [(0, 1)], "an offdiag cell must be a triple"),
    ([_ONE] * 2, [(0, 1, _ONE, 0)], "an offdiag cell must be a triple"),
    ([_ONE] * 2, [5], "an offdiag cell must be a list"),
    ([_ONE] * 2, [("0", 1, _ONE)], "offdiag row '0' is not an integer"),
    ([_ONE] * 2, [(True, 0, _ONE)], "offdiag row True is not an integer"),
    ([_ONE] * 2, [(0, 1.0, _ONE)], "offdiag col 1.0 is not an integer"),
    (5, (), "diagonal laws must be a list"),
    ([_ONE] * 2, 5, "offdiag cells must be a list"),
    ([_ONE, ((), (1,))], (), "a law's coefficient lists must be non-empty"),
    ([_ONE] * 2, [(0, 1, ((), ()))], "a law's coefficient lists must be non-empty"),
], ids=["lists", "law-of-ints", "one-class", "three-classes", "list-coefficient",
        "float-equal-to-a-law-before", "bool-equal-to-a-law-before",
        "cell-law-of-ints", "pair-cell", "quadruple-cell", "int-cell", "str-row", "bool-row",
        "float-col", "int-diag", "int-cells", "empty-odd-class", "empty-cell-law"])
def test_malformed_laws_are_refused_as_input(diag, cells, text):
    if text is None:
        system = DirectedSystem.from_laws(2, diag, cells)
        assert system.laws == ((_ONE, _ONE), ((0, 1, _ONE),))
        assert str(colimit(system).invariants) == "Z^2"
        return
    with pytest.raises(InputError) as exc:
        DirectedSystem.from_laws(2, diag, cells)
    assert text in str(exc.value)


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(st.integers(-10**30, 10**30), max_size=7), parity=st.sampled_from([0, 1]))
def test_fraction_copies_of_integer_laws_give_the_same_class_polynomials(coeffs, parity):
    want = abgrp._class_poly(coeffs, parity)
    assert want == (tuple(coeffs), 1)
    assert abgrp._class_poly([Fraction(c) for c in coeffs], parity) == want
    for bad in (True, 2.0):  # the type rule holds for integer-valued laws too
        with pytest.raises(InputError, match="not an integer or a Fraction"):
            abgrp._class_poly(coeffs + [bad], parity)


_COEFFS = st.lists(st.integers(-3, 3), max_size=3)  # an empty list among them


@st.composite
def integer_law_systems(draw):
    """A system from ``from_laws`` with integer laws, one polynomial on both
    classes, or from ``symbolic`` (with a finite ``d_chain`` or none) on the
    same coefficient lists, or None where an empty list is refused."""
    dim = draw(st.integers(1, 3))
    diag = draw(st.lists(_COEFFS, min_size=dim, max_size=dim))
    cells = draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1), _COEFFS),
                          max_size=3, unique_by=lambda cell: cell[:2]))
    cells = [cell for cell in cells if cell[0] != cell[1]]
    empty = not all(diag) or not all(p for _, _, p in cells)
    try:
        if draw(st.booleans()):
            system = DirectedSystem.from_laws(dim, [(p, p) for p in diag],
                                              [(r, c, (p, p)) for r, c, p in cells])
        else:
            system = DirectedSystem.symbolic(
                dim, [{"kind": "poly", "coeffs": p} for p in diag],
                [{"row": r, "col": c, "poly": p} for r, c, p in cells],
                d_chain=draw(st.none() | st.lists(st.integers(2, 9), min_size=1, max_size=3)))
    except InputError as exc:
        assert empty and "non-empty" in str(exc)
        return None
    assert not empty
    return system


@settings(max_examples=80, deadline=None)
@given(system=integer_law_systems())
def test_from_json_rebuilds_every_system_to_json_writes(system):
    if system is None:
        return
    obj = system.to_json()
    again = DirectedSystem.from_json(json.loads(json.dumps(obj)))
    assert again.to_json() == obj and again.laws == system.laws
    levels = range(1, (system.finite_length or 2) + 1)
    assert [again.matrix(t) for t in levels] == [system.matrix(t) for t in levels]


def test_parity_laws_have_no_json_form():
    system = DirectedSystem.from_laws(kappa(1, 2).size, *kappa_laws(1))
    with pytest.raises(InputError, match="JSON form"):
        system.to_json()

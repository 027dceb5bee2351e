"""A second route for every colimit answer: ranks modulo primes.

Tensor products commute with colimits, so for ``G = colim(Z^n, M_t)`` the
group ``G/pG`` is the colimit of ``F_p^n`` along the steps mod p, and its
dimension is the eventual rank of the composites mod p.  For an answer
``G = Z^a + Q^b + Loc(S_1) + ...`` that dimension is
``a + #{i : p not in S_i}``: ``Q/pQ = 0``, and ``Loc(S)/p Loc(S)`` is 0 for
p in S and ``F_p`` otherwise.

Exact, with no sample.  An integer-valued law with denominator D repeats mod
p with period ``p^(1 + v_p(D))`` in d, and the two parity classes double
it, so the steps mod p repeat with period ``T = 2 p^(1 + v_p(D))``, D the
lcm of the system's denominators.  Let ``A`` be the product of the ``T``
steps of the period that starts at level ``s``.  The image of level ``s`` in
the colimit has dimension ``lim_t rank(M_t ... M_s)``, and along whole
periods that is the eventual rank of the powers of ``A``, which by Fitting's
lemma is ``rank(A^n)``.  The starting level does not matter: if ``A = BC``
splits the period at level ``s + j``, the period from there is ``CB``, and
``(BC)^(k+1) = B (CB)^k C`` bounds each eventual rank by the other.  So every
level's image, and hence the colimit, has dimension ``rank(A^n)`` for the
period from level 1.

The steps are evaluated here from the laws, or from a family's own
callable, and multiplied and ranked mod p by this module alone; of
``abgrp`` only ``colimit``'s answer is read.  What the check cannot see: the
extension (a group that does not split, with the same p-ranks, passes), and
the primes outside the checked set, which is the primes up to 13 and those
of the laws' constant coefficients.
"""

import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_unimodular
from ringkt import abgrp, ktheory
from ringkt.abgrp import DirectedSystem, GroupDescriptor, colimit
from ringkt.errors import UnsupportedSystemError

TOOL = Path(__file__).resolve().parents[1] / "tools" / "colim_census.py"
_spec = importlib.util.spec_from_file_location("colim_census", TOOL)
colim_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(colim_census)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _primes(x):
    """The primes of a nonzero integer, by trial division."""
    x, out, p = abs(x), set(), 2
    while p * p <= x:
        while x % p == 0:
            out.add(p)
            x //= p
        p += 1
    return out | ({x} if x > 1 else set())


# ---------------------------------------------------------------------------
# laws: ``{(row, col): (odd, even)}``, ascending coefficients per parity class
# ---------------------------------------------------------------------------


def _coeffs(law):
    """A JSON law's ascending coefficients."""
    kind = law["kind"]
    if kind in ("identity", "zero", "mult_d"):
        return {"identity": (1,), "zero": (0,), "mult_d": (0, 1)}[kind]
    if kind == "diag_power":
        return (0,) * law.get("exp", 1) + (1,)
    return tuple(law["coeffs"])


def _json_entries(obj):
    """The entry laws of a symbolic system's JSON, one polynomial on both classes."""
    entries = {(i, i): _coeffs(law) for i, law in enumerate(obj["law"])}
    for cell in obj.get("offdiag", ()):
        law = {k: v for k, v in cell.items() if k not in ("row", "col")}
        entries[cell["row"], cell["col"]] = tuple(law["poly"]) if "poly" in law else _coeffs(law)
    return {at: (p, p) for at, p in entries.items()}


def _system_entries(system):
    """The entry laws a system of laws was built from."""
    diag, cells = system.laws
    entries = {(i, i): law for i, law in enumerate(diag)}
    entries.update({(r, c): law for r, c, law in cells})
    return entries


def _law_step(entries):
    """The step at d of the laws ``entries``, as ``{(row, col): value}``."""
    def value(coeffs, d):
        return sum(c * d ** k for k, c in enumerate(coeffs) if c)

    def step(d):
        return {at: int(value(law[1 - d % 2], d)) for at, law in entries.items()}
    return step


def _family_step(fn):
    """The step at d of a family's callable (dense rows)."""
    return lambda d: {(i, j): x for i, row in enumerate(fn(d)) for j, x in enumerate(row) if x}


def _law_primes(entries):
    """The checked primes: those up to 13 and those of the constant coefficients."""
    out = set(SMALL_PRIMES)
    for law in entries.values():
        for coeffs in law:
            if coeffs and coeffs[0]:
                out |= _primes(Fraction(coeffs[0]).numerator)
    return sorted(out)


def _denominator(entries):
    return math.lcm(*(Fraction(c).denominator for law in entries.values()
                      for coeffs in law for c in coeffs))


# ---------------------------------------------------------------------------
# linear algebra mod p on sparse rows
# ---------------------------------------------------------------------------


def _rows(cells, n, p):
    rows = [{} for _ in range(n)]
    for (i, j), x in cells.items():
        if x % p:
            rows[i][j] = x % p
    return rows


def _mul(a, b, p):
    """``a @ b`` mod p."""
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = (acc.get(j, 0) + x * y) % p
        out.append({j: v for j, v in acc.items() if v})
    return out


def _rank(rows, p):
    """The rank mod p, by elimination."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            if c not in pivots:
                inv = pow(row[c], -1, p)
                pivots[c] = {j: v * inv % p for j, v in row.items()}
                break
            f = row[c]
            for j, v in pivots[c].items():
                x = (row.get(j, 0) - f * v) % p
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
    return len(pivots)


def _rank_mod_p(step, n, p, period):
    """``dim G/pG``: the rank mod p of ``A^n``, ``A`` the product of the
    ``period`` steps from level 1 (d = 2)."""
    a = _rows(step(2), n, p)
    for d in range(3, period + 2):
        a = _mul(_rows(step(d), n, p), a, p)
    k = 1
    while k < n:
        a, k = _mul(a, a, p), 2 * k
    return _rank(a, p)


def _mismatches(invariants, step, n, primes, period):
    """The primes at which the answer's ``dim G/pG`` differs from the ranks mod p."""
    assert not invariants.torsion
    steps = {}  # each step evaluated once, for every prime

    def cached(d):
        if d not in steps:
            steps[d] = step(d)
        return steps[d]

    return [p for p in primes
            if invariants.free_rank + sum(p not in s for s in invariants.loc)
            != _rank_mod_p(cached, n, p, period(p))]


def _law_mismatches(system, entries):
    invariants = colimit(system).invariants
    den = _denominator(entries)
    return _mismatches(invariants, _law_step(entries), system.dim, _law_primes(entries),
                       lambda p: 2 * p ** (1 + _multiplicity(den, p)))


def _multiplicity(x, p):
    k = 0
    while x % p == 0:
        x, k = x // p, k + 1
    return k


def _census_answers(count=400):
    """The census systems of seed 1 that ``colimit`` answers, as ``(system, entries)``."""
    out = []
    for obj in colim_census.systems(1, count):
        system = DirectedSystem.from_json(obj)
        try:
            colimit(system)
        except UnsupportedSystemError:
            continue
        out.append((system, _json_entries(obj)))
    return out


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def test_the_census_answers_agree_with_the_ranks_mod_p():
    answers = _census_answers()
    assert len(answers) == 244
    for system, entries in answers:
        assert not _law_mismatches(system, entries), system.to_json()


def _engine_systems(closed_form, ns):
    systems = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ktheory, "colimit", lambda system: systems.append(system) or colimit(system))
        for n in ns:
            closed_form(n, engine_check=True)
    return systems


def test_the_engine_check_systems_agree_with_the_ranks_mod_p():
    systems = (_engine_systems(ktheory.k_of_B0, range(1, 8))
               + _engine_systems(ktheory.k_of_A0, range(1, 5)))
    assert len(systems) == 2 * 7 + 4
    for system in systems:
        assert not _law_mismatches(system, _system_entries(system))


def _conjugated(obj, k, diagonal):
    """The census system ``obj`` (its diagonal alone, when ``diagonal``) in
    the basis of a seeded unimodular matrix, as a family without laws, and
    its callable."""
    if diagonal:
        obj = {"mode": "symbolic", "dim": obj["dim"], "law": obj["law"]}
    n = obj["dim"]
    u, u_inv = random_unimodular(random.Random(f"conj-{k}"), n)
    step = _law_step(_json_entries(obj))

    def family(d):
        m = step(d)
        inner = [[sum(m.get((i, l), 0) * u_inv[l][j] for l in range(n)) for j in range(n)]
                 for i in range(n)]
        return [[sum(u[i][l] * inner[l][j] for l in range(n)) for j in range(n)] for i in range(n)]

    return DirectedSystem.from_family(n, family), family


# Conjugated census families whose eigen flag splits only because its
# divisible directions go first, each ``(census index at seed 1, diagonal
# only)``: answers that an order by the size of the eigenvalues refuses.
_NEW_ANSWERS = (
    *((k, False) for k in (35, 94, 153, 261, 276)),
    *((k, True) for k in (35, 94, 99, 115, 151, 153, 216, 254, 261, 276, 389)),
)


@pytest.mark.parametrize("k, diagonal", _NEW_ANSWERS)
def test_the_conjugated_families_that_now_answer_agree_with_the_ranks_mod_p(k, diagonal):
    obj = colim_census.systems(1, k + 1)[k]
    system, family = _conjugated(obj, k, diagonal)
    invariants = colimit(system).invariants
    primes = _law_primes(_json_entries(obj))
    assert not _mismatches(invariants, _family_step(family), system.dim, primes,
                           lambda p: 2 * p)


def test_the_eight_chain_read_off_its_samples_agrees_with_the_ranks_mod_p():
    dim = 8
    laws = DirectedSystem.symbolic(dim, [{"kind": "zero"}] * dim,
                                   [{"row": i + 1, "col": i, "poly": [1]} for i in range(dim - 1)])
    system = DirectedSystem.from_family(dim, lambda d: laws.matrix(d - 1))
    assert colimit(system).invariants == GroupDescriptor.zero()
    entries = _system_entries(laws)
    assert not _mismatches(colimit(system).invariants, _law_step(entries), dim,
                           _law_primes(entries), lambda p: 2 * p)


def test_a_localization_typed_as_z_fails_the_check(monkeypatch):
    loc2, typed = GroupDescriptor.localized([2]), abgrp._direction_type

    def mistyped(law):
        kind = typed(law)
        return GroupDescriptor.free(1) if kind == loc2 else kind

    monkeypatch.setattr(abgrp, "_direction_type", mistyped)
    assert any(_law_mismatches(system, entries) == [2] for system, entries in _census_answers(60))

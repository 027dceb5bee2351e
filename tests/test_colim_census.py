"""Smoke test of ``tools/colim_census.py``, the census of the colimit
engine's certified class that two checkouts are compared by: the systems are
fixed by their seed, and the summary counts the answers and the refusals by
reason.  The census systems also keep their answers, or their refusals'
reasons, under a signed permutation of the coordinates, and when their laws
are read off their steps instead (``DirectedSystem.from_family``)."""

import importlib.util
import io
import random
import re
from pathlib import Path

from conftest import trimmed_laws
from ringkt import abgrp
from ringkt.abgrp import DirectedSystem, colimit
from ringkt.errors import UnsupportedSystemError

TOOL = Path(__file__).resolve().parents[1] / "tools" / "colim_census.py"
_spec = importlib.util.spec_from_file_location("colim_census", TOOL)
colim_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(colim_census)


def test_the_systems_are_fixed_by_their_seed():
    systems = colim_census.systems(1, 50)
    assert systems == colim_census.systems(1, 50) != colim_census.systems(2, 50)
    assert colim_census.systems(1, 60)[:50] == systems
    for obj in systems:
        assert 1 <= obj["dim"] <= 4 and len(obj["law"]) == obj["dim"]
        assert len(obj["offdiag"]) <= 3


def test_the_census_line_of_an_answer_and_of_a_refusal():
    line, reason = colim_census.classify(
        {"mode": "symbolic", "dim": 2, "law": [{"kind": "mult_d"}, {"kind": "zero"}]})
    assert re.fullmatch(r"[0-9a-f]{12} Q", line) and reason is None
    line, reason = colim_census.classify(
        {"mode": "symbolic", "dim": 1, "law": [{"kind": "poly", "coeffs": [1, 0, 1]}]})
    assert line.endswith(" refused: diagonal scaling law fits no monomial c*d^e on a "
                         "parity class; the system is outside the certified class")
    assert reason == "fits no monomial"


def test_the_summary_of_a_small_census():
    out = io.StringIO()
    assert colim_census.main(["--seed", "1", "--count", "400"], out=out) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 406
    assert lines[400:] == [
        "answered 244",
        "refused 79 fits no monomial",
        "refused 43 structure maps do not commute",
        "refused 25 cannot certify a split filtration",
        "refused 8 window rank depends on the starting level",
        "refused 1 irrational eigenvalue",
    ]


def test_every_reason_is_a_phrase_of_the_engine():
    # a phrase that no refusal text of the engine holds would count nothing
    source = Path(abgrp.__file__).read_text()
    for phrase in colim_census.REASONS:
        assert phrase in source, phrase


def _conjugated(obj, rng):
    """The system JSON ``obj`` conjugated by a seeded signed permutation:
    coordinate ``i`` moves to ``perm[i]`` with the sign ``signs[i]``, so a
    diagonal law moves with its coordinate, and an offdiag law moves with
    its cell and is negated when the signs of its row and column differ."""
    dim = obj["dim"]
    perm = rng.sample(range(dim), dim)
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    law = [None] * dim
    for i, entry in enumerate(obj["law"]):
        law[perm[i]] = entry
    offdiag = []
    for entry in obj["offdiag"]:
        r, c = entry["row"], entry["col"]
        coeffs = abgrp._law_to_poly({k: v for k, v in entry.items() if k not in ("row", "col")})
        offdiag.append({"row": perm[r], "col": perm[c],
                        "poly": [signs[r] * signs[c] * x for x in coeffs]})
    return {"mode": "symbolic", "dim": dim, "law": law, "offdiag": offdiag}


def _outcome(obj):
    """The invariants and rank of the colimit, or the refusal's reason (a
    split-safety text names indices, which a relabelling changes)."""
    try:
        report = colimit(DirectedSystem.from_json(obj))
    except UnsupportedSystemError as exc:
        return next((phrase for phrase in colim_census.REASONS if phrase in str(exc)), str(exc))
    return report.invariants, report.rank


def test_a_signed_permutation_keeps_each_answer_and_reason():
    rng = random.Random(19)
    answered = 0
    for obj in colim_census.systems(1, 400):
        outcome = _outcome(obj)
        assert _outcome(_conjugated(obj, rng)) == outcome, obj
        answered += not isinstance(outcome, str)
    assert answered == 244


def _report_or_text(system):
    try:
        return colimit(system).to_json_dict()
    except UnsupportedSystemError as exc:
        return str(exc)


def test_laws_read_off_the_steps_keep_each_outcome():
    # each system's own family, with no laws: they are read off its steps
    for obj in colim_census.systems(1, 100):
        system = DirectedSystem.from_json(obj)
        sampled = DirectedSystem.from_family(system.dim, system._family)
        assert _report_or_text(sampled) == _report_or_text(system), obj


def test_the_law_reader_gives_each_system_its_own_laws():
    # one law per coordinate, and one per cell that a step holds, in sorted order
    for obj in colim_census.systems(1, 100):
        system = DirectedSystem.from_json(obj)
        diag, cells = abgrp._family_laws(DirectedSystem.from_family(system.dim, system._family))
        assert [cell[:2] for cell in cells] == sorted(cell[:2] for cell in cells)
        assert trimmed_laws((diag, cells)) == trimmed_laws(system.laws), obj


_IRRATIONAL = ("refused: a restricted structure map has an irrational eigenvalue; "
               "the system is outside the certified class")
_NO_FIT = ("refused: diagonal scaling law fits no monomial c*d^e on a parity class; "
           "the system is outside the certified class")
# ``(seed, index, line)`` for each of the 47 census systems whose flag the
# joint eigen split reads (seed 1 at count 2000, seeds 3 and 7 at count
# 3000): 13 answers and 34 refusals
CYCLE_LINES = [
    (1, 325, "2f899680949c " + _IRRATIONAL),
    (1, 532, "0767e5743edb " + _IRRATIONAL),
    (1, 877, "b03147ae7157 " + _IRRATIONAL),
    (1, 1086, "c46449476ede " + _NO_FIT),
    (1, 1091, "146183f80182 " + _IRRATIONAL),
    (1, 1127, "0da7c6dbf30d Loc{2}"),
    (1, 1280, "299e6a8d51c6 " + _NO_FIT),
    (1, 1414, "7139f2348581 " + _IRRATIONAL),
    (1, 1904, "4229319b0713 " + _IRRATIONAL),
    (3, 136, "411882d4f091 Q^2"),
    (3, 533, "b824b92930b0 " + _NO_FIT),
    (3, 566, "a4c4a2430142 " + _IRRATIONAL),
    (3, 889, "ca2b9ce11818 " + _NO_FIT),
    (3, 976, "2ac9702f5728 " + _IRRATIONAL),
    (3, 1062, "74ae7f1bce8d " + _IRRATIONAL),
    (3, 1293, "00a18e746165 Z + Loc{3}"),
    (3, 1483, "3f157c216b39 " + _IRRATIONAL),
    (3, 1920, "efebd20e13dd " + _IRRATIONAL),
    (3, 1972, "1a16f0db6a73 " + _IRRATIONAL),
    (3, 2027, "52b1fa331abb " + _IRRATIONAL),
    (3, 2141, "598547bddabe " + _IRRATIONAL),
    (3, 2209, "efb4ec7bdcf6 " + _IRRATIONAL),
    (3, 2328, "45b7d8c49214 " + _IRRATIONAL),
    (3, 2435, "f81c1c7ba4f7 Z^2"),
    (3, 2454, "5fac2872ba36 " + _IRRATIONAL),
    (3, 2489, "6fa632fba5fb " + _NO_FIT),
    (3, 2490, "3951b9e1b38c " + _IRRATIONAL),
    (3, 2703, "c74c9771ba35 " + _IRRATIONAL),
    (3, 2903, "dc74e9332cee " + _IRRATIONAL),
    (7, 34, "b2ca61078089 " + _IRRATIONAL),
    (7, 280, "946715ebcc62 Q^3"),
    (7, 292, "f78fb7abbab2 " + _IRRATIONAL),
    (7, 554, "a961ed8579f0 Z^2"),
    (7, 757, "ca2b9ce11818 " + _NO_FIT),
    (7, 854, "261a9b1d55e8 Loc{2}"),
    (7, 900, "bfa383544f92 Loc{2}"),
    (7, 1260, "bfa383544f92 Loc{2}"),
    (7, 1549, "7009a3b519ae Q"),
    (7, 1604, "5b38b8fa687e " + _IRRATIONAL),
    (7, 1677, "bfa383544f92 Loc{2}"),
    (7, 1954, "a961ed8579f0 Z^2"),
    (7, 2017, "9e761117c4c8 " + _IRRATIONAL),
    (7, 2613, "ffe96b0b0b84 " + _IRRATIONAL),
    (7, 2800, "5b16d8055fda " + _IRRATIONAL),
    (7, 2861, "98a1320d0e71 Loc{2}"),
    (7, 2862, "a1364ca6e4e0 " + _IRRATIONAL),
    (7, 2912, "fd0df8178ad5 " + _IRRATIONAL),
]


def test_the_cycle_systems_keep_their_census_lines(monkeypatch):
    split, reached = abgrp._common_flag_eigenvalues, []
    monkeypatch.setattr(abgrp, "_common_flag_eigenvalues",
                        lambda ts: reached.append(1) or split(ts))
    for seed in (1, 3, 7):
        rows = [(index, line) for s, index, line in CYCLE_LINES if s == seed]
        systems = colim_census.systems(seed, rows[-1][0] + 1)
        for index, line in rows:
            assert colim_census.classify(systems[index])[0] == line, (seed, index)
    assert len(reached) == len(CYCLE_LINES) == 47
    assert sum("refused" not in line for _, _, line in CYCLE_LINES) == 13

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

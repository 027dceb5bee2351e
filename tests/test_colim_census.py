"""Smoke test of ``tools/colim_census.py``, the census of the colimit
engine's certified class that two checkouts are compared by: the systems are
fixed by their seed, and the summary counts the answers and the refusals by
reason."""

import importlib.util
import io
import re
from pathlib import Path

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
        "refused 42 structure maps do not commute",
        "refused 25 cannot certify a split filtration",
        "refused 9 window rank depends on the starting level",
        "refused 1 irrational eigenvalue",
    ]

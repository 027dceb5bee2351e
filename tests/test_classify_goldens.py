"""Classification reports and ``kgroups`` stdout against stored goldens.

``classify_goldens.json`` holds, for every case below at truncate
{None, 0, 3} and grading {None, 0, 1}, the report's ``to_json_dict()`` or
the error type and text, plus the stdout and exit code of one ``kgroups``
call per algebra and of two refusals.  Regenerate it only when an output is
meant to change::

    PYTHONPATH=src:tests python -c "import json, test_classify_goldens as t; \\
        print(json.dumps(t.current(), indent=1, sort_keys=True))" \\
        > tests/classify_goldens.json
"""

import json
import pathlib

import pytest
from click.testing import CliRunner

from ringkt.cli import main
from ringkt.errors import RingKTError
from ringkt.ktheory import classify_A, classify_B, k_full_adele_Q
from ringkt.numfield import parse_field

GOLDENS = json.loads(
    pathlib.Path(__file__).with_name("classify_goldens.json").read_text()
)

# (algebra, field, gamma): gamma None for the algebras that take none.
CASES = (
    ("B", "x - 1", "2"),
    ("B", "x - 1", "-2"),
    ("B", "x - 1", "2;-3"),
    ("B", "x^2 + 1", ""),
    ("B", "x^2 - 2", ""),
    ("B", "x^3 - 2", ""),
    ("B", "x^3 - 2", "1,1"),
    ("A", "x^2 + 2", None),
    ("A", "x^3 - 2", None),
    ("A", "x^2 - 2", None),
    ("A", "x^2 + 1", None),
    ("A_full_Q", None, None),
)

CLI_CALLS = (
    ("kgroups", "--algebra", "B0", "--field", "x^3 - 2"),
    ("kgroups", "--algebra", "A0", "--field", "x^2 - 2"),
    ("kgroups", "--algebra", "B", "--field", "x - 1", "--gamma", "2;-3",
     "--truncate", "2"),
    ("kgroups", "--algebra", "A", "--field", "x^2 - 2", "--truncate", "2",
     "--grading", "1"),
    ("kgroups", "--algebra", "A_full_Q", "--truncate", "3"),
    ("kgroups", "--algebra", "A", "--field", "x^2 + 1"),
    ("kgroups", "--algebra", "B", "--field", "x - 1"),
)


def _classify(algebra, field_str, gamma, truncate, grading):
    kw = {"truncate": truncate, "grading_offset": grading}
    if algebra == "A_full_Q":
        return k_full_adele_Q(**kw)
    field = parse_field(field_str)
    if algebra == "A":
        return classify_A(field, **kw)
    gens = [field.parse_element(part) for part in gamma.split(";") if part]
    return classify_B(field, gens, **kw)


def reports():
    out = {}
    for algebra, field_str, gamma in CASES:
        for truncate in (None, 0, 3):
            for grading in (None, 0, 1):
                key = f"{algebra}|{field_str}|{gamma}|{truncate}|{grading}"
                try:
                    out[key] = _classify(algebra, field_str, gamma, truncate,
                                         grading).to_json_dict()
                except RingKTError as exc:
                    out[key] = {"error": type(exc).__name__, "text": str(exc)}
    return out


def cli_outputs():
    runner = CliRunner()
    out = {}
    for args in CLI_CALLS:
        res = runner.invoke(main, list(args), catch_exceptions=False)
        out[" ".join(args)] = {"exit_code": res.exit_code, "stdout": res.stdout}
    return out


def current():
    return {"reports": reports(), "cli": cli_outputs()}


@pytest.mark.parametrize("part, build", [("reports", reports),
                                         ("cli", cli_outputs)])
def test_matches_golden(part, build):
    got = build()
    assert sorted(got) == sorted(GOLDENS[part])
    for key, value in got.items():
        assert value == GOLDENS[part][key], key

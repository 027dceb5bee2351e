"""CLI contract tests: JSON shape, determinism, exit codes."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from click.testing import CliRunner

import ringkt
from ringkt import cli, numfield
from ringkt.cli import main
from ringkt.errors import InputError

# The exact stdout of `verify --suite all`; each suite prints its own lines.
VERIFY_GOLDEN = (pathlib.Path(__file__).with_name("verify_golden.txt")
                 .read_text(encoding="utf-8"))


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_field_info_real_quadratic(runner):
    res = invoke(runner, "field-info", "--field", "x^2 - 2")
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["degree"] == 2
    assert out["signature"] == [2, 0]
    assert out["roots_of_unity_order"] == 2
    assert out["fundamental_unit_pretty"] == "1 + theta"


def test_field_info_no_unit_block_for_imaginary(runner):
    res = invoke(runner, "field-info", "--field", "x^2 + 1")
    out = json.loads(res.output)
    assert out["roots_of_unity_order"] == 4
    assert "fundamental_unit" not in out


def test_field_info_exits_4_when_the_unit_cross_check_fails(runner, monkeypatch):
    monkeypatch.setattr(numfield.FieldElement, "norm", lambda self: 5)
    res = invoke(runner, "field-info", "--field", "x^2 - 2")
    assert res.exit_code == 4
    assert "gives a unit of norm 5" in res.output


def test_field_info_omits_a_unit_beyond_the_term_cap(runner, monkeypatch):
    # sqrt(94) has period 16, so a cap of 10 terms is a resource limit
    monkeypatch.setattr(numfield, "_MAX_CF_TERMS", 10)
    with pytest.raises(InputError, match=r"sqrt\(94\) has no unit convergent within 10"):
        numfield.fundamental_unit_real_quadratic(numfield.parse_field("x^2 - 94"))
    res = invoke(runner, "field-info", "--field", "x^2 - 94")
    assert res.exit_code == 0
    assert "fundamental_unit" not in json.loads(res.output)


def test_output_is_deterministic(runner):
    a = invoke(runner, "kgroups", "--algebra", "A0", "--field", "x^3 - 2")
    b = invoke(runner, "kgroups", "--algebra", "A0", "--field", "x^3 - 2")
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output
    # compact separators, sorted keys
    assert a.output.startswith('{"algebra":"A0"')


def test_residues_verb(runner):
    res = invoke(runner, "residues", "--field", "x^2 + 1", "--modulus", "3")
    out = json.loads(res.output)
    assert out["count"] == 9
    assert out["residues"][0] == [0, 0]
    centered = invoke(runner, "residues", "--field", "x^2 + 1",
                      "--modulus", "3", "--style", "centered")
    cout = json.loads(centered.output)
    assert cout["count"] == 9
    assert [-1, -1] in cout["residues"]
    big = invoke(runner, "residues", "--field", "x^3 - 2", "--modulus", "10000")
    assert big.exit_code == 2
    assert "above the limit of 65536" in big.output


def test_snf_verb(runner):
    res = invoke(runner, "snf", "--matrix", "[[2,4],[6,8]]")
    out = json.loads(res.output)
    assert out["diagonal"] == [2, 4]
    assert out["cokernel_pretty"] == "Z/2 + Z/4"
    bad = invoke(runner, "snf", "--matrix", "[[2,4],[6]]")
    assert bad.exit_code == 2


def test_colim_verb_builtin_and_file(runner, tmp_path):
    res = invoke(runner, "colim", "--system", "rank-one")
    out = json.loads(res.output)
    assert out["pretty"] == "Z + Q"
    assert out["relations"] == [[[1, [1, 0, 0]], [1, [0, 2, 0]]]]

    path = tmp_path / "sys.json"
    path.write_text(json.dumps({
        "mode": "symbolic",
        "dim": 2,
        "law": [{"kind": "mult_d"}, {"kind": "identity"}],
    }))
    res = invoke(runner, "colim", "--system", str(path))
    assert json.loads(res.output)["pretty"] == "Z + Q"

    # d * [[3, -1], [2, 0]]: the union pattern has a cycle, so the eigen path
    # reads the eigenvalues d and 2d
    path.write_text(json.dumps({
        "mode": "symbolic", "dim": 2,
        "law": [{"kind": "poly", "coeffs": [0, 3]}, {"kind": "zero"}],
        "offdiag": [{"row": 0, "col": 1, "poly": [0, -1]},
                    {"row": 1, "col": 0, "poly": [0, 2]}],
    }))
    res = invoke(runner, "colim", "--system", str(path))
    assert res.exit_code == 0
    assert json.loads(res.output)["pretty"] == "Q^2"


def test_pv_verb(runner, tmp_path):
    path = tmp_path / "act.json"
    path.write_text(json.dumps({
        "group": {"k0": {"free": 1, "q": 1}, "k1": {}},
        "action": {"deg0": {"z": [[1]], "q": [["1/2"]]}},
    }))
    res = invoke(runner, "pv", "--system", str(path))
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["k0"]["pretty"] == "Z"
    assert out["k1"]["pretty"] == "Z"

    # an ambiguous extension is reported, not guessed, under require_split
    amb = tmp_path / "amb.json"
    amb.write_text(json.dumps({
        "group": {"k0": {"free": 1}, "k1": {"torsion": [2]}},
        "action": {"deg0": {"z": [[-1]]}},
    }))
    res = invoke(runner, "pv", "--system", str(amb))
    out = json.loads(res.output)
    assert out["k0"]["resolved"] is None
    assert out["k0"]["ambiguity"]["reason"].startswith("extension")
    res = invoke(runner, "pv", "--system", str(amb),
                 "--resolution", "elementary_divisors")
    out = json.loads(res.output)
    assert out["k0"]["resolved"]["torsion"] == [2, 2]


def test_negative_truncate_exits_2(runner):
    res = invoke(runner, "kgroups", "--algebra", "A_full_Q", "--truncate", "-3")
    assert res.exit_code == 2
    assert "truncate must be an integer >= 0" in res.output


@pytest.mark.parametrize("args", [
    ("--algebra", "B", "--field", "x^2 - 2"),
    ("--algebra", "A", "--field", "x^2 - 2"),
    ("--algebra", "A_full_Q"),
])
def test_truncate_above_16_exits_2(runner, args):
    # A torsion row m lists 2^(m-1) entries per degree, so the table is capped.
    res = invoke(runner, "kgroups", *args, "--truncate", "17")
    assert res.exit_code == 2
    assert "truncate must be at most 16" in res.output
    res = invoke(runner, "kgroups", *args, "--truncate", "16")
    assert res.exit_code == 0
    assert json.loads(res.output)["truncations"][-1]["m"] == 16


def test_non_integral_json_values_exit_2(runner, tmp_path):
    # non-integral numbers where integers belong are rejected, not truncated
    act = tmp_path / "act.json"
    act.write_text(json.dumps({
        "group": {"k0": {"free": 1.5, "torsion": [2.9]}, "k1": {}}, "action": {},
    }))
    res = invoke(runner, "pv", "--system", str(act))
    assert res.exit_code == 2
    assert "not an integer" in res.output
    act.write_text(json.dumps({
        "group": {"k0": {"free": 1}, "k1": {}}, "action": {"deg0": {"z": [[1.0]]}},
    }))
    res = invoke(runner, "pv", "--system", str(act))
    assert res.exit_code == 2
    assert "not an integer" in res.output
    law = tmp_path / "law.json"
    law.write_text(json.dumps({
        "mode": "symbolic", "dim": 1, "law": [{"kind": "poly", "coeffs": [6.7]}],
    }))
    assert invoke(runner, "colim", "--system", str(law)).exit_code == 2
    # q and mix entries are ints or strings Fraction parses: 0.1 was read as
    # 3602879701896397/36028797018963968, true as 1, "abc" exited 1
    for block in ({"q": [[0.1]]}, {"mix": [[True]]}, {"q": [["abc"]]}):
        act.write_text(json.dumps({
            "group": {"k0": {"free": 1, "q": 1}, "k1": {}}, "action": {"deg0": block},
        }))
        res = invoke(runner, "pv", "--system", str(act))
        assert res.exit_code == 2
        assert "not a rational number" in res.output


def test_an_unexpected_error_exits_1_with_a_traceback(runner, monkeypatch):
    def boom(system):
        raise ZeroDivisionError("an internal fault")

    monkeypatch.setattr(cli.abgrp, "colimit", boom)
    res = runner.invoke(main, ["colim", "--system", "rank-one"])
    assert res.exit_code == 1 and res.stdout == ""
    assert res.stderr.startswith("Traceback (most recent call last):")
    assert res.stderr.endswith("ZeroDivisionError: an internal fault\n")


def test_colim_refuses_an_empty_d_chain_and_a_repeated_cell(runner, tmp_path):
    # The empty d_chain once exited 1 with an IndexError traceback; a cell
    # given twice once took its last entry.
    system = tmp_path / "system.json"
    law = [{"kind": "poly", "coeffs": [2]}, {"kind": "identity"}]
    cases = {
        "d_chain needs at least one entry":
            {"mode": "symbolic", "dim": 1, "law": [{"kind": "identity"}], "d_chain": []},
        "offdiag cell (1, 0) is given twice":
            {"mode": "symbolic", "dim": 2, "law": law,
             "offdiag": [{"row": 1, "col": 0, "poly": [1]}, {"row": 1, "col": 0, "poly": [0]}]},
    }
    for message, doc in cases.items():
        system.write_text(json.dumps(doc))
        res = invoke(runner, "colim", "--system", str(system))
        assert res.exit_code == 2
        assert res.output == f"error: {message}\n"


def test_kgroups_classification_verbs(runner):
    res = invoke(runner, "kgroups", "--algebra", "B", "--field", "x - 1",
                 "--gamma", "2;3;5", "--truncate", "2")
    out = json.loads(res.output)
    assert out["case"] == "odd-reals-even-signs"
    assert out["k0"] == "Lambda_odd(Gamma)"
    assert [r["m"] for r in out["truncations"]] == [0, 1, 2]

    res = invoke(runner, "kgroups", "--algebra", "A_full_Q", "--truncate", "1")
    out = json.loads(res.output)
    assert out["k0"] == "Lambda_even(Gamma)^2"

    res = invoke(runner, "kgroups", "--algebra", "B", "--field", "x^2 - 2",
                 "--gamma", "1,1")
    out = json.loads(res.output)
    assert out["case"] == "even-reals"


def test_exit_codes(runner):
    # 2: malformed input
    assert invoke(runner, "field-info", "--field", "x^2 - 4").exit_code == 2
    # 2: a field or an element the parsers once misread
    assert invoke(runner, "field-info", "--field", "x^2 - 1 0").exit_code == 2
    assert invoke(runner, "kgroups", "--algebra", "B", "--field", "x^3-2",
                  "--gamma", "-3/2,,1").exit_code == 2
    # 2: missing required field
    assert invoke(runner, "kgroups", "--algebra", "B0").exit_code == 2
    # 2: missing system file
    assert invoke(runner, "colim", "--system", "/no/such/file.json").exit_code == 2
    # 3: hypothesis failure
    assert invoke(runner, "kgroups", "--algebra", "A",
                  "--field", "x^2 + 1").exit_code == 3
    # 2: insufficient classification data
    assert invoke(runner, "kgroups", "--algebra", "B",
                  "--field", "x - 1").exit_code == 2


def test_verify_single_suite(runner):
    res = invoke(runner, "verify", "--suite", "q-case")
    assert res.exit_code == 0
    lines = [l for l in res.output.splitlines() if l]
    assert lines and all(l.startswith("PASS [q-case]") for l in lines)


def test_verify_all_suites(runner):
    res = invoke(runner, "verify")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert sum(1 for l in lines if l.startswith("PASS")) == 20
    assert not any(l.startswith("FAIL") for l in lines)
    for suite in ("q-case", "kappa", "colim", "classify"):
        assert any(f"[{suite}]" in l for l in lines)


@pytest.mark.parametrize("suite", ["all", "classify", "colim", "kappa", "q-case"])
def test_verify_matches_golden(runner, suite):
    res = invoke(runner, "verify", "--suite", suite)
    assert res.exit_code == 0
    assert res.stderr == ""
    if suite == "all":
        assert res.stdout == VERIFY_GOLDEN
    else:
        want = [l for l in VERIFY_GOLDEN.splitlines(keepends=True)
                if l.startswith(f"PASS [{suite}] ")]
        assert want and res.stdout == "".join(want)


def test_verify_failure_path(runner, monkeypatch):
    table = list(cli._CHECKS)
    false_at, raise_at = [k for k, row in enumerate(table) if row[0] == "kappa"][:2]

    def crash():
        raise ZeroDivisionError("boom")

    false_label, raise_label = table[false_at][1], table[raise_at][1]
    table[false_at] = ("kappa", false_label, lambda: False)
    table[raise_at] = ("kappa", raise_label, crash)
    monkeypatch.setattr(cli, "_CHECKS", tuple(table))
    res = invoke(runner, "verify", "--suite", "kappa")
    assert res.exit_code == 4
    lines = res.stdout.splitlines()
    assert lines[:2] == [
        f"FAIL [kappa] {false_label}",
        f"FAIL [kappa] {raise_label} (raised ZeroDivisionError: boom)",
    ]
    assert len(lines) == 5 and all(l.startswith("PASS [kappa] ") for l in lines[2:])
    assert res.stderr == "2 check(s) failed\n"


def test_snf_matrix_from_file(runner, tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[1,0],[0,3]]")
    res = invoke(runner, "snf", "--matrix", f"@{path}")
    assert json.loads(res.output)["diagonal"] == [1, 3]


@pytest.mark.parametrize("matrix", [
    [[2, 4], [6, 8]],                 # square
    [[2, 0, 4], [0, 6, 3]],           # wide
    [[1, 2], [3, 4], [5, 6]],         # tall
    [[0, 0, 0], [0, 0, 0]],           # all zero
    [[4, 6, 10]],                     # 1 x n
], ids=["square", "wide", "tall", "zero", "one-row"])
def test_snf_verb_matches_the_library(runner, matrix):
    from ringkt import abgrp

    out = json.loads(invoke(runner, "snf", "--matrix", json.dumps(matrix)).output)
    u, d, v = abgrp.smith_normal_form(matrix)
    coker = abgrp.cokernel(matrix)
    assert (out["u"], out["d"], out["v"]) == (u, d, v)
    assert out["diagonal"] == [d[i][i] for i in range(min(len(d), len(d[0])))]
    assert out["cokernel"] == coker.to_json_dict()
    assert out["cokernel_pretty"] == str(coker)
    assert out["kernel_rank"] == len(abgrp.kernel_lattice_basis(matrix))


def test_grading_override_flag(runner):
    res = invoke(runner, "kgroups", "--algebra", "B", "--field", "x - 1",
                 "--gamma", "2", "--grading", "0")
    out = json.loads(res.output)
    assert out["grading_offset"] == 0
    assert out["k0"] == "Lambda_even(Gamma)"


def test_pretty_flag(runner):
    plain = invoke(runner, "field-info", "--field", "x - 1")
    pretty = invoke(runner, "field-info", "--field", "x - 1", "--pretty")
    assert json.loads(plain.output) == json.loads(pretty.output)
    assert "\n  " in pretty.output and "\n  " not in plain.output


_PV_OK = {"group": {"k0": {"free": 1, "q": 1}, "k1": {}},
          "action": {"deg0": {"z": [[1]], "q": [["1/2"]]}}}
_COLIM_OK = {"mode": "symbolic", "dim": 1, "law": [{"kind": "mult_d"}],
             "offdiag": [], "d_chain": [2, 3]}


def _with(doc, path, value):
    """A deep copy of ``doc`` with the value at ``path`` (keys and indices)
    replaced."""
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# Documents that exited 1 with a traceback before they were type-checked.
_MALFORMED = {
    "pv-group-list": ("pv", _with(_PV_OK, ("group",), [])),
    "pv-action-list": ("pv", _with(_PV_OK, ("action",), [])),
    "pv-block-list": ("pv", _with(_PV_OK, ("action", "deg0"), [[1]])),
    "pv-block-key-zz": ("pv", _with(_PV_OK, ("action", "deg0", "zz"), [[1]])),
    "pv-q-flat": ("pv", _with(_PV_OK, ("action", "deg0", "q"), [1])),
    "pv-z-flat": ("pv", _with(_PV_OK, ("action", "deg0", "z"), [1])),
    "pv-torsion-int": ("pv", _with(_PV_OK, ("group", "k1", "torsion"), 5)),
    "pv-loc-support-int": ("pv", _with(_PV_OK, ("group", "k1", "loc"), [5])),
    "colim-law-int": ("colim", _with(_COLIM_OK, ("law",), 5)),
    "colim-offdiag-int": ("colim", _with(_COLIM_OK, ("offdiag",), 5)),
    "colim-d_chain-int": ("colim", _with(_COLIM_OK, ("d_chain",), 5)),
    "colim-offdiag-poly-int": ("colim", {"mode": "symbolic", "dim": 2,
                                         "law": [{"kind": "identity"}] * 2,
                                         "offdiag": [{"row": 0, "col": 1, "poly": 5}]}),
    "colim-matrices-int": ("colim", {"mode": "explicit", "matrices": 5}),
}


def _ringkt(*args):
    """``ringkt <args>`` in a fresh process, killed after 10 s."""
    src = str(pathlib.Path(ringkt.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "ringkt.cli", *args],
                          env=env, capture_output=True, text=True, timeout=10)


def _fresh_process(tmp_path, verb, doc):
    """``ringkt <verb> --system <doc>`` in a fresh process, killed after 10 s."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return _ringkt(verb, "--system", str(path))


def test_an_integer_past_the_digit_cap_exits_2_without_a_traceback(tmp_path):
    # Python refuses to read an int of more than 4300 digits; the input is refused
    big = "9" * 5000
    path = tmp_path / "law.json"
    path.write_text('{"mode": "symbolic", "dim": 1, "law": [{"kind": "poly", "coeffs": [%s]}]}'
                    % big)
    for res in (_ringkt("snf", "--matrix", f"[[{big}]]"), _ringkt("colim", "--system", str(path)),
                _ringkt("field-info", "--field", f"x^2 - {big}")):
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr


def test_snf_prints_integers_past_the_digit_cap():
    # 3914 and 3818 digits in; d[1][1] = 2^13000 * 3^8000 has 7731 digits
    a, b = 2 ** 13000, 3 ** 8000
    res = _ringkt("snf", "--matrix", f"[[{a}, 0], [0, {b}]]")
    assert res.returncode == 0 and res.stderr == ""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        out = json.loads(res.stdout)
    finally:
        sys.set_int_max_str_digits(cap)
    assert out["d"] == [[1, 0], [0, a * b]] and out["diagonal"] == [1, a * b]
    assert out["cokernel"]["torsion"] == [a * b]


def test_a_large_localization_prime_is_refused_in_time(tmp_path):
    # 2^61 - 1 is prime, and far beyond trial division within the timeout
    doc = {"group": {"k0": {"free": 1, "loc": [[2 ** 61 - 1]]}, "k1": {}}, "action": {}}
    res = _fresh_process(tmp_path, "pv", doc)
    assert res.returncode == 2
    assert "localized summands are not supported" in res.stderr


def test_a_full_rank_colimit_prints_its_empty_relations_in_time(tmp_path):
    # mult_d on 60 coordinates plus a unit subdiagonal: every composite has
    # full rank, so the relations are empty and no composite is multiplied out
    dim = 60
    doc = {"mode": "symbolic", "dim": dim, "law": [{"kind": "mult_d"}] * dim,
           "offdiag": [{"row": i + 1, "col": i, "poly": [1]} for i in range(dim - 1)]}
    res = _fresh_process(tmp_path, "colim", doc)
    assert res.returncode == 0
    assert '"pretty":"Q^60"' in res.stdout and '"relations":[]' in res.stdout


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_json_exits_2(runner, tmp_path, name):
    verb, doc = _MALFORMED[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    res = invoke(runner, verb, "--system", str(path))
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output


_COLIM_2 = {"mode": "symbolic", "dim": 2, "law": [{"kind": "identity"}] * 2}

# Documents with a misspelt key, which was ignored (exit 0) before keys were checked.
_UNKNOWN_KEY = {
    "fre": ("pv", {"group": {"k0": {"fre": 1}, "k1": {}}, "action": {}}),
    "expo": ("colim", _with(_COLIM_OK, ("law",), [{"kind": "diag_power", "expo": 3}])),
    "exp": ("colim", _with(_COLIM_OK, ("law",), [{"kind": "mult_d", "exp": 2}])),
    "polly": ("colim", dict(_COLIM_2, offdiag=[{"row": 0, "col": 1, "polly": [1]}])),
    "coeffs": ("colim", dict(_COLIM_2, offdiag=[{"row": 0, "col": 1, "kind": "zero",
                                                 "coeffs": [1]}])),
    "zz": ("pv", _with(_PV_OK, ("action", "deg1"), {"zz": [[1]]})),
    "ofdiag": ("colim", dict(_COLIM_2, law=[{"kind": "mult_d"}, {"kind": "identity"}],
                             ofdiag=[{"row": 0, "col": 1, "poly": [1]}])),
    "matrix": ("colim", {"mode": "explicit", "matrices": [[[2]]], "matrix": [[[3]]]}),
    "dge0": ("pv", {"group": _PV_OK["group"], "action": {"dge0": {"z": [[-1]]}}}),
    "k2": ("pv", _with(_PV_OK, ("group", "k2"), {"free": 1})),
    "acton": ("pv", dict(_PV_OK, acton={})),
}


@pytest.mark.parametrize("key", sorted(_UNKNOWN_KEY))
def test_unknown_json_key_exits_2_and_is_named(runner, tmp_path, key):
    verb, doc = _UNKNOWN_KEY[key]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    res = invoke(runner, verb, "--system", str(path))
    assert res.exit_code == 2, res.output
    assert f"unknown key {key!r}" in res.output
    assert "Traceback" not in res.output


def _readme_examples():
    """The two JSON example documents of the README, in order: a directed
    system and an action description."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", text, re.S)]


def _paths(doc, prefix=()):
    """The path of every value in a JSON document, the document itself first."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


# one value of each JSON type, empty and not for arrays and objects
_JSON_VALUES = [2, 1.5, "x", True, None, [], [1], {}, {"zz": 1}]


@pytest.mark.parametrize("verb,index", [("colim", 0), ("pv", 1)])
def test_any_json_value_in_the_readme_examples_exits_0_or_2(runner, tmp_path, verb, index):
    examples = _readme_examples()
    assert len(examples) == 2
    doc = examples[index]
    path = tmp_path / "doc.json"
    for where in _paths(doc):
        for value in _JSON_VALUES:
            path.write_text(json.dumps(_with(doc, where, value)))
            res = invoke(runner, verb, "--system", str(path))
            assert res.exit_code in (0, 2), (where, value, res.output)
            assert "Traceback" not in res.output, (where, value)

"""The colimit engine against the level-zero closed forms, and colimit goldens.

The goldens in ``colimit_goldens.json`` are ``colimit(...).to_json_dict()``
as produced by the dense engine; the sparse engine must reproduce them byte
for byte, ``relations`` included.
"""

import json
import pathlib

import pytest

from ringkt.abgrp import DirectedSystem, colimit
from ringkt.ktheory import (
    k_of_A0,
    k_of_B0,
    kappa,
    rank_one_system,
    subsets_graded_lex,
)
from test_abgrp import _rank3_system

GOLDENS = json.loads(
    (pathlib.Path(__file__).with_name("colimit_goldens.json")).read_text()
)


def _b0_system(n, parity):
    degrees = [len(s) for s in subsets_graded_lex(n) if len(s) % 2 == parity]
    return DirectedSystem.symbolic(
        len(degrees), [{"kind": "diag_power", "exp": n - k} for k in degrees]
    )


def _a0_system(n):
    return DirectedSystem.from_family(kappa(n, 2).size, lambda d: kappa(n, d).dense())


@pytest.mark.parametrize("n", range(1, 7))
def test_k_of_B0_engine_check_up_to_6(n):
    assert k_of_B0(n, engine_check=True) == k_of_B0(n, engine_check=False)


@pytest.mark.parametrize("n", range(1, 6))
def test_k_of_A0_engine_check_up_to_5(n):
    assert k_of_A0(n, engine_check=True) == k_of_A0(n, engine_check=False)


@pytest.mark.parametrize("name, make", [
    ("rank_one", rank_one_system),
    ("rank3", _rank3_system),
    ("B0_4_k0", lambda: _b0_system(4, 0)),
    ("B0_4_k1", lambda: _b0_system(4, 1)),
    ("A0_4", lambda: _a0_system(4)),
])
def test_colimit_json_matches_golden(name, make):
    got = json.dumps(colimit(make()).to_json_dict(), sort_keys=True)
    assert got == json.dumps(GOLDENS[name], sort_keys=True)

"""The colimit engine against the level-zero closed forms, and colimit goldens.

The goldens in ``colimit_goldens.json`` are ``colimit(...).to_json_dict()``
as produced by the dense engine; the sparse engine must reproduce them byte
for byte, ``relations`` included.
"""

import collections
import json
import pathlib
import sys

import pytest

from conftest import hnf_basis, seeded_rng
from ringkt import abgrp, ktheory
from ringkt.abgrp import DirectedSystem, GroupDescriptor, colimit, identified
from ringkt.ktheory import (
    KappaMatrix,
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


@pytest.mark.parametrize("closed_form, last_checked", [(k_of_B0, 16), (k_of_A0, 12)],
                         ids=["B0-16", "A0-12"])
def test_engine_check_is_on_by_default_up_to(closed_form, last_checked, monkeypatch):
    """The default check reaches ``k_of_B0(16)`` and ``k_of_A0(12)``, where the
    engine agrees with the closed form, and stops one degree later."""
    runs = []
    monkeypatch.setattr(ktheory, "colimit", lambda system: runs.append(1) or colimit(system))
    assert closed_form(last_checked) == closed_form(last_checked, engine_check=False)
    assert runs
    runs.clear()
    closed_form(last_checked + 1)
    assert not runs


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


def test_a0_4_golden_relations_are_the_hermite_form_of_the_kernel():
    # sympy alone: the golden vectors (up to the sign _relation_pairs gives
    # them) are their own Hermite normal form, lie in the kernel of the first
    # step, are as many as its nullity, and span a saturated lattice.
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    vecs = [[x - y for x, y in zip(plus, minus)]
            for (_, plus), (_, minus) in GOLDENS["A0_4"]["relations"]]
    vecs = [v if [x for x in v if x][-1] > 0 else [-x for x in v] for v in vecs]
    assert hnf_basis(vecs) == vecs
    step = Matrix(kappa(4, 2).dense())
    assert step * Matrix(vecs).T == Matrix.zeros(step.rows, len(vecs))
    assert len(vecs) == step.cols - step.rank()
    assert set(invariant_factors(Matrix(vecs), domain=ZZ)) == {1}


@pytest.mark.parametrize("n", range(1, 6))
def test_k_of_A0_engine_check_reads_kappa_laws_only(n, monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ktheory, "kappa_laws", counted("laws", ktheory.kappa_laws))
    monkeypatch.setattr(KappaMatrix, "rows", counted("rows", KappaMatrix.rows))
    monkeypatch.setattr(KappaMatrix, "dense", counted("dense", KappaMatrix.dense))
    # ktheory imports no as_int_matrix; abgrp is the one module that calls it
    monkeypatch.setattr(abgrp, "as_int_matrix", counted("as_int_matrix", abgrp.as_int_matrix))
    assert k_of_A0(n, engine_check=True) == k_of_A0(n, engine_check=False)
    assert calls["laws"] == 1
    assert calls["rows"] == calls["dense"] == calls["as_int_matrix"] == 0


def _count_abgrp_calls(monkeypatch, names):
    """Count calls of the named ``abgrp`` functions through every ``ringkt``
    module that binds them."""
    calls = collections.Counter()
    for name in names:
        original = getattr(abgrp, name)

        def wrapper(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in [m for key, m in sys.modules.items() if key.startswith("ringkt")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return calls


def test_six_term_steps_build_no_dense_identity(monkeypatch):
    calls = _count_abgrp_calls(monkeypatch, ("as_int_matrix", "_snf"))
    half = GroupDescriptor.free(2 ** 7)
    assert ktheory.k_of_A_truncated_Q(8) == ktheory.GradedKGroup(half, half)
    g = ktheory.GradedKGroup(GroupDescriptor(free_rank=5, torsion=(2,)), GroupDescriptor.free(3))
    assert ktheory.pv_step(g, ktheory.identity_action(g)).graded() == ktheory.GradedKGroup(
        GroupDescriptor(free_rank=8, torsion=(2,)), GroupDescriptor(free_rank=8, torsion=(2,)))
    # an identity action has act - id = 0: nothing reaches the Smith form
    assert calls == {}
    act = ktheory.involution_action(5)
    res = ktheory.pv_step(act.domain, act)
    assert res.coker0 == GroupDescriptor(free_rank=16, torsion=(2,) * 16)
    # one Smith form per degree, on the 16 nonzero rows of diag(0, -2, 0, -2, ...)
    assert calls == {"_snf": 2}


@pytest.mark.parametrize("n", range(1, 7))
def test_kappa_rows_are_zero_free_int_rows_in_range(n):
    """``k_of_A0`` hands ``KappaMatrix.rows`` to its system unchecked."""
    for d in range(2, 61):
        k = kappa(n, d)
        rows = k.rows()
        assert len(rows) == k.size
        for row in rows:
            assert all(type(j) is int and 0 <= j < k.size for j in row)
            assert all(type(x) is int and x != 0 for x in row.values())


def test_k_of_A0_builds_its_system_without_the_row_check(monkeypatch):
    def refuse(*args):
        raise AssertionError("_as_int_rows reached")

    monkeypatch.setattr(abgrp, "_as_int_rows", refuse)
    assert k_of_A0(4, engine_check=True) == k_of_A0(4, engine_check=False)


@pytest.mark.parametrize("n", range(1, 5))
def test_kappa_rows_and_dense_families_give_one_system(n):
    size = kappa(n, 2).size
    by_rows = DirectedSystem.from_family(size, lambda d: kappa(n, d).rows())
    by_dense = _a0_system(n)
    assert colimit(by_rows).to_json_dict() == colimit(by_dense).to_json_dict()
    for t in range(1, 6):
        assert by_rows.matrix(t) == by_dense.matrix(t)
    rng = seeded_rng(f"kappa-rows-{n}")
    for _ in range(8):
        level = rng.randint(1, 4)
        vec = [rng.randint(-2, 2) for _ in range(size)]
        pushed = [sum(x * y for x, y in zip(row, vec)) for row in by_dense.matrix(level)]
        other = [rng.randint(-2, 2) for _ in range(size)]
        for a, b in (((level, vec), (level + 1, pushed)), ((level, vec), (level + 1, other))):
            assert identified(by_rows, a, b) == identified(by_dense, a, b)

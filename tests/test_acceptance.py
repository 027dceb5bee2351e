"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py``; each criterion is a single
test and prints its own ``CRITERION .. PASS/FAIL`` line (visible with ``-s``
or in the captured output of a failure).
"""

import time
from fractions import Fraction

import pytest
from conftest import (
    check_smith_form,
    numpy_real_root_count,
    random_int_matrix,
    seeded_rng,
)

from ringkt.abgrp import (
    DirectedSystem,
    GroupDescriptor,
    colimit,
    identified,
    smith_normal_form,
)
from ringkt.errors import HypothesisError
from ringkt.ktheory import (
    GradedKGroup,
    classify_A,
    classify_B,
    involution_action,
    k_of_A0,
    k_of_A_truncated_Q,
    k_of_B0,
    kappa,
    pv_step,
    rank_one_inclusion_matrix,
    subsets_graded_lex,
)
from ringkt.numfield import (
    count_real_roots,
    parse_field,
    poly_degree,
    poly_deriv,
    poly_gcd,
)

_MODULE_T0 = time.perf_counter()


def _report(num, desc, ok, elapsed=None):
    mark = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.3f}s]" if elapsed is not None else ""
    print(f"CRITERION {num:02d} {mark}{timing}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_rank_one_matrices():
    t0 = time.perf_counter()
    ok = rank_one_inclusion_matrix(2) == [[2, 1, 0], [0, 0, 1], [0, 0, 1]]
    for d in (3, 5, 7, 15):
        half = (d - 1) // 2
        ok = ok and rank_one_inclusion_matrix(d) == [
            [d, half, half], [0, 1, 0], [0, 0, 1],
        ]
    elapsed = time.perf_counter() - t0
    _report(1, "rank-one inclusion matrices in the distinguished basis "
               "(d = 2 and odd d in {3,5,7,15})", ok and elapsed < 1.0, elapsed)


def test_criterion_02_rank_one_colimit():
    t0 = time.perf_counter()
    system = DirectedSystem.symbolic(
        3,
        [{"kind": "poly", "coeffs": [0, 2]}, {"kind": "zero"},
         {"kind": "identity"}],
        [
            {"row": 0, "col": 1, "kind": "mult_d"},
            {"row": 0, "col": 2, "poly": [-1, 1]},
            {"row": 1, "col": 2, "poly": [1]},
        ],
    )
    report = colimit(system)
    ok = report.invariants == GroupDescriptor(free_rank=1, q_rank=1)
    ok = ok and not report.truncated
    ok = ok and report.relations == (((1, (1, 0, 0)), (1, (0, 2, 0))),)
    ok = ok and identified(system, (1, (1, 0, 0)), (1, (0, 2, 0)))
    elapsed = time.perf_counter() - t0
    _report(2, "rank-one chain colimit is exactly Q + Z and identifies the "
               "unit class with twice the mixed projection class",
            ok and elapsed < 1.0, elapsed)


def test_criterion_03_truncated_rational_shells():
    t0 = time.perf_counter()
    ok = True
    for m in range(1, 14):
        half = 2 ** (m - 1)
        expected = GradedKGroup(GroupDescriptor.free(half),
                                GroupDescriptor.free(half))
        ok = ok and k_of_A_truncated_Q(m) == expected
    elapsed = time.perf_counter() - t0
    _report(3, "iterated six-term steps over the rationals give free groups "
               "of rank 2^(m-1) in both degrees for 1 <= m <= 13",
            ok and elapsed < 1.0, elapsed)


def test_criterion_04_structure_matrix_composition():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 6):
        two = kappa(n, 2)
        for d in range(3, 100, 2):
            ok = ok and two.compose(kappa(n, d)) == kappa(n, 2 * d)
    elapsed = time.perf_counter() - t0
    _report(4, "exact composition law kappa(n,2) . kappa(n,d) = kappa(n,2d) "
               "for n <= 5 and odd d <= 99", ok and elapsed < 10.0, elapsed)


def test_criterion_05_base_closed_forms_vs_engine():
    ok = True
    for n in (1, 2, 3):
        closed_a = k_of_A0(n, engine_check=False)
        engine_a = colimit(DirectedSystem.from_family(
            kappa(n, 2).size, lambda d, n=n: kappa(n, d).dense()
        )).invariants
        ok = ok and engine_a == closed_a.k0 and closed_a.k1.is_trivial
        closed_b = k_of_B0(n, engine_check=False)
        for parity, expected in ((0, closed_b.k0), (1, closed_b.k1)):
            degrees = [len(s) for s in subsets_graded_lex(n)
                       if len(s) % 2 == parity]
            engine_b = colimit(DirectedSystem.symbolic(
                len(degrees),
                [{"kind": "diag_power", "exp": n - k} for k in degrees],
            )).invariants
            ok = ok and engine_b == expected
    _report(5, "closed-form base K-groups equal the independent colimit "
               "engine for n in {1,2,3}", ok)


def test_criterion_06_golden_classifications():
    ok = True
    q = parse_field("x - 1")
    rep = classify_B(q, [q.parse_element(s) for s in ("2", "3", "5")])
    ok = ok and rep.case == "odd-reals-even-signs"
    ok = ok and rep.formula(0) == "Lambda_odd(Gamma)"
    ok = ok and rep.formula(1) == "Lambda_even(Gamma)"

    qi = parse_field("x^2 + 1")
    rep = classify_B(qi)
    ok = ok and rep.case == "no-real-embedding"
    ok = ok and rep.formula(0) == "Lambda_even(Gamma)"
    try:
        classify_A(qi)
        ok = False
    except HypothesisError as exc:
        ok = ok and exc.exit_code == 3

    sq2 = parse_field("x^2 - 2")
    rep = classify_B(sq2, [sq2.parse_element("1,1")])
    ok = ok and rep.formula(0) == "(Z/2) (x) Lambda_even(Gamma)"
    rep = classify_A(sq2)
    ok = ok and rep.formula(0) == (
        "Lambda_even(Gamma) + (Z/2) (x) Lambda_even(Gamma)"
    )

    cb2 = parse_field("x^3 - 2")
    rep = classify_A(cb2)
    ok = ok and rep.case == "odd-real-embeddings"
    ok = ok and rep.formula(0) == "Lambda_even(Gamma)"
    _report(6, "golden classification reports for Q, Q(i), Q(sqrt 2), "
               "Q(cbrt 2), including the roots-of-unity refusal", ok)


def test_criterion_07_involution_normal_form():
    ok = True
    for m in (1, 2, 3):
        act = involution_action(m)
        res = pv_step(act.domain, act, resolution="elementary_divisors")
        half = 2 ** (m - 1)
        expected_coker = GroupDescriptor(free_rank=half, torsion=(2,) * half)
        expected_k = GroupDescriptor(free_rank=2 ** m, torsion=(2,) * half)
        ok = ok and res.coker0 == expected_coker
        ok = ok and res.coker1 == expected_coker
        ok = ok and res.k0 == expected_k and res.k1 == expected_k
    _report(7, "involution step for m in {1,2,3}: cokernels "
               "Z^(2^(m-1)) + (Z/2)^(2^(m-1)) and resolved groups "
               "Z^(2^m) + (Z/2)^(2^(m-1))", ok)


def test_criterion_08_property_suites():
    ok = True

    # Smith normal form: 500 random matrices up to 8x8, entries in [-50, 50]
    rng = seeded_rng("acceptance-snf")
    for _ in range(500):
        a = random_int_matrix(rng, max_side=8, lo=-50, hi=50)
        u, d, v = smith_normal_form(a)
        check_smith_form(a, u, d, v)

    # Sturm real-root counts against the floating-point oracle: 20 polynomials
    rng = seeded_rng("acceptance-sturm")
    done = 0
    while done < 20:
        deg = rng.randint(2, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        f = [Fraction(c) for c in coeffs]
        if poly_degree(poly_gcd(f, poly_deriv(f))) > 0:
            continue
        oracle = numpy_real_root_count(coeffs)
        if oracle is None:
            continue
        bound = 1 + max(abs(c) for c in coeffs)
        ok = ok and count_real_roots(coeffs, -bound, bound) == oracle
        done += 1

    # sign-parity multiplicativity: 100 random pairs over real-embedded fields
    rng = seeded_rng("acceptance-parity")
    fields = [parse_field(s) for s in ("x^2 - 2", "x^3 - 2", "x^3 + x - 1")]
    done = 0
    while done < 100:
        fld = rng.choice(fields)
        a = fld.element([rng.randint(-5, 5) for _ in range(fld.degree)])
        b = fld.element([rng.randint(-5, 5) for _ in range(fld.degree)])
        if a.is_zero or b.is_zero:
            continue
        ok = ok and fld.sign_parity(a * b) == fld.sign_parity(a) * fld.sign_parity(b)
        done += 1

    # residue systems: counts, uniqueness, digit ranges
    for poly, n in (("x - 1", 1), ("x^2 + 1", 2), ("x^3 - 2", 3)):
        fld = parse_field(poly)
        for d in (2, 3, 5):
            system = fld.residue_system(d)
            ok = ok and len(system) == d ** n
            ok = ok and len(set(system)) == d ** n
            ok = ok and all(0 <= c < d for coords in system for c in coords)

    _report(8, "property suites: 500 Smith forms, 20 Sturm oracle counts, "
               "100 parity products, residue systems for degrees 1-3", ok)


def test_full_acceptance_runtime():
    elapsed = time.perf_counter() - _MODULE_T0
    print(f"acceptance suite wall time: {elapsed:.2f}s (budget 60s)")
    assert elapsed < 60.0

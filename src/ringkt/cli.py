"""Command-line interface: deterministic JSON on stdout, diagnostics on stderr.

Exit codes (mirrors :mod:`ringkt.errors`):

* 0 — success;
* 2 — bad or unsupported input (including systems outside the certified
  colimit class);
* 3 — a classification hypothesis fails for the supplied field;
* 4 — an internal cross-check or a ``verify`` assertion failed;
* 1 — any other error.
"""

from __future__ import annotations

import json
import sys
import traceback

import click

from . import abgrp, ktheory, numfield
from .errors import (CrossCheckError, HypothesisError, InputError, RingKTError,
                     UnsupportedSystemError)


def _uncapped(render, *args, **kwargs):
    """``render(*args, **kwargs)`` with Python's cap on int-to-str digits
    lifted, since every integer rendered is an exact result; the cap still
    guards the input."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return render(*args, **kwargs)
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return render(*args, **kwargs)
    finally:
        sys.set_int_max_str_digits(cap)


def _emit(obj, pretty):
    style = {"indent": 2} if pretty else {"separators": (",", ":")}
    click.echo(_uncapped(json.dumps, obj, sort_keys=True, **style))


def _run(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except RingKTError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exc.exit_code)
    except Exception:
        traceback.print_exc()
        sys.exit(1)


def _load_json_arg(text, what):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit cap
        raise InputError(f"{what} is not valid JSON: {exc}") from exc


def _load_json_file(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {what} from {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit cap
        raise InputError(f"{what} in {path} is not valid JSON: {exc}") from exc


def _parse_gamma(field, gamma):
    if not gamma:
        return []
    return [field.parse_element(part) for part in gamma.split(";") if part.strip()]


pretty_option = click.option(
    "--pretty", is_flag=True, default=False, help="Indent the JSON output."
)


@click.group()
def main():
    """Exact K-theory of ring C*-algebras over rings of integers."""


@main.command("field-info")
@click.option("--field", "field_str", required=True,
              help="Monic integer polynomial of the generator, e.g. 'x^2 - 2'.")
@pretty_option
def field_info(field_str, pretty):
    """Signature, roots of unity, and unit data of a number field."""

    def work():
        field = numfield.parse_field(field_str)
        out = field.to_json_dict()
        try:
            unit = numfield.fundamental_unit_real_quadratic(field)
            out["fundamental_unit"] = [str(c) for c in unit.coeffs]
            out["fundamental_unit_pretty"] = unit.as_string()
        except (InputError, HypothesisError):
            pass
        return out

    _emit(_run(work), pretty)


@main.command("residues")
@click.option("--field", "field_str", required=True)
@click.option("--modulus", type=int, required=True,
              help="The rational integer d to reduce modulo.")
@click.option("--style", type=click.Choice(["standard", "centered"]),
              default="standard", show_default=True)
@pretty_option
def residues(field_str, modulus, style, pretty):
    """A complete residue system for the ring of integers modulo d."""

    def work():
        field = numfield.parse_field(field_str)
        system = field.residue_system(modulus, style=style)
        return {
            "field": field.to_json_dict(),
            "modulus": modulus,
            "style": style,
            "count": len(system),
            "residues": [[int(c) for c in coords] for coords in system],
        }

    _emit(_run(work), pretty)


@main.command("snf")
@click.option("--matrix", "matrix_str", required=True,
              help="Integer matrix as JSON, e.g. '[[2,4],[6,8]]', or @file.")
@pretty_option
def snf(matrix_str, pretty):
    """Smith normal form A = U D V with unimodular U, V."""

    def work():
        if matrix_str.startswith("@"):
            rows = _load_json_file(matrix_str[1:], "--matrix file")
        else:
            rows = _load_json_arg(matrix_str, "--matrix")
        u, d, v = abgrp.smith_normal_form(rows)
        # The cokernel and the kernel rank follow from the one diagonal.
        diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
        coker = abgrp._diagonal_cokernel(len(d), [x for x in diag if x])
        return {
            "matrix": rows,
            "u": u,
            "d": d,
            "v": v,
            "diagonal": diag,
            "cokernel": coker.to_json_dict(),
            "cokernel_pretty": _uncapped(str, coker),
            "kernel_rank": len(d[0]) - sum(1 for x in diag if x),
        }

    _emit(_run(work), pretty)


_BUILTIN_SYSTEMS = {"rank-one": ktheory.rank_one_system}


def _load_system(path):
    if path in _BUILTIN_SYSTEMS:
        return _BUILTIN_SYSTEMS[path]()
    return abgrp.DirectedSystem.from_json(_load_json_file(path, "directed system"))


@main.command("colim")
@click.option("--system", "system_path", required=True,
              help="Path to a directed-system JSON file, or 'rank-one'.")
@pretty_option
def colim(system_path, pretty):
    """Colimit of a directed system of free abelian groups."""

    def work():
        system = _load_system(system_path)
        return abgrp.colimit(system).to_json_dict()

    _emit(_run(work), pretty)


@main.command("pv")
@click.option("--system", "system_path", required=True,
              help="Path to a JSON file with 'group' and 'action' objects.")
@click.option("--resolution",
              type=click.Choice(["require_split", "elementary_divisors"]),
              default="require_split", show_default=True)
@pretty_option
def pv(system_path, resolution, pretty):
    """One six-term crossed-product step on a graded K-group."""

    def work():
        act = ktheory.ActionDescriptor.from_json(
            _load_json_file(system_path, "action description")
        )
        return ktheory.pv_step(act.domain, act, resolution=resolution).to_json_dict()

    _emit(_run(work), pretty)


_ALGEBRAS = ("A", "B", "A0", "B0", "A_full_Q")

# The level-zero algebras: closed form of degree n and its citations.
_CLOSED_FORMS = {
    "B0": (ktheory.k_of_B0, ["fixed-subalgebra-base-k", "adele-scaling-diagonal"]),
    "A0": (ktheory.k_of_A0, ["crossed-base-k", "kappa-structure-matrices"]),
}


@main.command("kgroups")
@click.option("--algebra", type=click.Choice(_ALGEBRAS), required=True)
@click.option("--field", "field_str", default=None,
              help="Required for A, B, A0, B0.")
@click.option("--gamma", default=None,
              help="Generators as semicolon-separated coefficient vectors, "
                   "e.g. '1,1;2'.")
@click.option("--truncate", type=int, default=None,
              help="Also tabulate ranks after the first 0..m generators "
                   f"(m <= {ktheory._MAX_TRUNCATE}).")
@click.option("--grading", type=click.IntRange(0, 1), default=None,
              help="Override the grading offset of classification reports.")
@pretty_option
def kgroups(algebra, field_str, gamma, truncate, grading, pretty):
    """K-groups: level-zero closed forms or full classification reports."""

    def work():
        if algebra == "A_full_Q":
            return ktheory.k_full_adele_Q(
                truncate=truncate, grading_offset=grading
            ).to_json_dict()
        if not field_str:
            raise InputError(f"--field is required for algebra {algebra}")
        field = numfield.parse_field(field_str)
        if algebra in _CLOSED_FORMS:
            closed_form, citations = _CLOSED_FORMS[algebra]
            g = closed_form(field.degree)
            return {
                "algebra": algebra,
                "field": field.to_json_dict(),
                "kgroups": g.to_json_dict(),
                "pretty": str(g),
                "citations": citations,
            }
        if algebra == "B":
            rep = ktheory.classify_B(field, _parse_gamma(field, gamma),
                                     truncate=truncate, grading_offset=grading)
        else:
            rep = ktheory.classify_A(field, truncate=truncate,
                                     grading_offset=grading)
        return {**rep.to_json_dict(), "field": field.to_json_dict()}

    _emit(_run(work), pretty)


# ---------------------------------------------------------------------------
# verify: one table of (suite, label, predicate) rows
# ---------------------------------------------------------------------------


def _raises(exc_type, fn):
    try:
        fn()
    except exc_type:
        return True
    return False


def _invariants(system):
    return abgrp.colimit(system).invariants


def _free_shell(m):
    half = abgrp.GroupDescriptor.free(2 ** (m - 1))
    return ktheory.k_of_A_truncated_Q(m) == ktheory.GradedKGroup(half, half)


def _involution_normal_form(m):
    act = ktheory.involution_action(m)
    res = ktheory.pv_step(act.domain, act, resolution="elementary_divisors")
    half = 2 ** (m - 1)
    return (res.coker0 == abgrp.GroupDescriptor(free_rank=half, torsion=(2,) * half)
            and res.k0 == abgrp.GroupDescriptor(free_rank=2 ** m, torsion=(2,) * half))


def _sqrt2_even_reals():
    f = numfield.parse_field("x^2 - 2")
    rb = ktheory.classify_B(f, [f.parse_element("1,1")])
    ra = ktheory.classify_A(f)
    return (rb.formula(0) == "(Z/2) (x) Lambda_even(Gamma)"
            and ra.formula(0) == "Lambda_even(Gamma) + (Z/2) (x) Lambda_even(Gamma)")


def _rationals_free_exterior():
    q = numfield.parse_field("x - 1")
    return ktheory.classify_B(q, [q.parse_element("2")]).case == "odd-reals-even-signs"


# ``verify`` prints the suites in sorted order (a stable sort) and each
# suite's rows in the order given here.
_CHECKS = (
    ("q-case", "rank-one inclusion matrix d=2 is [[2,1,0],[0,0,1],[0,0,1]]",
     lambda: ktheory.rank_one_inclusion_matrix(2) == [[2, 1, 0], [0, 0, 1], [0, 0, 1]]),
    ("q-case", "rank-one inclusion matrix d=3 is [[3,1,1],[0,1,0],[0,0,1]]",
     lambda: ktheory.rank_one_inclusion_matrix(3) == [[3, 1, 1], [0, 1, 0], [0, 0, 1]]),
    ("q-case", "rank-one chain colimit is Z + Q",
     lambda: str(_invariants(ktheory.rank_one_system())) == "Z + Q"),
    ("q-case", "rank-one chain identifies the unit class with twice the mixed class",
     lambda: abgrp.identified(ktheory.rank_one_system(), (1, (1, 0, 0)),
                              (1, (0, 2, 0)))),
    ("q-case", "rank-one chain separates the two projection classes",
     lambda: not abgrp.identified(ktheory.rank_one_system(), (1, (0, 1, 0)),
                                  (1, (0, 0, 1)))),
    ("q-case", "rational shells are free of rank 2^(m-1) in both degrees (m<=6)",
     lambda: all(_free_shell(m) for m in range(1, 7))),
    ("q-case", "rationals classify as the free exterior pattern",
     _rationals_free_exterior),
    ("kappa", "structure-matrix composition kappa(n,2).kappa(n,d) = kappa(n,2d) "
              "for n<=4, odd d<=31",
     lambda: all(ktheory.kappa(n, 2).compose(ktheory.kappa(n, d))
                 == ktheory.kappa(n, 2 * d)
                 for n in range(1, 5) for d in range(3, 32, 2))),
    ("kappa", "sparse product agrees with dense matrix product (n<=3)",
     lambda: all(ktheory.kappa(n, a).compose(ktheory.kappa(n, b)).dense()
                 == abgrp.mat_mul(ktheory.kappa(n, a).dense(),
                                  ktheory.kappa(n, b).dense())
                 for n in range(1, 4) for a, b in ((2, 3), (4, 5), (6, 7)))),
    ("kappa", "infinite-part diagonal for three levels, multiplier 2 is (8,2,2,2)",
     lambda: ktheory.kappa_inf(3, 2) == (8, 2, 2, 2)),
    ("kappa", "fixed-subalgebra closed forms match the colimit engine (n<=3)",
     lambda: all(str(ktheory.k_of_B0(n)) == expected
                 for n, expected in ((1, "K0 = Q, K1 = Z"),
                                     (2, "K0 = Z + Q, K1 = Q^2"),
                                     (3, "K0 = Q^4, K1 = Z + Q^3")))),
    ("kappa", "crossed-base closed forms match the colimit engine (n<=3)",
     lambda: all(str(ktheory.k_of_A0(n)) == expected
                 for n, expected in ((1, "K0 = Z + Q, K1 = 0"),
                                     (2, "K0 = Z^2 + Q, K1 = 0"),
                                     (3, "K0 = Z + Q^4, K1 = 0")))),
    ("colim", "unimodular constant system keeps Z^2",
     lambda: _invariants(abgrp.DirectedSystem.explicit([[[0, 1], [1, 0]]] * 4))
     == abgrp.GroupDescriptor.free(2)),
    ("colim", "multiplication by the chain parameter gives Q",
     lambda: str(_invariants(abgrp.DirectedSystem.symbolic(
         1, [{"kind": "mult_d"}]))) == "Q"),
    ("colim", "constant multiplication by 6 localizes at {2, 3}",
     lambda: str(_invariants(abgrp.DirectedSystem.symbolic(
         1, [{"kind": "poly", "coeffs": [6]}]))) == "Loc{2,3}"),
    ("colim", "a family outside the certified class is rejected, not guessed",
     lambda: _raises(UnsupportedSystemError, lambda: abgrp.colimit(
         abgrp.DirectedSystem.from_family(2, lambda d: [[1, 1], [1, 2 + d]])))),
    ("classify", "Gaussian integers: ring algebra classifies free, adelic algebra "
                 "refuses (four roots of unity)",
     lambda: ktheory.classify_B(
         numfield.parse_field("x^2 + 1")).case == "no-real-embedding"
     and _raises(HypothesisError,
                 lambda: ktheory.classify_A(numfield.parse_field("x^2 + 1")))),
    ("classify", "real quadratic field matches the even-reals pattern",
     _sqrt2_even_reals),
    ("classify", "pure cubic field classifies free in the adelic case",
     lambda: ktheory.classify_A(
         numfield.parse_field("x^3 - 2")).formula(0) == "Lambda_even(Gamma)"),
    ("classify", "involution step: cokernel and resolved groups in normal form (m<=3)",
     lambda: all(_involution_normal_form(m) for m in (1, 2, 3))),
)


@main.command("verify")
@click.option("--suite",
              type=click.Choice(sorted({suite for suite, _, _ in _CHECKS}) + ["all"]),
              default="all", show_default=True)
def verify(suite):
    """Re-run the bundled assertion suites; one PASS/FAIL line each."""
    failures = 0
    for name, label, check in sorted(_CHECKS, key=lambda row: row[0]):
        if suite not in ("all", name):
            continue
        try:
            ok = bool(check())
        except Exception as exc:  # a crash is a failure with a reason
            ok = False
            label = f"{label} (raised {type(exc).__name__}: {exc})"
        click.echo(f"{'PASS' if ok else 'FAIL'} [{name}] {label}")
        if not ok:
            failures += 1
    if failures:
        click.echo(f"{failures} check(s) failed", err=True)
        raise SystemExit(CrossCheckError("verify failed").exit_code)


if __name__ == "__main__":
    main()

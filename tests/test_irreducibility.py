"""Irreducibility over Q without sympy: the residue-degree certificate, its
Berlekamp cross-check, the idempotent search that decides when the
certificate proves nothing, and the CLI paths that never import sympy.
sympy's factorization over Q is the test oracle only."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from conftest import cyclotomic, int_poly_mul, poly_mul, reduce_mod, walked_xp
from hypothesis import given, settings
from hypothesis import strategies as st

import ringkt
from ringkt import numfield
from ringkt.errors import CrossCheckError, InputError
from ringkt.numfield import (NumberField, _ResidueSieve, parse_field, poly_discriminant,
                             poly_trim)


def _sympy_says(coeffs):
    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(coeffs)), x, domain="QQ").is_irreducible


def _accepted(coeffs):
    try:
        NumberField(coeffs)
    except InputError as exc:
        assert str(exc) == "the defining polynomial must be irreducible over Q"
        return False
    return True


def _certified(coeffs):
    """What the residue degrees alone prove (no fallback)."""
    disc = poly_discriminant(coeffs)
    return bool(disc) and _ResidueSieve(coeffs, disc).proves_irreducible()


def _monic(min_degree, max_degree, bound=12):
    return st.lists(st.integers(-bound, bound), min_size=min_degree, max_size=max_degree).map(
        lambda c: c + [1])


# Fields whose Galois group has no element with the cycle types a proof
# needs: every prime splits them, so the idempotent search decides.
FALLBACK = ["x^4 + 1", "x^4 - x^2 + 1", "x^4 - 10x^2 + 1", "x^8 + 1", "x^8 - x^4 + 1",
            "x^12 - x^6 + 1"]


@settings(max_examples=80, deadline=None)
@given(coeffs=_monic(1, 9))
def test_route_agrees_with_sympy_on_random_monic_polynomials(coeffs):
    expect = _sympy_says(coeffs)
    assert _accepted(coeffs) == expect
    if _certified(coeffs):
        assert expect


@settings(max_examples=25, deadline=None)
@given(a=_monic(1, 4, 6), b=_monic(1, 5, 6))
def test_built_products_are_refused(a, b):
    product = int_poly_mul(a, b)
    assert not _certified(product)
    assert not _accepted(product)


@pytest.mark.parametrize("poly", FALLBACK)
def test_named_fallback_cases_are_accepted(poly):
    coeffs = numfield.parse_polynomial(poly)
    assert not _certified(coeffs)
    assert _ResidueSieve(coeffs, poly_discriminant(coeffs)).split_idempotent() is None
    assert _accepted(coeffs) and _sympy_says(coeffs)


@pytest.mark.parametrize("poly", ["x^2 - 2", "x^3 - 2", "x^5 - x - 1", "x^6 + x^3 + 1",
                                  "x^4 + x^3 + x^2 + x + 1", "x"])
def test_common_fields_are_certified_without_sympy(poly, monkeypatch):
    monkeypatch.setattr(_ResidueSieve, "split_idempotent", None)  # a call would fail
    assert parse_field(poly).degree == len(numfield.parse_polynomial(poly)) - 1


# Products whose residue degrees leave a factor degree possible at every
# prime, like those of the named fallback fields: (x^2 - a)(x^2 - b) for
# distinct nonsquares, Phi_m Phi_k, and x^4 + 4c^4 = (x^2 + 2cx + 2c^2)(x^2 - 2cx + 2c^2).
_NONSQUARES = [a for a in range(-12, 13) if a < 0 or int(a ** 0.5) ** 2 != a]
_UNREFUTED_PRODUCTS = st.one_of(
    st.lists(st.sampled_from(_NONSQUARES), min_size=2, max_size=2, unique=True).map(
        lambda ab: int_poly_mul([-ab[0], 0, 1], [-ab[1], 0, 1])),
    st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10, 12]), min_size=2, max_size=2,
             unique=True).map(lambda mk: int_poly_mul(cyclotomic(mk[0]), cyclotomic(mk[1]))),
    st.integers(1, 4).map(lambda c: [4 * c ** 4, 0, 0, 0, 1]),
)


@settings(max_examples=30, deadline=None)
@given(coeffs=_UNREFUTED_PRODUCTS)
def test_unrefuted_products_are_refused_by_an_idempotent(coeffs):
    assert not _sympy_says(coeffs)
    assert not _accepted(coeffs)
    disc = poly_discriminant(coeffs)
    assert disc  # distinct factors: the idempotent search, not the discriminant, refuses
    sieve = _ResidueSieve(coeffs, disc)
    assert not sieve.proves_irreducible()
    eps = sieve.split_idempotent()
    assert eps is not None and poly_trim(eps) not in ([], [1])
    assert reduce_mod(poly_mul(eps, eps), coeffs) == poly_trim(eps)
    trace = sum(a * b for a, b in zip(numfield._trace_form(coeffs)[0][0], eps))
    assert trace in sieve._open_degrees[0]


def test_sieve_reads_the_rows_the_certificate_built():
    # No proof, and no Eisenstein certificate: 5 narrows the possible degrees
    # to {2}, and it splits x^4 - x^2 + 1 (Phi_12) into two factors, so the
    # certificate stops after the stall that follows.
    k = parse_field("x^4 - x^2 + 1")
    built = dict(k._sieve.table)
    assert len(built) == 1 + _ResidueSieve.STALL_PRIMES
    assert k.roots_of_unity_order == 12
    assert all(k._sieve.table[p] is row for p, row in built.items())


@settings(max_examples=80, deadline=None)
@given(coeffs=_monic(1, 8, 30), p=st.sampled_from([2, 3, 5, 7, 11, 13, 97]))
def test_berlekamp_count_matches_distinct_degree_split(coeffs, p):
    if poly_discriminant(coeffs) % p:
        assert numfield._factor_counts(coeffs, p, [1]) == [len(
            numfield._factor_degrees_mod_p(coeffs, p, walked_xp(coeffs, p)))]


def test_plain_prime_generator_matches_nextprime():
    want, p = [], 1
    for _ in range(200):
        p = int(sympy.nextprime(p))
        want.append(p)
    primes = numfield._primes()
    assert [next(primes) for _ in range(200)] == want


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------


# x^3 + x^2 - 6 (discriminant -948 = -4 * 3 * 79) has no Eisenstein
# certificate, so the residue degrees prove it irreducible; mod 5, the first
# unramified prime, it has two factors.
NO_CERTIFICATE_CUBIC = "x^3 + x^2 - 6"


def test_false_residue_degrees_are_stopped_by_berlekamp(monkeypatch):
    # x^3 + x^2 - 6 = (x + 2)(x^2 - x + 2) mod 5, the first unramified prime;
    # the false pattern [3] would prove irreducibility on its own.
    monkeypatch.setattr(numfield, "_factor_degrees_mod_p", lambda coeffs, p, xp: [3])
    with pytest.raises(CrossCheckError, match=r"mod 5 disagree: .* \[3\], .* counts 2"):
        parse_field(NO_CERTIFICATE_CUBIC)


def test_false_berlekamp_count_raises(monkeypatch):
    monkeypatch.setattr(numfield, "_factor_counts", lambda coeffs, p, ds: [1])
    with pytest.raises(CrossCheckError, match="mod 5 disagree"):
        parse_field(NO_CERTIFICATE_CUBIC)


def test_the_two_residue_routes_stay_apart(monkeypatch):
    # x^4 + 1 mod 3 reaches the Frobenius rows of the distinct-degree ladder;
    # Berlekamp's count must not read that ladder or the walk of x^k mod f,
    # nor the ladder the count.  The sieve's rows take x^p off the walk, never
    # from a square-and-multiply ladder, and its count checks them without it.
    def refuse(*args):
        raise AssertionError("one residue route read the other")

    with monkeypatch.context() as patched:
        patched.setattr(numfield, "_distinct_degree_parts", refuse)
        patched.setattr(numfield, "_powers_of_x", refuse)
        assert numfield._factor_counts([1, 0, 0, 0, 1], 3, [1, 2, 3, 4]) == [2, 4, 2, 4]
    with monkeypatch.context() as patched:
        patched.setattr(numfield, "_factor_counts", refuse)
        assert numfield._factor_degrees_mod_p([1, 0, 0, 0, 1], 3, [0, 0, 0, 1]) == [2, 2]
        patched.setattr(numfield, "_polymod_pow", refuse)
        sieve = _ResidueSieve([1, 0, 0, 0, 1], 256)
        read = list(itertools.islice(sieve._unramified(), 8))  # 3, 5, ..., 23
        assert [len(sieve.table[p]) for p in read] == [2, 2, 2, 2, 2, 4, 2, 2]
    sieve.frobenius = sieve._walk = None
    for p in read:
        sieve._confirm_degrees(p)


def test_an_unsplit_residue_factor_is_stopped_by_berlekamp(monkeypatch):
    # x^4 - x^2 + 1 = (x^2 + 2x - 1)(x^2 - 2x - 1) mod 5, the prime the search
    # splits at; left unsplit, the one "factor" would give only the idempotent 1.
    monkeypatch.setattr(numfield, "_equal_degree_split", lambda g, k, p: [g])
    with pytest.raises(CrossCheckError, match=r"mod 5 disagree: .* \[2\], .* counts 2"):
        parse_field("x^4 - x^2 + 1")


def test_a_lifted_idempotent_whose_trace_disagrees_raises(monkeypatch):
    # (x - 1)(x^3 - 2): mod 7 the factors are x - 1 and x^3 - 2, so the search
    # tries S = {x - 1}, of degree 1.  A lift that returns the idempotent of
    # the other factor yields an exact idempotent of trace 3, not 1.
    lift = numfield._lift_idempotent
    monkeypatch.setattr(numfield, "_lift_idempotent", lambda e, f, p, big: lift(
        numfield._poly_sub_mod([1], e, p), f, p, big))
    with pytest.raises(CrossCheckError, match="mod 7 has trace 3, but its residue factors "
                                              "have degree sum 1"):
        parse_field("x^4 - x^3 - 2x + 2")


# ---------------------------------------------------------------------------
# no sympy on the default CLI path
# ---------------------------------------------------------------------------

_CHILD = """
import runpy, sys
sys.argv = ["ringkt", *sys.argv[1:]]
try:
    runpy.run_module("ringkt.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code or 0
else:
    code = 0
sys.stderr.write(f"\\nexit={code} sympy={'sympy' in sys.modules}\\n")
"""


def _run_verb(*argv, preload=""):
    src = str(Path(ringkt.__file__).resolve().parent.parent)
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
    out = subprocess.run([sys.executable, "-c", preload + _CHILD, *argv], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    status = out.stderr.strip().splitlines()[-1]
    return out.stdout, status


@pytest.mark.parametrize("argv", [
    ("field-info", "--field", "x^2-2"),
    ("kgroups", "--algebra", "A0", "--field", "x^3-2"),
    ("kgroups", "--algebra", "B0", "--field", "x^3-2"),
    # totally imaginary: the roots-of-unity search runs, in plain integers
    ("verify", "--suite", "all"),
    ("field-info", "--field", "x^2+7"),
    ("field-info", "--field", "x^4 + x^3 + x^2 + x + 1"),
    # no residue degrees prove these: the idempotent search decides
    ("field-info", "--field", "x^4-x^2+1"),
    ("field-info", "--field", "x^8+1"),
    ("field-info", "--field", "x^12-x^6+1"),
])
def test_default_verbs_do_not_import_sympy(argv):
    _, status = _run_verb(*argv)
    assert status == "exit=0 sympy=False"


def test_colim_on_the_eigen_path_does_not_import_sympy(tmp_path):
    # P diag(d, 1) P^-1 for P = [[1, 1], [1, 2]]: every entry is nonzero, so
    # the eigen classifier decides, and it reads the joint spectrum in integers.
    system = {"mode": "symbolic", "dim": 2,
              "law": [{"kind": "poly", "coeffs": [-1, 2]}, {"kind": "poly", "coeffs": [2, -1]}],
              "offdiag": [{"row": 0, "col": 1, "poly": [1, -1]},
                          {"row": 1, "col": 0, "poly": [-2, 2]}]}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    out, status = _run_verb("colim", "--system", str(path))
    assert json.loads(out)["pretty"] == "Z + Q"
    assert status == "exit=0 sympy=False"


def test_the_irreducibility_fallback_runs_without_sympy():
    # No residue degrees prove x^4 + 1 irreducible (every prime splits it), so
    # the idempotent search decides, in plain integers.
    out, status = _run_verb("field-info", "--field", "x^4+1")
    assert json.loads(out)["roots_of_unity_order"] == 8
    assert status == "exit=0 sympy=False"
    # the probe sees sympy when something loads it
    _, status = _run_verb("field-info", "--field", "x^4+1", preload="import sympy")
    assert status == "exit=0 sympy=True"


def test_refusals_keep_the_error_text():
    with pytest.raises(InputError, match="must be irreducible over Q"):
        parse_field("x^4 + 4")  # (x^2 + 2x + 2)(x^2 - 2x + 2): no residue proof
    with pytest.raises(InputError, match="must be irreducible over Q"):
        parse_field("x^2 + 2x + 1")  # discriminant 0

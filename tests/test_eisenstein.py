"""Eisenstein's criterion after a shift, the first irreducibility route of
``NumberField``: a certificate ``(p, a)`` says that ``f(x + a)`` is
Eisenstein at ``p``.  The library checks it by congruences mod p and p^2,
without shifting f; the oracles here shift over Z (``_shifted``) and ask
sympy's ``Poly.is_irreducible``.  A field with a certificate reads no residue
row at parse, and a field without one keeps Musser's route and the
idempotent search."""

import importlib.util
import random
from pathlib import Path

import pytest
import sympy
from conftest import int_poly_mul
from hypothesis import given, settings
from hypothesis import strategies as st

from ringkt.errors import InputError
from ringkt.numfield import (NumberField, _eisenstein_shift, _first_primes, _ResidueSieve,
                             parse_field, parse_polynomial, poly_discriminant)

ROOT = Path(__file__).resolve().parents[1]


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sieve_trace = _load(ROOT / "tools" / "sieve_trace.py")

# Each field's certificate, or None: the fields of `tools/sieve_trace.py`'s
# NAMED list, then every field a `fields` pass of the benchmark can draw
# (fixed cyclotomic and totally real ones, pure x^n - p, real and imaginary
# quadratic), then x^2 - 4, which only the p^2 test refuses (2 | 4, x^2 mod 2).
CERTIFICATES = {
    # NAMED, in its order
    "x^2 + 1": (2, 1), "x^2 + x + 1": (3, 1), "x^4 + 1": (2, 1),
    "x^4 + x^3 + x^2 + x + 1": (5, 1), "x^4 - x^2 + 1": None, "x^6 + x^3 + 1": (3, 1),
    "x^6 + x^5 + x^4 + x^3 + x^2 + x + 1": (7, 1), "x^8 + 1": (2, 1),
    "x^3 - 3x + 1": (3, 2), "x^3 - x^2 - 2x + 1": (7, 5), "x^4 - 4x^2 + 2": (2, 0),
    "x^3 - 2": (2, 0), "x^3 - 13": (3, 1), "x^4 - 3": (2, 1), "x^5 - 5": (5, 0),
    "x^6 - 7": (7, 0), "x^2 - 5": (5, 0), "x^2 + 7": (7, 0), "x^2 + 2": (2, 0),
    "x^8 - x^4 + 1": None, "x^12 - x^6 + 1": None, "x^16 - x^8 + 1": None,
    "x^16 + x^14 - x^10 - x^8 - x^6 + x^2 + 1": None, "x^32 + 1": (2, 1),
    "x^4 - 10x^2 + 1": None, "x^4 + 4": None, "x^4 - x^3 - 2x + 2": None, "x^6 + 1": None,
    "x^16 + 1": (2, 1), "x^8 - x^6 + x^4 - x^2 + 1": None,
    # pure fields x^n - p of a pass not in NAMED
    "x^3 - 3": (3, 0), "x^3 - 5": (3, 2), "x^3 - 7": (3, 1), "x^3 - 11": (3, 2),
    "x^4 - 2": (2, 0), "x^4 - 5": (5, 0), "x^4 - 7": (2, 1), "x^4 - 11": (2, 1),
    "x^4 - 13": (13, 0), "x^5 - 2": (2, 0), "x^5 - 3": (3, 0), "x^5 - 7": (7, 0),
    "x^5 - 11": (5, 1), "x^5 - 13": (5, 3), "x^6 - 2": (2, 0), "x^6 - 3": (3, 0),
    "x^6 - 5": (5, 0), "x^6 - 11": (11, 0), "x^6 - 13": (13, 0),
    # real quadratic fields x^2 - d of a pass not in NAMED
    "x^2 - 2": (2, 0), "x^2 - 3": (2, 1), "x^2 - 6": (2, 0), "x^2 - 7": (2, 1),
    "x^2 - 10": (2, 0), "x^2 - 11": (2, 1), "x^2 - 13": (13, 0), "x^2 - 14": (2, 0),
    "x^2 - 15": (2, 1), "x^2 - 17": (17, 0), "x^2 - 19": (2, 1), "x^2 - 21": (3, 0),
    "x^2 - 22": (2, 0), "x^2 - 23": (2, 1), "x^2 - 26": (2, 0), "x^2 - 29": (29, 0),
    "x^2 - 30": (2, 0), "x^2 - 31": (2, 1), "x^2 - 33": (3, 0), "x^2 - 34": (2, 0),
    "x^2 - 35": (2, 1), "x^2 - 37": (37, 0), "x^2 - 38": (2, 0), "x^2 - 39": (2, 1),
    "x^2 - 41": (41, 0), "x^2 - 42": (2, 0), "x^2 - 43": (2, 1), "x^2 - 46": (2, 0),
    "x^2 - 47": (2, 1),
    # imaginary quadratic fields x^2 + d of a pass not in NAMED
    "x^2 + 5": (2, 1), "x^2 + 6": (2, 0), "x^2 + 10": (2, 0), "x^2 + 11": (11, 0),
    "x^2 + 13": (2, 1), "x^2 + 14": (2, 0), "x^2 + 15": (3, 0), "x^2 + 17": (2, 1),
    "x^2 + 19": (19, 0), "x^2 + 21": (2, 1), "x^2 + 22": (2, 0), "x^2 + 23": (23, 0),
    "x^2 + 26": (2, 0), "x^2 + 29": (2, 1), "x^2 + 30": (2, 0), "x^2 + 31": (31, 0),
    "x^2 + 33": (2, 1), "x^2 + 34": (2, 0), "x^2 + 35": (5, 0), "x^2 + 37": (2, 1),
    "x^2 + 38": (2, 0), "x^2 + 39": (3, 0), "x^2 + 41": (2, 1), "x^2 + 42": (2, 0),
    "x^2 + 43": (43, 0), "x^2 + 46": (2, 0), "x^2 + 47": (47, 0),
    # reducible: (x - 2)(x + 2) = x^2 mod 2, but 4 | f(0)
    "x^2 - 4": None,
}


def _shifted(coeffs, a):
    """``f(x + a)`` over Z, by Horner on polynomials: the Taylor shift the
    library's check does without."""
    out = [0]
    for c in reversed(coeffs):
        out = int_poly_mul(out, [a, 1])
        out[0] += c
    return out[:len(coeffs)]


def _is_eisenstein(coeffs, p):
    """Eisenstein's criterion at p for a monic integer polynomial of degree >= 1."""
    return all(c % p == 0 for c in coeffs[:-1]) and coeffs[0] % (p * p) != 0


def _sympy_says(coeffs):
    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(coeffs)), x, domain="QQ").is_irreducible


def _certificate(coeffs):
    return _eisenstein_shift(coeffs, poly_discriminant(coeffs))


def test_shifted_matches_sympy_compose():
    x = sympy.Symbol("x")
    f = [5, -3, 0, 2, 1]
    want = sympy.Poly(sympy.Poly(list(reversed(f)), x).as_expr().subs(x, x - 7), x)
    assert _shifted(f, -7) == [int(c) for c in reversed(want.all_coeffs())]


@pytest.mark.parametrize("poly", list(CERTIFICATES))
def test_named_certificates(poly):
    coeffs = parse_polynomial(poly)
    want = CERTIFICATES[poly]
    assert _certificate(coeffs) == want
    if want is not None:
        p, a = want
        assert p in _first_primes(_ResidueSieve.IRREDUCIBILITY_PRIMES) and 0 <= a < p
        assert _is_eisenstein(_shifted(coeffs, a), p)


def test_the_table_covers_the_trace_corpus_and_every_field_of_a_fields_pass(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # workloads imports its oracle
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    drawable = [f.poly for f in workloads.CYCLOTOMIC + workloads.TOTALLY_REAL]
    drawable += [workloads.pure_field(n, p).poly
                 for n in (3, 4, 5, 6) for p in workloads.SMALL_PRIMES]
    drawable += [workloads.real_quadratic(d).poly for d in workloads.SQUAREFREE]
    drawable += [workloads.imaginary_quadratic(d).poly for d in workloads.SQUAREFREE if d > 3]
    assert set(sieve_trace.NAMED) | set(drawable) <= set(CERTIFICATES)
    table = workloads.field_table(random.Random(7))
    assert len(table) == 20
    assert [f.poly for f in table if CERTIFICATES[f.poly] is None] == ["x^4 - x^2 + 1"]


@pytest.mark.parametrize("poly", [p for p, c in CERTIFICATES.items() if c is not None])
def test_a_certified_field_reads_no_residue_row_at_parse(poly, monkeypatch):
    monkeypatch.setattr(_ResidueSieve, "proves_irreducible", None)  # a call would fail
    monkeypatch.setattr(_ResidueSieve, "split_idempotent", None)
    assert parse_field(poly)._sieve.table == {}


def test_the_sieve_trace_prints_the_certificate():
    # x^4 + 1 = Phi_8 is proved before any row; w then builds the rows it reads
    accepted, lines = sieve_trace.trace(parse_polynomial("x^4 + 1"))
    assert accepted and lines[:3] == ["field (0, 2) 256 8", "eisenstein 2 1", "row 3"]
    accepted, lines = sieve_trace.trace(parse_polynomial("x^4 - x^2 + 1"))
    assert accepted and not any(line.startswith("eisenstein") for line in lines)


@pytest.mark.parametrize("poly", ["x^4 - x^2 + 1", "x^4 - 10x^2 + 1", "x^8 - x^4 + 1"])
def test_a_field_without_a_certificate_keeps_the_residue_route(poly):
    assert CERTIFICATES[poly] is None
    k = parse_field(poly)
    assert k._sieve.table and not k._sieve.proves_irreducible()


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

_SMALL_PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13])


@st.composite
def _built_eisenstein(draw):
    """``(p, a, f)`` with ``f(x + a)`` Eisenstein at ``p``, built over Z."""
    p, n, a = draw(_SMALL_PRIMES), draw(st.integers(2, 7)), draw(st.integers(-9, 9))
    unit = draw(st.integers(-4, 4).filter(lambda u: u % p))
    g = [p * unit] + [p * draw(st.integers(-3, 3)) for _ in range(n - 1)] + [1]
    return p, a, _shifted(g, -a)


def _monic(max_degree, bound):
    return st.lists(st.integers(-bound, bound), min_size=1, max_size=max_degree).map(
        lambda c: c + [1])


def _agrees_with_the_oracles(coeffs, certificate):
    p, a = certificate
    assert 0 <= a < p
    assert _is_eisenstein(_shifted(coeffs, a), p)
    assert _sympy_says(coeffs)


@settings(max_examples=60, deadline=None)
@given(built=_built_eisenstein())
def test_built_eisenstein_polynomials_get_a_certificate(built):
    p, a, coeffs = built
    assert _is_eisenstein(_shifted(coeffs, a), p)
    certificate = _certificate(coeffs)
    assert certificate is not None
    _agrees_with_the_oracles(coeffs, certificate)
    assert certificate[0] <= p  # the smallest prime with a certificate comes first


@settings(max_examples=60, deadline=None)
@given(coeffs=_monic(8, 12))
def test_every_certificate_agrees_with_the_shift_and_sympy(coeffs):
    certificate = _certificate(coeffs)
    if certificate is not None:
        _agrees_with_the_oracles(coeffs, certificate)


@settings(max_examples=60, deadline=None)
@given(a=_monic(4, 9), b=_monic(4, 9))
def test_products_of_two_factors_never_get_a_certificate(a, b):
    assert _certificate(int_poly_mul(a, b)) is None


def test_a_refused_certificate_falls_through_to_the_residue_route():
    # (x - 2)(x + 2) is x^2 mod 2, so only the p^2 test keeps 2 from
    # certifying it; the idempotent search then refuses it.
    with pytest.raises(InputError, match="must be irreducible over Q"):
        NumberField([-4, 0, 1])

"""Tests for number field invariants (signatures, roots of unity, residues,
sign vectors, fundamental units)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (numpy_real_root_count, poly_degree, poly_deriv, poly_divmod, poly_gcd,
                      poly_mul, seeded_rng)
from ringkt import numfield
from ringkt.errors import CrossCheckError, HypothesisError, InputError
from ringkt.numfield import (
    FieldElement,
    NumberField,
    count_real_roots,
    fundamental_unit_real_quadratic,
    isolate_real_roots,
    parse_field,
    parse_polynomial,
    poly_discriminant,
    poly_trim,
    signature,
)


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------


def test_parse_polynomial_forms():
    assert parse_polynomial("x^2 - 2") == [-2, 0, 1]
    assert parse_polynomial("x**3-2x+5") == [5, -2, 0, 1]
    assert parse_polynomial("-1 + x") == [-1, 1]
    assert parse_polynomial("x") == [0, 1]
    assert parse_polynomial("x^2 + x + 1 - x") == [1, 0, 1]


def test_parse_polynomial_errors():
    for bad in ("", "x^2 - 1/2", "y^2", "x^-2", "2^x", "x^2 ++ 1"):
        with pytest.raises(InputError):
            parse_polynomial(bad)


def test_field_validation():
    with pytest.raises(InputError):
        parse_field("x^2 - 1")  # reducible
    with pytest.raises(InputError):
        parse_field("2x^2 - 1")  # not monic
    with pytest.raises(InputError):
        parse_field("7")  # degree zero
    for bad in ("1", 1.5, Fraction(3, 2)):  # once int(c): "1" accepted, 3/2 truncated
        with pytest.raises(InputError, match="not an integer"):
            NumberField([bad, 0, 1])
    k = parse_field("x^2 - 2")
    with pytest.raises(InputError):
        k.parse_element("1,2,3")  # too many coordinates
    with pytest.raises(InputError):
        k.parse_element("a,b")


# ---------------------------------------------------------------------------
# signatures / Sturm
# ---------------------------------------------------------------------------


def test_signature_examples():
    assert signature(parse_polynomial("x^5 - x - 1")) == (1, 2)
    assert signature(parse_polynomial("x^2 - 2")) == (2, 0)
    assert signature(parse_polynomial("x^2 + 1")) == (0, 1)
    assert signature(parse_polynomial("x^3 - 2")) == (1, 1)
    assert signature(parse_polynomial("x")) == (1, 0)
    assert signature(parse_polynomial("x^4 + 1")) == (0, 2)


def test_count_real_roots_handles_repeated_roots():
    # (x - 1)^2: one distinct real root
    assert count_real_roots([1, -2, 1]) == 1
    # (x^2 + 1)^2 has none
    assert count_real_roots([1, 0, 2, 0, 1]) == 0


def test_count_real_roots_with_an_endpoint_on_a_double_root():
    # (x - 1)^2 (x - 2)(x^2 - 2): distinct real roots -sqrt(2), 1, sqrt(2), 2
    poly = poly_mul(poly_mul([-1, 1], [-1, 1]), poly_mul([-2, 1], [-2, 0, 1]))
    assert count_real_roots(poly) == 4
    assert count_real_roots(poly, 0, 1) == 1
    assert count_real_roots(poly, 1, 2) == 2
    assert count_real_roots(poly, 1, Fraction(3, 2)) == 1
    assert count_real_roots(poly, -2, 1) == 2
    assert [count_real_roots(poly, lo, hi) for lo, hi in isolate_real_roots(poly)] == [1] * 4


def test_isolated_intervals_are_ordered_and_exclusive():
    poly = parse_polynomial("x^3 - 4x")  # roots -2, 0, 2 (not irreducible: fine here)
    ivs = isolate_real_roots(poly)
    assert len(ivs) == 3
    for (lo, hi), (lo2, _) in zip(ivs, ivs[1:]):
        assert hi <= lo2
    for lo, hi in ivs:
        assert count_real_roots(poly, lo, hi) == 1


def test_sturm_against_float_oracle():
    rng = seeded_rng("sturm-module")
    done = 0
    while done < 12:
        deg = rng.randint(2, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        f = [Fraction(c) for c in coeffs]
        if poly_degree(poly_gcd(f, poly_deriv(f))) > 0:
            continue  # repeated roots: oracle comparison needs squarefree input
        oracle = numpy_real_root_count(coeffs)
        if oracle is None:
            continue
        assert count_real_roots(coeffs) == oracle
        done += 1


# ---------------------------------------------------------------------------
# roots of unity (dual-route)
# ---------------------------------------------------------------------------


def test_roots_of_unity_examples():
    assert parse_field("x^2 + 1").roots_of_unity_order == 4
    assert parse_field("x^2 - 2").roots_of_unity_order == 2
    assert parse_field("x^2 + x - 1").roots_of_unity_order == 2
    assert parse_field("x^2 + x + 1").roots_of_unity_order == 6
    assert parse_field("x^4 + 1").roots_of_unity_order == 8
    assert parse_field("x^2 + 2").roots_of_unity_order == 2
    assert parse_field("x^3 - 2").roots_of_unity_order == 2
    assert parse_field("x").roots_of_unity_order == 2


def test_real_embedding_forces_two_roots_of_unity():
    for poly in ("x^2 - 3", "x^3 + x - 3", "x^5 - x - 1", "x^4 - 2"):
        k = parse_field(poly)
        assert k.r1 > 0
        assert k.roots_of_unity_order == 2


def test_cyclotomic_quartic():
    # Q(zeta_5) presented by the 5th cyclotomic polynomial: mu has order 10
    k = parse_field("x^4 + x^3 + x^2 + x + 1")
    assert (k.r1, k.r2) == (0, 2)
    assert k.roots_of_unity_order == 10


# ---------------------------------------------------------------------------
# residue systems
# ---------------------------------------------------------------------------


def test_residue_system_counts_and_uniqueness():
    fields = {1: parse_field("x"), 2: parse_field("x^2 + 1"), 3: parse_field("x^3 - 2")}
    for n, field in fields.items():
        for d in (2, 3, 5):
            reps = field.residue_system(d)
            assert len(reps) == d ** n
            assert len(set(reps)) == d ** n
            assert all(len(r) == n and all(0 <= x < d for x in r) for r in reps)


def test_residue_system_is_bounded():
    # every one of the d^n residues is listed: x^3 - 2 modulo 10^4 would be 10^12
    with pytest.raises(InputError, match=r"10000\^3 = 1000000000000 elements"):
        parse_field("x^3 - 2").residue_system(10000)
    assert len(parse_field("x").residue_system(2 ** 16)) == 2 ** 16
    with pytest.raises(InputError, match="above the limit of 65536"):
        parse_field("x").residue_system(2 ** 16 + 1)
    with pytest.raises(InputError, match="above the limit of 65536"):
        parse_field("x^2 + 1").residue_system(257, "centered")


def test_residue_system_centered():
    k = parse_field("x^2 + 1")
    reps = k.residue_system(3, "centered")
    assert len(reps) == 9
    assert all(all(-1 <= x <= 1 for x in r) for r in reps)
    assert reps[0] == (-1, -1) and reps[-1] == (1, 1)
    with pytest.raises(InputError):
        k.residue_system(2, "centered")
    with pytest.raises(InputError):
        k.residue_system(1)
    with pytest.raises(InputError):
        k.residue_system(3, "fancy")


# ---------------------------------------------------------------------------
# sign vectors
# ---------------------------------------------------------------------------


def test_sign_vector_examples():
    k = parse_field("x^2 - 2")
    # embeddings ordered by ascending root: theta -> -sqrt2 first
    assert k.real_sign_vector(k.element([1, 1])) == (-1, 1)
    assert k.real_sign_vector(k.element([0, 1])) == (-1, 1)
    assert k.real_sign_vector(k.element([3])) == (1, 1)
    assert k.sign_parity(k.element([1, 1])) == -1
    assert k.sign_parity(k.element([3])) == 1

    kq = parse_field("x")
    assert kq.real_sign_vector(kq.element([-3])) == (-1,)

    kc = parse_field("x^3 - 2")  # real root ~1.26
    assert kc.real_sign_vector(kc.element([-2, 1])) == (-1,)
    assert kc.real_sign_vector(kc.element([-1, 1])) == (1,)

    ki = parse_field("x^2 + 1")  # no real embeddings
    assert ki.real_sign_vector(ki.element([1, 1])) == ()
    assert ki.sign_parity(ki.element([1, 1])) == 1


def test_sign_vector_rejects_zero():
    k = parse_field("x^2 - 2")
    with pytest.raises(InputError):
        k.real_sign_vector(k.element([0]))


def test_sign_parity_is_multiplicative():
    rng = seeded_rng("parity-module")
    fields = [parse_field("x^2 - 2"), parse_field("x^3 - 2"), parse_field("x^4 - 2")]
    done = 0
    while done < 30:
        k = fields[rng.randrange(len(fields))]
        a = k.element([rng.randint(-4, 4) for _ in range(k.degree)])
        b = k.element([rng.randint(-4, 4) for _ in range(k.degree)])
        if a.is_zero or b.is_zero:
            continue
        assert k.sign_parity(a * b) == k.sign_parity(a) * k.sign_parity(b)
        done += 1


def test_sign_parity_matches_norm_sign():
    # For any element, sign of the norm = parity of negative real embeddings
    # (complex embeddings contribute positive pairs).
    rng = seeded_rng("parity-norm")
    for poly in ("x^2 - 2", "x^3 - 2", "x^2 + 1"):
        k = parse_field(poly)
        done = 0
        while done < 10:
            a = k.element([rng.randint(-5, 5) for _ in range(k.degree)])
            if a.is_zero:
                continue
            nrm = a.norm()
            assert nrm != 0
            assert (1 if nrm > 0 else -1) == k.sign_parity(a)
            done += 1


# ---------------------------------------------------------------------------
# discriminants, norms, units
# ---------------------------------------------------------------------------


def test_discriminants():
    assert poly_discriminant(parse_polynomial("x^2 - 2")) == 8
    assert poly_discriminant(parse_polynomial("x^2 + 1")) == -4
    assert poly_discriminant(parse_polynomial("x^3 - 2")) == -108
    assert parse_field("x^2 - 5").disc == 20


def test_norms_and_inverse():
    kc = parse_field("x^3 - 2")
    th = kc.element([0, 1])
    assert th.norm() == 2
    assert kc.element([1, 1]).norm() == 3
    assert (th * th.inverse()).coeffs == (Fraction(1), Fraction(0), Fraction(0))
    k = parse_field("x^2 - 2")
    assert k.element([1, 1]).norm() == -1


def test_polynomial_helpers_over_a_field():
    # the Q[x] helpers take field elements as coefficients: over Q(i),
    # y^2 + 1 = (y - i)(y + i), mixing rational and field coefficients
    k = parse_field("x^2 + 1")
    i = k.element([0, 1])
    assert 1 - i == k.element([1, -1]) and 2 * i == i + i
    assert Fraction(1) / i == -i and not k.element([0]) and i
    q, r = poly_divmod([1, 0, 1], [-i, 1])
    assert q == [i, 1] and r == []
    assert poly_gcd([1, 0, 1], poly_mul([i, 1], [3, 1])) == [i, k.element([1])]
    assert poly_gcd([1, 0, 1], [Fraction(1, 2), 1]) == [1]


_OPERAND_FIELDS = [parse_field(p) for p in ("x^2 - 2", "x^3 - 2", "x^4 + 1")]
_rationals = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(_OPERAND_FIELDS),
    coords=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6),
                    min_size=1, max_size=4),
    c=_rationals,
)
def test_rational_operands_match_the_padded_element_route(field, coords, c):
    # The reference promotes c to a padded field element first, as every
    # rational operand once was; the results must be identical.
    a = field.element(coords[: field.degree])
    e = FieldElement(field, [Fraction(c)])
    pairs = [(a + c, a + e), (c + a, e + a), (a - c, a - e), (c - a, e - a),
             (a * c, a * e), (c * a, e * a)]
    if a:
        pairs.append((c / a, e * a.inverse()))
    for fast, reference in pairs:
        assert fast == reference
        assert all(type(x) is Fraction for x in fast.coeffs)
        assert repr(fast.coeffs) == repr(reference.coeffs)


def test_rational_operands_keep_the_errors():
    k, other = parse_field("x^2 - 2"), parse_field("x^2 + 1")
    with pytest.raises(InputError, match="different fields"):
        k.element([1, 1]) + other.element([1])
    with pytest.raises(InputError, match="different fields"):
        k.element([1, 1]) * other.element([1])
    with pytest.raises(TypeError):
        k.element([1, 1]) + 1.5j


def test_sturm_chain_rejects_a_gcd_that_does_not_divide(monkeypatch):
    # x^2 + 1 with a last term x + 1 that is no gcd of the chain
    monkeypatch.setattr(numfield, "_signed_remainders",
                        lambda p, q: [poly_trim(p), poly_trim(q), [Fraction(1), Fraction(1)]])
    with pytest.raises(CrossCheckError, match="does not divide"):
        numfield.sturm_chain([Fraction(1), Fraction(0), Fraction(1)])


def test_fundamental_unit_with_a_wrong_norm_raises(monkeypatch):
    monkeypatch.setattr(FieldElement, "norm", lambda self: Fraction(2))
    with pytest.raises(CrossCheckError, match=r"convergent 1/1 of sqrt\(2\) .* norm 2"):
        fundamental_unit_real_quadratic(parse_field("x^2 - 2"))


def test_fundamental_units():
    cases = {
        "x^2 - 2": ([1, 1], -1),
        "x^2 - 5": ([2, 1], -1),
        "x^2 - 3": ([2, 1], 1),
        "x^2 - 7": ([8, 3], 1),
    }
    for poly, (coords, norm) in cases.items():
        k = parse_field(poly)
        u = fundamental_unit_real_quadratic(k)
        assert [c for c in u.coeffs] == coords
        assert u.norm() == norm


def test_fundamental_unit_domain_errors():
    with pytest.raises(HypothesisError):
        fundamental_unit_real_quadratic(parse_field("x^2 + 1"))
    with pytest.raises(HypothesisError):
        fundamental_unit_real_quadratic(parse_field("x^3 - 2"))
    with pytest.raises(InputError):
        fundamental_unit_real_quadratic(parse_field("x^2 + x - 1"))
    with pytest.raises(InputError):
        fundamental_unit_real_quadratic(parse_field("x^2 - 8"))


def test_field_json():
    k = parse_field("x^2 - 2")
    obj = k.to_json_dict()
    assert obj["degree"] == 2
    assert obj["signature"] == [2, 0]
    assert obj["disc"] == 8
    assert obj["roots_of_unity_order"] == 2
    assert obj["unit_rank"] == 1
    assert isinstance(NumberField(obj["coeffs"]), NumberField)

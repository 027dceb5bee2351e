"""Metamorphic properties of number fields: a field does not depend on the
generator chosen, so ``x -> x + k`` and ``x -> -x`` (made monic) keep the
signature, the roots of unity, the discriminant and the irreducibility
verdict.  (The six-term step's independence of the free basis is
``test_ktheory.test_pv_step_invariant_under_unimodular_change_of_basis``.)
"""

import pytest

from ringkt.errors import InputError
from ringkt.numfield import NumberField, parse_polynomial

FIELDS = ("x^2 + 1", "x^2 - 2", "x^2 + x + 1", "x^3 - 2", "x^3 - x - 1",
          "x^4 + 1", "x^4 - x^2 + 1", "x^5 - 2", "x^6 + x^3 + 1")
REDUCIBLE = ("x^4 + 4", "x^4 - 1")


def _shifted(coeffs, k):
    """The ascending coefficients of ``f(x + k)``, by Horner's rule."""
    out = []
    for c in reversed(coeffs):
        out = [a + k * b for a, b in zip([0] + out, out + [0])]  # out * (x + k)
        out[0] += c
    return out


def _negated(coeffs):
    """The ascending coefficients of ``(-1)^n f(-x)``, monic again."""
    n = len(coeffs) - 1
    return [c * (-1) ** (i + n) for i, c in enumerate(coeffs)]


TRANSFORMS = {
    "x+1": lambda f: _shifted(f, 1),
    "x-1": lambda f: _shifted(f, -1),
    "x+2": lambda f: _shifted(f, 2),
    "x-3": lambda f: _shifted(f, -3),
    "-x": _negated,
}


def test_the_transforms_on_a_small_polynomial():
    f = [-2, 0, 1]  # x^2 - 2
    assert _shifted(f, 1) == [-1, 2, 1]
    assert _shifted(f, -3) == [7, -6, 1]
    assert _negated([2, 1, 0, 1]) == [-2, 1, 0, 1]  # x^3 + x + 2 -> x^3 + x - 2


def _invariants(coeffs):
    field = NumberField(coeffs)
    return (field.r1, field.r2), field.roots_of_unity_order, field.disc


@pytest.mark.parametrize("text", FIELDS)
def test_field_invariants_do_not_depend_on_the_generator(text):
    f = parse_polynomial(text)
    want = _invariants(f)
    for name, transform in TRANSFORMS.items():
        assert _invariants(transform(f)) == want, name


@pytest.mark.parametrize("text", REDUCIBLE)
def test_reducible_polynomials_stay_refused_under_a_change_of_generator(text):
    f = parse_polynomial(text)
    for transform in (lambda g: g, *TRANSFORMS.values()):
        with pytest.raises(InputError, match="must be irreducible"):
            NumberField(transform(f))


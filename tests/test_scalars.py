"""Exact coefficient field: arithmetic, normalization, parsing, series."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmwtower.scalars import (
    SYMBOLIC,
    GenericSpecialization,
    NonGenericPoint,
    ScalarFraction,
    TruncatedSeries,
    check_generic,
    format_scalar,
    parse_scalar,
    specialize,
)

Q = ScalarFraction.monomial(1, 0)
NU = ScalarFraction.monomial(0, 1)
ONE = ScalarFraction.from_int(1)
ZERO = ScalarFraction.from_int(0)


def q_pow(k):
    return ScalarFraction.monomial(k, 0)


# -- strategy: random scalar fractions built from small Laurent polynomials --

coeffs = st.integers(min_value=-4, max_value=4)
exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
polys = st.dictionaries(exps, coeffs, min_size=1, max_size=3)


def _poly_to_scalar(d):
    out = ZERO
    for (zq, zn), c in d.items():
        out = out + ScalarFraction.monomial(zq, zn, c)
    return out


scalars = st.builds(_poly_to_scalar, polys)
nonzero_scalars = scalars.filter(lambda x: bool(x))
fractions_st = st.builds(
    lambda a, b: a / b, scalars, nonzero_scalars
)


class TestFieldOps:
    def test_additive_inverse(self):
        assert (Q - q_pow(-1)) + (q_pow(-1) - Q) == ZERO

    def test_monomial_inverse(self):
        assert ONE / Q == q_pow(-1)

    def test_multiplicative_inverse(self):
        x = (Q * Q - ONE) / Q
        y = Q / (Q * Q - ONE)
        assert x * y == ONE

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    @settings(max_examples=60, deadline=None)
    @given(fractions_st, fractions_st, fractions_st)
    def test_field_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        if x:
            assert x * (ONE / x) == ONE


class TestEquality:
    def test_cleared_denominators(self):
        assert (Q * Q - ONE) / Q == Q - q_pow(-1)

    def test_distinct_variables(self):
        assert Q != NU

    def test_mu_identity(self):
        u = Q - q_pow(-1)
        mu = ONE + (ONE / NU - NU) / u
        assert mu == (u + ONE / NU - NU) / u


class TestNormalization:
    def test_denominator_least_exponent_origin(self):
        x = (Q - q_pow(-1) + ONE / NU - NU) / (Q - q_pow(-1))
        least = min(x.den.terms)
        assert least == (0, 0)
        assert x.den.terms[least] > 0

    @settings(max_examples=60, deadline=None)
    @given(fractions_st)
    def test_normalized_everywhere(self, x):
        least = min(x.den.terms)
        assert least == (0, 0)
        assert x.den.terms[least] > 0


class TestSpecialize:
    def test_direct_substitution(self, rational_field):
        assert specialize(Q - ONE / Q, rational_field) == Fraction(3, 2)

    def test_mu_value(self, rational_field):
        u = Q - q_pow(-1)
        mu = ONE + (ONE / NU - NU) / u
        assert specialize(mu, rational_field) == Fraction(-7, 9)

    def test_nongeneric_denominator(self):
        s = GenericSpecialization(Fraction(1), Fraction(3))
        x = ONE / (Q - ONE / Q)
        with pytest.raises(NonGenericPoint):
            specialize(x, s)

    @settings(max_examples=60, deadline=None)
    @given(fractions_st, fractions_st)
    def test_homomorphism(self, x, y):
        point = GenericSpecialization(2, 3)
        try:
            sx = specialize(x, point)
            sy = specialize(y, point)
            sxy = specialize(x * y, point)
            sxpy = specialize(x + y, point)
        except NonGenericPoint:
            return
        assert sxy == sx * sy
        assert sxpy == sx + sy


class TestCheckGeneric:
    def test_default_point_level_7(self):
        assert check_generic(GenericSpecialization(2, 3), 7)

    def test_q_one_fails(self):
        assert not check_generic(GenericSpecialization(1, 3), 2)

    def test_token_collision_fails(self):
        # nu^2 q^-4 = 16/16 = 1 collides with the trivial token
        assert not check_generic(GenericSpecialization(2, 4), 2)

    def test_level_0_takes_the_level_1_conditions(self):
        assert check_generic(GenericSpecialization(2, 3), 0)
        # nu^2 = 1 is never generic; q^2 = nu^2 fails at level 1 already
        for q, nu in [(2, 1), (2, -1), (2, 2), (1, 3)]:
            point = GenericSpecialization(q, nu)
            assert not check_generic(point, 0)
            assert check_generic(point, 0) == check_generic(point, 1)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError, match="level bound must be >= 0"):
            check_generic(GenericSpecialization(2, 3), -1)


class TestFormatParse:
    def test_example_form(self):
        # monomial denominators are absorbed into the numerator by the
        # canonical normalization; the parsed value stays equal
        x = (Q * Q - ONE) / (Q * NU)
        assert format_scalar(x) == "q*nu^-1 - q^-1*nu^-1"
        assert parse_scalar("(q^2 - 1)/(q*nu)") == x

    def test_simple_monomial(self):
        assert format_scalar(NU) == "nu"

    @settings(max_examples=80, deadline=None)
    @given(fractions_st)
    def test_roundtrip(self, x):
        assert parse_scalar(format_scalar(x)) == x


class TestTruncatedSeries:
    def test_geometric_inverse(self):
        # (1 - t)^-1 = sum t^p up to the order
        one_minus_t = TruncatedSeries([ONE, -ONE], SYMBOLIC, 4)
        inv = one_minus_t.inverse()
        assert all(c == ONE for c in inv.coeffs)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(fractions_st, min_size=1, max_size=4),
           st.lists(fractions_st, min_size=1, max_size=4))
    def test_mul_matches_polynomial_truncation(self, a, b):
        order = 3
        sa = TruncatedSeries(a, SYMBOLIC, order)
        sb = TruncatedSeries(b, SYMBOLIC, order)
        prod = sa * sb
        for k in range(order + 1):
            direct = ZERO
            for i in range(k + 1):
                ca = a[i] if i < len(a) else ZERO
                cb = b[k - i] if k - i < len(b) else ZERO
                direct = direct + ca * cb
            assert prod.coeffs[k] == direct

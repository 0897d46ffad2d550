"""Exact coefficient field: arithmetic, normalization, parsing, series."""

from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_polygcd import _gcd_is_unit, _mul, _shifted, base_keys, outside_base

from bmwtower import cli, polygcd
from bmwtower import scalars as scalars_module
from bmwtower.polygcd import base_terms
from bmwtower.scalars import (
    SYMBOLIC,
    GenericSpecialization,
    LaurentPoly,
    NonGenericPoint,
    OutsideBase,
    ParseError,
    ScalarFraction,
    TruncatedSeries,
    check_generic,
    format_scalar,
    parse_scalar,
    require_generic,
    specialize,
)

Q = ScalarFraction.monomial(1, 0)
NU = ScalarFraction.monomial(0, 1)
ONE = ScalarFraction.from_int(1)
ZERO = ScalarFraction.from_int(0)


def q_pow(k):
    return ScalarFraction.monomial(k, 0)


# -- strategy: random scalar fractions, a small Laurent polynomial over a
# denominator in the genericity base --

coeffs = st.integers(min_value=-4, max_value=4)
exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
polys = st.dictionaries(exps, coeffs, min_size=1, max_size=3)


def _poly_to_scalar(d):
    out = ZERO
    for (zq, zn), c in d.items():
        out = out + ScalarFraction.monomial(zq, zn, c)
    return out


def _base_product(keys):
    out = LaurentPoly.from_int(1)
    for key in keys:
        out = out * LaurentPoly(base_terms(key))
    return out.terms


# members of the genericity base: Phi_m(q), and nu q^k - s; a denominator
# is a monomial times a product of them
base_products = st.lists(base_keys, max_size=3).map(_base_product)
monomials = st.builds(lambda e, c: {e: c}, exps, coeffs.filter(bool))
dens_st = st.builds(_mul, monomials, base_products)

scalars = st.builds(_poly_to_scalar, polys)
fractions_st = st.builds(
    lambda a, d: a / _poly_to_scalar(d), scalars, dens_st
)
# units of the scalars' ring: numerator and denominator in the base
units_st = st.builds(
    lambda n, d: ScalarFraction(LaurentPoly(n), LaurentPoly(d)), dens_st, dens_st
)
nonzero_values = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)


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
    @given(fractions_st, fractions_st, fractions_st, units_st)
    def test_field_axioms(self, x, y, z, u):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        assert u * (ONE / u) == ONE

    @pytest.mark.parametrize("text", ["q + 2", "nu^2*q^2 + 1", "(q - 1)*(q + 2)",
                                      "2*nu*q - 1"])
    def test_divisor_outside_the_base_is_refused(self, text):
        """/, invert and the constructor refuse a divisor with a factor
        outside the genericity base, also where the quotient would cancel
        it: the value is refused, not carried."""
        x = parse_scalar(text)
        assert outside_base(x.num.terms)
        with pytest.raises(OutsideBase):
            Q / x
        with pytest.raises(OutsideBase):
            x.invert()
        with pytest.raises(OutsideBase):
            ScalarFraction(LaurentPoly.from_int(1), x.num)
        with pytest.raises(OutsideBase):
            ScalarFraction(x.num * x.num, x.num)


# -- oracle: the canonical pair by definition, the cross products that an
# operation's value is, reduced by sympy's gcd --

def _oracle(num, den):
    """(num terms, den terms) of num/den divided by their gcd (sympy's
    cofactors), then normalized: least denominator exponent (0, 0) with a
    positive coefficient, common integer content divided out."""
    if num.is_zero:
        return {}, {(0, 0): 1}
    (pn, (nq, nn)), (pd, (dq, dn)) = _shifted(num.terms), _shifted(den.terms)
    _, pn, pd = pn.cofactors(pd)
    nt = {(a + nq, b + nn): int(c) for (a, b), c in pn.items()}
    dt = {(a + dq, b + dn): int(c) for (a, b), c in pd.items()}
    zq, zn = min(dt)
    sign = 1 if dt[(zq, zn)] > 0 else -1
    g = reduce(gcd, list(nt.values()) + list(dt.values())) * sign
    return tuple(
        {(a - zq, b - zn): c // g for (a, b), c in terms.items()}
        for terms in (nt, dt)
    )


nums_st = st.dictionaries(exps, coeffs, max_size=3)
# numerators in the base can be inverted; the others are refused as divisors
nums_any = st.one_of(nums_st, base_products)
ONE_D = {(0, 0): 1}
Q_MINUS_1 = {(1, 0): 1, (0, 0): -1}
Q_PLUS_1 = {(1, 0): 1, (0, 0): 1}
NU_Q_MINUS_1 = {(1, 1): 1, (0, 0): -1}
NU_MINUS_1 = {(0, 1): 1, (0, 0): -1}


class TestReducedOperands:
    """Sums, products, quotients, negations and inverses of canonical
    operands are the canonical pair of their value, cancelled by trial
    division over the genericity base: structurally equal to the oracle,
    with numerator and denominator coprime, and with a stored factorization
    that multiplies out to the denominator.  The operands are n1/(f g1) and
    n2/(f g2), so their denominators share the factor f.  A quotient is
    refused exactly when its divisor's numerator has a factor outside the
    base."""

    @settings(max_examples=150, deadline=None)
    @given(nums_any, dens_st, nums_any, dens_st, dens_st)
    # a zero operand
    @example({}, ONE_D, Q_PLUS_1, {(0, 0): 1, (0, 1): -1}, Q_PLUS_1)
    # -1 with (q + 1)/(q - 1), and 3 q nu^-1 / 2 with (nu + 1)/(2 q + 2)
    @example({(0, 0): -1}, ONE_D, Q_PLUS_1, Q_MINUS_1, ONE_D)
    @example({(1, -1): 3}, {(0, 0): 2}, {(0, 1): 1, (0, 0): 1},
             {(1, 0): 2, (0, 0): 2}, ONE_D)
    # 1/(2q + 2) and 1/(2q - 2): the denominators share only the content 2
    @example(ONE_D, Q_PLUS_1, ONE_D, Q_MINUS_1, {(0, 0): 2})
    # 1/((q - 1)(q + 1)) and 1/((q - 1)(nu q - 1)) share the factor q - 1
    @example(ONE_D, Q_PLUS_1, ONE_D, NU_Q_MINUS_1, Q_MINUS_1)
    # 2/((q - 1)(q + 1)) - (nu - 1)/((q - 1)(nu q - 1))
    # = (nu + 1)/((q + 1)(nu q - 1))
    @example({(0, 0): 2}, Q_PLUS_1, NU_MINUS_1, NU_Q_MINUS_1, Q_MINUS_1)
    # (nu q - 1)/((q - 1)(q + 1)) / (1/((q - 1)(nu q - 1))): cross
    # cancellation
    @example(NU_Q_MINUS_1, Q_PLUS_1, ONE_D, NU_Q_MINUS_1, Q_MINUS_1)
    # (q + 1)/(nu q - 1) * (nu q - 1)/(q + 1): each numerator is the
    # other's denominator
    @example(Q_PLUS_1, NU_Q_MINUS_1, NU_Q_MINUS_1, Q_PLUS_1, ONE_D)
    def test_matches_one_reduction(self, n1, g1, n2, g2, f):
        shared = LaurentPoly(f)
        x = ScalarFraction(LaurentPoly(n1), shared * LaurentPoly(g1))
        y = ScalarFraction(LaurentPoly(n2), shared * LaurentPoly(g2))
        a, b, c, d = x.num, x.den, y.num, y.den
        cases = [
            (x + y, a * d + c * b, b * d),
            (x - y, a * d - c * b, b * d),
            (x * y, a * c, b * d),
            (-x, -a, b),
        ]
        quotients = []
        if y:
            quotients.append((lambda: x / y, c, a * d, b * c))
        if x:
            quotients.append((lambda: ONE / x, a, b, a))
        for quotient, divisor, num, den in quotients:
            refused = outside_base(divisor.terms)
            try:
                cases.append((quotient(), num, den))
            except OutsideBase:
                assert refused
            else:
                assert not refused
        for result, num, den in cases:
            want = _oracle(num, den)
            assert (result.num.terms, result.den.terms) == want
            assert _expanded(result).terms == want[1]
            if result:
                assert _gcd_is_unit(result.num.terms, result.den.terms)

    def test_partial_cancellation(self):
        x = parse_scalar("2/((q - 1)*(q + 1))")
        y = parse_scalar("(nu - 1)/((q - 1)*(nu*q - 1))")
        assert format_scalar(x - y) == "(-nu - 1)/(-q^2*nu - q*nu + q + 1)"


def _expanded(x):
    """x's stored denominator factorization, multiplied out."""
    out = LaurentPoly.from_int(x.scale)
    for key, e in x.exps.items():
        for _ in range(e):
            out = out * LaurentPoly(base_terms(key))
    return out


# values whose numerators and denominators are products of base members,
# so that trial divisions both succeed and fail
numers_st = st.builds(_mul, nums_st, base_products)
based_st = st.builds(
    lambda n, d: ScalarFraction(LaurentPoly(n), LaurentPoly(d)), numers_st, dens_st
)
steps_st = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30), st.booleans()), max_size=8
)


def _record_calls(monkeypatch, owner, name):
    """Wrap owner.name; the returned list gets one entry per call, True
    when the call returned something other than None."""
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        out = real(*args)
        calls.append(out is not None)
        return out

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestNonDivisorRecord:
    """``ScalarFraction._nondivisors`` holds only keys of members that do
    not divide the numerator, and ``*`` makes no trial division that the
    record, or a monomial numerator, already answers."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(based_st, min_size=1, max_size=4), steps_st)
    def test_record_claims_no_divisor(self, values, steps):
        """Products and sums of the values, each step on two earlier
        values; afterwards sympy finds that no member recorded on any value
        divides its numerator."""
        values = list(values)
        for i, j, times in steps:
            x, y = values[i % len(values)], values[j % len(values)]
            values.append(x * y if times else x + y)
        for x in values:
            for key in x._nondivisors:
                assert _gcd_is_unit(x.num.terms, base_terms(key)), (x, key)

    def test_failed_division_is_tried_once(self, monkeypatch):
        """q + 2 times 1/(q - 1) tries q - 1 on q + 2 once; later products
        by values with q - 1 in the denominator try it no more.  A member
        that divides is not recorded, and a monomial is never tried."""
        x, y, w = parse_scalar("q + 2"), ONE / (Q - ONE), parse_scalar("q^2 - 1")
        want = parse_scalar("(q + 2)/(q - 1)"), Q + ONE
        calls = _record_calls(monkeypatch, scalars_module, "reduce_fraction")
        assert x * y == want[0]
        assert len(calls) == 1 and x._nondivisors == (1,)
        for z in (y, y * y, y / NU):
            x * z
        Q * y
        assert len(calls) == 1 and not Q._nondivisors
        assert w * y == want[1]
        assert len(calls) == 2 and 1 not in w._nondivisors

    def test_counts_repeat_across_calls(self, monkeypatch):
        """No value that outlives a call carries a record, so in one
        process every run of a command makes the same ``reduce_fraction``
        calls: 4,436 for ``rep --lambda 1,1,1 --n 5`` and 4,394 for
        ``verify --n 4`` (11,841 and 11,858 before the record; 4,396 for
        ``verify --n 4`` while Zhat was formed per token prefix)."""
        calls = _record_calls(monkeypatch, scalars_module, "reduce_fraction")
        for argv in (["rep", "--lambda", "1,1,1", "--n", "5"], ["verify", "--n", "4"]):
            seen = []
            for _ in range(3):
                calls.clear()
                assert cli.run(cli._build_parser().parse_args(argv))[0] == 0
                seen.append(len(calls))
            assert seen[0] == seen[1] == seen[2], (argv, seen)

    def test_verify_level_5_trial_divisions(self, monkeypatch):
        """Symbolic ``verify --n 5`` makes 21,735 trial divisions, 11,937 of
        which divide; before the record it made 60,716, 12,174 dividing,
        and 22,210 with the same 12,174 once the record skipped the
        divisions known to fail.  The 475 fewer since, 237 of them
        dividing, are the Zhat products of token prefixes that read the
        same diagram."""
        calls = _record_calls(monkeypatch, polygcd, "_trial_divide")
        assert cli.run(cli._build_parser().parse_args(["verify", "--n", "5"]))[0] == 0
        assert (len(calls), sum(calls)) == (21735, 11937)
        assert len(calls) <= 60716 // 2


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

    @settings(max_examples=100, deadline=None)
    @given(fractions_st, fractions_st, units_st, nonzero_values, nonzero_values)
    def test_homomorphism(self, x, y, u, q, nu):
        """At a random generic point, specialization commutes with + - *,
        and with / by a unit of the scalars' ring."""
        point = GenericSpecialization(q, nu)
        assume(check_generic(point, 2))
        try:
            sx = specialize(x, point)
            sy = specialize(y, point)
            su = specialize(u, point)
        except NonGenericPoint:
            return
        assert specialize(x * y, point) == sx * sy
        assert specialize(x + y, point) == sx + sy
        assert specialize(x - y, point) == sx - sy
        if su:
            assert specialize(x / u, point) == sx / su


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

    def test_require_generic_checks_each_level_once(self, monkeypatch):
        """A point records the highest level it passed: nu = 64 = q^6 is
        generic at level 2 (checked once, and not again at or below it),
        and is refused at level 3 on every call."""
        levels = []
        real = scalars_module.check_generic

        def counted(s, n):
            levels.append(n)
            return real(s, n)

        monkeypatch.setattr(scalars_module, "check_generic", counted)
        point = GenericSpecialization(2, 64)
        for n in (2, 2, 1, 0):
            assert require_generic(point, n) is point
        assert levels == [2]
        for _ in range(2):
            with pytest.raises(NonGenericPoint, match="not generic at level 3"):
                require_generic(point, 3)
        assert levels == [2, 3, 3]
        assert require_generic(point, 2) is point and levels == [2, 3, 3]

    def test_matches_the_power_formula(self):
        """The running products give the verdicts of the conditions
        evaluated power by power, on a grid of levels 0..8 and of points
        with q = +-1, nu = +-1, nu = +-q^k (so nu^2 q^(2z) = 1 and
        nu^2 q^(2z) = q^(2z') at some z, z'), and generic ones."""
        qs = [Fraction(q) for q in (1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2), 3)]
        verdicts = set()
        for q in qs:
            nus = {Fraction(1), Fraction(-1), Fraction(5), Fraction(-7, 3)}
            nus |= {sign * q**k for sign in (1, -1) for k in range(-17, 18)}
            for nu in nus:
                point = GenericSpecialization(q, nu)
                for n in range(9):
                    got = check_generic(point, n)
                    assert got == _generic_by_powers(point, n), (q, nu, n)
                    verdicts.add((q ** 2 == 1, nu ** 2 == 1, got))
        # generic and not, with q^2 and nu^2 away from 1, and at q, nu = +-1
        assert {(False, False, True), (False, False, False),
                (True, False, False), (False, True, False)} <= verdicts


def _generic_by_powers(s, n):
    """check_generic's conditions with every power computed on its own."""
    n = max(n, 1)
    values = set()
    count = 0
    for e in (0, 1):
        for z in range(-n, n + 1):
            values.add(s.nu_value ** (2 * e) * s.q_value ** (2 * z))
            count += 1
    if len(values) != count:
        return False
    for z in range(1, 2 * n + 1):
        if s.q_value ** (2 * z) == 1 or s.q_value ** (-2 * z) == 1:
            return False
    for z in range(-2 * n, 2 * n + 1):
        if s.nu_value**2 * s.q_value ** (2 * z) == 1:
            return False
    return True


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

    @pytest.mark.parametrize("text", ["", "q^", "(q", "q+", "q)", "q^q", "2 *", "nu/"])
    def test_malformed_text_is_a_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_scalar(text)


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

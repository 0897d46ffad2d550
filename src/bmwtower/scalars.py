"""Exact arithmetic in the coefficient ring of the seminormal construction.

Elements are fractions of integer-coefficient Laurent polynomials in the
two variables q and nu, always in lowest terms and normalized (see
``ScalarFraction``), whose denominators are an integer times a product of
members of the genericity base B of ``polygcd``: the cyclotomic Phi_m(q)
and the binomials nu q^k - s, s = +-1.  That is, the scalars form the ring
Z[q^±1, nu^±1] localized at B and at the nonzero integers, not all of
Q(q, nu).  It holds every value the package builds: each denominator of
the seminormal construction divides a product of q^(2z) - 1 and
nu^2 q^(2z) - 1, the eigenvalue separations whose nonvanishing
``check_generic`` requires.  A division whose divisor has a factor outside
B raises ``OutsideBase``: the constructor ``ScalarFraction(num, den)``,
``1/x`` and ``x/y`` refuse such a value rather than carry it.

The numerator is a ``LaurentPoly``; the denominator is kept factored, as a
positive integer times an exponent vector over B.  Because every operand is
reduced and its denominator's prime factors are known, each cancellation is
a trial division (``reduce_fraction`` with one member of B), and only by
the factors that can be shared:

- ``x * y`` divides each numerator by the other operand's factors, and adds
  the exponent vectors;
- ``a/b + c/d`` takes the lcm L by the elementwise maximum and divides the
  numerator a (L/b) + c (L/d) only by the factors with equal exponents in b
  and d.  A factor f with unequal exponents divides exactly one of the two
  terms: say f's power in b is the smaller; then f divides L/b, but not c
  (gcd(c, d) = 1) nor L/d, so f does not divide the sum;
- ``1/x`` and the constructor ``ScalarFraction(num, den)`` split a
  polynomial over B (``polygcd.split``); ``-x`` never reduces.

A product skips each trial division whose answer is already known, and
stays exact because each skip rests on a proof that the member f does not
divide the numerator a of the canonical value x = a/D:

- primes: every member of B is irreducible and primitive, hence prime in
  Z[q^±1, nu^±1] (Gauss's lemma), so one failed trial division proves
  f ∤ a, and a value's numerator is never changed in place;
- the canonical seed: f ∤ a for every f in D, since a and D are coprime,
  so the keys of x's own ``exps`` are known non-divisors from the start;
- units: a one-term numerator is a unit, and no member of B divides it;
- failed tests only: a key joins x's record (``_nondivisors``) only after
  its trial division by a itself has failed.  Nothing else is recorded: a
  member that divides a is not, and neither is any fact about the product,
  the sum, or a quotient a/f, whose numerators are new values with no
  record but their own ``exps``.

A record is a fact about one immutable value, not a cache of results: it
is dropped with the value.  The values that outlive a call, such as
``SYMBOLIC.one``, ``.q`` and ``.nu``, are monomials and are never tried,
so every call makes the same trial divisions.

Integer content is cancelled by integer gcds; no polynomial gcd runs.
Equality compares the canonical forms, which are unique.  The expanded
denominator ``den``, read by the printer and ``evaluate``, is built on
demand and kept per instance.

A ``GenericSpecialization`` maps everything to ``fractions.Fraction`` for
fast numeric runs; ``check_generic`` guards the eigenvalue-separation
assumptions that the seminormal construction relies on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd

from .polygcd import base_terms, reduce_fraction, split


class LaurentPoly:
    """Laurent polynomial in q, nu with integer coefficients.

    Terms are stored as a dict mapping exponent pairs (z_q, z_nu) to
    nonzero integer coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = {}

    @staticmethod
    def from_int(c):
        return LaurentPoly({(0, 0): c})

    @staticmethod
    def monomial(zq, znu, coeff=1):
        return LaurentPoly({(zq, znu): coeff})

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        r = LaurentPoly()
        r.terms = out
        return r

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for (a, b), c in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                e = (a + a2, b + b2)
                s = out.get(e, 0) + c * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        r = LaurentPoly()
        r.terms = out
        return r

    def shift(self, dzq, dznu):
        """Multiply by the monomial q^dzq * nu^dznu."""
        r = LaurentPoly()
        r.terms = {(a + dzq, b + dznu): c for (a, b), c in self.terms.items()}
        return r

    def content(self):
        """Positive gcd of all integer coefficients (0 for the zero poly)."""
        return reduce(gcd, (abs(c) for c in self.terms.values()), 0)

    def times_int(self, k):
        return _poly({e: c * k for e, c in self.terms.items()})

    def divide_int(self, g):
        r = LaurentPoly()
        r.terms = {e: c // g for e, c in self.terms.items()}
        return r

    def evaluate(self, q_value, nu_value):
        total = Fraction(0)
        for (a, b), c in self.terms.items():
            total += c * q_value**a * nu_value**b
        return total

    def __repr__(self):
        return f"LaurentPoly({self.terms!r})"


_ONE_POLY = LaurentPoly.from_int(1)


class ZeroDivision(ZeroDivisionError):
    pass


class NonGenericPoint(ArithmeticError):
    pass


class OutsideBase(ArithmeticError):
    """A divisor with a factor outside the genericity base: the quotient is
    not a value of the scalars' ring."""


def _poly(terms):
    """A LaurentPoly on a term dict that has no zero coefficient."""
    p = LaurentPoly()
    p.terms = terms
    return p


class ScalarFraction:
    """A value of Z[q^±1, nu^±1] localized at the genericity base, as a
    canonical numerator and factored denominator.

    Canonical: numerator and denominator have no common factor but a unit,
    the denominator's lexicographically least exponent is (0, 0) with a
    positive coefficient, and the common integer content of numerator and
    denominator is divided out.  The denominator is ``scale`` (a positive
    integer) times the product of ``base_terms(key) ** e`` over ``exps``.
    Each base term has least exponent (0, 0) with a positive coefficient,
    so the product does too.  ``exps`` dicts are shared between values and
    never changed in place.  ``ScalarFraction(num, den)`` raises
    ``OutsideBase`` when den has a factor outside the base.

    ``_nondivisors`` holds keys of members proven not to divide ``num``:
    at first ``exps`` itself (the value is canonical), then a tuple of its
    keys and of each key whose trial division by ``num`` failed
    (``_cancel``).
    """

    __slots__ = ("num", "scale", "exps", "_den", "_nondivisors")

    def __init__(self, num, den=None):
        if den is not None and den.is_zero:
            raise ZeroDivision("division by zero in Q(q, nu)")
        if den is None or num.is_zero:
            self.num, self.scale, self.exps = num, 1, {}
            self._den, self._nondivisors = _ONE_POLY, self.exps
            return
        self._den = None
        c, (zq, zn), exps = _split(den)
        if (zq, zn) != (0, 0):
            num = num.shift(-zq, -zn)
        if c < 0:
            num = -num
        num, exps = _cancel(num, exps, exps)
        num, scale = _cancel_content(num, abs(c))
        self.num, self.scale, self.exps = num, scale, exps
        self._nondivisors = exps

    @staticmethod
    def from_int(c):
        return ScalarFraction(LaurentPoly.from_int(c))

    @staticmethod
    def monomial(zq, znu, coeff=1):
        return ScalarFraction(LaurentPoly.monomial(zq, znu, coeff))

    @property
    def den(self):
        """The denominator, expanded."""
        d = self._den
        if d is None:
            d = LaurentPoly.from_int(self.scale)
            for key, e in self.exps.items():
                d = _times_base(d, key, e)
            self._den = d
        return d

    @property
    def is_zero(self):
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    def _coerce(self, other):
        if isinstance(other, ScalarFraction):
            return other
        if isinstance(other, int):
            return ScalarFraction.from_int(other)
        return NotImplemented

    def _same_den(self, other):
        return self.scale == other.scale and self.exps == other.exps

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num.terms:
            return self
        if not self.num.terms:
            return other
        a, c = self.num, other.num
        if self._same_den(other):
            num = a + c
            if not num.terms:
                return _ZERO
            num, exps = _cancel(num, self.exps, self.exps)
            num, scale = _cancel_content(num, self.scale)
            return _fraction(num, scale, exps)
        eb, ed = self.exps, other.exps
        # the lcm of the denominators, and the factors with equal exponents
        # in both: no other factor can divide the numerator of the sum
        exps, shared = dict(eb), {}
        for key, e in ed.items():
            e0 = eb.get(key, 0)
            if e > e0:
                exps[key] = e
            elif e == e0:
                shared[key] = e
        for key, e in exps.items():
            a = _times_base(a, key, e - eb.get(key, 0))
            c = _times_base(c, key, e - ed.get(key, 0))
        sb, sd = self.scale, other.scale
        scale = sb * sd // gcd(sb, sd)
        if scale != sb:
            a = a.times_int(scale // sb)
        if scale != sd:
            c = c.times_int(scale // sd)
        num = a + c
        if not num.terms:
            return _ZERO
        num, exps = _cancel(num, shared, exps)
        num, scale = _cancel_content(num, scale)
        return _fraction(num, scale, exps)

    __radd__ = __add__

    def __neg__(self):
        return _fraction(-self.num, self.scale, self.exps, self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num.terms:
            return self
        if not other.num.terms:
            return other
        # cancel each numerator against the other denominator; each pair
        # is then coprime up to a unit, and so is the product
        a, ed = _cancel(self.num, other.exps, other.exps, self)
        c, eb = _cancel(other.num, self.exps, self.exps, other)
        a, sd = _cancel_content(a, other.scale)
        c, sb = _cancel_content(c, self.scale)
        if not eb:
            exps = ed
        elif not ed:
            exps = eb
        else:
            exps = dict(eb)
            for key, e in ed.items():
                exps[key] = exps.get(key, 0) + e
        return _fraction(a * c, sb * sd, exps)

    __rmul__ = __mul__

    def invert(self):
        if self.num.is_zero:
            raise ZeroDivision("division by zero in Q(q, nu)")
        c, (zq, zn), exps = _split(self.num)
        num = self.den
        if (zq, zn) != (0, 0):
            num = num.shift(-zq, -zn)
        if c < 0:
            num = -num
        return _fraction(num, abs(c), exps)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other):
        return self.invert() * other

    def __pow__(self, k):
        if k < 0:
            return self.invert() ** (-k)
        out = ScalarFraction.from_int(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num.terms == other.num.terms and self._same_den(other)

    def __hash__(self):
        raise TypeError("ScalarFraction is not hashable (equality is semantic)")

    def evaluate(self, q_value, nu_value):
        d = self.den.evaluate(q_value, nu_value)
        if d == 0:
            raise NonGenericPoint(f"denominator vanishes at q={q_value}, nu={nu_value}")
        return self.num.evaluate(q_value, nu_value) / d

    def __repr__(self):
        return f"<{format_scalar(self)}>"


def _fraction(num, scale, exps, den=None):
    """A ScalarFraction from canonical parts, with no reduction."""
    out = ScalarFraction.__new__(ScalarFraction)
    out.num, out.scale, out.exps = num, scale, exps
    out._nondivisors = exps
    if den is None and scale == 1 and not exps:
        den = _ONE_POLY
    out._den = den
    return out


_ZERO = _fraction(LaurentPoly(), 1, {})


def _split(p):
    """``split`` of the nonzero polynomial p as (c, (zq, znu), exps);
    OutsideBase when p has a factor outside the genericity base."""
    c, lo, exps, residual = split(p.terms)
    if residual is not None:
        raise OutsideBase(f"{format_poly(p)} has a factor outside the genericity base")
    return c, lo, exps


def _times_base(p, key, e):
    """p times base_terms(key) ** e."""
    if e:
        f = _poly(base_terms(key))
        for _ in range(e):
            p = p * f
    return p


def _cancel(num, candidates, exps, value=None):
    """num with each base factor of ``candidates`` divided out as often as
    it divides, at most its exponent there; and ``exps`` less the factors
    divided out.  One ``reduce_fraction`` call per trial division whose
    answer is not known: none when num is a monomial, a unit, and none by
    a key of ``value._nondivisors`` when num is the numerator of ``value``.
    A key whose first trial division fails is added to that record."""
    if len(num.terms) == 1:
        return num, exps
    out = exps
    known = () if value is None else value._nondivisors
    for key, e in candidates.items():
        if key in known:
            continue
        f = base_terms(key)
        j = 0
        while j < e:
            nt, dt = reduce_fraction(num.terms, f)
            if len(dt) > 1:
                break
            num = _poly(nt)
            j += 1
        if j:
            if out is exps:
                out = dict(exps)
            if out[key] == j:
                del out[key]
            else:
                out[key] -= j
        elif value is not None:
            known = value._nondivisors = (*known, key)
    return num, out


def _cancel_content(num, scale):
    """num and the positive integer scale without their common content."""
    if scale == 1:
        return num, 1
    g = gcd(num.content(), scale)
    if g > 1:
        return num.divide_int(g), scale // g
    return num, scale


class SymbolicField:
    """Field adapter for the symbolic scalars (``ScalarFraction``)."""

    name = "symbolic"

    def __init__(self):
        self.zero = ScalarFraction.from_int(0)
        self.one = ScalarFraction.from_int(1)
        self.q = ScalarFraction.monomial(1, 0)
        self.nu = ScalarFraction.monomial(0, 1)

    def from_int(self, c):
        return ScalarFraction.from_int(c)

    def q_pow(self, k):
        return ScalarFraction.monomial(k, 0)

    def nu_pow(self, k):
        return ScalarFraction.monomial(0, k)

    def token_value(self, tok):
        """nu^(2*eps) * q^(2*z) as a field element."""
        return ScalarFraction.monomial(2 * tok.z, 2 * tok.nu)


SYMBOLIC = SymbolicField()


class GenericSpecialization:
    """Evaluation homomorphism q -> q_value, nu -> nu_value over Q.

    Doubles as a field adapter (elements are ``fractions.Fraction``), so the
    whole construction can run over exact rationals.
    """

    name = "rational"

    def __init__(self, q_value, nu_value):
        self.q_value = Fraction(q_value)
        self.nu_value = Fraction(nu_value)
        if self.q_value == 0 or self.nu_value == 0:
            raise NonGenericPoint("q and nu must be nonzero")
        self.zero = Fraction(0)
        self.one = Fraction(1)
        self.q = self.q_value
        self.nu = self.nu_value
        self.generic_level = -1  # the highest level require_generic passed

    def from_int(self, c):
        return Fraction(c)

    def q_pow(self, k):
        return self.q_value**k

    def nu_pow(self, k):
        return self.nu_value**k

    def token_value(self, tok):
        return self.nu_value ** (2 * tok.nu) * self.q_value ** (2 * tok.z)

    def __repr__(self):
        return f"GenericSpecialization(q={self.q_value}, nu={self.nu_value})"


def specialize(x, s):
    """Image of x under the evaluation homomorphism s."""
    if isinstance(x, Fraction):
        return x
    return x.evaluate(s.q_value, s.nu_value)


def check_generic(s, n):
    """True iff the point s separates all eigenvalue data up to level n.

    Needs: all values nu^(2e) q^(2z) for e in {0,1}, |z| <= n pairwise
    distinct; q^(2z) != 1 for 0 < |z| <= 2n; nu^2 q^(2z) != 1 for |z| <= 2n.
    Level 0 is held to the level-1 conditions, so nu^2 = 1 is never generic.
    The powers q^(2z), |z| <= 2n, are computed once, as running products.
    """
    if n < 0:
        raise ValueError(f"level bound must be >= 0, got {n}")
    n = max(n, 1)
    # q^(2z) for z = -2n..2n, by running products from q^0 = 1
    q2 = s.q_value**2
    up, down = [Fraction(1)], [Fraction(1)]
    for _ in range(2 * n):
        up.append(up[-1] * q2)
        down.append(down[-1] / q2)
    pows = down[:0:-1] + up
    nu2 = s.nu_value**2
    near = pows[n : 3 * n + 1]  # |z| <= n
    values = near + [nu2 * x for x in near]
    if len(set(values)) != len(values):
        return False
    if any(x == 1 for z, x in enumerate(pows) if z != 2 * n):
        return False
    return all(nu2 * x != 1 for x in pows)


def require_generic(s, n):
    """The point s, checked generic at level n; NonGenericPoint otherwise.

    Genericity at a level implies it at every lower one (the conditions of
    ``check_generic`` at level n include those below n), so the point
    records the highest level it has passed, a fact about its own values,
    and is checked again only above it."""
    if n > s.generic_level:
        if not check_generic(s, n):
            raise NonGenericPoint(
                f"(q={s.q_value}, nu={s.nu_value}) is not generic at level {n}"
            )
        s.generic_level = n
    return s


class TruncatedSeries:
    """Power series in a formal variable t, truncated at a fixed order."""

    __slots__ = ("order", "coeffs", "field")

    def __init__(self, coeffs, field, order=None):
        if order is None:
            order = len(coeffs) - 1
        coeffs = list(coeffs[: order + 1])
        while len(coeffs) < order + 1:
            coeffs.append(field.zero)
        self.order = order
        self.coeffs = coeffs
        self.field = field

    @staticmethod
    def constant(c, field, order):
        return TruncatedSeries([c], field, order)

    def __add__(self, other):
        return TruncatedSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.field, self.order
        )

    def __sub__(self, other):
        return TruncatedSeries(
            [a - b for a, b in zip(self.coeffs, other.coeffs)], self.field, self.order
        )

    def __mul__(self, other):
        N = self.order
        out = [self.field.zero] * (N + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(N + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(out, self.field, N)

    def inverse(self):
        """Multiplicative inverse; the constant term must be invertible."""
        c0 = self.coeffs[0]
        if not c0:
            raise ZeroDivision("series with zero constant term is not invertible")
        inv0 = self.field.one / c0
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = self.field.zero
            for j in range(1, k + 1):
                a = self.coeffs[j] if j <= self.order else self.field.zero
                if a and out[k - j]:
                    acc = acc + a * out[k - j]
            out.append(-inv0 * acc)
        return TruncatedSeries(out, self.field, self.order)


# --- canonical text form ---------------------------------------------------


def _format_monomial(zq, znu, coeff):
    parts = []
    if zq:
        parts.append("q" if zq == 1 else f"q^{zq}")
    if znu:
        parts.append("nu" if znu == 1 else f"nu^{znu}")
    a = abs(coeff)
    if not parts:
        return str(a)
    if a != 1:
        parts.insert(0, str(a))
    return "*".join(parts)


def format_poly(p):
    if p.is_zero:
        return "0"
    bits = []
    for (zq, znu) in sorted(p.terms, reverse=True):
        c = p.terms[(zq, znu)]
        mono = _format_monomial(zq, znu, c)
        if not bits:
            bits.append(mono if c > 0 else "-" + mono)
        else:
            bits.append(("+ " if c > 0 else "- ") + mono)
    return " ".join(bits)


def _is_atom(p):
    if len(p.terms) != 1:
        return False
    ((zq, znu), c) = next(iter(p.terms.items()))
    return c == 1 and (zq == 0) + (znu == 0) >= 1


def format_scalar(x):
    """Canonical text form, e.g. "(q^2 - 1)/(q*nu)"; a ``Fraction``, the
    entry type of a rational point, prints with ``str``."""
    if isinstance(x, Fraction):
        return str(x)
    num = format_poly(x.num)
    if x.den == _ONE_POLY:
        return num
    if len(x.num.terms) > 1 or format_poly(x.num).startswith("-"):
        num = f"({num})"
    den = format_poly(x.den)
    if not _is_atom(x.den):
        den = f"({den})"
    return f"{num}/{den}"


class ParseError(ValueError):
    pass


def _tokenize(text):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/()^":
            toks.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(int(text[i:j]))
            i = j
        elif text.startswith("nu", i):
            toks.append("nu")
            i += 2
        elif ch == "q":
            toks.append("q")
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} in scalar text")
    return toks


def parse_scalar(text):
    """Parse the canonical text form back into a ScalarFraction."""
    toks = _tokenize(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        if pos == len(toks):
            raise ParseError("unexpected end of scalar text")
        t = toks[pos]
        pos += 1
        return t

    def parse_sum():
        x = parse_product()
        while peek() in ("+", "-"):
            if take() == "+":
                x = x + parse_product()
            else:
                x = x - parse_product()
        return x

    def parse_product():
        x = parse_factor()
        while peek() in ("*", "/"):
            if take() == "*":
                x = x * parse_factor()
            else:
                x = x / parse_factor()
        return x

    def parse_factor():
        t = peek()
        if t == "-":
            take()
            return -parse_factor()
        if t == "+":
            take()
            return parse_factor()
        return parse_power()

    def parse_power():
        base = parse_primary()
        if peek() == "^":
            take()
            sign = 1
            if peek() == "-":
                take()
                sign = -1
            e = take()
            if not isinstance(e, int):
                raise ParseError("integer exponent expected after '^'")
            return base ** (sign * e)
        return base

    def parse_primary():
        t = take()
        if t == "(":
            x = parse_sum()
            if take() != ")":
                raise ParseError("unbalanced parentheses")
            return x
        if t == "q":
            return SYMBOLIC.q
        if t == "nu":
            return SYMBOLIC.nu
        if isinstance(t, int):
            return ScalarFraction.from_int(t)
        raise ParseError(f"unexpected token {t!r}")

    x = parse_sum()
    if pos != len(toks):
        raise ParseError("trailing input in scalar text")
    return x

"""Exact arithmetic in the coefficient field Q(q, nu).

Elements are fractions of integer-coefficient Laurent polynomials in the
two variables q and nu, always in lowest terms and normalized (see
``ScalarFraction``).  Because every operand is already reduced, the field
operations divide out a bivariate polynomial gcd (``polygcd.reduce_fraction``)
only where a common factor can arise (Henrici's method for reduced
fractions, Knuth, TAOCP vol. 2, 4.5.1):

- ``-x`` and ``1/x`` never reduce, nor does ``x + y`` with a zero operand;
- ``x + y`` over equal denominators reduces the sum once;
- otherwise ``x + y`` reduces nothing when the denominators' exponents
  prove them coprime (``_coprime``; a single-term denominator always
  does), and else reduces the two denominators against each other, then
  the sum over their lcm only when they share a polynomial factor;
- ``x * y`` reduces each numerator against the other denominator unless
  their exponents prove them coprime, and never the product.

Monomial content and integer content are normalized away without a gcd.
Equality is decided by cross-multiplication, which is exact whether or not
a pair was reduced.

A ``GenericSpecialization`` maps everything to ``fractions.Fraction`` for
fast numeric runs; ``check_generic`` guards the eigenvalue-separation
assumptions that the seminormal construction relies on.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from math import gcd

from .polygcd import reduce_fraction


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

    def divide_int(self, g):
        r = LaurentPoly()
        r.terms = {e: c // g for e, c in self.terms.items()}
        return r

    def min_exponent(self):
        return min(self.terms)

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


class ScalarFraction:
    """Element of Q(q, nu) as a canonical pair of Laurent polynomials.

    Canonical: numerator and denominator have no common factor but a unit,
    the denominator's lexicographically least exponent is (0, 0) with a
    positive coefficient, and the common integer content of numerator and
    denominator is divided out.  The constructor reduces any pair whose
    sides both have more than one term; the operators build their results
    in this form directly, with a gcd only where one can be nontrivial.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = _ONE_POLY
        if den.is_zero:
            raise ZeroDivision("division by zero in Q(q, nu)")
        if len(num.terms) > 1 and len(den.terms) > 1:
            num, den = _reduced(num, den)
        self.num, self.den = _normalized(num, den)

    @staticmethod
    def from_int(c):
        return ScalarFraction(LaurentPoly.from_int(c))

    @staticmethod
    def monomial(zq, znu, coeff=1):
        return ScalarFraction(LaurentPoly.monomial(zq, znu, coeff))

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

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num.terms:
            return self
        if not self.num.terms:
            return other
        a, b, c, d = self.num, self.den, other.num, other.den
        if b.terms == d.terms:
            return ScalarFraction(a + c, b)
        if _coprime(b, d):
            # a/b and c/d are reduced and gcd(b, d) is an integer times a
            # monomial, so any common factor of the sum is such a constant
            return _canonical(a * d + c * b, b * d)
        # b/d = b1/d1 in lowest terms, so b * d1 is the lcm of b and d
        b1, d1 = _reduced(b, d)
        if _same_shape(d1, d):
            return _canonical(a * d1 + c * b1, b * d1)
        # gcd(b, d) is a polynomial: the sum may keep a factor of it
        return ScalarFraction(a * d1 + c * b1, b * d1)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(-self.num, self.den)

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
        # is then coprime up to a constant, and so is the product
        a, d = _cross_cancel(self.num, other.den)
        c, b = _cross_cancel(other.num, self.den)
        return _canonical(a * c, b * d)

    __rmul__ = __mul__

    def invert(self):
        if self.num.is_zero:
            raise ZeroDivision("division by zero in Q(q, nu)")
        return _canonical(self.den, self.num)

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
        if self.num.terms == other.num.terms and self.den.terms == other.den.terms:
            return True
        return (self.num * other.den - other.num * self.den).is_zero

    def __hash__(self):
        raise TypeError("ScalarFraction is not hashable (equality is semantic)")

    def evaluate(self, q_value, nu_value):
        d = self.den.evaluate(q_value, nu_value)
        if d == 0:
            raise NonGenericPoint(f"denominator vanishes at q={q_value}, nu={nu_value}")
        return self.num.evaluate(q_value, nu_value) / d

    def __repr__(self):
        return f"<{format_scalar(self)}>"


def _reduced(num, den):
    """num/den with their polynomial gcd divided out (``reduce_fraction``)."""
    nt, dt = reduce_fraction(num.terms, den.terms)
    out_num, out_den = LaurentPoly(), LaurentPoly()
    out_num.terms, out_den.terms = nt, dt
    return out_num, out_den


def _same_shape(p, r):
    """True when p and r have the same exponents up to one shift.  For
    p = r / h that holds exactly when h is an integer times a monomial: an h
    with two or more terms makes r's Newton polygon wider than p's."""
    if len(p.terms) != len(r.terms):
        return False
    (pq, pn), (rq, rn) = p.min_exponent(), r.min_exponent()
    return all((zq - pq + rq, zn - pn + rn) in r.terms for zq, zn in p.terms)


def _coprime(p, r):
    """True when gcd(p, r) is an integer times a monomial by their exponents
    alone: one side is a single term, or one side's terms lie on one line
    and the other side has a lone term on some line parallel to it.

    Terms on one line make a monomial times a polynomial f(t), where
    t = q^a nu^b for the line's primitive direction (a, b), and every
    factor of f(t) is a polynomial in t.  The parallel lines, told apart by
    b zq - a znu (or any multiple of it), split the other side into
    polynomials in t times monomials off the line, so a factor in t divides
    it only by dividing each part; a lone term is a monomial, which no
    polynomial in t with two or more terms divides.
    """
    if len(p.terms) == 1 or len(r.terms) == 1:
        return True
    for line, other in ((p, r), (r, p)):
        (zq0, zn0), *rest = line.terms
        a, b = rest[0][0] - zq0, rest[0][1] - zn0
        if all((zq - zq0) * b == (zn - zn0) * a for zq, zn in rest):
            lines = Counter(b * zq - a * zn for zq, zn in other.terms)
            if 1 in lines.values():
                return True
    return False


def _cross_cancel(num, den):
    """num, den without their common factor, for a numerator of one operand
    of a product and the denominator of the other."""
    if _coprime(num, den):
        return num, den
    return _reduced(num, den)


def _normalized(num, den):
    """The normalized pair for num/den, given that gcd(num, den) is an
    integer times a monomial: the denominator's lexicographically least
    exponent becomes (0, 0) with a positive coefficient, and the common
    integer content is divided out."""
    if num.is_zero:
        return num, _ONE_POLY
    e = den.min_exponent()
    if e != (0, 0):
        num = num.shift(-e[0], -e[1])
        den = den.shift(-e[0], -e[1])
    if den.terms[(0, 0)] < 0:
        num, den = -num, -den
    g = gcd(num.content(), den.content())
    if g > 1:
        num = num.divide_int(g)
        den = den.divide_int(g)
    return num, den


def _canonical(num, den):
    """num/den as a ScalarFraction without a gcd, for a pair whose gcd is
    known to be an integer times a monomial."""
    out = ScalarFraction.__new__(ScalarFraction)
    out.num, out.den = _normalized(num, den)
    return out


class SymbolicField:
    """Field adapter for the symbolic coefficient field Q(q, nu)."""

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
    """
    if n < 0:
        raise ValueError(f"level bound must be >= 0, got {n}")
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


def require_generic(s, n):
    """The point s, checked generic at level n; NonGenericPoint otherwise."""
    if not check_generic(s, n):
        raise NonGenericPoint(
            f"(q={s.q_value}, nu={s.nu_value}) is not generic at level {n}"
        )
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

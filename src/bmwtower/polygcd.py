"""Fraction reduction in Z[q^±1, nu^±1] by trial division over the
genericity base.

Works on the raw term dicts of LaurentPoly, which map exponent pairs
(z_q, z_nu) to nonzero integers.  The base B is the set of primes

- Phi_m(q), the m-th cyclotomic polynomial, for m >= 1 (key ``m``);
- nu q^k - s for k in Z and s = +-1 (key ``(k, s)``); q^k - s nu is a unit
  times the member (-k, s).

Every denominator that the seminormal build and its checks produce is a
product of these: each divides q^(2z) - 1 or nu^2 q^(2z) - 1 for some |z|
<= 2n, which ``scalars.check_generic`` requires to be nonzero.  Each member
is stored normalized (``base_terms``): its lexicographically least exponent
is (0, 0), with coefficient 1.  A member is a constant, built once per
process and shared by every caller.

``split`` factors a polynomial over B by substitution tests, without a gcd:

- nu q^k - s divides P exactly when P(q, s q^-k) = 0, a monomial map.  The
  segment from (0, 0) to (k, 1) is then an edge direction of P's Newton
  polygon (Ostrowski), so the candidate k are read off its edges.
- Phi_m divides P exactly when it divides every nu-row of P.  The test folds
  a row's exponents mod m (q^m = 1 mod Phi_m) and reduces mod Phi_m.  The
  candidate m have phi(m) at most the least q-span of a row; a cheap
  necessary test, Phi_m(2) | row(2), runs first.

What is left after every member of B is divided out is the residual.

The scalars of ``scalars`` are the ring Z[q^±1, nu^±1] localized at B: a
denominator is a product of members of B, and one whose split leaves a
residual other than 1 is refused there (``scalars.OutsideBase``), not
carried.  Every cancellation the scalars make is then by a known member:
``reduce_fraction`` divides a numerator by one member of B when it divides.
A member is prime, so that one trial division decides whether the fraction
is reduced.  Nothing here computes a polynomial gcd.
"""

from __future__ import annotations

from functools import reduce
from math import gcd


# --- the base -----------------------------------------------------------------


def _totient(m):
    out, r, p = m, m, 2
    while p * p <= r:
        if r % p == 0:
            out -= out // p
            while r % p == 0:
                r //= p
        p += 1
    if r > 1:
        out -= out // r
    return out


def _mobius_divisors(m):
    """(d, mu(m/d)) for the divisors d of m with mu(m/d) != 0."""
    primes, r, p = [], m, 2
    while p * p <= r:
        if r % p == 0:
            primes.append(p)
            while r % p == 0:
                r //= p
        p += 1
    if r > 1:
        primes.append(r)
    out = [(m, 1)]
    for p in primes:
        out += [(d // p, -mu) for d, mu in out]
    return out


def _times_binomial(coeffs, d):
    """coeffs * (q^d - 1), coefficient lists from degree 0 up."""
    out = [-c for c in coeffs] + [0] * d
    for i, c in enumerate(coeffs):
        out[i + d] += c
    return out


def _over_binomial(coeffs, d):
    """coeffs / (q^d - 1), exact."""
    out = [0] * (len(coeffs) - d)
    for i in range(len(out)):
        out[i] = -coeffs[i] + (out[i - d] if i >= d else 0)
    return out


def _cyclotomic(m):
    """Coefficients of Phi_m(q) from degree 0 up: the product of q^d - 1
    over mu(m/d) = 1, divided exactly by those over mu(m/d) = -1."""
    pairs = _mobius_divisors(m)
    coeffs = [1]
    for d, mu in pairs:
        if mu == 1:
            coeffs = _times_binomial(coeffs, d)
    for d, mu in pairs:
        if mu == -1:
            coeffs = _over_binomial(coeffs, d)
    return coeffs


def _cyclotomic_at_2(m):
    num = den = 1
    for d, mu in _mobius_divisors(m):
        if mu == 1:
            num *= (1 << d) - 1
        else:
            den *= (1 << d) - 1
    return num // den


class Member(dict):
    """The term dict of a member of B, tagged with its key (and, for Phi_m,
    the coefficients of Phi_m), which the trial division reads."""

    __slots__ = ("key", "phi")


# key -> Member, built once per process: the members are constants, shared by
# every caller and never changed in place
_MEMBERS = {}


def base_terms(key):
    """The normalized member of B for a key: lexicographically least
    exponent (0, 0), with coefficient 1.  The returned dict is shared and
    must not be changed."""
    member = _MEMBERS.get(key)
    if member is None:
        member = _MEMBERS[key] = _member(key)
    return member


def _member(key):
    if isinstance(key, int):
        phi = _cyclotomic(key)
        # Phi_1 = q - 1 is stored as 1 - q
        sign = -1 if key == 1 else 1
        out = Member({(i, 0): sign * c for i, c in enumerate(phi) if c})
        out.phi = phi
    else:
        k, s = key
        out = Member({(0, 0): 1, (k, 1): -s} if k >= 0 else {(0, 0): 1, (-k, -1): -s})
    out.key = key
    return out


# --- rows, tests and exact division ---------------------------------------------


def _rows(terms):
    """{z_nu: {z_q: coeff}}."""
    rows = {}
    for (a, b), c in terms.items():
        row = rows.get(b)
        if row is None:
            rows[b] = {a: c}
        else:
            row[a] = c
    return rows


def _binomial_divides(terms, k, s):
    """True when nu q^k - s divides terms: terms(q, s q^-k) = 0."""
    image = {}
    for (a, b), c in terms.items():
        e = a - k * b
        image[e] = image.get(e, 0) + (-c if s < 0 and b & 1 else c)
    return not any(image.values())


def _divide_binomial(terms, k, s):
    """terms / base_terms((k, s)), for a quotient known to be exact.

    With P = sum_b p_b nu^b and P = (q^k nu - s) R, the rows of R are
    r_(b-1) = q^-k (p_b + s r_b), from the top row down."""
    rows = _rows(terms)
    lo, hi = min(rows), max(rows)
    # base_terms((k, s)) is -s (nu q^k - s), or q^-k nu^-1 (nu q^k - s) when k < 0
    unit, dq, dn = (1, k, 1) if k < 0 else (-s, 0, 0)
    out, r = {}, {}
    for b in range(hi, lo, -1):
        acc = dict(rows.get(b, ()))
        for a, c in r.items():
            acc[a] = acc.get(a, 0) + s * c
        r = {a - k: c for a, c in acc.items() if c}
        for a, c in r.items():
            out[(a + dq, b - 1 + dn)] = unit * c
    return out


def _row_coeffs(row):
    lo = min(row)
    coeffs = [0] * (max(row) - lo + 1)
    for a, c in row.items():
        coeffs[a - lo] = c
    return lo, coeffs


def _remainder(coeffs, phi):
    """coeffs mod the monic phi (both from degree 0 up)."""
    coeffs = list(coeffs)
    d = len(phi) - 1
    for i in range(len(coeffs) - 1, d - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(d):
                coeffs[i - d + j] -= c * phi[j]
            coeffs[i] = 0
    return coeffs[:d]


def _cyclotomic_divides_row(row, m, phi):
    folded = [0] * m
    for a, c in row.items():
        folded[a % m] += c
    return not any(_remainder(folded, phi))


def _divide_cyclotomic(rows, m, phi):
    """rows / base_terms(m), row by row, for a quotient known to be exact."""
    d = len(phi) - 1
    out = {}
    for b, row in rows.items():
        lo, coeffs = _row_coeffs(row)
        quot = [0] * (len(coeffs) - d)
        for i in range(len(quot) - 1, -1, -1):
            c = coeffs[i + d]
            quot[i] = c
            if c:
                for j in range(d):
                    coeffs[i + j] -= c * phi[j]
        # base_terms(1) is 1 - q = -Phi_1
        sign = -1 if m == 1 else 1
        for i, c in enumerate(quot):
            if c:
                out[(lo + i, b)] = sign * c
    return out


def _trial_divide(terms, member):
    """terms / member when the member of B divides terms, else None."""
    key = member.key
    if isinstance(key, int):
        rows = _rows(terms)
        if all(_cyclotomic_divides_row(row, key, member.phi) for row in rows.values()):
            return _divide_cyclotomic(rows, key, member.phi)
    elif _binomial_divides(terms, *key):
        return _divide_binomial(terms, *key)
    return None


def _divide_out(terms, member):
    """(terms / member^j, j) for the largest j with member^j | terms."""
    j = 0
    while True:
        quotient = _trial_divide(terms, member)
        if quotient is None:
            return terms, j
        terms, j = quotient, j + 1


# --- splitting over the base ----------------------------------------------------


def _binomial_candidates(terms):
    """The keys (k, +-1) for which (k, 1) is parallel to an edge of the
    Newton polygon of terms."""
    pts = sorted(terms)
    if len(pts) < 2:
        return []

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    hull = []
    for seq in (pts, pts[::-1]):
        half = []
        for p in seq:
            while len(half) >= 2 and cross(half[-2], half[-1], p) <= 0:
                half.pop()
            half.append(p)
        hull += half[:-1]
    slopes = []
    for (a0, b0), (a1, b1) in zip(hull, hull[1:] + hull[:1]):
        da, db = a1 - a0, b1 - b0
        if db and da % db == 0 and da // db not in slopes:
            slopes.append(da // db)
    return [(k, s) for k in slopes for s in (1, -1)]


def _cyclotomic_candidates(terms):
    """m with phi(m) <= the least q-span of a row, that pass Phi_m(2) | row(2)
    on that row.  phi(m) > m/6 for every m < 2.2e8 (its least value there is
    at 9699690 = 2*3*...*19), so m < 6 * span."""
    row = min(_rows(terms).values(), key=lambda r: max(r) - min(r))
    span = max(row) - min(row)
    if span == 0:
        return []
    lo = min(row)
    at_2 = sum(c << (a - lo) for a, c in row.items())
    out = []
    for m in range(1, 6 * span + 1):
        if _totient(m) > span:
            continue
        if m > 1 and at_2 % _cyclotomic_at_2(m):
            continue
        out.append(m)
    return out


def split(terms):
    """(c, (zq, znu), exps, residual) with terms = c q^zq nu^znu
    prod base_terms(key)^e * residual, where exps maps keys to exponents
    e > 0, c is a nonzero integer, and residual is None (for 1) or a
    normalized primitive term dict that no member of B divides."""
    lo = min(terms)
    c = reduce(gcd, terms.values(), 0)
    if terms[lo] < 0:
        c = -c
    p = {(a - lo[0], b - lo[1]): v // c for (a, b), v in terms.items()}
    exps = {}
    for candidates in (_binomial_candidates, _cyclotomic_candidates):
        for key in candidates(p):
            p, j = _divide_out(p, base_terms(key))
            if j:
                exps[key] = j
    return c, lo, exps, (None if len(p) == 1 else p)


# --- reduction ------------------------------------------------------------------


def reduce_fraction(num_terms, member):
    """num/member in lowest terms, for a member of B: (num / member,
    {(0, 0): 1}) when the member divides num, else (num, member).  The
    member is prime, so one trial division decides."""
    quotient = _trial_divide(num_terms, member)
    if quotient is None:
        return num_terms, member
    return quotient, {(0, 0): 1}

"""Trial division and splitting over the genericity base, against sympy."""

import functools

from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Poly, cyclotomic_poly, symbols
from sympy.polys.rings import ring

from bmwtower import polygcd
from bmwtower.polygcd import base_terms, reduce_fraction, split
from bmwtower.repbuilder import build_rep, level_vertices

exps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
polys = st.dictionaries(exps, st.integers(-5, 5).filter(bool), min_size=1, max_size=4)
# members of the genericity base: Phi_m(q), and nu q^k - s
base_keys = st.one_of(st.integers(1, 12),
                      st.tuples(st.integers(-4, 4), st.sampled_from([1, -1])))

R = ring("q, v", ZZ)[0]
Q = symbols("q")


def _mul(a, b):
    out = {}
    for (e1, f1), c1 in a.items():
        for (e2, f2), c2 in b.items():
            k = (e1 + e2, f1 + f2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _shifted(terms):
    """(terms in R, shifted to nonnegative exponents, and the shift)."""
    mq = min(e[0] for e in terms)
    mv = min(e[1] for e in terms)
    return R.from_dict({(zq - mq, zv - mv): c for (zq, zv), c in terms.items()}), (mq, mv)


def _gcd_is_unit(a, b):
    """True when a and b, shifted to nonnegative exponents, have gcd +-1."""
    g = _shifted(a)[0].gcd(_shifted(b)[0])
    return g.is_ground and g.LC in (1, -1)


@functools.lru_cache(maxsize=None)
def _cyclotomic_terms(m):
    """Phi_m(q) as a term dict, by sympy."""
    coeffs = Poly(cyclotomic_poly(m, Q), Q).all_coeffs()[::-1]
    return {(a, 0): int(c) for a, c in enumerate(coeffs) if c}


def _base_key(factor):
    """The key of the member of the base that the irreducible ``factor`` (in
    R) is up to a unit, or None: Phi_m(q), or c1 v q^a1 + c0 q^a0 =
    c1 q^a0 (v q^(a1 - a0) + c0/c1) with c0, c1 = +-1."""
    terms = dict(factor.terms())
    if all(b == 0 for _, b in terms):
        negated = {e: -c for e, c in terms.items()}
        return next((m for m in range(1, 6 * factor.degree(0) + 1)
                     if _cyclotomic_terms(m) in (terms, negated)), None)
    if len(terms) != 2 or sorted(b for _, b in terms) != [0, 1]:
        return None
    ((a0, _), c0), ((a1, _), c1) = sorted(terms.items(), key=lambda t: t[0][1])
    if abs(c0) != 1 or abs(c1) != 1:
        return None
    return (a1 - a0, -c0 * c1)


def _factors(terms):
    """(factor in R, multiplicity) for the irreducible factors of terms, by
    sympy's factorization."""
    return _shifted(terms)[0].factor_list()[1]


def base_exponents(terms):
    """{key: e} over the irreducible factors of terms that are members of
    the base up to a unit."""
    out = {}
    for f, e in _factors(terms):
        key = _base_key(f)
        if key is not None:
            out[key] = out.get(key, 0) + e
    return out


def outside_base(terms):
    """True when terms has an irreducible factor that is neither a monomial
    nor a member of the base."""
    return any(len(f) > 1 and _base_key(f) is None for f, _ in _factors(terms))


def _times_member(f, key, j):
    """(f * member^j, member) for the member of the base with the key."""
    member = base_terms(key)
    for _ in range(j):
        f = _mul(f, member)
    return f, member


@settings(max_examples=150, deadline=None)
@given(polys, base_keys, st.integers(0, 2))
def test_reduction_preserves_value(f, key, j):
    num, member = _times_member(f, key, j)
    n2, d2 = reduce_fraction(num, member)
    assert d2, "reduced denominator must be nonzero"
    # num/member == n2/d2 via cross multiplication
    assert _mul(num, d2) == _mul(member, n2)


@settings(max_examples=80, deadline=None)
@given(polys, base_keys, st.integers(0, 2))
# (1 - q)(1 + q + q^2) / (1 - q): a 2-term numerator reduces to 3 terms
@example({(0, 0): 1, (1, 0): 1, (2, 0): 1}, 1, 1)
def test_common_factor_removed(f, key, j):
    """reduce_fraction(num, member) is in lowest terms (sympy's gcd), and
    it cancels exactly when the member divides num."""
    num, member = _times_member(f, key, j)
    n2, d2 = reduce_fraction(num, member)
    assert _gcd_is_unit(n2, d2)
    assert (d2 == {(0, 0): 1}) == (j > 0 or not _gcd_is_unit(f, member))


@settings(max_examples=60, deadline=None)
@given(st.lists(base_keys, max_size=3), polys)
# (1 - q)^2 (nu q^2 + 1)(q + 2): a residual left after two base members
@example([1, 1, (2, -1)], {(1, 0): 1, (0, 0): 2})
# (1 - q)(nu q^-1 - 1): Phi_1 and Phi_2 differ by one sign
@example([(-1, 1)], {(1, 0): -1, (0, 0): 1})
def test_split_matches_sympy_factorization(keys, r):
    """split's base exponents of (product of base members) * r are those of
    sympy's factorization, and its parts multiply back to the polynomial."""
    terms = r
    for key in keys:
        terms = _mul(terms, base_terms(key))
    c, lo, exps, residual = split(terms)
    assert exps == base_exponents(terms)
    back = _mul({lo: c}, residual or {(0, 0): 1})
    for key, e in exps.items():
        for _ in range(e):
            back = _mul(back, base_terms(key))
    assert back == terms


def test_shared_members_stay_unchanged():
    """``base_terms`` hands every caller the one Member of its key.  After
    every symbolic irrep with n <= 4 is built and verified, each member
    handed out equals a fresh build of it: no caller changed one."""
    for n in range(5):
        for lam in level_vertices(n):
            build_rep(lam, n)
    assert len(polygcd._MEMBERS) > 1
    for key, member in polygcd._MEMBERS.items():
        fresh = polygcd._member(key)
        assert member == fresh and member.key == fresh.key == key
        assert getattr(member, "phi", None) == getattr(fresh, "phi", None), key

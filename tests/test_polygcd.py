"""Fraction reduction must never change the value of a fraction."""

from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.rings import ring

from bmwtower import polygcd
from bmwtower.polygcd import reduce_fraction
from bmwtower.repbuilder import build_rep, level_vertices

exps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
polys = st.dictionaries(exps, st.integers(-5, 5).filter(bool), min_size=1, max_size=4)


def _mul(a, b):
    out = {}
    for (e1, f1), c1 in a.items():
        for (e2, f2), c2 in b.items():
            k = (e1 + e2, f1 + f2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys)
def test_reduction_preserves_value(f, g, h):
    num = _mul(f, g)
    den = _mul(f, h)
    if not num or not den:
        return
    n2, d2 = reduce_fraction(num, den)
    assert d2, "reduced denominator must be nonzero"
    # num/den == n2/d2 via cross multiplication
    assert _mul(num, d2) == _mul(den, n2)


def _gcd(a, b):
    """The gcd in Z[q, v] of a and b, each shifted to nonnegative exponents."""
    r = ring("q, v", ZZ)[0]

    def poly(terms):
        mq = min(e[0] for e in terms)
        mv = min(e[1] for e in terms)
        return r.from_dict({(zq - mq, zv - mv): c for (zq, zv), c in terms.items()})

    return poly(a).gcd(poly(b))


def _gcd_is_unit(a, b):
    """True when a and b, shifted to nonnegative exponents, have gcd +-1."""
    g = _gcd(a, b)
    return g.is_ground and g.LC in (1, -1)


@settings(max_examples=80, deadline=None)
@given(polys, polys)
# (1 - q)(1 + q + q^2) / (1 - q)^2: a 2-term numerator reduces to 3 terms
@example({(0, 0): 1, (1, 0): -1}, {(0, 0): 1, (1, 0): 1, (2, 0): 1})
def test_common_factor_removed(f, g):
    num = _mul(f, g)
    den = _mul(f, f)
    if not num or not den:
        return
    n2, d2 = reduce_fraction(num, den)
    assert _gcd_is_unit(n2, d2)
    assert _mul(num, d2) == _mul(den, n2)


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

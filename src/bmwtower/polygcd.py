"""Bivariate polynomial gcd for fraction reduction.

Works on the raw term dicts of LaurentPoly.  Both sides are shifted to
nonnegative exponents and reduced by their gcd in sympy's sparse ring
Z[q, nu].  sympy is imported inside ``reduce_fraction``, so runs that never
reduce a symbolic fraction (rational mode, the combinatorial commands) never
import it.  Laurent monomial units are irrelevant here: callers normalize
monomial content separately.

``scalars`` calls it on a fraction whose sides both have more than one
term, on the two denominators of a sum, and on a numerator and the other
operand's denominator in a product; the ``scalars`` module docstring says
when.
"""

from __future__ import annotations


def _shift_min(terms):
    minq = min(e[0] for e in terms)
    minn = min(e[1] for e in terms)
    return {(zq - minq, zn - minn): c for (zq, zn), c in terms.items()}, (minq, minn)


def reduce_fraction(num_terms, den_terms):
    """Divide out the polynomial gcd of a numerator/denominator term-dict
    pair.  Returns new dicts (exponents shifted; callers renormalize
    monomial content afterwards)."""
    from sympy import ZZ
    from sympy.polys.rings import ring

    global _RING
    if _RING is None:
        _RING = ring("q, v", ZZ)[0]
    nt, (nq, nn) = _shift_min(num_terms)
    dt, (dq, dn) = _shift_min(den_terms)
    pn = _RING.from_dict(nt)
    pd = _RING.from_dict(dt)
    # the gcd and both cofactors from one call: no trial division after it
    g, pn, pd = pn.cofactors(pd)
    if not g.is_ground or g.LC not in (1, -1):
        nt = {m: int(c) for m, c in pn.to_dict().items()}
        dt = {m: int(c) for m, c in pd.to_dict().items()}
    # undo the relative monomial shift so the fraction's value is unchanged
    if (nq, nn) != (dq, dn):
        nt = {(zq + nq - dq, zn + nn - dn): c for (zq, zn), c in nt.items()}
    return nt, dt


_RING = None

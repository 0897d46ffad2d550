"""The closed-form block normalization.

Each block's scales come from one formula in its tokens and kappa weights,
so the symbolic rep specializes entry by entry to the rational one, and the
braid test made while building passes at every position, also under the
flipped content convention and at the benchmark's points.
"""

from fractions import Fraction

import pytest

from bmwtower import repbuilder as rb
from bmwtower.scalars import GenericSpecialization, check_generic, specialize

from conftest import RATIONAL, cached_rep, level_vertices

POINTS = [(2, 3), (3, 5), (-2, 5), (Fraction(1, 2), 7), (5, -3), (2, 2)]


def generic_points(n):
    fields = [GenericSpecialization(q, nu) for q, nu in POINTS]
    return [s for s in fields if check_generic(s, n)]


def matrices(rep):
    return rep.sigma + rep.kappa + rep.y


@pytest.mark.parametrize("n", range(1, 5))
def test_specialized_symbolic_equals_rational(n):
    points = generic_points(n)
    assert len(points) >= 4  # (2, 2) is not generic: nu^2 = q^2
    for s in points:
        for lam in level_vertices(n):
            sym = cached_rep(lam, n)
            rat = rb.build_rep(lam, n, field=s, verify=False)
            assert rat.paths == sym.paths
            for a, b in zip(matrices(sym), matrices(rat), strict=True):
                assert [[specialize(x, s) for x in row] for row in a.rows] == b.rows


@pytest.mark.parametrize("n", range(1, 7))
def test_flipped_convention_builds_and_verifies(n):
    """build_rep raises on a failed braid test or a failed relation."""
    reordered = 0
    for lam in level_vertices(n):
        rep = rb.build_rep(lam, n, field=RATIONAL, flip=True)
        reordered += rep.paths != cached_rep(lam, n, "rational").paths
    assert reordered or n < 3


@pytest.mark.parametrize("point", [(2, 5), (-2, 5), (2, -5), (-2, -5)])
def test_level_7_passes_the_braid_test(point):
    field = GenericSpecialization(*point)
    assert check_generic(field, 7)
    for lam in level_vertices(7):
        rb.build_rep(lam, 7, field=field, verify=False)

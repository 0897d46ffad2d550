"""The closed-form block normalization and its kappa weights.

Each block's scales come from one formula in its tokens and the quantum
dimensions of its diagrams, so the symbolic rep specializes entry by entry
to the rational one, at fixed and at random generic points, and the braid
test made while building passes at every position, also under the flipped
content convention and at the benchmark's points.  The kappa weights
Delta(lambda)/Delta(mu) equal the Vandermonde solve against the central
scalars entry by entry, in both content conventions.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bmwtower import combinatorics as comb
from bmwtower import repbuilder as rb
from bmwtower import spectrum as spec
from bmwtower.scalars import SYMBOLIC, GenericSpecialization, check_generic, specialize

from conftest import RATIONAL, cached_rep, level_vertices
from dense_oracle import vandermonde_kappa_weights

POINTS = [(2, 3), (3, 5), (-2, 5), (Fraction(1, 2), 7), (5, -3), (2, 2)]
BENCHMARK_POINTS = [(2, 5), (-2, 5), (2, -5), (-2, -5)]


def generic_points(n):
    fields = [GenericSpecialization(q, nu) for q, nu in POINTS]
    return [s for s in fields if check_generic(s, n)]


def entries(rep):
    """Every stored entry: those of the sigma and kappa blocks, then the y
    diagonals."""
    blocks = [m for mats in rep.sigma + rep.kappa for m in mats]
    return [x for m in blocks for row in m.rows for x in row] + [
        x for d in rep.y for x in d
    ]


def assert_symbolic_specializes(n, s):
    """Every irrep at level n, built at the point s, is the symbolic one
    evaluated at s, entry by entry."""
    for lam in level_vertices(n):
        sym = cached_rep(lam, n)
        rat = rb.build_rep(lam, n, field=s, verify=False)
        assert rat.paths == sym.paths
        assert rat.blocks == sym.blocks
        assert [specialize(x, s) for x in entries(sym)] == entries(rat)


@pytest.mark.parametrize("n", range(1, 5))
def test_specialized_symbolic_equals_rational(n):
    points = generic_points(n)
    assert len(points) >= 4  # (2, 2) is not generic: nu^2 = q^2
    for s in points:
        assert_symbolic_specializes(n, s)


@pytest.mark.parametrize("flip", [False, True], ids=["content", "flipped"])
@pytest.mark.parametrize(
    "field, top",
    [(SYMBOLIC, 4)] + [(GenericSpecialization(*p), 6) for p in BENCHMARK_POINTS],
    ids=["symbolic"] + [f"q={q},nu={nu}" for q, nu in BENCHMARK_POINTS],
)
def test_weights_match_the_vandermonde_oracle(field, top, flip):
    """Delta(nu)/Delta(mu) is the Vandermonde weight of every step mu -> nu
    with mu through level ``top``: every weight a build of level top + 2
    reads."""
    for k in range(top + 1):
        for mu in level_vertices(k):
            prefix = spec.content_string(comb.enumerate_paths(mu, k)[0], flip)
            steps = comb.neighbors(mu)
            tokens = [spec.content_string((mu, nb), flip)[0] for nb in steps]
            oracle = vandermonde_kappa_weights(prefix, tokens, field)
            base = rb.quantum_dimension(mu, field, flip)
            for nb, tok in zip(steps, tokens, strict=True):
                assert rb.quantum_dimension(nb, field, flip) / base == oracle[tok]


nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)


@settings(max_examples=100, deadline=None)
@given(q=nonzero, nu=nonzero, n=st.integers(1, 6))
def test_random_generic_point(q, nu, n):
    """At a point that check_generic accepts at level n, Delta is finite and
    nonzero on every diagram through level n (see ``quantum_dimension``),
    and the symbolic irreps specialize to the rational ones at n <= 3."""
    s = GenericSpecialization(q, nu)
    assume(check_generic(s, n))
    for k in range(n + 1):
        for lam in level_vertices(k):
            for flip in (False, True):
                assert rb.quantum_dimension(lam, s, flip) != 0
    assert_symbolic_specializes(min(n, 3), s)


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

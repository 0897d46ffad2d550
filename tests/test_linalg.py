"""Zero-skipping elementwise kernels of Matrix, and its scaled-integer
kernels at a rational point against the entrywise Fraction kernels."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmwtower.linalg import Matrix
from bmwtower.scalars import SYMBOLIC

from conftest import RATIONAL
from dense_oracle import DenseMatrix

# mostly zeros, like the seminormal generators
entries = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
factors = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=4))


@st.composite
def matrix_pairs(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    rows = st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n)
    return draw(rows), draw(rows)


def _plain(op, a, b):
    return [[op(x, y) for x, y in zip(r, s)] for r, s in zip(a, b)]


def _check_kernels(a_rows, b_rows, c, field):
    a = Matrix(a_rows, field)
    b = Matrix(b_rows, field)
    assert (a + b).rows == _plain(lambda x, y: x + y, a_rows, b_rows)
    assert (a - b).rows == _plain(lambda x, y: x - y, a_rows, b_rows)
    assert a.scale(c).rows == [[c * x for x in r] for r in a_rows]
    if a.n == a.m:
        assert a.shift(c).rows == [
            [x + c if i == j else x for j, x in enumerate(r)] for i, r in enumerate(a_rows)
        ]
        d = b_rows[0]
        assert a.bracket(d).rows == [
            [x * (d[j] - d[i]) for j, x in enumerate(r)] for i, r in enumerate(a_rows)
        ]
    # the inputs are left as they were
    assert a.rows == a_rows and b.rows == b_rows


@settings(max_examples=200, deadline=None)
@given(matrix_pairs(), factors)
def test_kernels_match_entrywise_formulas(pair, c):
    _check_kernels(*pair, c, RATIONAL)


Q = SYMBOLIC.q
NU = SYMBOLIC.nu
ZERO = SYMBOLIC.zero


@pytest.mark.parametrize("a_rows, b_rows, c", [
    ([[Q, ZERO], [ZERO, NU]], [[ZERO, NU / Q], [ZERO, -NU]], Q - 1 / Q),
    ([[ZERO, ZERO], [Q * NU, ZERO]], [[Q, ZERO], [ZERO, ZERO]], ZERO),
    ([[(Q + NU) / (Q - NU), ZERO, ZERO]], [[(Q - NU) / (Q + NU), ZERO, Q]], NU),
    ([[ZERO]], [[ZERO]], Q),
])
def test_kernels_on_scalar_fractions(a_rows, b_rows, c):
    _check_kernels(a_rows, b_rows, c, SYMBOLIC)


# rational entries with large numerators and denominators, so that sums and
# products have common factors to cancel
wide = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-40, max_value=40, max_denominator=36),
)


@st.composite
def product_operands(draw):
    """a (n x k), b (k x m), c (n x k) and a scalar; any of the three may be
    all zeros, and every one may hold negative entries."""
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))

    def matrix(rows, cols):
        if draw(st.booleans()) and draw(st.booleans()):
            return [[Fraction(0)] * cols for _ in range(rows)]
        return draw(st.lists(st.lists(wide, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    return matrix(n, k), matrix(k, m), matrix(n, k), draw(wide)


def _assert_canonical(mat):
    ints, den = mat._exact()
    assert den > 0
    assert gcd(den, *(x for r in ints for x in r)) == 1


@settings(max_examples=200, deadline=None)
@given(product_operands())
def test_integer_kernels_match_entrywise_fractions(operands):
    """Every kernel of the scaled-integer form gives the entries that the
    entrywise Fraction kernels of the dense oracle give (the bracket with a
    diagonal there is the commutator of two products), and every result is
    canonical: positive denominator, gcd 1 with its integers."""
    a_rows, b_rows, c_rows, s = operands
    a, b, c = (Matrix(r, RATIONAL) for r in (a_rows, b_rows, c_rows))
    da, db, dc = (DenseMatrix(r, RATIONAL) for r in (a_rows, b_rows, c_rows))
    results = [
        (a * b, da * db),
        (a + c, da + dc),
        (a - c, da - dc),
        (-a, -da),
        (a.scale(s), da.scale(s)),
    ]
    if a.n == a.m:
        results.append((a.shift(s), da.shift(s)))
        results.append((a.shift(s) * a.shift(-s), da.shift(s) * da.shift(-s)))
        results.append((a.bracket(c_rows[0]), da.bracket(c_rows[0])))
    for got, want in results:
        _assert_canonical(got)
        assert got.rows == want.rows
        assert got.equals(Matrix(want.rows, RATIONAL))
        assert got.is_zero == want.is_zero
    assert a.is_zero == da.is_zero
    assert (a - a).is_zero and (a - a).equals(Matrix.zero(a.n, a.m, RATIONAL))
    assert (a + a).equals(a.scale(Fraction(2)))
    assert a.equals(c) == da.equals(dc) == (a_rows == c_rows)
    assert (a + c).equals(c + a) and (a * b).equals(Matrix(da.rows, RATIONAL) * b)


@st.composite
def placed_blocks(draw):
    """Square blocks of sizes 1-3 with their own denominators, and disjoint
    index lists for them in a matrix one larger than their total size."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    size = sum(sizes) + 1
    order = draw(st.permutations(range(size)))
    parts, start = [], 0
    for k in sizes:
        rows = draw(st.lists(st.lists(wide, min_size=k, max_size=k),
                             min_size=k, max_size=k))
        parts.append((sorted(order[start:start + k]), rows))
        start += k
    return size, parts


@settings(max_examples=150, deadline=None)
@given(placed_blocks())
def test_direct_sum_matches_entrywise_placement(placed):
    """Blocks of different denominators placed on disjoint index lists give
    the entries of the entrywise placement, in canonical form."""
    size, parts = placed
    got = Matrix.direct_sum(size, [(i, Matrix(r, RATIONAL)) for i, r in parts], RATIONAL)
    want = DenseMatrix.direct_sum(
        size, [(i, DenseMatrix(r, RATIONAL)) for i, r in parts], RATIONAL)
    _assert_canonical(got)
    assert got.rows == want.rows

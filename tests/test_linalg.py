"""Zero-skipping elementwise kernels of Matrix."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmwtower.linalg import Matrix
from bmwtower.scalars import SYMBOLIC

from conftest import RATIONAL

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

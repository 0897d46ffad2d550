"""Small dense matrices over an exact field.

Entries are whatever the active field adapter produces (ScalarFraction in
symbolic mode, fractions.Fraction in rational mode); all that is required
of them is +, -, *, /, truthiness of nonzero and semantic ==.  Storage is
dense, but the elementwise kernels and products skip zero entries, since
block and class matrices are mostly zeros.  The representations keep only
the blocks of sigma and kappa and the diagonals of the Jucys-Murphy
elements (``repbuilder.SeminormalRep``), and no whole matrix is assembled
from them except the chain Hamiltonian's bulk (``chains``).  Sizes stay in
the tens to low hundreds, so inversion and linear solves are plain
Gauss-Jordan; the package itself performs neither, and both serve the
dense test oracles.
"""

from __future__ import annotations


class SingularMatrix(ArithmeticError):
    pass


class Matrix:
    __slots__ = ("rows", "n", "m", "field")

    def __init__(self, rows, field, _copy=True):
        self.rows = [list(r) for r in rows] if _copy else rows
        self.n = len(self.rows)
        self.m = len(self.rows[0]) if self.rows else 0
        self.field = field

    @classmethod
    def zero(cls, n, m, field):
        z = field.zero
        return cls([[z] * m for _ in range(n)], field, _copy=False)

    @classmethod
    def identity(cls, n, field):
        out = cls.zero(n, n, field)
        for i in range(n):
            out.rows[i][i] = field.one
        return out

    @classmethod
    def diagonal(cls, entries, field):
        out = cls.zero(len(entries), len(entries), field)
        for i, e in enumerate(entries):
            out.rows[i][i] = e
        return out

    def copy(self):
        return Matrix(self.rows, self.field)

    def __add__(self, other):
        return Matrix(
            [[a + b if b else a for a, b in zip(r, s)]
             for r, s in zip(self.rows, other.rows)],
            self.field,
            _copy=False,
        )

    def __sub__(self, other):
        return Matrix(
            [[a - b if b else a for a, b in zip(r, s)]
             for r, s in zip(self.rows, other.rows)],
            self.field,
            _copy=False,
        )

    def __neg__(self):
        return Matrix([[-a for a in r] for r in self.rows], self.field, _copy=False)

    def scale(self, c):
        return Matrix(
            [[c * a if a else a for a in r] for r in self.rows], self.field, _copy=False
        )

    def __mul__(self, other):
        z = self.field.zero
        out = [[z] * other.m for _ in range(self.n)]
        for i, row in enumerate(self.rows):
            orow = out[i]
            for k, x in enumerate(row):
                if not x:
                    continue
                brow = other.rows[k]
                for j, y in enumerate(brow):
                    if y:
                        orow[j] = orow[j] + x * y
        return Matrix(out, self.field, _copy=False)

    def shift(self, c):
        """self + c * identity."""
        out = self.copy()
        for i in range(self.n):
            out.rows[i][i] = out.rows[i][i] + c
        return out

    @property
    def is_zero(self):
        return all(not x for r in self.rows for x in r)

    def equals(self, other):
        if self.n != other.n or self.m != other.m:
            return False
        return all(
            a == b for r, s in zip(self.rows, other.rows) for a, b in zip(r, s)
        )

    # not called in the package; perfbench/tracing.py wraps Matrix.inverse by name
    def inverse(self):
        if self.n != self.m:
            raise SingularMatrix("not square")
        n = self.n
        f = self.field
        a = [list(r) for r in self.rows]
        b = [list(r) for r in Matrix.identity(n, f).rows]
        for col in range(n):
            piv = None
            for r in range(col, n):
                if a[r][col]:
                    piv = r
                    break
            if piv is None:
                raise SingularMatrix("singular matrix")
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                b[col], b[piv] = b[piv], b[col]
            p = a[col][col]
            pinv = f.one / p
            a[col] = [x * pinv for x in a[col]]
            b[col] = [x * pinv for x in b[col]]
            for r in range(n):
                if r == col:
                    continue
                fac = a[r][col]
                if not fac:
                    continue
                a[r] = [x - fac * y for x, y in zip(a[r], a[col])]
                b[r] = [x - fac * y for x, y in zip(b[r], b[col])]
        return Matrix(b, f, _copy=False)

    def __repr__(self):
        return f"Matrix({self.n}x{self.m} over {self.field.name})"


def solve(a, rhs):
    """Solve a x = rhs for a square matrix and a right-hand-side vector."""
    n = a.n
    f = a.field
    m = [list(row) + [r] for row, r in zip(a.rows, rhs)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            raise SingularMatrix("singular linear system")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        pinv = f.one / p
        m[col] = [x * pinv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                fac = m[r][col]
                m[r] = [x - fac * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]

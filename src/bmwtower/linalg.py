"""Small dense matrices over an exact field.

In symbolic mode the entries are ScalarFraction values; all that is
required of them is +, -, *, /, truthiness of nonzero and semantic ==.
At a rational point a matrix is held as one list of rows of Python ints
and one positive integer denominator, the scaled-integer (fraction-free)
form: the matrix is ints/den, with gcd(den, every entry) = 1.  That form
is canonical, so two rational matrices are equal exactly when their
denominators and their integer rows are, and every sum, product, scalar
multiple, shift and bracket with a diagonal is integer arithmetic
followed by one gcd pass over the result.  Clearing a denominator multiplies by a nonzero integer, so
each comparison stays exact.  ``rows``, the entries as
``fractions.Fraction`` values, is formed from the integers only when it is
read; a matrix made from rows keeps them and forms its integers on its
first use in arithmetic.  Rows may be written only on a matrix made from
rows (the constructor, ``zero``, ``copy``) and before it enters
arithmetic.  Only this module reads the integer form.

Storage is dense, and the kernels skip zero entries, since block and
class matrices are mostly zeros.  The representations keep only the
blocks of sigma and kappa and the diagonals of the Jucys-Murphy elements
(``repbuilder.SeminormalRep``), and no whole matrix is assembled from them
except the chain Hamiltonian's bulk (``chains``); the class matrices of
the verifier are direct sums of blocks (``direct_sum``).  Sizes stay in
the tens to low hundreds, so inversion and linear solves are plain
Gauss-Jordan over the entries; the package itself performs neither.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class SingularMatrix(ArithmeticError):
    pass


def _canonical(ints, den):
    """ints/den with the gcd of den and every entry divided out."""
    g = den
    for r in ints:
        g = gcd(g, *r)
        if g == 1:
            return ints, den
    return [[x // g for x in r] for r in ints], den // g


def _scaled_rows(rows, zero=None):
    """Integer rows and the least common denominator of rows of rational
    entries: rows[r][c] = ints[r][c] / den.  The form is canonical, since
    den is the lcm of the entries' reduced denominators.  Entries that are
    the object ``zero`` are read as 0 without a call."""
    pairs = [[(0, 1) if x is zero else x.as_integer_ratio() for x in r] for r in rows]
    den = lcm(*{d for r in pairs for _, d in r})
    return [[p if d == den else p * (den // d) for p, d in r] for r in pairs], den


class Matrix:
    __slots__ = ("_rows", "_ints", "_den", "n", "m", "field")

    def __init__(self, rows, field, _copy=True):
        self._rows = [list(r) for r in rows] if _copy else rows
        self._ints = None
        self.n = len(self._rows)
        self.m = len(self._rows[0]) if self._rows else 0
        self.field = field

    @classmethod
    def _of_ints(cls, ints, den, m, field):
        """The rational matrix ints/den; (ints, den) must be canonical."""
        out = cls.__new__(cls)
        out._rows = None
        out._ints = ints
        out._den = den
        out.n = len(ints)
        out.m = m
        out.field = field
        return out

    def _exact(self):
        """(ints, den) at a rational point, formed from the rows on first
        use; None in symbolic mode."""
        if self._ints is None:
            if self.field.name != "rational":
                return None
            self._ints, self._den = _scaled_rows(self._rows, self.field.zero)
        return self._ints, self._den

    @property
    def rows(self):
        """The entries, a list of rows; at a rational point, Fractions
        formed from the integers when first read."""
        if self._rows is None:
            z = self.field.zero
            d = self._den
            self._rows = [[Fraction(x, d) if x else z for x in r] for r in self._ints]
        return self._rows

    @classmethod
    def zero(cls, n, m, field):
        z = field.zero
        return cls([[z] * m for _ in range(n)], field, _copy=False)

    @classmethod
    def identity(cls, n, field):
        return cls.diagonal([field.one] * n, field)

    @classmethod
    def diagonal(cls, entries, field):
        n = len(entries)
        if field.name == "rational":
            (d,), den = _scaled_rows([entries])
            ints = [[0] * n for _ in range(n)]
            for i, x in enumerate(d):
                ints[i][i] = x
            return cls._of_ints(ints, den, n, field)
        out = cls.zero(n, n, field)
        for i, e in enumerate(entries):
            out._rows[i][i] = e
        return out

    @classmethod
    def direct_sum(cls, size, parts, field):
        """The size x size matrix with each (indices, block) of ``parts``
        on the rows and columns ``indices`` and zero elsewhere; the index
        lists must not overlap.

        At a rational point each block's integers are rescaled to the lcm
        L of the blocks' denominators.  That needs no gcd pass: a prime
        dividing L divides some block's denominator to the full power it
        has in L, and that block has an entry it does not divide, whose
        rescaling factor it does not divide either.
        """
        if field.name == "rational":
            exact = [(idx, block._exact()) for idx, block in parts]
            den = lcm(*(d for _, (_, d) in exact))
            out = [[0] * size for _ in range(size)]
            for idx, (ints, d) in exact:
                k = den // d
                for a, small in zip(idx, ints):
                    row = out[a]
                    for b, x in zip(idx, small):
                        row[b] = x * k
            return cls._of_ints(out, den, size, field)
        out = cls.zero(size, size, field)
        for idx, block in parts:
            for a, small in zip(idx, block.rows):
                row = out._rows[a]
                for b, x in zip(idx, small):
                    row[b] = x
        return out

    def copy(self):
        return Matrix(self.rows, self.field)

    def __add__(self, other):
        a = self._exact()
        if a is not None:
            return self._combine(a, other._exact(), 1)
        return Matrix(
            [[x + y if y else x for x, y in zip(r, s)]
             for r, s in zip(self._rows, other.rows)],
            self.field,
            _copy=False,
        )

    def __sub__(self, other):
        a = self._exact()
        if a is not None:
            return self._combine(a, other._exact(), -1)
        return Matrix(
            [[x - y if y else x for x, y in zip(r, s)]
             for r, s in zip(self._rows, other.rows)],
            self.field,
            _copy=False,
        )

    def _combine(self, a, b, sign):
        """ints/den of a + sign * b for exact forms a, b of one shape."""
        (ai, ad), (bi, bd) = a, b
        den = lcm(ad, bd)
        ka, kb = den // ad, sign * (den // bd)
        if ka == 1:
            out = [[x + kb * y for x, y in zip(r, s)] for r, s in zip(ai, bi)]
        else:
            out = [[ka * x + kb * y for x, y in zip(r, s)] for r, s in zip(ai, bi)]
        return Matrix._of_ints(*_canonical(out, den), self.m, self.field)

    def __neg__(self):
        a = self._exact()
        if a is not None:
            ints, den = a
            return Matrix._of_ints([[-x for x in r] for r in ints], den, self.m, self.field)
        return Matrix([[-x for x in r] for r in self._rows], self.field, _copy=False)

    def scale(self, c):
        a = self._exact()
        if a is not None:
            ints, den = a
            p, d = c.as_integer_ratio()
            out = [[p * x for x in r] for r in ints]
            return Matrix._of_ints(*_canonical(out, den * d), self.m, self.field)
        return Matrix(
            [[c * x if x else x for x in r] for r in self._rows], self.field, _copy=False
        )

    def __mul__(self, other):
        a = self._exact()
        if a is not None:
            (ai, ad), (bi, bd) = a, other._exact()
            m = other.m
            out = []
            for row in ai:
                orow = [0] * m
                for x, brow in zip(row, bi):
                    if x:
                        for j, y in enumerate(brow):
                            if y:
                                orow[j] += x * y
                out.append(orow)
            return Matrix._of_ints(*_canonical(out, ad * bd), m, self.field)
        z = self.field.zero
        orows = other.rows
        out = [[z] * other.m for _ in range(self.n)]
        for i, row in enumerate(self._rows):
            orow = out[i]
            for k, x in enumerate(row):
                if not x:
                    continue
                brow = orows[k]
                for j, y in enumerate(brow):
                    if y:
                        orow[j] = orow[j] + x * y
        return Matrix(out, self.field, _copy=False)

    def shift(self, c):
        """self + c * identity."""
        a = self._exact()
        if a is not None:
            ints, den = a
            p, d = c.as_integer_ratio()
            new = lcm(den, d)
            k, add = new // den, p * (new // d)
            out = [[k * x for x in r] for r in ints]
            for i in range(self.n):
                out[i][i] += add
            return Matrix._of_ints(*_canonical(out, new), self.m, self.field)
        out = self.copy()
        for i in range(self.n):
            out._rows[i][i] = out._rows[i][i] + c
        return out

    def bracket(self, d):
        """[self, diag(d)] for a square self: entry (r, c) is
        self[r][c] (d[c] - d[r]), zero on the diagonal and wherever self
        is zero."""
        a = self._exact()
        if a is not None:
            ints, den = a
            (e,), scale = _scaled_rows([d])
            out = [[x * (e[c] - e[r]) if x and r != c else 0 for c, x in enumerate(row)]
                   for r, row in enumerate(ints)]
            return Matrix._of_ints(*_canonical(out, den * scale), self.m, self.field)
        zero = self.field.zero
        return Matrix(
            [[x * (d[c] - d[r]) if x and r != c else zero for c, x in enumerate(row)]
             for r, row in enumerate(self._rows)],
            self.field,
            _copy=False,
        )

    @property
    def is_zero(self):
        a = self._exact()
        if a is not None:
            return not any(map(any, a[0]))
        return all(not x for r in self._rows for x in r)

    def equals(self, other):
        if self.n != other.n or self.m != other.m:
            return False
        if isinstance(other, Matrix):
            a = self._exact()
            if a is not None:
                return a == other._exact()
        return all(
            x == y for r, s in zip(self.rows, other.rows) for x, y in zip(r, s)
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

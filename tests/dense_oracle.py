"""Dense references for the structured code in ``bmwtower``.

Every reference works on the whole dim x dim matrices (``dense_parts``:
sigma_i and kappa_i assembled from their blocks by ``dense_matrix``, each
y as a diagonal matrix).  The relation verifier proves every relation with dim x dim
products, including ``y_commute``, and sigma^{-1} comes from Gauss-Jordan
elimination, so nothing here relies on the block structure of the
seminormal generators; a singular sigma raises ``SingularMatrix``.  The
central scalars, power sums and intertwiners treat every y as a dense
matrix: powers are repeated products and inverses come from Gauss-Jordan.
The chain's bulk sum adds every entry, zero or not.  All of it is
slow and kept for tests at small n only.  The kappa weights of a diagram's
steps solve a Vandermonde system against the central generating function
instead of reading the quantum dimensions.

The matrices here are ``DenseMatrix``: entry lists with entrywise kernels
over the field's own scalars (``fractions.Fraction`` at a rational point),
so no reference runs through the scaled-integer kernels of
``bmwtower.linalg.Matrix``.  ``entrywise_kernels`` puts the same kernels
on ``Matrix`` itself, so that the package's block verifier can run over
them too.
"""

from contextlib import contextmanager

from bmwtower import central as cen
from bmwtower.central import CentralityViolated
from bmwtower.linalg import Matrix, SingularMatrix
from bmwtower.repbuilder import Report
from bmwtower.scalars import TruncatedSeries


class DenseMatrix:
    """Rows of field entries with entrywise, zero-skipping kernels.

    The methods read and write only ``rows``, ``n``, ``m`` and ``field``
    and build results with ``type(self)``, so ``entrywise_kernels`` can
    lend them to ``Matrix``.
    """

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
        return cls.diagonal([field.one] * n, field)

    @classmethod
    def diagonal(cls, entries, field):
        out = cls.zero(len(entries), len(entries), field)
        for i, e in enumerate(entries):
            out.rows[i][i] = e
        return out

    @classmethod
    def direct_sum(cls, size, parts, field):
        out = cls.zero(size, size, field)
        for idx, block in parts:
            for a, small in zip(idx, block.rows):
                row = out.rows[a]
                for b, x in zip(idx, small):
                    row[b] = x
        return out

    def copy(self):
        return type(self)(self.rows, self.field)

    def __add__(self, other):
        return type(self)(
            [[a + b if b else a for a, b in zip(r, s)]
             for r, s in zip(self.rows, other.rows)],
            self.field,
            _copy=False,
        )

    def __sub__(self, other):
        return type(self)(
            [[a - b if b else a for a, b in zip(r, s)]
             for r, s in zip(self.rows, other.rows)],
            self.field,
            _copy=False,
        )

    def __neg__(self):
        return type(self)([[-a for a in r] for r in self.rows], self.field, _copy=False)

    def scale(self, c):
        return type(self)(
            [[c * a if a else a for a in r] for r in self.rows], self.field, _copy=False
        )

    def __mul__(self, other):
        z = self.field.zero
        orows = other.rows
        out = [[z] * other.m for _ in range(self.n)]
        for i, row in enumerate(self.rows):
            orow = out[i]
            for k, x in enumerate(row):
                if not x:
                    continue
                for j, y in enumerate(orows[k]):
                    if y:
                        orow[j] = orow[j] + x * y
        return type(self)(out, self.field, _copy=False)

    def shift(self, c):
        """self + c * identity."""
        out = self.copy()
        for i in range(self.n):
            out.rows[i][i] = out.rows[i][i] + c
        return out

    def bracket(self, d):
        """[self, diag(d)], entry by entry: self[r][c] (d[c] - d[r])."""
        return self * type(self).diagonal(d, self.field) - (
            type(self).diagonal(d, self.field) * self)

    @property
    def is_zero(self):
        return all(not x for r in self.rows for x in r)

    def equals(self, other):
        if self.n != other.n or self.m != other.m:
            return False
        return all(
            a == b for r, s in zip(self.rows, other.rows) for a, b in zip(r, s)
        )

    def inverse(self):
        """Gauss-Jordan over the entries; raises SingularMatrix."""
        if self.n != self.m:
            raise SingularMatrix("not square")
        n = self.n
        f = self.field
        a = [list(r) for r in self.rows]
        b = [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                raise SingularMatrix("singular matrix")
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
            pinv = f.one / a[col][col]
            a[col] = [x * pinv for x in a[col]]
            b[col] = [x * pinv for x in b[col]]
            for r in range(n):
                fac = a[r][col]
                if r == col or not fac:
                    continue
                a[r] = [x - fac * y for x, y in zip(a[r], a[col])]
                b[r] = [x - fac * y for x, y in zip(b[r], b[col])]
        return type(self)(b, f, _copy=False)


def solve(a, rhs):
    """Solve a x = rhs for a square matrix and a right-hand-side vector."""
    n = a.n
    f = a.field
    m = [list(row) + [r] for row, r in zip(a.rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            raise SingularMatrix("singular linear system")
        m[col], m[piv] = m[piv], m[col]
        pinv = f.one / m[col][col]
        m[col] = [x * pinv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                fac = m[r][col]
                m[r] = [x - fac * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


KERNELS = ("__add__", "__sub__", "__neg__", "scale", "__mul__", "shift",
           "bracket", "is_zero", "equals")
CONSTRUCTORS = ("identity", "diagonal", "direct_sum")


@contextmanager
def entrywise_kernels():
    """``Matrix`` with the entrywise kernels of ``DenseMatrix`` in place of
    its own, and with its scaled-integer form refused: while active, every
    matrix the package makes holds its entries as rows, and every sum,
    product and comparison is made entry by entry over the field."""

    def refuse(self):
        raise AssertionError("the scaled-integer form was used")

    saved = {name: Matrix.__dict__[name] for name in KERNELS + CONSTRUCTORS + ("_exact",)}
    try:
        for name in KERNELS:
            setattr(Matrix, name, DenseMatrix.__dict__[name])
        for name in CONSTRUCTORS:
            setattr(Matrix, name, classmethod(DenseMatrix.__dict__[name].__func__))
        Matrix._exact = refuse
        yield
    finally:
        for name, value in saved.items():
            setattr(Matrix, name, value)


def _series(coeffs, field, order):
    return TruncatedSeries(list(coeffs), field, order)


def _geometric(ratio, step, field, order):
    """1/(1 - ratio * t^step), truncated at ``order``."""
    coeffs = [field.zero] * (order + 1)
    power = field.one
    for k in range(0, order + 1, step):
        coeffs[k] = power
        power = power * ratio
    return _series(coeffs, field, order)


def zhat_from_scratch(prefix, order, field):
    """Zhat^(0..order) of a prefix, with the whole product of its factors
    formed anew: A(t) + B(t) prod_r f_r(t), the generating function of
    ``central.ZhatTable``, with every factor f_r built from its four
    numerator and four denominator binomials, and no table."""
    if order < 0:
        raise ValueError("order must be >= 0")
    mu = cen.mu_scalar(field)
    if not prefix:
        return [mu] * (order + 1)
    one = field.one
    u = field.q - field.q_pow(-1)
    nu2 = field.nu_pow(2)
    q2 = field.q_pow(2)
    qm2 = field.q_pow(-2)
    nu_over_u = field.nu / u
    base = TruncatedSeries.constant(-nu_over_u, field, order) + _geometric(
        nu2, 2, field, order)
    head = (
        _geometric(one, 1, field, order) * TruncatedSeries.constant(mu, field, order)
        + TruncatedSeries.constant(nu_over_u, field, order)
        - _geometric(nu2, 2, field, order)
    )
    prod = TruncatedSeries.constant(one, field, order)
    for tok in prefix:
        y = field.token_value(tok)
        w = nu2 / y
        num = (_series([one, -y], field, order) * _series([one, -y], field, order)
               * _series([q2, -w], field, order) * _series([qm2, -w], field, order))
        den = (_series([one, -w], field, order) * _series([one, -w], field, order)
               * _series([q2, -y], field, order) * _series([qm2, -y], field, order))
        prod = prod * (num * den.inverse())
    return list((base + head * prod).coeffs)


def vandermonde_kappa_weights(prefix, tokens, field):
    """Weights gamma of the steps with the given tokens out of a diagram.

    ``tokens`` are the y-tokens of every step out of the diagram reached by
    the token string ``prefix``, i.e. the members of a Case-4 block there.
    gamma solves sum_k gamma_k a_k^p = Zhat^(p) for p = 0..2m, where the
    right-hand side comes from the central generating function evaluated
    on the prefix.  Returns a dict token -> gamma.
    """
    s = len(tokens)
    a_vals = [field.token_value(a) for a in tokens]
    for k in range(s):
        for l in range(k + 1, s):
            if a_vals[k] == a_vals[l]:
                raise ArithmeticError(
                    f"repeated eigenvalue in block at i={len(prefix) + 1}"
                )
    zh = zhat_from_scratch(prefix, s - 1, field)
    vand = DenseMatrix(
        [[a_vals[k] ** p for k in range(s)] for p in range(s)], field
    )
    return dict(zip(tokens, solve(vand, zh)))


def dense_matrix(rep, i, mats):
    """The dim x dim matrix with the block matrices ``mats`` of position i
    on the blocks ``rep.blocks[i]`` and zero elsewhere."""
    out = DenseMatrix.zero(rep.dim, rep.dim, rep.field)
    for block, small in zip(rep.blocks[i], mats):
        for bi, gi in enumerate(block.members):
            for bj, gj in enumerate(block.members):
                out.rows[gi][gj] = small.rows[bi][bj]
    return out


def dense_parts(rep):
    """Lists of the dense sigma_i, kappa_i (i = 1..n-1) and y_j (j = 1..n)."""
    f = rep.field
    return (
        [dense_matrix(rep, i, s) for i, s in enumerate(rep.sigma, 1)],
        [dense_matrix(rep, i, k) for i, k in enumerate(rep.kappa, 1)],
        [DenseMatrix.diagonal(d, f) for d in rep.y],
    )


def is_scalar(mat):
    """The scalar c if mat = c * identity, else None."""
    if mat.n != mat.m or mat.n == 0:
        return None
    c = mat.rows[0][0]
    for i in range(mat.n):
        for j in range(mat.m):
            e = mat.rows[i][j]
            if i == j:
                if not (e == c):
                    return None
            elif e:
                return None
    return c


def dense_verify_relations(rep):
    """Exact checks of every defining relation on the built matrices."""
    f = rep.field
    n = rep.n
    q = f.q
    qinv = f.q_pow(-1)
    nu = f.nu
    u = q - qinv
    ident = DenseMatrix.identity(rep.dim, f)
    report = Report()
    sig, kap, y = dense_parts(rep)

    for i in range(n - 2):
        lhs = sig[i] * sig[i + 1] * sig[i]
        rhs = sig[i + 1] * sig[i] * sig[i + 1]
        report.add("braid", i + 1, lhs.equals(rhs))
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            report.add(
                "locality", i + 1, (sig[i] * sig[j]).equals(sig[j] * sig[i]),
                detail=f"j={j + 1}",
            )
    for i in range(n - 1):
        cubic = (sig[i].shift(-q)) * (sig[i].shift(qinv)) * (sig[i].shift(-nu))
        report.add("cubic", i + 1, cubic.is_zero)
    for i in range(n - 2):
        report.add(
            "kappa_sigma_kappa_plus",
            i + 1,
            (kap[i] * sig[i + 1] * kap[i]).equals(kap[i].scale(f.one / nu)),
        )
        report.add(
            "kappa_sigma_kappa_minus",
            i + 1,
            (kap[i] * sig[i + 1].inverse() * kap[i]).equals(kap[i].scale(nu)),
        )
    for i in range(n - 1):
        quad = (ident.scale(q) - sig[i]) * (sig[i] + ident.scale(qinv))
        report.add("kappa_definition", i + 1, quad.equals(kap[i].scale(nu * u)))
    for i in range(n - 1):
        skein = sig[i].inverse() - sig[i] + ident.scale(u)
        report.add("skein", i + 1, skein.equals(kap[i].scale(u)))
    for i in range(n - 1):
        report.add("y_recursion", i + 1, (sig[i] * y[i] * sig[i]).equals(y[i + 1]))
    for i in range(n):
        for j in range(i + 1, n):
            report.add(
                "y_commute", i + 1, (y[i] * y[j]).equals(y[j] * y[i]),
                detail=f"j={j + 1}",
            )
    nu2 = f.nu_pow(2)
    for i in range(n - 1):
        prod = y[i] * y[i + 1]
        report.add(
            "kappa_y_product",
            i + 1,
            (prod * kap[i]).equals(kap[i].scale(nu2))
            and (kap[i] * prod).equals(kap[i].scale(nu2)),
        )
    for i in range(1, n):
        m = max(
            ((b.size - 1) // 2 for b in rep.blocks[i] if b.case.tag == "4"),
            default=None,
        )
        if m is None:
            continue
        zdiags = _zhat_diagonals(rep, i, 2 * m)
        ypow = DenseMatrix.identity(rep.dim, f)
        for p in range(2 * m + 1):
            lhs = kap[i - 1] * ypow * kap[i - 1]
            rhs = zdiags[p] * kap[i - 1]
            report.add("kappa_y_power", i, lhs.equals(rhs), detail=f"p={p}")
            ypow = ypow * y[i - 1]
    return report


def _zhat_diagonals(rep, i, order):
    """Diagonal matrices of the per-path central scalars Zhat_{i-1}^(p)."""
    f = rep.field
    cache = {}
    cols = []
    for s in rep.strings:
        prefix = s[: i - 1]
        if prefix not in cache:
            cache[prefix] = zhat_from_scratch(prefix, order, f)
        cols.append(cache[prefix])
    return [
        DenseMatrix.diagonal([cols[k][p] for k in range(rep.dim)], f)
        for p in range(order + 1)
    ]


def dense_power_sum(rep, p):
    """The power sum Z^(p) = sum_j (y_j^p - nu^(2p) y_j^(-p)) as a matrix."""
    f = rep.field
    total = DenseMatrix.zero(rep.dim, rep.dim, f)
    nu2p = f.nu_pow(2 * p)
    for y in dense_parts(rep)[2]:
        yp = DenseMatrix.identity(rep.dim, f)
        for _ in range(p):
            yp = yp * y
        total = total + yp - yp.inverse().scale(nu2p)
    return total


def dense_central_scalars(rep, max_power=3):
    """Scalars by which Z = y_1...y_n and Z^(0..max_power) act; raises
    if any is non-scalar."""
    z = DenseMatrix.identity(rep.dim, rep.field)
    for y in dense_parts(rep)[2]:
        z = z * y
    c = is_scalar(z)
    if c is None:
        raise CentralityViolated("product of JM elements is not scalar")
    out = {"Z": c, "Zp": {}}
    for p in range(max_power + 1):
        s = is_scalar(dense_power_sum(rep, p))
        if s is None:
            raise CentralityViolated(f"power sum p={p} is not scalar")
        out["Zp"][p] = s
    return out


def dense_intertwiner(rep, k):
    """U_{k+1} = [sigma_k, y_k - nu^2 y_{k+1}^{-1}] inside the rep (1-based k)."""
    sig, _, y = dense_parts(rep)
    nu2 = rep.field.nu_pow(2)
    yk = y[k - 1]
    yk1 = y[k]
    s = sig[k - 1]
    arg = yk - yk1.inverse().scale(nu2)
    return s * arg - arg * s


def dense_intertwiner_checks(rep, k):
    """All exchange, product, braid and kappa identities for U_{k+1}."""
    f = rep.field
    q = f.q
    qinv = f.q_pow(-1)
    nu2 = f.nu_pow(2)
    sigma, kappa, y = dense_parts(rep)
    yk = y[k - 1]
    yk1 = y[k]
    u = dense_intertwiner(rep, k)
    checks = []
    checks.append(("U_swaps_y_k", k, (u * yk).equals(yk1 * u)))
    checks.append(("U_swaps_y_k1", k, (u * yk1).equals(yk * u)))
    for i in range(1, rep.n + 1):
        if i in (k, k + 1):
            continue
        checks.append((f"U_commutes_y_{i}", k, (u * y[i - 1]).equals(y[i - 1] * u)))
    s = sigma[k - 1]
    lhs = u * (s * yk - yk * s)
    rhs = (
        (yk.scale(q) - yk1.scale(qinv))
        * (yk1.scale(q) - yk.scale(qinv))
        * (DenseMatrix.identity(rep.dim, f) - (yk * yk1).inverse().scale(nu2))
    )
    checks.append(("U_product_identity", k, lhs.equals(rhs)))
    if k >= 2:
        uprev = dense_intertwiner(rep, k - 1)
        checks.append(
            ("U_braid", k, (u * uprev * u).equals(uprev * u * uprev))
        )
    kap = kappa[k - 1]
    checks.append(("kappa_U_zero", k, (kap * u).is_zero and (u * kap).is_zero))
    return checks


def dense_bulk(rep, coeff):
    """sum_m (sigma_m + coeff kappa_m), entry by entry over every entry."""
    f = rep.field
    rows = [[f.zero] * rep.dim for _ in range(rep.dim)]
    sigma, kappa, _ = dense_parts(rep)
    for m in range(rep.n - 1):
        sig = sigma[m].rows
        kap = kappa[m].rows
        for r in range(rep.dim):
            for c in range(rep.dim):
                rows[r][c] = rows[r][c] + sig[r][c] + coeff * kap[r][c]
    return DenseMatrix(rows, f, _copy=False)

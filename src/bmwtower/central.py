"""Central scalars, their generating function, and intertwining operators.

Everything here lives after the evaluation map: the affine seed data
collapses to the constants c -> nu^2 and zhat^(p) -> mu for every p, with
mu = 1 + (nu^{-1} - nu)/(q - q^{-1}).  The per-diagram scalars Zhat^(p)
are read off a truncated power series in the bookkeeping variable t, the
product of one rational factor per box of the diagram a prefix of tokens
reaches (Nazarov, J. Algebra 182, 1996).  A ``ZhatTable`` shares that work
between diagrams: every diagram is its parent's with one box more, so its
product is the parent's times one factor.  ``repbuilder.LocalAtlas`` keeps
one table for one call.

The queries read the rep's storage: the central elements are diagonal and
formed from the y diagonals, and each intertwiner is one matrix per block
of sigma_k, with its identities checked block by block and class by
class.  No whole matrix is formed.
"""

from __future__ import annotations

import json

from .combinatorics import Token
from .linalg import Matrix
from .scalars import TruncatedSeries, format_scalar


class CentralityViolated(ArithmeticError):
    pass


def mu_scalar(field):
    """mu = 1 + (nu^{-1} - nu)/(q - q^{-1}): the collapsed seed scalar."""
    u = field.q - field.q_pow(-1)
    return field.one + (field.nu_pow(-1) - field.nu) / u


def _geometric(ratio_coeff, step, field, order):
    """Series 1/(1 - ratio_coeff * t^step)."""
    coeffs = [field.zero] * (order + 1)
    acc = field.one
    k = 0
    while k <= order:
        coeffs[k] = acc
        acc = acc * ratio_coeff
        k += step
    return TruncatedSeries(coeffs, field, order)


class ZhatTable:
    """Scalars Zhat^(0..order) of diagrams, shared by every prefix of
    eigenvalue tokens that reaches the diagram.

    The generating function of a prefix of token values y_1..y_k is

        A(t) + B(t) * prod_r f(y_r),

    with A(t) = -nu/u + 1/(1 - nu^2 t^2) (``base``), B(t) = mu/(1 - t) +
    nu/u - 1/(1 - nu^2 t^2) (``head``) and

        f(y) = (1 - y t)^2 (q^2 - nu^2 y^{-1} t)(q^{-2} - nu^2 y^{-1} t)
               / [(1 - nu^2 y^{-1} t)^2 (q^2 - y t)(q^{-2} - y t)].

    Swapping y and nu^2/y swaps numerator and denominator, so f(nu^2/y) =
    1/f(y).  Removing a box has the value nu^2/y, y the value of adding it,
    so the product telescopes to one over the boxes of the diagram lambda
    the prefix reaches, prod_{b in lambda} f(q^{2 c(b)}), with contents
    c(b) negated under the flipped convention (Nazarov, J. Algebra 182,
    1996; Beliakova-Blanchet, Math. Ann. 2001).  The empty diagram has
    A + B = mu/(1 - t): every coefficient is mu.  The table forms A and B
    once, each box's factor once, and each diagram's product as its
    parent's (lambda without the last box of its last row) times that
    box's factor, all truncated at ``order``.  Coefficient p does not
    depend on the order N >= p of truncation, so a table at the largest
    order a caller needs answers every lower order exactly.  A table keeps
    what it formed for as long as it lives and no longer.  It reads each
    token's value from ``value`` (``repbuilder.LocalAtlas.value``), or
    from the field where that is None.
    """

    def __init__(self, field, order, value=None, flip=False):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.field, self.order = field, order
        self._value = value or field.token_value
        self._sign = -1 if flip else 1
        mu = mu_scalar(field)
        nu_over_u = field.nu / (field.q - field.q_pow(-1))
        nu2_geometric = _geometric(field.nu_pow(2), 2, field, order)

        def constant(c):
            return TruncatedSeries.constant(c, field, order)

        self.base = constant(-nu_over_u) + nu2_geometric
        self.head = (
            _geometric(field.one, 1, field, order) * constant(mu)
            + constant(nu_over_u)
            - nu2_geometric
        )
        self._factors = {}
        self._products = {(): constant(field.one)}
        self._coeffs = {}

    def _factor(self, tok):
        """f of one token, as a series."""
        f = self._factors.get(tok)
        if f is None:
            field, order = self.field, self.order
            one = field.one
            y = self._value(tok)
            w = field.nu_pow(2) / y
            q2, qm2 = field.q_pow(2), field.q_pow(-2)

            def poly(*coeffs):
                return TruncatedSeries(list(coeffs), field, order)

            num = poly(one, -y) * poly(one, -y) * poly(q2, -w) * poly(qm2, -w)
            # constant term q^2 q^{-2} = 1, so the inverse exists
            den = poly(one, -w) * poly(one, -w) * poly(q2, -y) * poly(qm2, -y)
            f = self._factors[tok] = num * den.inverse()
        return f

    def _product(self, lam):
        """prod_{b in lam} f(q^{2 c(b)}): its parent's product times the
        factor of the last box of its last row, of content lam[-1] - len(lam)."""
        prod = self._products.get(lam)
        if prod is None:
            last = lam[-1]
            parent = lam[:-1] + ((last - 1,) if last > 1 else ())
            box = Token(0, self._sign * (last - len(lam)))
            prod = self._products[lam] = self._product(parent) * self._factor(box)
        return prod

    def __getitem__(self, lam):
        """Zhat^(0..order) of a diagram (a partition tuple), as a list."""
        coeffs = self._coeffs.get(lam)
        if coeffs is None:
            coeffs = (self.base + self.head * self._product(lam)).coeffs
            self._coeffs[lam] = coeffs
        return coeffs


def zhat_series(prefix, order, field):
    """Scalars Zhat^(0..order) of a prefix of eigenvalue tokens, from the
    product of the prefix's own factors, one per token, with no diagram.
    Only ``perfbench/tracing.py``, which wraps it by name, and the tests
    call it."""
    table = ZhatTable(field, order)
    prod = TruncatedSeries.constant(field.one, field, order)
    for tok in prefix:
        prod = prod * table._factor(tok)
    return list((table.base + table.head * prod).coeffs)


def _scalar(entries):
    """The common value of a diagonal's entries, or None if they differ."""
    c = entries[0]
    return c if all(e == c for e in entries) else None


def _power_sums(rep, max_power):
    """Diagonals of the power sums Z^(p) = sum_j (y_j^p - nu^(2p) y_j^(-p))
    for p = 0..max_power, in one sweep over the powers.

    The y are diagonal in the seminormal basis and stored as their
    diagonals, so every Z^(p) is diagonal too, formed entry by entry from
    the running products x^p and w^p, w = nu^2/x, of each entry x.  Z^(0)
    is zero: each of its terms is 1 - 1.
    """
    f = rep.field
    nu2 = f.nu_pow(2)
    totals = [[f.zero] * rep.dim for _ in range(max_power + 1)]
    for d in rep.y:
        for r, x in enumerate(d):
            xp = x
            wp = w = nu2 / x
            for p in range(1, max_power + 1):
                if p > 1:
                    xp, wp = xp * x, wp * w
                totals[p][r] = totals[p][r] + (xp - wp)
    return totals


def central_scalars(rep, max_power=3):
    """Scalars by which Z = y_1...y_n and Z^(0..max_power) act; raises
    CentralityViolated if any is non-scalar.

    Z and every Z^(p) are diagonal, formed entrywise from the y diagonals.
    """
    z = [rep.field.one] * rep.dim
    for d in rep.y:
        z = [a * b for a, b in zip(z, d)]
    c = _scalar(z)
    if c is None:
        raise CentralityViolated("product of JM elements is not scalar")
    out = {"Z": c, "Zp": {}}
    for p, total in enumerate(_power_sums(rep, max_power)):
        s = _scalar(total)
        if s is None:
            raise CentralityViolated(f"power sum p={p} is not scalar")
        out["Zp"][p] = s
    return out


def _block_intertwiner(lb, nu2):
    """U on one block: S[r][c] (D[c] - D[r]) with D = a - nu^2/b, and the
    exact zero [[0]] on a block of one member, where D[c] - D[r] = 0.

    The bracket gives the same zero; the form stays because it is cheaper
    where most blocks have one member (721 of the 1,125 at rational level
    6): forming their brackets made ``intertwiner_checks`` over the
    ``query_mix`` benchmark's reps about 6% slower (0.082 against 0.078 s,
    medians of the minimum of 15 in-process passes in 8 alternating rounds,
    slower in all 8, on 2 vCPUs with Python 3.11)."""
    if lb.block.size == 1:
        return Matrix.zero(1, 1, lb.s.field)
    return lb.s.bracket([x - nu2 / y for x, y in zip(lb.a, lb.b)])


def intertwiner(rep, k):
    """U_{k+1} = [sigma_k, y_k - nu^2 y_{k+1}^{-1}] inside the rep (1-based k),
    as one matrix per block of ``rep.blocks[k]``, the storage of sigma_k.

    y_k and y_{k+1} are diagonal in the seminormal basis, so the second
    argument is the diagonal D = a - nu^2/b of their diagonals a, b, and on
    a block with sigma_k block S, U is S[r][c] (D[c] - D[r]): zero on a
    block of one member.
    """
    from .repbuilder import _LocalBlock

    nu2 = rep.field.nu_pow(2)
    return [_block_intertwiner(lb, nu2) for lb in _LocalBlock.at(rep, k)]


def intertwiner_checks(rep, k):
    """All exchange, product, braid and kappa identities for U_{k+1}.

    U_{k+1}, like sigma_k and kappa_k, is the direct sum of its blocks at
    position k, and y_k, y_{k+1} restrict to each block as the diagonals
    a, b of their entries there.  Every y is diagonal, so U diag(x) =
    diag(y) U says x[c] = y[r] at each nonzero entry U[r][c]: the swap and
    commute checks read the diagonals on U's support.  The product identity
    U [sigma_k, y_k] = (q a - b/q)(q b - a/q)(1 - nu^2/(a b)) and
    kappa_k U = U kappa_k = 0 compare direct sums over the blocks, so each
    holds exactly when it holds on every block.  On a block of one member
    U and [sigma_k, y_k] are zero, so ``kappa_U_zero`` holds there, and the
    product identity holds exactly when its right side vanishes, that is
    when one of its three factors does.  Both one-member forms give the
    verdict of the block-matrix test and stay because they are cheaper,
    like the zero of ``_block_intertwiner``.  Measured as there, the
    products of ``kappa_U_zero`` on one-member blocks made the checks about
    4% slower (0.080 against 0.078 s, slower in 7 of 8 rounds), the matrix
    form of the product identity about 11% (in process time, slower in 6
    of 8), and the block-matrix tests with the bracket on every block about
    36% (0.106 s, slower in 8 of 8).  Blocks of more than one member take
    the matrix tests.

    U_k and U_{k+1} are direct sums over the classes of the join of the
    blocks at k-1 and k, so the braid identity holds exactly when it holds
    on every class (the argument of ``repbuilder.verify_relations``).  On a
    class where U_{k+1} vanishes both sides do, so U_k and U_{k+1} are
    formed (``repbuilder._Join.form``) only on the other classes.
    """
    from .repbuilder import _Join, _LocalBlock

    f = rep.field
    q = f.q
    qinv = f.q_pow(-1)
    nu2 = f.nu_pow(2)
    local = _LocalBlock.at(rep, k)
    blocks = [_block_intertwiner(lb, nu2) for lb in local]
    support = [
        (lb.block.members[r], lb.block.members[c])
        for lb, ub in zip(local, blocks)
        for r, row in enumerate(ub.rows) for c, x in enumerate(row) if x
    ]

    def exchanges(x, y):
        return all(x[c] == y[r] for r, c in support)

    a = rep.y[k - 1]
    b = rep.y[k]
    checks = []
    checks.append(("U_swaps_y_k", k, exchanges(a, b)))
    checks.append(("U_swaps_y_k1", k, exchanges(b, a)))
    for i in range(1, rep.n + 1):
        if i in (k, k + 1):
            continue
        d = rep.y[i - 1]
        checks.append((f"U_commutes_y_{i}", k, exchanges(d, d)))

    def product_identity(lb, ub):
        if lb.block.size == 1:
            (x,), (y,) = lb.a, lb.b
            return q * x == qinv * y or q * y == qinv * x or x * y == nu2
        rhs = [
            (q * x - qinv * y) * (q * y - qinv * x) * (f.one - nu2 / (x * y))
            for x, y in zip(lb.a, lb.b)
        ]
        return (ub * lb.s.bracket(lb.a)).equals(Matrix.diagonal(rhs, f))

    checks.append(("U_product_identity", k,
                   all(product_identity(lb, ub) for lb, ub in zip(local, blocks))))
    if k >= 2:
        join = _Join(rep, k - 1, k)
        prev = _LocalBlock.at(rep, k - 1)
        live = {join.class_of(lb.block) for lb, ub in zip(local, blocks)
                if not ub.is_zero}

        def braid(c):
            u = join.form(c, k, blocks.__getitem__)
            up = join.form(c, k - 1, lambda m: _block_intertwiner(prev[m], nu2))
            return (u * up * u).equals(up * u * up)

        checks.append(("U_braid", k, all(braid(c) for c in live)))
    checks.append(("kappa_U_zero", k, all(
        lb.block.size == 1 or ((lb.k * ub).is_zero and (ub * lb.k).is_zero)
        for lb, ub in zip(local, blocks)
    )))
    return checks


def central_report(rep, max_power=3):
    scalars = central_scalars(rep, max_power=max_power)
    return {
        "lambda": list(rep.lam),
        "n": rep.n,
        "Z": scalars["Z"],
        "Zp": scalars["Zp"],
    }


def central_json(reports):
    data = [
        {
            "lambda": r["lambda"],
            "n": r["n"],
            "Z": format_scalar(r["Z"]),
            "Zp": {str(p): format_scalar(v) for p, v in r["Zp"].items()},
        }
        for r in reports
    ]
    return json.dumps(data, indent=2, sort_keys=True)

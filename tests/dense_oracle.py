"""Dense references for the structured code in ``bmwtower``.

The relation verifier proves every relation with dim x dim products, and
sigma^{-1} comes from Gauss-Jordan elimination, so nothing here relies on
the block structure of the seminormal generators; a singular sigma raises
``SingularMatrix``.  The central scalars, power sums and intertwiners
treat every y as a dense matrix: powers are repeated products, inverses
come from Gauss-Jordan, and a non-diagonal y gives a verdict, not an
error.  The chain's bulk sum adds every entry, zero or not.  All of it is
slow and kept for tests at small n only.
"""

from bmwtower import central as cen
from bmwtower.central import CentralityViolated
from bmwtower.linalg import Matrix
from bmwtower.repbuilder import Report


def dense_verify_relations(rep):
    """Exact checks of every defining relation on the built matrices."""
    f = rep.field
    n = rep.n
    q = f.q
    qinv = f.q_pow(-1)
    nu = f.nu
    u = q - qinv
    ident = Matrix.identity(rep.dim, f)
    report = Report()
    sig = rep.sigma
    kap = rep.kappa
    y = rep.y

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
        ypow = Matrix.identity(rep.dim, f)
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
            cache[prefix] = cen.zhat_series(prefix, order, f)
        cols.append(cache[prefix])
    return [
        Matrix.diagonal([cols[k][p] for k in range(rep.dim)], f)
        for p in range(order + 1)
    ]


def dense_power_sum(rep, p):
    """The power sum Z^(p) = sum_j (y_j^p - nu^(2p) y_j^(-p)) as a matrix."""
    f = rep.field
    total = Matrix.zero(rep.dim, rep.dim, f)
    nu2p = f.nu_pow(2 * p)
    for y in rep.y:
        yp = Matrix.identity(rep.dim, f)
        for _ in range(p):
            yp = yp * y
        total = total + yp - yp.inverse().scale(nu2p)
    return total


def dense_central_scalars(rep, max_power=3):
    """Scalars by which Z = y_1...y_n and Z^(0..max_power) act; raises
    if any is non-scalar."""
    z = Matrix.identity(rep.dim, rep.field)
    for y in rep.y:
        z = z * y
    c = z.is_scalar()
    if c is None:
        raise CentralityViolated("product of JM elements is not scalar")
    out = {"Z": c, "Zp": {}}
    for p in range(max_power + 1):
        s = dense_power_sum(rep, p).is_scalar()
        if s is None:
            raise CentralityViolated(f"power sum p={p} is not scalar")
        out["Zp"][p] = s
    return out


def dense_intertwiner(rep, k):
    """U_{k+1} = [sigma_k, y_k - nu^2 y_{k+1}^{-1}] inside the rep (1-based k)."""
    f = rep.field
    nu2 = f.nu_pow(2)
    yk = rep.y[k - 1]
    yk1 = rep.y[k]
    s = rep.sigma[k - 1]
    arg = yk - yk1.inverse().scale(nu2)
    return s * arg - arg * s


def dense_intertwiner_checks(rep, k):
    """All exchange, product, braid and kappa identities for U_{k+1}."""
    f = rep.field
    q = f.q
    qinv = f.q_pow(-1)
    nu2 = f.nu_pow(2)
    yk = rep.y[k - 1]
    yk1 = rep.y[k]
    u = dense_intertwiner(rep, k)
    checks = []
    checks.append(("U_swaps_y_k", k, (u * yk).equals(yk1 * u)))
    checks.append(("U_swaps_y_k1", k, (u * yk1).equals(yk * u)))
    for i in range(1, rep.n + 1):
        if i in (k, k + 1):
            continue
        checks.append((f"U_commutes_y_{i}", k, (u * rep.y[i - 1]).equals(rep.y[i - 1] * u)))
    s = rep.sigma[k - 1]
    lhs = u * (s * yk - yk * s)
    rhs = (
        (yk.scale(q) - yk1.scale(qinv))
        * (yk1.scale(q) - yk.scale(qinv))
        * (Matrix.identity(rep.dim, f) - (yk * yk1).inverse().scale(nu2))
    )
    checks.append(("U_product_identity", k, lhs.equals(rhs)))
    if k >= 2:
        uprev = dense_intertwiner(rep, k - 1)
        checks.append(
            ("U_braid", k, (u * uprev * u).equals(uprev * u * uprev))
        )
    kap = rep.kappa[k - 1]
    checks.append(("kappa_U_zero", k, (kap * u).is_zero and (u * kap).is_zero))
    return checks


def dense_bulk(rep, coeff):
    """sum_m (sigma_m + coeff kappa_m), entry by entry over every entry."""
    f = rep.field
    rows = [[f.zero] * rep.dim for _ in range(rep.dim)]
    for m in range(rep.n - 1):
        sig = rep.sigma[m].rows
        kap = rep.kappa[m].rows
        for r in range(rep.dim):
            for c in range(rep.dim):
                rows[r][c] = rows[r][c] + sig[r][c] + coeff * kap[r][c]
    return Matrix(rows, f, _copy=False)

"""Dense relation verifier: the reference for the block-local one.

Every relation is proven with dim x dim products, and sigma^{-1} comes
from Gauss-Jordan elimination, so nothing here relies on the block
structure of the seminormal generators.  It is slow and kept for tests
at small n only; a singular sigma raises ``SingularMatrix``.
"""

from bmwtower import central as cen
from bmwtower.linalg import Matrix
from bmwtower.repbuilder import Report


def dense_verify_relations(rep, with_zhat=True):
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
    if with_zhat:
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

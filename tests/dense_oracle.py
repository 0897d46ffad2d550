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
"""

from bmwtower import central as cen
from bmwtower.central import CentralityViolated
from bmwtower.linalg import Matrix, solve
from bmwtower.repbuilder import Report


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
    zh = cen.zhat_series(prefix, s - 1, field)
    vand = Matrix(
        [[a_vals[k] ** p for k in range(s)] for p in range(s)], field
    )
    return dict(zip(tokens, solve(vand, zh)))


def dense_matrix(rep, i, mats):
    """The dim x dim matrix with the block matrices ``mats`` of position i
    on the blocks ``rep.blocks[i]`` and zero elsewhere."""
    out = Matrix.zero(rep.dim, rep.dim, rep.field)
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
        [Matrix.diagonal(d, f) for d in rep.y],
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
    ident = Matrix.identity(rep.dim, f)
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
    for y in dense_parts(rep)[2]:
        yp = Matrix.identity(rep.dim, f)
        for _ in range(p):
            yp = yp * y
        total = total + yp - yp.inverse().scale(nu2p)
    return total


def dense_central_scalars(rep, max_power=3):
    """Scalars by which Z = y_1...y_n and Z^(0..max_power) act; raises
    if any is non-scalar."""
    z = Matrix.identity(rep.dim, rep.field)
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
        * (Matrix.identity(rep.dim, f) - (yk * yk1).inverse().scale(nu2))
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
    return Matrix(rows, f, _copy=False)

"""Central scalars, their generating function, and intertwining operators.

Everything here lives after the evaluation map: the affine seed data
collapses to the constants c -> nu^2 and zhat^(p) -> mu for every p, with
mu = 1 + (nu^{-1} - nu)/(q - q^{-1}).  The per-prefix scalars Zhat_k^(p)
are read off a truncated power series in the bookkeeping variable t.
"""

from __future__ import annotations

import json

from .linalg import Matrix
from .scalars import NonGenericPoint, TruncatedSeries


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


def _poly_series(coeffs, field, order):
    return TruncatedSeries(list(coeffs), field, order)


def zhat_series(prefix, order, field):
    """Scalars Zhat_k^(0..order) for a prefix of eigenvalue tokens.

    k is the prefix length.  The generating function is

        A(t) + (M(t) - A(t)) * prod_r f_r(t),

    where A(t) = -nu/u + 1/(1 - nu^2 t^2), M(t) = mu/(1-t) + nu/u ... -
    concretely the constant-plus-product shape below, with one rational
    factor f_r per prefix token value y_r:

        f_r = (1 - y t)^2 (q^2 - nu^2 y^{-1} t)(q^{-2} - nu^2 y^{-1} t)
              / [(1 - nu^2 y^{-1} t)^2 (q^2 - y t)(q^{-2} - y t)].

    For an empty prefix every coefficient is mu.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    mu = mu_scalar(field)
    if not prefix:
        return [mu] * (order + 1)
    one, zero = field.one, field.zero
    u = field.q - field.q_pow(-1)
    nu2 = field.nu_pow(2)
    q2 = field.q_pow(2)
    qm2 = field.q_pow(-2)
    nu_over_u = field.nu / u

    base = TruncatedSeries.constant(-nu_over_u, field, order) + _geometric(
        nu2, 2, field, order
    )
    # mu/(1-t) + nu/u - 1/(1 - nu^2 t^2)
    head = (
        _geometric(one, 1, field, order) * TruncatedSeries.constant(mu, field, order)
        + TruncatedSeries.constant(nu_over_u, field, order)
        - _geometric(nu2, 2, field, order)
    )
    prod = TruncatedSeries.constant(one, field, order)
    for tok in prefix:
        y = field.token_value(tok)
        yinv = one / y
        w = nu2 * yinv
        num = (
            _poly_series([one, -y], field, order)
            * _poly_series([one, -y], field, order)
            * _poly_series([q2, -w], field, order)
            * _poly_series([qm2, -w], field, order)
        )
        den = (
            _poly_series([one, -w], field, order)
            * _poly_series([one, -w], field, order)
            * _poly_series([q2, -y], field, order)
            * _poly_series([qm2, -y], field, order)
        )
        if not den.coeffs[0]:
            raise NonGenericPoint("vanishing series denominator at prefix token")
        prod = prod * (num * den.inverse())
    full = base + head * prod
    return list(full.coeffs)


def power_sum(rep, p):
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


def central_scalars(rep, max_power=3):
    """Scalars by which Z = y_1...y_n and Z^(0..max_power) act; raises if
    any is non-scalar."""
    z = Matrix.identity(rep.dim, rep.field)
    for y in rep.y:
        z = z * y
    c = z.is_scalar()
    if c is None:
        raise CentralityViolated("product of JM elements is not scalar")
    out = {"Z": c, "Zp": {}}
    for p in range(max_power + 1):
        s = power_sum(rep, p).is_scalar()
        if s is None:
            raise CentralityViolated(f"power sum p={p} is not scalar")
        out["Zp"][p] = s
    return out


def intertwiner(rep, k):
    """U_{k+1} = [sigma_k, y_k - nu^2 y_{k+1}^{-1}] inside the rep (1-based k)."""
    f = rep.field
    nu2 = f.nu_pow(2)
    yk = rep.y[k - 1]
    yk1 = rep.y[k]
    s = rep.sigma[k - 1]
    arg = yk - yk1.inverse().scale(nu2)
    return s * arg - arg * s


def intertwiner_checks(rep, k):
    """All exchange, product, braid and kappa identities for U_{k+1}."""
    f = rep.field
    q = f.q
    qinv = f.q_pow(-1)
    nu2 = f.nu_pow(2)
    yk = rep.y[k - 1]
    yk1 = rep.y[k]
    u = intertwiner(rep, k)
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
        uprev = intertwiner(rep, k - 1)
        checks.append(
            ("U_braid", k, (u * uprev * u).equals(uprev * u * uprev))
        )
    kap = rep.kappa[k - 1]
    checks.append(("kappa_U_zero", k, (kap * u).is_zero and (u * kap).is_zero))
    return checks


def central_report(rep, max_power=3):
    scalars = central_scalars(rep, max_power=max_power)
    return {
        "lambda": list(rep.lam),
        "n": rep.n,
        "Z": scalars["Z"],
        "Zp": scalars["Zp"],
    }


def central_json(reports, formatter):
    data = [
        {
            "lambda": r["lambda"],
            "n": r["n"],
            "Z": formatter(r["Z"]),
            "Zp": {str(p): formatter(v) for p, v in r["Zp"].items()},
        }
        for r in reports
    ]
    return json.dumps(data, indent=2, sort_keys=True)

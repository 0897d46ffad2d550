"""Integrable spin-chain Hamiltonians in a built representation.

The chain acts on an irrep after the evaluation map (first eigenvalue
matrix = identity), so the boundary term degenerates to a scalar.  The
bulk part

    H_bulk = sum_m ( sigma_m + (q - q^-1) nu / (nu + a) * kappa_m )

is exact over the rep's coefficient field; the boundary contribution
(q - q^-1) xi / (1 - xi) * Id is complex because xi is a square root of
-a*nu, generically irrational.

sigma_m and kappa_m are stored as their blocks at position m, so the bulk
is scattered from them: entry (r, c) sums S + c K over the positions where
r and c share a block.  It is the one dim x dim matrix the package forms,
the matrix numpy diagonalizes; only its nonzero entries are specialized.
"""

from __future__ import annotations

import cmath
import csv

from .linalg import Matrix
from .scalars import Fraction, require_generic, specialize

A_CHOICES = ("q", "-q", "1/q", "-1/q")

XI_TOL = 1e-9


class SingularParameter(ArithmeticError):
    pass


class ChainParams:
    """Boundary data: the eigenvalue choice ``a`` and the scalar ``xi``.

    ``a`` is one of "q", "-q", "1/q", "-1/q" (the four cubic roots that can
    appear in one-dimensional directions); xi must square to -a*nu at the
    specialization in force unless waive_xi is set.
    """

    def __init__(self, a, xi, waive_xi=False):
        if a not in A_CHOICES:
            raise ValueError(f"a must be one of {A_CHOICES}, got {a!r}")
        self.a = a
        self.xi = complex(xi)
        self.waive_xi = waive_xi
        if self.xi == 1:
            raise SingularParameter("xi = 1 makes the boundary term singular")

    def a_value(self, field):
        sign = -1 if self.a.startswith("-") else 1
        power = -1 if self.a.endswith("1/q") or "/" in self.a else 1
        return field.from_int(sign) * field.q_pow(power)

    def check_xi(self, q_value, nu_value):
        target = -complex(Fraction(nu_value)) * _a_numeric(self.a, q_value)
        if abs(self.xi ** 2 - target) > XI_TOL * max(1.0, abs(target)):
            raise SingularParameter(
                f"xi^2 = {self.xi ** 2} but -a*nu = {target}"
            )

    @classmethod
    def standard(cls, a, q_value, nu_value, branch=0):
        """Params with xi picked as a square root of -a*nu."""
        xi = cmath.sqrt(-complex(Fraction(nu_value)) * _a_numeric(a, q_value))
        if branch:
            xi = -xi
        return cls(a, xi)


def _a_numeric(a, q_value):
    q = complex(Fraction(q_value))
    return {"q": q, "-q": -q, "1/q": 1 / q, "-1/q": -1 / q}[a]


class ChainHamiltonian:
    def __init__(self, rep, params, bulk, boundary):
        self.rep = rep
        self.params = params
        self.bulk = bulk          # Matrix over rep.field
        self.boundary = boundary  # complex scalar multiple of the identity

    @property
    def dim(self):
        return self.rep.dim


def hamiltonian(rep, params):
    """H = sum_m (sigma_m + u nu/(nu+a) kappa_m) + u xi/(1-xi) Id."""
    f = rep.field
    if f.name == "rational" and not params.waive_xi:
        params.check_xi(f.q_value, f.nu_value)
    u = f.q - f.q_pow(-1)
    # nu + a != 0: nu = -a would make nu^2 q^(-+2) = 1, never generic
    coeff = u * f.nu / (f.nu + params.a_value(f))
    bulk = Matrix.zero(rep.dim, rep.dim, f)
    rows = bulk.rows
    for m, (sig, kap) in enumerate(zip(rep.sigma, rep.kappa), 1):
        for block, s, k in zip(rep.blocks[m], sig, kap):
            for r, s_row, k_row in zip(block.members, s.rows, k.rows):
                row = rows[r]
                for c, x, y in zip(block.members, s_row, k_row):
                    if y:
                        x = x + coeff * y
                    if x:
                        row[c] = row[c] + x if row[c] else x
    boundary = params.xi / (1 - params.xi)
    return ChainHamiltonian(rep, params, bulk, boundary)


def bulk_complex(h, s):
    """The bulk matrix as a dense list of complex rows at specialization s;
    only its nonzero entries are specialized."""
    return [
        [complex(specialize(x, s)) if x else 0j for x in row]
        for row in h.bulk.rows
    ]


def scalar_value(h, s):
    """The single complex eigenvalue of a 1-dimensional chain."""
    if h.dim != 1:
        raise ValueError("scalar_value needs a 1-dimensional representation")
    u = complex(specialize(h.rep.field.q - h.rep.field.q_pow(-1), s))
    return bulk_complex(h, s)[0][0] + u * h.boundary


def eigenvalues_numeric(h, s):
    """Eigenvalues of the specialized chain, sorted by (real, imaginary)."""
    import numpy as np

    require_generic(s, h.rep.n)
    mat = np.array(bulk_complex(h, s), dtype=complex)
    u = complex(specialize(h.rep.field.q - h.rep.field.q_pow(-1), s))
    mat += (u * h.boundary) * np.eye(h.dim)
    try:
        vals = np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"diagonalization failed: {exc}") from exc
    # Round the sort key so eigenvalues with equal real parts (up to
    # numerical noise) are ordered by imaginary part reproducibly.
    return sorted(vals.tolist(), key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def spectrum_csv(h, s, out):
    """One row per eigenvalue: lambda, n, a, xi, re, im."""
    lam = ",".join(str(r) for r in h.rep.lam)
    w = csv.writer(out)
    w.writerow(["lambda", "n", "a", "xi_re", "xi_im", "re", "im"])
    for z in eigenvalues_numeric(h, s):
        w.writerow([
            lam, h.rep.n, h.params.a,
            repr(h.params.xi.real), repr(h.params.xi.imag),
            repr(z.real), repr(z.imag),
        ])

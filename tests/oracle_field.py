"""The whole field of fractions Q(q, nu), for oracles that leave the
package's scalar ring.

The package's ``ScalarFraction`` holds only fractions whose denominators
factor over the genericity base, and refuses any other divisor.  The dense
oracle's Gauss-Jordan pivots and the perturbed reps of the tests divide by
arbitrary polynomials (a changed y entry nu^2 q^(2z) + 1, say), so these
tests run both verifiers over ``OracleField``: sympy's field Q(q, nu)
behind the package's field interface.  ``to_oracle`` carries a symbolic rep
into it entry by entry.
"""

import functools

from sympy import ZZ, field

from bmwtower.linalg import Matrix
from bmwtower.repbuilder import SeminormalRep

from conftest import cached_rep


class OracleField:
    """sympy's ``field("q, nu", ZZ)`` with the package's field interface."""

    name = "oracle"

    def __init__(self):
        self.field, self.q, self.nu = field("q, nu", ZZ)
        self.zero = self.field.zero
        self.one = self.field.one

    def from_int(self, c):
        return self.field(c)

    def q_pow(self, k):
        return self.q**k

    def nu_pow(self, k):
        return self.nu**k

    def token_value(self, tok):
        return self.nu ** (2 * tok.nu) * self.q ** (2 * tok.z)

    def laurent(self, terms):
        """The Laurent polynomial with the term dict {(z_q, z_nu): c}."""
        mq = min(a for a, _ in terms)
        mn = min(b for _, b in terms)
        poly = self.field.ring.from_dict(
            {(a - mq, b - mn): c for (a, b), c in terms.items()})
        return self.field(poly) * self.q**mq * self.nu**mn

    def convert(self, x):
        """The ScalarFraction x as an element of Q(q, nu)."""
        if x.is_zero:
            return self.zero
        return self.laurent(x.num.terms) / self.laurent(x.den.terms)


ORACLE = OracleField()


def to_oracle(rep):
    """The symbolic rep with every sigma, kappa and y entry in ORACLE."""
    def converted(mats):
        return [[Matrix([[ORACLE.convert(x) for x in row] for row in m.rows], ORACLE)
                 for m in at_i] for at_i in mats]

    return SeminormalRep(
        rep.lam, rep.n, rep.paths, rep.strings, converted(rep.sigma),
        converted(rep.kappa), [[ORACLE.convert(x) for x in d] for d in rep.y],
        rep.blocks, ORACLE, rep.flip,
    )


@functools.lru_cache(maxsize=None)
def oracle_rep(lam, n, mode):
    """The session's irrep; a symbolic one carried into ORACLE."""
    rep = cached_rep(lam, n, mode)
    return to_oracle(rep) if mode == "symbolic" else rep

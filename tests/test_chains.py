"""Spin-chain Hamiltonians: closed forms, spectra, gauge invariance."""

import cmath
import io
from fractions import Fraction

import pytest

from bmwtower import chains
from bmwtower import repbuilder as rb
from bmwtower.scalars import (
    SYMBOLIC,
    GenericSpecialization,
    NonGenericPoint,
    check_generic,
)

from conftest import RATIONAL, cached_rep, conjugate_diagonal
from dense_oracle import dense_parts

QV, NUV = 2.0, 3.0
U = QV - 1 / QV
MU = 1 + (1 / NUV - NUV) / U


def std_params(a="q"):
    return chains.ChainParams.standard(a, Fraction(2), Fraction(3))


class TestParams:
    def test_bad_choice_rejected(self):
        with pytest.raises(ValueError):
            chains.ChainParams("nu", 1j)

    def test_xi_invariant_enforced(self):
        p = chains.ChainParams("q", 0.5 + 0.5j)
        rep = cached_rep((2,), 2, "rational")
        with pytest.raises(chains.SingularParameter):
            chains.hamiltonian(rep, p)

    def test_xi_invariant_waivable(self):
        p = chains.ChainParams("q", 0.5 + 0.5j, waive_xi=True)
        rep = cached_rep((2,), 2, "rational")
        chains.hamiltonian(rep, p)  # no error

    def test_xi_one_singular(self):
        with pytest.raises(chains.SingularParameter):
            chains.ChainParams("q", 1.0)

    def test_standard_branches_square_correctly(self):
        for a in chains.A_CHOICES:
            for branch in (0, 1):
                p = chains.ChainParams.standard(a, Fraction(2), Fraction(3), branch)
                target = -NUV * chains._a_numeric(a, Fraction(2))
                assert abs(p.xi ** 2 - target) < 1e-12


class TestClosedForms:
    def test_row_two_scalar(self):
        rep = cached_rep((2,), 2)
        p = std_params()
        h = chains.hamiltonian(rep, p)
        got = chains.scalar_value(h, RATIONAL)
        expected = QV + U * p.xi / (1 - p.xi)
        assert abs(got - expected) < 1e-12

    def test_empty_diagram_scalar(self):
        rep = cached_rep((), 2)
        p = std_params()
        h = chains.hamiltonian(rep, p)
        got = chains.scalar_value(h, RATIONAL)
        expected = NUV + U * NUV * MU / (NUV + QV) + U * p.xi / (1 - p.xi)
        assert abs(got - expected) < 1e-12

    def test_nu_plus_a_never_generic(self):
        """The kappa coefficient's denominator nu + a vanishes only at
        nu = -a, where nu^2 q^(-+2) = 1: for every choice of a that point
        is refused at level 1, so no built rep reaches it."""
        q = Fraction(2)
        for a in chains.A_CHOICES:
            nu = -chains.ChainParams(a, 5j).a_value(GenericSpecialization(q, q))
            s = GenericSpecialization(q, nu)
            assert not check_generic(s, 1), a
            with pytest.raises(NonGenericPoint):
                rb.build_rep((1,), 1, field=s)


class TestSpectra:
    def test_one_at_3_regression(self):
        """Frozen values, independently cross-checked by characteristic
        polynomial root finding in test_independent_diagonalization."""
        h = chains.hamiltonian(cached_rep((1,), 3, "rational"), std_params())
        eigs = chains.eigenvalues_numeric(h, RATIONAL)
        expected = [
            complex(-0.04138150508908481, -0.5248906591678243),
            complex(1.614285714285714, -0.5248906591678234),
            complex(2.169952933660513, -0.5248906591678241),
        ]
        assert len(eigs) == 3
        for got, want in zip(eigs, expected):
            assert abs(got - want) < 1e-9

    def test_independent_diagonalization(self):
        import numpy as np

        h = chains.hamiltonian(cached_rep((1,), 3, "rational"), std_params())
        mat = np.array(chains.bulk_complex(h, RATIONAL))
        mat += U * h.boundary * np.eye(3)
        # roots of the characteristic polynomial, not eigvals
        roots = np.roots(np.poly(mat))
        got = chains.eigenvalues_numeric(h, RATIONAL)
        for r in roots:
            assert min(abs(r - g) for g in got) < 1e-8

    def test_non_generic_point_rejected(self):
        # nu = 1/q gives nu^2 q^2 = 1; every entry of the symbolic rep still
        # specializes there, so only the genericity check can object
        h = chains.hamiltonian(cached_rep((1,), 3), std_params())
        with pytest.raises(NonGenericPoint):
            chains.eigenvalues_numeric(h, GenericSpecialization(2, Fraction(1, 2)))

    def test_sorted_output(self):
        h = chains.hamiltonian(cached_rep((), 4, "rational"), std_params())
        eigs = chains.eigenvalues_numeric(h, RATIONAL)
        assert eigs == sorted(eigs, key=lambda z: (z.real, z.imag))

    def test_gauge_invariance(self):
        import random

        rng = random.Random(11)
        rep = cached_rep((1, 1), 4, "rational")
        h = chains.hamiltonian(rep, std_params())
        base = chains.eigenvalues_numeric(h, RATIONAL)
        scales = [Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(rep.dim)]
        conj = conjugate_diagonal(rep, scales)
        h2 = chains.hamiltonian(conj, std_params())
        other = chains.eigenvalues_numeric(h2, RATIONAL)
        for x, y in zip(base, other):
            assert abs(x - y) <= 1e-10 * max(1.0, abs(x))

    def test_kappa_free_matches_hecke_chain(self):
        """Where every kappa vanishes the kappa coefficient is irrelevant:
        the chain equals the bare sigma sum plus boundary."""
        rep = cached_rep((4,), 4, "rational")
        assert all(k.is_zero for mats in rep.kappa for k in mats)
        h = chains.hamiltonian(rep, std_params())
        sigma = dense_parts(rep)[0]
        bare = sigma[0]
        for s in sigma[1:]:
            bare = bare + s
        assert h.bulk.equals(bare)


class TestCsv:
    def test_csv_shape(self):
        h = chains.hamiltonian(cached_rep((1,), 3, "rational"), std_params())
        buf = io.StringIO()
        chains.spectrum_csv(h, RATIONAL, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "lambda,n,a,xi_re,xi_im,re,im"
        assert len(lines) == 4
        assert lines[1].startswith("1,3,q,")

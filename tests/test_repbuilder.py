"""Seminormal matrices: block structure, construction, relation checks."""

from fractions import Fraction

import pytest

from bmwtower import combinatorics as comb
from bmwtower import gauge
from bmwtower import repbuilder as rb
from bmwtower.linalg import Matrix
from bmwtower.scalars import SYMBOLIC
from bmwtower.spectrum import Token

from conftest import cached_rep, cached_report, conjugate_diagonal, level_vertices

Q = SYMBOLIC.q
NU = SYMBOLIC.nu
ONE = SYMBOLIC.one


def mu_value():
    u = Q - SYMBOLIC.q_pow(-1)
    return ONE + (SYMBOLIC.nu_pow(-1) - NU) / u


class TestBlockDecompose:
    def test_one_at_3_coupled_block(self):
        blocks = rb.block_decompose((1,), 3, 2)
        assert len(blocks) == 1
        b = blocks[0]
        assert b.case.tag == "4"
        assert b.size == 3
        pairs = set(b.pairs)
        assert pairs == {
            (Token(1, 0), Token(0, 0)),
            (Token(0, 1), Token(1, -1)),
            (Token(0, -1), Token(1, 1)),
        }

    def test_hook_at_3_hecke_block(self):
        blocks = rb.block_decompose((2, 1), 3, 2)
        assert len(blocks) == 1
        assert blocks[0].case.tag == "3b"
        assert blocks[0].size == 2

    def test_row_at_3_singleton(self):
        blocks = rb.block_decompose((3,), 3, 2)
        assert len(blocks) == 1
        b = blocks[0]
        assert b.case.tag == "3a"
        assert (b.case.sign, b.case.power) == (1, 1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_case4_block_shape(self, n):
        """Coupled blocks are odd-size with member products nu^2m, nu^2m+2."""
        for lam in level_vertices(n):
            for i in range(1, n):
                for b in rb.block_decompose(lam, n, i):
                    if b.case.tag != "4":
                        assert b.size in (1, 2)
                        continue
                    assert b.size % 2 == 1
                    m = (b.size - 1) // 2
                    # each pair multiplies to nu^2; exponents add exactly
                    for a, bb in b.pairs:
                        assert (a.nu + bb.nu, a.z + bb.z) == (1, 0)
                    sum_a = (sum(a.nu for a, _ in b.pairs),
                             sum(a.z for a, _ in b.pairs))
                    sum_b = (sum(bb.nu for _, bb in b.pairs),
                             sum(bb.z for _, bb in b.pairs))
                    assert sum_a == (m, 0)
                    assert sum_b == (m + 1, 0)


class TestSmallReps:
    def test_empty_at_2(self):
        rep = cached_rep((), 2)
        assert rep.dim == 1
        assert rep.sigma[0].rows[0][0] == NU
        assert rep.kappa[0].rows[0][0] == mu_value()
        assert rep.y[1].rows[0][0] == SYMBOLIC.nu_pow(2)

    def test_row_two_at_2(self):
        rep = cached_rep((2,), 2)
        assert rep.dim == 1
        assert rep.sigma[0].rows[0][0] == Q
        assert not rep.kappa[0].rows[0][0]
        assert rep.y[1].rows[0][0] == SYMBOLIC.q_pow(2)

    def test_one_at_3_verifies(self):
        rep = cached_rep((1,), 3)
        assert rep.dim == 3
        assert cached_report((1,), 3).ok

    def test_perturbed_rep_fails_braid(self):
        rep = cached_rep((1,), 3)
        bad = rb.SeminormalRep(
            rep.lam, rep.n, rep.paths, rep.strings,
            [rep.sigma[0], rep.sigma[1].shift(ONE)],
            rep.kappa, rep.y, rep.blocks, rep.field,
        )
        report = rb.verify_relations(bad)
        assert any(c.name == "braid" and not c.ok for c in report.checks)


class TestRelationSuite:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_symbolic(self, n):
        for lam in level_vertices(n):
            cached_rep(lam, n)  # a failed verification raises

    @pytest.mark.parametrize("n", range(2, 7))
    def test_rational(self, n):
        for lam in level_vertices(n):
            cached_rep(lam, n, "rational")


class TestLocalCases:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_singleton_blocks_act_by_scalars(self, n):
        """Uncoupled one-member blocks: sigma = +-q^{+-1}, kappa = 0."""
        for lam in level_vertices(n):
            rep = cached_rep(lam, n)
            f = rep.field
            for i in range(1, n):
                for b in rep.blocks[i]:
                    if b.case.tag != "3a":
                        continue
                    p = b.members[0]
                    expected = f.from_int(b.case.sign) * f.q_pow(b.case.power)
                    assert rep.sigma[i - 1].rows[p][p] == expected
                    for s in range(rep.dim):
                        if s != p:
                            assert not rep.sigma[i - 1].rows[p][s]
                            assert not rep.sigma[i - 1].rows[s][p]
                        assert not rep.kappa[i - 1].rows[p][s]
                        assert not rep.kappa[i - 1].rows[s][p]

    @pytest.mark.parametrize("n", range(2, 6))
    def test_hecke_pair_swap_in_spectrum(self, n):
        """The transposed string of every two-member block is also present."""
        for lam in level_vertices(n):
            rep = cached_rep(lam, n)
            strings = set(rep.strings)
            for i in range(1, n):
                for b in rep.blocks[i]:
                    if b.case.tag != "3b":
                        continue
                    s = rep.strings[b.members[0]]
                    swapped = s[: i - 1] + (s[i], s[i - 1]) + s[i + 1:]
                    assert swapped in strings


class TestHeckeDegeneration:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_quadratic_on_kappa_free_irreps(self, n):
        f = SYMBOLIC
        qinv = f.q_pow(-1)
        for lam in level_vertices(n):
            rep = cached_rep(lam, n)
            if not all(k.is_zero for k in rep.kappa):
                continue
            ident = Matrix.identity(rep.dim, f)
            for s in rep.sigma:
                assert ((s.shift(-Q)) * (s.shift(qinv))).is_zero


class TestGaugeInvariance:
    def test_random_diagonal_conjugation(self):
        rep = cached_rep((1,), 3, "rational")
        scales = [Fraction(3, 2), Fraction(-5, 7), Fraction(11, 4)]
        conj = conjugate_diagonal(rep, scales)
        assert rb.verify_relations(conj).ok

    @staticmethod
    def _repair(sig):
        """Test sigma_3 of (2,)@4 against the built sigma_2."""
        rep = cached_rep((2,), 4, "rational")
        return gauge.repair_position(rep.sigma[1], sig, rep.kappa[2])

    def test_built_sigma_passes_unchanged(self):
        rep = cached_rep((2,), 4, "rational")
        sig, kap, scales = self._repair(rep.sigma[2])
        assert scales is None
        assert sig is rep.sigma[2] and kap is rep.kappa[2]

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 2), (3, 4), (5, 5)])
    def test_repair_rejects_non_gauge_sigma(self, entry):
        """A change to one entry of sigma breaks the braid identity."""
        bad = cached_rep((2,), 4, "rational").sigma[2].copy()
        i, j = entry
        bad.rows[i][j] = bad.rows[i][j] + 1
        with pytest.raises(gauge.GaugeRepairFailed):
            self._repair(bad)


class TestSerialization:
    def test_rep_json_shape(self):
        import json

        data = json.loads(rb.rep_to_json(cached_rep((), 2)))
        assert data["lambda"] == []
        assert data["n"] == 2
        assert data["sigma"] == [[["nu"]]]
        assert len(data["y"]) == 2

"""Seminormal matrices: block structure, construction, relation checks."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bmwtower import central, gauge, scalars
from bmwtower import combinatorics as comb
from bmwtower import repbuilder as rb
from bmwtower import spectrum as spec
from bmwtower.scalars import (
    SYMBOLIC,
    GenericSpecialization,
    NonGenericPoint,
    check_generic,
)
from bmwtower.spectrum import Token

from conftest import cached_rep, cached_verdict, conjugate_diagonal, level_vertices
from dense_oracle import dense_parts

Q = SYMBOLIC.q
NU = SYMBOLIC.nu
ONE = SYMBOLIC.one


def mu_value():
    u = Q - SYMBOLIC.q_pow(-1)
    return ONE + (SYMBOLIC.nu_pow(-1) - NU) / u


def _sliced_blocks(paths, strings, i):
    """The blocks at position i by their definition: the paths grouped by
    the slices (p[:i], p[i+1:]), in order of first appearance."""
    groups = {}
    for idx, p in enumerate(paths):
        groups.setdefault((p[:i], p[i + 1:]), []).append(idx)
    blocks = []
    for (pre, post), members in groups.items():
        pairs = tuple((strings[m][i - 1], strings[m][i]) for m in members)
        if pre[i - 1] == post[0]:
            case = spec.LocalCase("4")
        else:
            case = spec.classify_local(*pairs[0])
        blocks.append(rb.Block(i, tuple(members), case, pairs))
    return blocks


@pytest.mark.parametrize("flip", [False, True])
def test_blocks_match_the_slicing_definition(flip):
    """``_group_blocks`` numbers prefixes and suffixes instead of slicing:
    the same blocks in the same order at every position, for n <= 7."""
    for n in range(0, 8):
        for lam in level_vertices(n):
            strings, paths = zip(*comb.basis(lam, n, flip))
            got = rb._group_blocks(paths, strings)
            assert list(got) == list(range(1, n))
            for i in range(1, n):
                assert got[i] == _sliced_blocks(paths, strings, i), (lam, n, i)


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
        assert rep.sigma[0][0].rows[0][0] == NU
        assert rep.kappa[0][0].rows[0][0] == mu_value()
        assert rep.y[1][0] == SYMBOLIC.nu_pow(2)

    def test_row_two_at_2(self):
        rep = cached_rep((2,), 2)
        assert rep.dim == 1
        assert rep.sigma[0][0].rows[0][0] == Q
        assert not rep.kappa[0][0].rows[0][0]
        assert rep.y[1][0] == SYMBOLIC.q_pow(2)

    def test_one_at_3_verifies(self):
        rep = cached_rep((1,), 3)
        assert rep.dim == 3
        assert cached_verdict((1,), 3)

    @pytest.mark.parametrize("verify", [True, False])
    @pytest.mark.parametrize("point", [(2, 8), (2, 2), (2, 1)])
    def test_non_generic_point_is_rejected(self, point, verify):
        s = GenericSpecialization(*point)
        assert not check_generic(s, 3)
        message = r"^\(q=2, nu=\d\) is not generic at level 3$"
        with pytest.raises(NonGenericPoint, match=message):
            rb.build_rep((1,), 3, field=s, verify=verify)

    def test_perturbed_rep_fails_braid(self):
        rep = cached_rep((1,), 3)
        bad = rb.SeminormalRep(
            rep.lam, rep.n, rep.paths, rep.strings,
            [rep.sigma[0], [s.shift(ONE) for s in rep.sigma[1]]],
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
                for b, s, k in zip(rep.blocks[i], rep.sigma[i - 1], rep.kappa[i - 1]):
                    if b.case.tag != "3a":
                        continue
                    expected = f.from_int(b.case.sign) * f.q_pow(b.case.power)
                    assert s.rows == [[expected]]
                    assert k.is_zero

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
            if not all(k.is_zero for mats in rep.kappa for k in mats):
                continue
            for s in dense_parts(rep)[0]:
                assert ((s.shift(-Q)) * (s.shift(qinv))).is_zero


class TestGaugeInvariance:
    def test_random_diagonal_conjugation(self):
        rep = cached_rep((1,), 3, "rational")
        scales = [Fraction(3, 2), Fraction(-5, 7), Fraction(11, 4)]
        conj = conjugate_diagonal(rep, scales)
        assert rb.verify_relations(conj).ok

    @staticmethod
    def _dense():
        """Dense sigma_1..3 and kappa_1..3 of (2,)@4."""
        return dense_parts(cached_rep((2,), 4, "rational"))[:2]

    def _repair(self, sig):
        """Test sigma_3 of (2,)@4 against the built sigma_2."""
        sigma, kappa = self._dense()
        return gauge.repair_position(sigma[1], sig, kappa[2])

    def test_built_sigma_passes_unchanged(self):
        sigma, kappa = self._dense()
        sig, kap, scales = gauge.repair_position(sigma[1], sigma[2], kappa[2])
        assert scales is None
        assert sig is sigma[2] and kap is kappa[2]

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 2), (3, 4), (5, 5)])
    def test_repair_rejects_non_gauge_sigma(self, entry):
        """A change to one entry of sigma breaks the braid identity."""
        bad = self._dense()[0][2]
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

    @pytest.mark.parametrize("mode, n", [("symbolic", 0), ("symbolic", 1),
                                         ("symbolic", 2), ("symbolic", 3),
                                         ("rational", 2), ("rational", 4)])
    def test_layout_is_json_indent_2(self, mode, n):
        """The joined layout is the bytes of json's own indented encoder,
        empty lists (the empty diagram, no sigma at n < 2) included."""
        import json

        for lam in level_vertices(n):
            text = rb.rep_to_json(cached_rep(lam, n, mode))
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)


class TestGenericBase:
    """Every denominator that the symbolic build, its verification, the
    central scalars and the intertwiner checks produce factors over the
    genericity base of ``polygcd``: a divisor with a factor outside it would
    raise ``OutsideBase``, and every base factor divides q^(2z) - 1 or
    nu^2 q^(2z) - 1 with |z| <= 2n, which ``check_generic`` requires to be
    nonzero at level n."""

    def test_levels_up_to_4_take_no_gcd(self, monkeypatch):
        split, met = scalars.split, set()

        def recording_split(terms):
            out = split(terms)
            met.update(out[2])
            return out

        monkeypatch.setattr(scalars, "split", recording_split)
        for n in range(1, 5):
            met.clear()
            for lam in level_vertices(n):
                rep = rb.build_rep(lam, n, field=SYMBOLIC)
                central.central_report(rep)
                for k in range(1, n):
                    assert all(ok for _, _, ok in central.intertwiner_checks(rep, k))
            assert met or n == 1
            for key in met:
                if isinstance(key, int):   # Phi_m
                    assert any(2 * z % key == 0 for z in range(1, 2 * n + 1)), (n, key)
                else:                      # nu q^k - s
                    assert abs(key[0]) <= 2 * n, (n, key)

    def test_verify_does_not_import_sympy(self):
        """In a process where sympy cannot be imported, every command runs
        and exits 0, and scalar text that divides by a polynomial outside
        the base is refused."""
        src = str(Path(rb.__file__).resolve().parents[1])
        code = ("import sys\n"
                "sys.modules['sympy'] = None\n"
                "from bmwtower import cli\n"
                "from bmwtower.scalars import OutsideBase, parse_scalar\n"
                "for argv in sys.argv[1:]:\n"
                "    assert cli.main(argv.split()) == 0, argv\n"
                "try:\n"
                "    parse_scalar('2/(q+2)')\n"
                "except OutsideBase:\n"
                "    sys.stderr.write('refused')\n")
        commands = ["graph --n 3", "dims --n 3", "spectra --n 3",
                    "rep --lambda 1 --n 3", "rep --lambda 2,1 --n 5 --mode rational",
                    "verify --n 3", "verify --n 3 --mode rational",
                    "central --n 3", "central --n 3 --mode rational",
                    "hamiltonian --lambda 1,1 --n 4"]
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code, *commands],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "refused"

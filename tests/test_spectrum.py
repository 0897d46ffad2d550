"""Eigenvalue strings: content maps, admissibility, local cases, bijection."""

from fractions import Fraction

import pytest

from bmwtower import combinatorics as comb
from bmwtower import repbuilder as rb
from bmwtower import spectrum as spec
from bmwtower.scalars import GenericSpecialization
from bmwtower.spectrum import Token


def toks(*pairs):
    return tuple(Token(e, z) for e, z in pairs)


class TestContentString:
    def test_add_remove_add(self):
        path = [(), (1,), (), (1,)]
        assert spec.content_string(path) == toks((0, 0), (1, 0), (0, 0))

    def test_grow_then_shrink(self):
        path = [(), (1,), (2,), (1,)]
        assert spec.content_string(path) == toks((0, 0), (0, 1), (1, -1))

    def test_column_then_hook(self):
        path = [(), (1,), (1, 1), (2, 1)]
        assert spec.content_string(path) == toks((0, 0), (0, -1), (0, 1))

    def test_flip_negates_exponents(self):
        path = [(), (1,), (2,), (1,)]
        assert spec.content_string(path, flip=True) == toks(
            (0, 0), (0, -1), (1, 1)
        )


class TestTokenValue:
    def test_trivial(self):
        assert Token(0, 0) == spec.ONE

    def test_case4_product(self):
        a, b = Token(0, 1), Token(1, -1)
        # product of values is nu^2: exponents add to (eps, z) = (1, 0)
        assert (a.nu + b.nu, a.z + b.z) == (1, 0)


class TestClassifyLocal:
    def test_3a_plus(self):
        c = spec.classify_local(Token(0, 0), Token(0, 1))
        assert (c.tag, c.sign, c.power) == ("3a", 1, 1)

    def test_3a_minus(self):
        c = spec.classify_local(Token(0, 1), Token(0, 0))
        assert (c.tag, c.sign, c.power) == ("3a", -1, -1)

    def test_case4(self):
        assert spec.classify_local(Token(0, 1), Token(1, -1)).tag == "4"

    def test_3b(self):
        assert spec.classify_local(Token(0, 1), Token(0, -1)).tag == "3b"

    def test_repeated_eigenvalue(self):
        with pytest.raises(spec.RepeatedEigenvalue):
            spec.classify_local(Token(0, 1), Token(0, 1))


class TestAdmissible:
    def test_strictly_growing_row(self):
        assert spec.admissible(toks((0, 0), (0, 1), (0, 2)))

    def test_gap_violates_neighbor_rule(self):
        assert not spec.admissible(toks((0, 0), (0, 2)))

    def test_remove_and_readd(self):
        # the nu-token between the two trivial tokens legitimizes the repeat
        assert spec.admissible(toks((0, 0), (1, 0), (0, 0)))

    def test_first_token_must_be_trivial(self):
        assert not spec.admissible(toks((0, 1), (0, 0)))

    def test_immediate_repeat_forbidden(self):
        assert not spec.admissible(toks((0, 0), (0, 0)))


class TestStringToPath:
    def test_grow_shrink(self):
        assert spec.string_to_path(toks((0, 0), (0, 1), (1, -1))) == (
            (), (1,), (2,), (1,),
        )

    def test_hook(self):
        assert spec.string_to_path(toks((0, 0), (0, -1), (0, 1))) == (
            (), (1,), (1, 1), (2, 1),
        )

    def test_single_removal(self):
        assert spec.string_to_path(toks((0, 0), (1, 0))) == ((), (1,), ())

    def test_unrealizable(self):
        with pytest.raises(spec.NotRealizable):
            spec.string_to_path(toks((0, 0), (0, 5)))


class TestBijection:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_prop_bijection(self, n):
        rep = spec.bijection_report(n)
        assert rep["sets_equal"], (rep["only_paths"], rep["only_admissible"])
        assert rep["roundtrip_ok"]
        assert rep["num_path_strings"] == rep["num_paths"]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_bijection_flipped_convention(self, n):
        rep = spec.bijection_report(n, flip=True)
        assert rep["sets_equal"] and rep["roundtrip_ok"]


class TestPathStringProperties:
    def _all_strings(self, n):
        g = comb.build_graph(n)
        out = []
        for lam in g.levels[n]:
            out.extend(spec.strings_of_level(lam, n))
        return out

    @pytest.mark.parametrize("n", range(2, 7))
    def test_no_forbidden_triple(self, n):
        for s in self._all_strings(n):
            for i in range(len(s) - 2):
                a, b, c = s[i], s[i + 1], s[i + 2]
                if a == c and b.nu == a.nu and abs(b.z - a.z) == 1:
                    pytest.fail(f"forbidden triple {a},{b},{c} in {s}")

    @pytest.mark.parametrize("n", range(2, 6))
    def test_swap_closure_for_3b(self, n):
        all_strings = set(self._all_strings(n))
        for s in all_strings:
            for i in range(len(s) - 1):
                a, b = s[i], s[i + 1]
                if a == b:
                    continue
                if spec.classify_local(a, b).tag == "3b":
                    swapped = s[:i] + (b, a) + s[i + 2:]
                    assert swapped in all_strings

    @pytest.mark.parametrize("n", range(1, 6))
    def test_token_alphabet(self, n):
        for s in self._all_strings(n):
            for t in s:
                assert t.nu in (0, 1)
                assert abs(t.z) <= n


class TestWalk:
    """``comb.basis`` forms every path's content string, one token per edge;
    ``content_string``, the definition for one path, is its oracle."""

    POINT = GenericSpecialization(Fraction(2), Fraction(5))  # generic at level 7

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("n", range(8))
    def test_strings_are_content_strings(self, n, flip):
        for lam in comb.build_graph(n).levels[n]:
            pairs = comb.basis(lam, n, flip)
            assert len(pairs) == comb.dim(lam, n)
            for s, p in pairs:
                assert s == spec.content_string(p, flip=flip)

    @pytest.mark.parametrize("n", range(8))
    def test_enumerate_paths_sorted_by_content_string(self, n):
        for lam in comb.build_graph(n).levels[n]:
            strings = [spec.content_string(p) for p in comb.enumerate_paths(lam, n)]
            assert len(strings) == comb.dim(lam, n)
            assert strings == sorted(set(strings))

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_rep_basis_sorted_by_its_strings(self, n, flip):
        """rep and verify order the basis by the strings of the convention
        they use, the flipped ones under flip."""
        for lam in comb.build_graph(n).levels[n]:
            rep = rb.build_rep(lam, n, field=self.POINT, flip=flip, verify=False)
            strings = [spec.content_string(p, flip=flip) for p in rep.paths]
            assert rep.strings == strings
            assert strings == sorted(set(strings))
            assert sorted(rep.paths) == sorted(comb.enumerate_paths(lam, n))

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("n", range(8))
    def test_spectra_lists_strings_in_unflipped_order(self, n, flip):
        """spectra lists each path's string, flipped under flip, in the
        unflipped canonical order of the paths."""
        for lam in comb.build_graph(n).levels[n]:
            assert spec.strings_of_level(lam, n, flip) == [
                spec.content_string(p, flip=flip) for p in comb.enumerate_paths(lam, n)
            ]

"""Central scalars, the coefficient generating series, and intertwiners."""

import pytest

from bmwtower import central as cen
from bmwtower import repbuilder as rb
from bmwtower.scalars import SYMBOLIC
from bmwtower.spectrum import Token

from conftest import RATIONAL, cached_rep, level_vertices
from dense_oracle import dense_matrix, dense_parts

Q = SYMBOLIC.q
NU = SYMBOLIC.nu
MU = cen.mu_scalar(SYMBOLIC)


class TestZhatSeries:
    def test_empty_prefix_is_constant_mu(self):
        for order in (0, 2, 5):
            coeffs = cen.zhat_series((), order, SYMBOLIC)
            assert len(coeffs) == order + 1
            assert all(c == MU for c in coeffs)

    def test_order_zero_always_mu(self):
        for prefix in [(Token(0, 0),), (Token(0, 0), Token(0, 1))]:
            assert cen.zhat_series(prefix, 0, SYMBOLIC)[0] == MU

    def test_consistency_with_coupled_block(self):
        """Sandwiching powers of y_2 between the kappas of ((1), 3) must
        reproduce the series coefficients for the length-1 prefix."""
        rep = cached_rep((1,), 3)
        coeffs = cen.zhat_series((Token(0, 0),), 2, SYMBOLIC)
        _, kappa, y = dense_parts(rep)
        kap = kappa[1]
        y2 = y[1]
        yp = rb.Matrix.identity(rep.dim, SYMBOLIC)
        for p in range(3):
            lhs = kap * yp * kap
            assert lhs.equals(kap.scale(coeffs[p])), f"power {p}"
            yp = yp * y2

    @pytest.mark.parametrize("n", range(2, 7))
    def test_prefix_independence(self, n):
        """Vandermonde data depends only on the reached diagram, not the
        prefix route: series coefficients agree across all paths into the
        same middle diagram."""
        from bmwtower import combinatorics as comb
        from bmwtower import spectrum as spec

        for lam in level_vertices(min(n, 4)):
            per_diagram = {}
            for path in comb.enumerate_paths(lam, min(n, 4)):
                s = spec.content_string(path)
                coeffs = tuple(cen.zhat_series(s[:-1], 2, RATIONAL))
                per_diagram.setdefault(path[-2], set()).add(coeffs)
            for diagram, variants in per_diagram.items():
                assert len(variants) == 1, diagram


class TestCentralScalars:
    def test_one_at_3_product(self):
        scalars = cen.central_scalars(cached_rep((1,), 3))
        assert scalars["Z"] == SYMBOLIC.nu_pow(2)

    def test_row_two_at_2_product(self):
        scalars = cen.central_scalars(cached_rep((2,), 2))
        assert scalars["Z"] == SYMBOLIC.q_pow(2)

    def test_one_at_3_power_sum(self):
        a = SYMBOLIC.q_pow(2)
        nu2 = SYMBOLIC.nu_pow(2)
        expected = (
            SYMBOLIC.one + a + nu2 / a
            - nu2 * (SYMBOLIC.one + SYMBOLIC.one / a + a / nu2)
        )
        scalars = cen.central_scalars(cached_rep((1,), 3))
        assert scalars["Zp"][1] == expected

    def test_one_at_3_power_sums_beyond_3(self):
        # y_1 = 1 and y_2 y_3 = nu^2 on every path, so the y_2 and y_3
        # terms cancel and Z^(p) = 1 - nu^(2p)
        scalars = cen.central_scalars(cached_rep((1,), 3), max_power=5)
        assert sorted(scalars["Zp"]) == list(range(6))
        for p, value in scalars["Zp"].items():
            assert value == SYMBOLIC.one - SYMBOLIC.nu_pow(2 * p)

    def test_power_sum_p0_vanishes_nowhere_special(self):
        # Z^(0) = sum (1 - nu^0... ) = n(1 - nu^0)? No: p=0 gives
        # sum_k (1 - 1) = 0 exactly on every irrep.
        for lam in level_vertices(3):
            scalars = cen.central_scalars(cached_rep(lam, 3))
            assert not scalars["Zp"][0]

    @pytest.mark.parametrize("n", range(2, 6))
    def test_centrality_everywhere(self, n):
        for lam in level_vertices(n):
            cen.central_scalars(cached_rep(lam, n))  # raises on failure


class TestIntertwiners:
    def test_scalar_rep_degenerates(self):
        rep = cached_rep((2,), 2)
        assert all(m.is_zero for m in cen.intertwiner(rep, 1))
        assert all(ok for _, _, ok in cen.intertwiner_checks(rep, 1))

    def test_one_at_3_all_positions(self):
        rep = cached_rep((1,), 3)
        for k in (1, 2):
            checks = cen.intertwiner_checks(rep, k)
            assert all(ok for _, _, ok in checks), checks

    def test_hook_at_3_swap(self):
        rep = cached_rep((2, 1), 3)
        u = dense_matrix(rep, 2, cen.intertwiner(rep, 2))
        y = dense_parts(rep)[2]
        assert (u * y[1]).equals(y[2] * u)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_all_identities_all_irreps(self, n):
        for lam in level_vertices(n):
            rep = cached_rep(lam, n)
            for k in range(1, n):
                checks = cen.intertwiner_checks(rep, k)
                bad = [c for c in checks if not c[2]]
                assert not bad, (lam, n, k, bad)

"""Central scalars, the coefficient generating series, and intertwiners."""

import functools
from fractions import Fraction

import pytest

from bmwtower import central as cen
from bmwtower import combinatorics as comb
from bmwtower import repbuilder as rb
from bmwtower import spectrum as spec
from bmwtower.scalars import SYMBOLIC, GenericSpecialization
from bmwtower.spectrum import Token

from conftest import RATIONAL, cached_rep, level_vertices
from dense_oracle import dense_matrix, dense_parts, zhat_from_scratch

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


@functools.lru_cache(maxsize=None)
def _verified_prefixes(levels):
    """({prefix: 2m}, the orders 2m) over every irrep at the levels: each
    prefix s[:i-1] of a path's token string s at a position i that
    verifying the irrep reads, with the largest order 2m of the Zhat table
    such a verification makes (2m + 1 members in its largest Case-4
    block), and the orders of all those tables."""
    out, orders = {}, set()
    for n in levels:
        for lam in level_vertices(n):
            paths = comb.enumerate_paths(lam, n)
            strings = [spec.content_string(p) for p in paths]
            sizes = [b.size for blocks in rb._group_blocks(paths, strings).values()
                     for b in blocks if b.case.tag == "4"]
            order = 2 * ((max(sizes, default=1) - 1) // 2)
            orders.add(order)
            for prefix in {s[: i - 1] for s in strings for i in range(1, n)}:
                out[prefix] = max(order, out.get(prefix, 0))
    return out, orders


# the four rational points of the benchmark's reference outputs
REFERENCE_POINTS = [GenericSpecialization(Fraction(q), Fraction(nu))
                    for q, nu in ((2, 5), (-2, 5), (2, -5), (-2, -5))]


@pytest.mark.parametrize("field, levels", [
    *((f, range(2, 8)) for f in REFERENCE_POINTS),
    (SYMBOLIC, range(2, 5)),
])
def test_table_matches_products_from_scratch(field, levels):
    """For every prefix that verifying an irrep reads, the product formed
    from scratch at the irrep's order 2m and a table made at each order
    that verifications make agree on every coefficient 0..2m that both
    hold, and so does ``zhat_series`` at order 2m."""
    prefixes, orders = _verified_prefixes(levels)
    tables = [cen.ZhatTable(field, order) for order in sorted(orders)]
    assert len(tables) > 1
    for prefix, top in prefixes.items():
        want = zhat_from_scratch(prefix, top, field)
        assert cen.zhat_series(prefix, top, field) == want, prefix
        for table in tables:
            common = min(table.order, top) + 1
            assert table[prefix][:common] == want[:common], (prefix, table.order)


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

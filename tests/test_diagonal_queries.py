"""Central scalars, intertwiners and chain Hamiltonians read the y
diagonals; the dense formulas in ``dense_oracle`` are the reference."""

import pytest

from bmwtower import central as cen
from bmwtower import chains
from bmwtower.linalg import Matrix

from conftest import RATIONAL, cached_rep, level_vertices, replace_parts, set_entries
from dense_oracle import (
    dense_bulk,
    dense_central_scalars,
    dense_intertwiner,
    dense_intertwiner_checks,
    dense_power_sum,
)

MAX_POWER = 5


def _reps():
    """(id, rep): every symbolic irrep with n <= 4, every rational one at 5."""
    for n in range(1, 5):
        for lam in level_vertices(n):
            yield f"symbolic {lam}@{n}", cached_rep(lam, n, "symbolic")
    for lam in level_vertices(5):
        yield f"rational {lam}@5", cached_rep(lam, 5, "rational")


def _params(a):
    return chains.ChainParams.standard(a, RATIONAL.q_value, RATIONAL.nu_value)


def _bulk_coeff(rep, params):
    f = rep.field
    return (f.q - f.q_pow(-1)) * f.nu / (f.nu + params.a_value(f))


def _verdicts(checks):
    return [(name, k, bool(ok)) for name, k, ok in checks]


def test_agrees_with_dense_oracle():
    for label, rep in _reps():
        fast = cen.central_scalars(rep, max_power=MAX_POWER)
        dense = dense_central_scalars(rep, max_power=MAX_POWER)
        assert fast["Z"] == dense["Z"], label
        assert sorted(fast["Zp"]) == sorted(dense["Zp"]) == list(range(MAX_POWER + 1))
        for p in range(MAX_POWER + 1):
            assert fast["Zp"][p] == dense["Zp"][p], (label, p)
        assert cen.power_sum(rep, 2).equals(dense_power_sum(rep, 2)), label
        for k in range(1, rep.n):
            assert cen.intertwiner(rep, k).equals(dense_intertwiner(rep, k)), (label, k)
            assert _verdicts(cen.intertwiner_checks(rep, k)) == _verdicts(
                dense_intertwiner_checks(rep, k)
            ), (label, k)
        for a in chains.A_CHOICES:
            params = _params(a)
            bulk = chains.hamiltonian(rep, params).bulk
            assert bulk.equals(dense_bulk(rep, _bulk_coeff(rep, params))), (label, a)


def _perturbed_sigmas(rep):
    """(label, rep) pairs with one sigma entry bumped by one: in a block,
    and between two blocks."""
    f = rep.field
    for i in range(1, rep.n):
        blocks = rep.blocks[i]
        pairs = [(blocks[-1].members[0], blocks[-1].members[-1])]
        if len(blocks) > 1:
            pairs.append((blocks[0].members[0], blocks[-1].members[0]))
        for r, c in pairs:
            bumped = rep.sigma[i - 1].rows[r][c] + f.one
            yield f"sigma_{i}[{r}][{c}]", replace_parts(
                rep, sigma=set_entries(rep.sigma, i - 1, {(r, c): bumped}))


@pytest.mark.parametrize("mode, n", [("symbolic", 3), ("symbolic", 4), ("rational", 5)])
def test_perturbed_sigma_verdicts_match_the_oracle(mode, n):
    failing = set()
    for lam in level_vertices(n):
        for label, bad in _perturbed_sigmas(cached_rep(lam, n, mode)):
            for k in range(1, n):
                got = _verdicts(cen.intertwiner_checks(bad, k))
                assert got == _verdicts(dense_intertwiner_checks(bad, k)), (lam, label, k)
                failing.update(name for name, _, ok in got if not ok)
    assert {"U_swaps_y_k", "U_product_identity", "kappa_U_zero"} <= failing


@pytest.mark.parametrize("mode, n", [("symbolic", 3), ("rational", 4)])
def test_perturbed_y_diagonal_is_not_central(mode, n):
    """A changed diagonal entry of a y breaks centrality in both versions."""
    for lam in level_vertices(n):
        rep = cached_rep(lam, n, mode)
        if rep.dim < 2:
            continue
        for j in range(1, n):
            entry = rep.y[j].rows[0][0]
            bad = replace_parts(
                rep, y=set_entries(rep.y, j, {(0, 0): entry + rep.field.one}))
            for central_scalars in (dense_central_scalars, cen.central_scalars):
                with pytest.raises(cen.CentralityViolated, match="product of JM"):
                    central_scalars(bad)


@pytest.mark.parametrize("mode, lam, n", [("symbolic", (1,), 3), ("rational", (2, 1), 5)])
def test_off_diagonal_y_raises(mode, lam, n):
    """One off-diagonal entry in a y must not give a silently wrong answer."""
    rep = cached_rep(lam, n, mode)
    for j in range(n):
        bad = replace_parts(
            rep, y=set_entries(rep.y, j, {(0, rep.dim - 1): rep.field.one}))
        with pytest.raises(ValueError, match="off-diagonal"):
            cen.central_scalars(bad)
        with pytest.raises(ValueError, match="off-diagonal"):
            cen.power_sum(bad, 1)
        for k in range(1, n):
            with pytest.raises(ValueError, match="off-diagonal"):
                cen.intertwiner_checks(bad, k)
            if j in (k - 1, k):
                with pytest.raises(ValueError, match="off-diagonal"):
                    cen.intertwiner(bad, k)


@pytest.mark.parametrize("mode, lam, n", [("symbolic", (2,), 4), ("rational", (2, 1), 5)])
def test_queries_invert_no_matrix(mode, lam, n, monkeypatch):
    def refuse(self):
        raise AssertionError("a query inverted a matrix")

    rep = cached_rep(lam, n, mode)
    monkeypatch.setattr(Matrix, "inverse", refuse)
    cen.central_report(rep)
    for k in range(1, n):
        assert all(ok for _, _, ok in cen.intertwiner_checks(rep, k))
    for a in chains.A_CHOICES:
        h = chains.hamiltonian(rep, _params(a))
        assert len(chains.eigenvalues_numeric(h, RATIONAL)) == rep.dim

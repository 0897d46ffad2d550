"""Central scalars, intertwiners and chain Hamiltonians read the y
diagonals; the dense formulas in ``dense_oracle`` are the reference."""

import pytest

from bmwtower import central as cen
from bmwtower import chains
from bmwtower import repbuilder as rb
from bmwtower.linalg import Matrix

from conftest import RATIONAL, cached_rep, level_vertices, replace_parts, set_entries
from dense_oracle import (
    dense_bulk,
    dense_central_scalars,
    dense_intertwiner,
    dense_intertwiner_checks,
    dense_matrix,
    dense_power_sum,
    entrywise_kernels,
)
from oracle_field import oracle_rep

MAX_POWER = 5


def _reps():
    """(id, rep): every symbolic irrep with n <= 4, every rational one with
    n <= 6."""
    for n in range(1, 5):
        for lam in level_vertices(n):
            yield f"symbolic {lam}@{n}", cached_rep(lam, n, "symbolic")
    for n in range(1, 7):
        for lam in level_vertices(n):
            yield f"rational {lam}@{n}", cached_rep(lam, n, "rational")


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
        power_sum = Matrix.diagonal(cen._power_sums(rep, 2)[2], rep.field)
        assert power_sum.equals(dense_power_sum(rep, 2)), label
        for k in range(1, rep.n):
            got = dense_matrix(rep, k, cen.intertwiner(rep, k))
            assert got.equals(dense_intertwiner(rep, k)), (label, k)
            assert _verdicts(cen.intertwiner_checks(rep, k)) == _verdicts(
                dense_intertwiner_checks(rep, k)
            ), (label, k)
        for a in chains.A_CHOICES:
            params = _params(a)
            bulk = chains.hamiltonian(rep, params).bulk
            assert bulk.equals(dense_bulk(rep, _bulk_coeff(rep, params))), (label, a)


def test_eigenvalues_are_numpy_on_the_dense_bulk():
    """The spectrum of the bulk scattered from the blocks, with only its
    nonzero entries specialized, is float for float numpy's on the bulk
    summed over every entry, for every rational irrep with n <= 5."""
    import numpy as np

    for n in range(1, 6):
        for lam in level_vertices(n):
            rep = cached_rep(lam, n, "rational")
            u = complex(rep.field.q - rep.field.q_pow(-1))
            for a in chains.A_CHOICES:
                params = _params(a)
                h = chains.hamiltonian(rep, params)
                bulk = dense_bulk(rep, _bulk_coeff(rep, params))
                mat = np.array([[complex(x) for x in row] for row in bulk.rows],
                               dtype=complex)
                mat += (u * h.boundary) * np.eye(rep.dim)
                want = sorted(np.linalg.eigvals(mat).tolist(),
                              key=lambda z: (round(z.real, 9), round(z.imag, 9)))
                assert chains.eigenvalues_numeric(h, RATIONAL) == want, (lam, n, a)


def _perturbed_sigmas(rep):
    """(label, rep) pairs with one sigma entry bumped by one: the corner
    entry of the last block."""
    f = rep.field
    for i in range(1, rep.n):
        last = len(rep.blocks[i]) - 1
        c = rep.blocks[i][last].size - 1
        bumped = rep.sigma[i - 1][last].rows[0][c] + f.one
        yield f"sigma_{i} block {last}[0][{c}]", replace_parts(
            rep, sigma=set_entries(rep.sigma, i - 1, last, {(0, c): bumped}))


def _perturbed_kappas_and_ys(rep):
    """(label, rep) pairs with kappa_i made nonzero on its first two-member
    block, where U_{i+1} is nonzero, or with the first or the last entry
    of one y changed (so that U_braid fails in the first or the last class
    of a join)."""
    f = rep.field
    for i in range(1, rep.n):
        bi = next((bi for bi, b in enumerate(rep.blocks[i]) if b.size == 2), None)
        if bi is not None:
            yield f"kappa_{i} block {bi}[0][1]", replace_parts(
                rep, kappa=set_entries(rep.kappa, i - 1, bi, {(0, 1): f.one}))
    for j in range(rep.n):
        for r in sorted({0, rep.dim - 1}):
            y = list(rep.y)
            y[j] = list(y[j])
            y[j][r] = y[j][r] + f.one
            yield f"y_{j + 1}[{r}]", replace_parts(rep, y=y)


def _failing_verdicts(mode, n, perturbations):
    """Names of the intertwiner checks that fail on some perturbed irrep at
    level n, after asserting that every verdict matches the oracle's.  A
    symbolic irrep is perturbed in the oracle field: a changed y entry
    such as nu^2 q^(2z) + 1 is inverted, and it is a divisor outside the
    package's scalars."""
    failing = set()
    for lam in level_vertices(n):
        for label, bad in perturbations(oracle_rep(lam, n, mode)):
            for k in range(1, n):
                got = _verdicts(cen.intertwiner_checks(bad, k))
                assert got == _verdicts(dense_intertwiner_checks(bad, k)), (lam, label, k)
                failing.update(name for name, _, ok in got if not ok)
    return failing


@pytest.mark.parametrize("mode, n", [("symbolic", 3), ("symbolic", 4), ("rational", 5)])
def test_perturbed_sigma_verdicts_match_the_oracle(mode, n):
    assert "U_product_identity" in _failing_verdicts(mode, n, _perturbed_sigmas)


@pytest.mark.parametrize("mode, n", [("symbolic", 3), ("rational", 5)])
def test_perturbed_kappa_and_y_verdicts_match_the_oracle(mode, n):
    failing = _failing_verdicts(mode, n, _perturbed_kappas_and_ys)
    assert {"U_swaps_y_k", "U_commutes_y_1", "kappa_U_zero"} <= failing
    assert ("U_braid" in failing) == (mode == "rational")


def _all_checks(rep):
    """The verifier's checks and the intertwiner checks at every k."""
    return (
        [(c.name, c.index, c.detail, c.ok) for c in rb.verify_relations(rep).checks],
        [_verdicts(cen.intertwiner_checks(rep, k)) for k in range(1, rep.n)],
    )


@pytest.mark.parametrize("n", [4, 5])
def test_integer_kernels_give_the_entrywise_checks(n):
    """On the perturbed rational irreps, scaled-integer kernels and the
    entrywise Fraction kernels of the dense oracle give the same checks and
    verdicts, in the verifier and in the intertwiner checks."""
    for lam in level_vertices(n):
        rep = cached_rep(lam, n, "rational")
        for perturbations in (_perturbed_sigmas, _perturbed_kappas_and_ys):
            for label, bad in perturbations(rep):
                got = _all_checks(bad)
                with entrywise_kernels():
                    assert got == _all_checks(bad), (lam, label)


@pytest.mark.parametrize("mode, n", [("symbolic", 3), ("rational", 5)])
def test_one_member_block_fails_the_product_identity(mode, n):
    """Some changed y entry lies in a block of one member at position k and
    makes U_product_identity fail there, in both versions: where U and
    [sigma_k, y_k] are the zero 1 x 1 block, the fast check reads only
    the identity's right side.  A symbolic irrep is perturbed in the
    oracle field."""
    found = 0
    for lam in level_vertices(n):
        rep = oracle_rep(lam, n, mode)
        for _, bad in _perturbed_kappas_and_ys(rep):
            changed = {r for d, e in zip(rep.y, bad.y)
                       for r, (x, y) in enumerate(zip(d, e)) if x != y}
            for k in range(1, n):
                touched = [b for b in rep.blocks[k] if changed & set(b.members)]
                if not touched or any(b.size > 1 for b in touched):
                    continue
                verdicts = [
                    dict((name, ok) for name, _, ok in checks(bad, k))
                    for checks in (cen.intertwiner_checks, dense_intertwiner_checks)
                ]
                if not any(v["U_product_identity"] for v in verdicts):
                    found += 1
    assert found


@pytest.mark.parametrize("mode, n", [("symbolic", 3), ("rational", 4)])
def test_perturbed_y_diagonal_is_not_central(mode, n):
    """A changed diagonal entry of a y breaks centrality in both versions."""
    for lam in level_vertices(n):
        rep = cached_rep(lam, n, mode)
        if rep.dim < 2:
            continue
        for j in range(1, n):
            y = list(rep.y)
            y[j] = [y[j][0] + rep.field.one] + y[j][1:]
            bad = replace_parts(rep, y=y)
            for central_scalars in (dense_central_scalars, cen.central_scalars):
                with pytest.raises(cen.CentralityViolated, match="product of JM"):
                    central_scalars(bad)


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

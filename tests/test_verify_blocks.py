"""Block-local relation verification, checked against the dense oracle."""

from collections import Counter

import pytest

from bmwtower import repbuilder as rb
from bmwtower.linalg import Matrix, SingularMatrix

from conftest import (
    cached_rep,
    cached_report,
    level_vertices,
    replace_parts,
    set_entries,
)
from dense_oracle import dense_verify_relations


def _oracle_ok(rep):
    try:
        return dense_verify_relations(rep).ok
    except SingularMatrix:
        return False


def _relations(report):
    return Counter(
        (c.name, c.index, c.detail) for c in report.checks if c.name != "block_structure"
    )


def _perturbations(rep):
    """(label, perturbed rep) pairs, each breaking one entry or block."""
    f = rep.field
    for i in range(1, rep.n):
        blocks = rep.blocks[i]
        first = blocks[0].members
        r, c = first[0], first[-1]
        bumped = rep.sigma[i - 1].rows[r][c] + f.one
        yield f"in-block sigma_{i}", replace_parts(
            rep, sigma=set_entries(rep.sigma, i - 1, {(r, c): bumped}))
        if len(blocks) > 1:
            other = blocks[1].members[0]
            yield f"off-block sigma_{i}", replace_parts(
                rep, sigma=set_entries(rep.sigma, i - 1, {(r, other): f.one}))
            yield f"off-block kappa_{i}", replace_parts(
                rep, kappa=set_entries(rep.kappa, i - 1, {(other, r): f.one}))
        zeros = {(a, b): f.zero for a in first for b in first}
        yield f"singular sigma_{i} block", replace_parts(
            rep, sigma=set_entries(rep.sigma, i - 1, zeros))
        yield from _kappa_perturbations(rep, i)
    if rep.dim > 1:
        for j in range(rep.n):
            yield f"off-diagonal y_{j + 1}", replace_parts(
                rep, y=set_entries(rep.y, j, {(0, rep.dim - 1): f.one}))


def _kappa_perturbations(rep, i):
    """Kappa_i changed on its first size-3 Case-4 block: one entry bumped
    (rank two, so the verifier falls back to dense products) or the whole
    block doubled (still rank one); and sigma_i changed on its first size-1
    block, with kappa_i there set by the kappa definition, so that
    kappa_definition holds on it and the cubic does not."""
    f = rep.field
    single = next((b for b in rep.blocks[i] if b.size == 1), None)
    if single is not None:
        (r,) = single.members
        x = rep.sigma[i - 1].rows[r][r] + 2
        qinv = f.q_pow(-1)
        k = (f.q - x) * (x + qinv) / (f.nu * (f.q - qinv))
        yield f"defined kappa_{i} of a changed sigma_{i}", replace_parts(
            rep, sigma=set_entries(rep.sigma, i - 1, {(r, r): x}),
            kappa=set_entries(rep.kappa, i - 1, {(r, r): k}))
    block = next(
        (b for b in rep.blocks[i] if b.case.tag == "4" and b.size == 3), None)
    if block is None:
        return
    kap = rep.kappa[i - 1]
    r, c = block.members[0], block.members[1]
    yield f"rank-two kappa_{i} block", replace_parts(
        rep, kappa=set_entries(rep.kappa, i - 1, {(r, c): kap.rows[r][c] + f.one}))
    doubled = {(a, b): kap.rows[a][b] * 2 for a in block.members for b in block.members}
    yield f"doubled kappa_{i} block", replace_parts(
        rep, kappa=set_entries(rep.kappa, i - 1, doubled))


@pytest.mark.parametrize("mode", ["symbolic", "rational"])
@pytest.mark.parametrize("n", range(1, 5))
def test_agrees_with_dense_oracle(mode, n):
    for lam in level_vertices(n):
        rep = cached_rep(lam, n, mode)
        report = cached_report(lam, n, mode)
        oracle = dense_verify_relations(rep)
        assert report.ok == oracle.ok
        assert _relations(report) == _relations(oracle)


@pytest.mark.parametrize("mode, levels", [("symbolic", range(2, 4)),
                                          ("rational", range(2, 5))])
def test_perturbed_reps_fail_like_the_oracle(mode, levels):
    for n in levels:
        for lam in level_vertices(n):
            for label, bad in _perturbations(cached_rep(lam, n, mode)):
                ok = rb.verify_relations(bad).ok
                assert ok == _oracle_ok(bad), (lam, n, label)
                assert not ok, (lam, n, label)


@pytest.mark.parametrize("mode, n", [*(("symbolic", n) for n in range(2, 5)),
                                     *(("rational", n) for n in range(2, 7))])
def test_case_4_blocks_take_the_rank_one_path(mode, n):
    """On a built rep every Case-4 block with K != 0 passes the rank-one
    test and its members share one prefix, so no dense fallback runs."""
    for lam in level_vertices(n):
        rep = cached_rep(lam, n, mode)
        for i in range(1, n):
            for b in rep.blocks[i]:
                lb = rb._LocalBlock.of(rep, i, b)
                if b.case.tag != "4" or lb.k.is_zero:
                    continue
                assert lb.rank_one, (lam, n, i, b.members)
                assert len(set(lb.prefixes)) == 1, (lam, n, i, b.members)


@pytest.mark.parametrize("mode, levels", [("symbolic", range(2, 4)),
                                          ("rational", range(2, 5))])
def test_kappa_perturbations_reduce_like_the_oracle(mode, levels):
    """``cubic`` and ``kappa_y_power`` give the oracle's verdicts where
    kappa_i is perturbed: in the rank-one forms (doubled block; kappa
    defined from a changed sigma) and in the dense fallback (rank two)."""
    def verdicts(report):
        return {(c.name, c.index, c.detail): c.ok for c in report.checks
                if c.name in ("cubic", "kappa_y_power")}

    seen = set()
    for n in levels:
        for lam in level_vertices(n):
            rep = cached_rep(lam, n, mode)
            for i in range(1, n):
                for label, bad in _kappa_perturbations(rep, i):
                    ranked = [rb._LocalBlock.of(bad, i, b).rank_one
                              for b in bad.blocks[i] if b.size == 3]
                    assert (None in ranked) == label.startswith("rank-two"), label
                    got = verdicts(rb.verify_relations(bad))
                    want = verdicts(dense_verify_relations(bad))
                    assert got == want, (lam, n, label)
                    assert not all(got.values()), (lam, n, label)
                    seen.add(label.split()[0])
    assert seen == {"rank-two", "doubled", "defined"}


@pytest.mark.parametrize("n", range(2, 6))
def test_block_members_share_prefix_and_suffix(n):
    """The invariant the block checks rest on: a block at position i only
    differs at levels i and i+1 of its members' eigenvalue strings."""
    for lam in level_vertices(n):
        rep = cached_rep(lam, n, "rational")
        for i in range(1, n):
            for b in rep.blocks[i]:
                assert len({rep.strings[k][: i - 1] for k in b.members}) == 1
                assert len({rep.strings[k][i + 1:] for k in b.members}) == 1


def test_block_structure_rejects_a_non_partition():
    rep = cached_rep((1,), 5, "rational")
    blocks = dict(rep.blocks)
    blocks[2] = blocks[2][1:]
    report = rb.verify_relations(replace_parts(rep, blocks=blocks))
    assert [(c.name, c.index) for c in report.failures()] == [("block_structure", 2)]


def test_no_matrix_is_inverted(monkeypatch):
    def refuse(self):
        raise AssertionError("verify_relations inverted a matrix")

    rep = cached_rep((2, 1), 5, "rational")
    monkeypatch.setattr(Matrix, "inverse", refuse)
    assert rb.verify_relations(rep).ok


def test_checks_carry_their_seconds():
    report = cached_report((2, 1), 5, "rational")
    assert all(c.seconds >= 0 for c in report.checks)
    assert sum(c.seconds for c in report.checks) > 0
    structure = [c.index for c in report.checks if c.name == "block_structure"]
    assert structure == [1, 2, 3, 4]

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
    if rep.dim > 1:
        for j in range(rep.n):
            yield f"off-diagonal y_{j + 1}", replace_parts(
                rep, y=set_entries(rep.y, j, {(0, rep.dim - 1): f.one}))


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

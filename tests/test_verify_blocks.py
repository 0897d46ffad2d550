"""Block-local relation verification, checked against the dense oracle."""

from collections import Counter
from fractions import Fraction

import pytest

from bmwtower import central as cen
from bmwtower import chains
from bmwtower import combinatorics as comb
from bmwtower import repbuilder as rb
from bmwtower.linalg import Matrix, SingularMatrix
from bmwtower.scalars import SYMBOLIC, GenericSpecialization

from conftest import (
    cached_rep,
    cached_report,
    class_types,
    level_vertices,
    replace_parts,
    set_entries,
)
from dense_oracle import (
    dense_intertwiner_checks,
    dense_verify_relations,
    entrywise_kernels,
)
from oracle_field import oracle_rep


def _oracle_ok(rep):
    try:
        return dense_verify_relations(rep).ok
    except SingularMatrix:
        return False


def _relations(report):
    """The checks made, apart from ``block_structure``, which only the block
    verifier makes, and ``y_commute``, which holds by the storage's type
    there and which only the oracle makes."""
    return Counter(
        (c.name, c.index, c.detail) for c in report.checks
        if c.name not in ("block_structure", "y_commute")
    )


def _perturbations(rep):
    """(label, perturbed rep) pairs, each breaking one entry or block."""
    f = rep.field
    for i in range(1, rep.n):
        size = rep.blocks[i][0].size
        bumped = rep.sigma[i - 1][0].rows[0][size - 1] + f.one
        yield f"in-block sigma_{i}", replace_parts(
            rep, sigma=set_entries(rep.sigma, i - 1, 0, {(0, size - 1): bumped}))
        zeros = {(a, b): f.zero for a in range(size) for b in range(size)}
        yield f"singular sigma_{i} block", replace_parts(
            rep, sigma=set_entries(rep.sigma, i - 1, 0, zeros))
        yield from _kappa_perturbations(rep, i)
    for j in range(rep.n):
        y = list(rep.y)
        y[j] = [y[j][0] + f.one] + y[j][1:]
        yield f"changed y_{j + 1} entry", replace_parts(rep, y=y)


def _kappa_perturbations(rep, i):
    """Kappa_i changed on its first size-3 Case-4 block: one entry bumped
    (rank two, so the verifier falls back to dense products) or the whole
    block doubled (still rank one); and sigma_i changed on its first size-1
    block, with kappa_i there set by the kappa definition, so that
    kappa_definition holds on it and the cubic does not."""
    f = rep.field
    blocks = list(enumerate(rep.blocks[i]))
    single = next((bi for bi, b in blocks if b.size == 1), None)
    if single is not None:
        x = rep.sigma[i - 1][single].rows[0][0] + 2
        qinv = f.q_pow(-1)
        k = (f.q - x) * (x + qinv) / (f.nu * (f.q - qinv))
        yield f"defined kappa_{i} of a changed sigma_{i}", replace_parts(
            rep, sigma=set_entries(rep.sigma, i - 1, single, {(0, 0): x}),
            kappa=set_entries(rep.kappa, i - 1, single, {(0, 0): k}))
    bi = next((bi for bi, b in blocks if b.case.tag == "4" and b.size == 3), None)
    if bi is None:
        return
    kap = rep.kappa[i - 1][bi]
    yield f"rank-two kappa_{i} block", replace_parts(
        rep, kappa=set_entries(rep.kappa, i - 1, bi, {(0, 1): kap.rows[0][1] + f.one}))
    doubled = {(a, b): kap.rows[a][b] * 2 for a in range(3) for b in range(3)}
    yield f"doubled kappa_{i} block", replace_parts(
        rep, kappa=set_entries(rep.kappa, i - 1, bi, doubled))


@pytest.mark.parametrize("mode", ["symbolic", "rational"])
@pytest.mark.parametrize("n", range(1, 5))
def test_agrees_with_dense_oracle(mode, n):
    """The build's report makes the dense oracle's checks with its verdict.
    A symbolic irrep is checked in the oracle field, where the oracle's
    Gauss-Jordan pivots may divide by any polynomial, and the block
    verifier gives the build's checks and verdicts there too."""
    for lam in level_vertices(n):
        rep = oracle_rep(lam, n, mode)
        report = cached_report(lam, n, mode)
        if mode == "symbolic":
            assert _verdicts(rb.verify_relations(rep)) == _verdicts(report), lam
        oracle = dense_verify_relations(rep)
        assert report.ok == oracle.ok
        assert _relations(report) == _relations(oracle)


def _verdicts(report):
    return [(c.name, c.index, c.detail, c.ok) for c in report.checks]


def _checks(rep):
    """Every check of the block verifier: (name, index, detail, ok)."""
    return _verdicts(rb.verify_relations(rep))


def _entrywise_checks(rep):
    """``_checks`` with every matrix sum, product and comparison made entry
    by entry over Fraction (the kernels of ``dense_oracle.DenseMatrix``)."""
    with entrywise_kernels():
        return _checks(rep)


@pytest.mark.parametrize("n", range(1, 7))
def test_integer_kernels_give_the_entrywise_checks(n):
    """Scaled-integer kernels and entrywise Fraction kernels make the same
    checks with the same verdicts, on every rational irrep with n <= 6 and
    on each of its perturbations at 2 <= n <= 4."""
    for lam in level_vertices(n):
        rep = cached_rep(lam, n, "rational")
        assert _checks(rep) == _entrywise_checks(rep), lam
        if not 2 <= n <= 4:
            continue
        for label, bad in _perturbations(rep):
            got = _checks(bad)
            assert got == _entrywise_checks(bad), (lam, label)
            assert not all(ok for *_, ok in got), (lam, label)


@pytest.mark.parametrize("mode, levels", [("symbolic", range(2, 4)),
                                          ("rational", range(2, 5))])
def test_perturbed_reps_fail_like_the_oracle(mode, levels):
    """A symbolic irrep is perturbed in the oracle field: a changed entry
    such as nu^2 q^(2z) + 1 is a divisor outside the package's scalars.
    At these levels the block verifier divides by no such entry, so it
    also fails each perturbation made in the package's own scalars."""
    for n in levels:
        for lam in level_vertices(n):
            pairs = zip(_perturbations(oracle_rep(lam, n, mode)),
                        _perturbations(cached_rep(lam, n, mode)))
            for (label, bad), (_, own) in pairs:
                ok = rb.verify_relations(bad).ok
                assert ok == _oracle_ok(bad), (lam, n, label)
                assert not ok, (lam, n, label)
                if mode == "symbolic":
                    assert not rb.verify_relations(own).ok, (lam, n, label)


@pytest.mark.parametrize("mode, n", [*(("symbolic", n) for n in range(2, 5)),
                                     *(("rational", n) for n in range(2, 7))])
def test_case_4_blocks_take_the_rank_one_path(mode, n):
    """On a built rep every Case-4 block with K != 0 passes the rank-one
    test and its members share one prefix, so no dense fallback runs."""
    for lam in level_vertices(n):
        rep = cached_rep(lam, n, mode)
        for i in range(1, n):
            for lb in rb._LocalBlock.at(rep, i):
                if lb.block.case.tag != "4" or lb.k.is_zero:
                    continue
                assert lb.rank_one, (lam, n, i, lb.block.members)
                assert len(set(lb.prefixes)) == 1, (lam, n, i, lb.block.members)


@pytest.mark.parametrize("mode, levels", [("symbolic", range(2, 4)),
                                          ("rational", range(2, 5))])
def test_kappa_perturbations_reduce_like_the_oracle(mode, levels):
    """``cubic`` and ``kappa_y_power`` give the oracle's verdicts where
    kappa_i is perturbed: in the rank-one forms (doubled block; kappa
    defined from a changed sigma) and in the dense fallback (rank two).
    A symbolic irrep is perturbed in the oracle field."""
    def verdicts(report):
        return {(c.name, c.index, c.detail): c.ok for c in report.checks
                if c.name in ("cubic", "kappa_y_power")}

    seen = set()
    for n in levels:
        for lam in level_vertices(n):
            rep = oracle_rep(lam, n, mode)
            for i in range(1, n):
                for label, bad in _kappa_perturbations(rep, i):
                    ranked = [lb.rank_one for lb in rb._LocalBlock.at(bad, i)
                              if lb.block.size == 3]
                    assert (None in ranked) == label.startswith("rank-two"), label
                    got = verdicts(rb.verify_relations(bad))
                    want = verdicts(dense_verify_relations(bad))
                    assert got == want, (lam, n, label)
                    assert not all(got.values()), (lam, n, label)
                    seen.add(label.split()[0])
    assert seen == {"rank-two", "doubled", "defined"}


def _last_block_bumps(rep):
    """(i, perturbed rep) at each position i: one entry of the S of the
    last block of rep.blocks[i] bumped by one.  ``_perturbations`` changes
    the first block of a position, or the first of some size or case, so
    a check that reads only the first classes of a join can pass it."""
    f = rep.field
    for i in range(1, rep.n):
        last = len(rep.blocks[i]) - 1
        size = rep.blocks[i][last].size
        bumped = {(0, size - 1): rep.sigma[i - 1][last].rows[0][size - 1] + f.one}
        yield i, replace_parts(rep, sigma=set_entries(rep.sigma, i - 1, last, bumped))


@pytest.mark.parametrize("mode, levels", [("symbolic", range(3, 5)),
                                          ("rational", range(3, 6))])
def test_last_block_perturbations_fail_like_the_oracle(mode, levels):
    """``braid``, ``locality`` and ``kappa_sigma_kappa_plus`` give the dense
    oracle's verdict, check by check, where the last block of a position
    is changed, so a two-position check that skips a class of its join is
    caught.  ``kappa_sigma_kappa_minus`` is left out: its skein-form inverse
    may hold where ``skein`` fails.  A symbolic irrep is perturbed in the
    oracle field; a case where the oracle meets a singular sigma is
    skipped."""
    same = ("braid", "locality", "kappa_sigma_kappa_plus")

    def verdicts(report):
        return {(c.name, c.index, c.detail): c.ok for c in report.checks
                if c.name in same}

    failed = set()
    for n in levels:
        for lam in level_vertices(n):
            for i, bad in _last_block_bumps(oracle_rep(lam, n, mode)):
                try:
                    want = verdicts(dense_verify_relations(bad))
                except SingularMatrix:
                    continue
                got = verdicts(rb.verify_relations(bad))
                assert got == want, (lam, n, i)
                failed |= {name for (name, _, _), ok in got.items() if not ok}
    assert {"braid", "locality"} <= failed


def _one_member_perturbations(rep, i):
    """(kind, perturbed rep) at position i, each bumping one entry by one:
    on the first one-member 3a block its S or its member's y_i entry, and
    on the first one-member Case-4 block (whose lambda_{i-1} =
    lambda_{i+1} is the empty diagram, so K != 0) its K or its member's
    y_i entry."""
    one = rep.field.one
    for tag, parts in (("3a", "sigma"), ("4", "kappa")):
        bi = next((bi for bi, b in enumerate(rep.blocks[i])
                   if b.size == 1 and b.case.tag == tag), None)
        if bi is None:
            continue
        mats = getattr(rep, parts)
        bumped = {(0, 0): mats[i - 1][bi].rows[0][0] + one}
        yield f"{tag} {parts}", replace_parts(
            rep, **{parts: set_entries(mats, i - 1, bi, bumped)})
        (r,) = rep.blocks[i][bi].members
        y = list(rep.y)
        y[i - 1] = list(y[i - 1])
        y[i - 1][r] = y[i - 1][r] + one
        yield f"{tag} y_i", replace_parts(rep, y=y)


@pytest.mark.parametrize("mode, levels", [("symbolic", range(2, 4)),
                                          ("rational", range(2, 6))])
def test_one_member_perturbations_fail_like_the_oracle(mode, levels):
    """The scalar forms on blocks of one member give the dense oracle's
    verdict on each identity both verifiers test, and fail the report, where
    one entry of such a block is changed.  A symbolic irrep is perturbed in
    the oracle field."""
    same = ("kappa_definition", "skein", "y_recursion", "kappa_y_product")

    def verdicts(report):
        return {(c.name, c.index, c.detail): c.ok for c in report.checks
                if c.name in same}

    seen = set()
    for n in levels:
        for lam in level_vertices(n):
            rep = oracle_rep(lam, n, mode)
            for i in range(1, n):
                for kind, bad in _one_member_perturbations(rep, i):
                    report = rb.verify_relations(bad)
                    assert not report.ok, (lam, n, i, kind)
                    assert verdicts(report) == verdicts(dense_verify_relations(bad)), (
                        lam, n, i, kind)
                    seen.add(kind)
    assert seen == {"3a sigma", "3a y_i", "4 kappa", "4 y_i"}


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


def _reshaped(rep, i):
    """(label, rep) pairs whose sigma_i or kappa_i block matrices do not
    fit rep.blocks[i]: one of a wrong size, one missing, one extra."""
    bigger = Matrix.identity(rep.blocks[i][0].size + 1, rep.field)
    for name in ("sigma", "kappa"):
        mats = getattr(rep, name)
        for label, at_i in [("wrong-size", [bigger] + mats[i - 1][1:]),
                            ("missing", mats[i - 1][:-1]),
                            ("extra", mats[i - 1] + [mats[i - 1][0]])]:
            out = list(mats)
            out[i - 1] = at_i
            yield f"{label} {name}_{i} block", replace_parts(rep, **{name: out})


@pytest.mark.parametrize("mode, lam, n", [("rational", (1,), 5),
                                          ("symbolic", (1, 1), 4)])
def test_block_structure_rejects_misfit_block_matrices(mode, lam, n):
    rep = cached_rep(lam, n, mode)
    for i in range(1, n):
        for label, bad in _reshaped(rep, i):
            report = rb.verify_relations(bad)
            assert [(c.name, c.index) for c in report.failures()] == [
                ("block_structure", i)], label


@pytest.mark.parametrize("mode, n", [*(("symbolic", n) for n in range(1, 6)),
                                     *(("rational", n) for n in range(1, 7))])
def test_storage_is_blocks_and_diagonals(mode, n):
    """A rep holds no dim x dim matrix: sigma_i and kappa_i are one matrix of
    its block's size per block of rep.blocks[i], and every y a diagonal."""
    for lam in level_vertices(n):
        rep = cached_rep(lam, n, mode)
        assert len(rep.sigma) == len(rep.kappa) == n - 1
        for i in range(1, n):
            sizes = [(b.size, b.size) for b in rep.blocks[i]]
            assert [(m.n, m.m) for m in rep.sigma[i - 1]] == sizes
            assert [(m.n, m.m) for m in rep.kappa[i - 1]] == sizes
        assert [len(d) for d in rep.y] == [rep.dim] * n
        assert not any(isinstance(x, Matrix) for d in rep.y for x in d)


def test_no_matrix_is_inverted(monkeypatch):
    def refuse(self):
        raise AssertionError("verify_relations inverted a matrix")

    rep = cached_rep((2, 1), 5, "rational")
    monkeypatch.setattr(Matrix, "inverse", refuse)
    assert rb.verify_relations(rep).ok


def test_two_position_checks_scatter_each_matrix_once(monkeypatch):
    """Every class matrix is formed by ``_Join.form``.  On join(i, i+1)
    braid and the two kappa-sigma-kappa checks run once per class key of
    the call, and the class of a new key gets three formations: sigma_i,
    sigma_{i+1} (shared by braid and kappa_sigma_kappa_plus) and kappa_i
    (shared by both kappa-sigma-kappa checks), and a fourth, the skein
    inverse of sigma_{i+1}, where kappa_i is not zero on it (a class with a
    Case-4 block at i); no kappa is formed for the braid test.  Locality
    forms sigma_i and sigma_j once on every class of each of its 10 joins
    at level 7.  No matrix is formed twice."""
    field = GenericSpecialization(Fraction(2), Fraction(5))
    formed = []
    form = rb._Join.form

    def counted(join, c, pos, block):
        # the join itself, not its id: locality's joins are dropped after use
        formed.append((join, c, pos, tuple(id(block(k)) for k, _ in join.parts[pos][c])))
        return form(join, c, pos, block)

    monkeypatch.setattr(rb._Join, "form", counted)
    rep = rb.build_rep((4, 1), 7, field=field)
    types, _ = class_types([(4, 1)], 7)
    coupled = [t for t in types if any(after == t[0] for _, after in t[1])]
    assert (len(types), len(coupled)) == (37, 11)
    far = [(i, j) for i in range(1, 7) for j in range(i + 2, 7)]
    far_classes = sum(len(rb._Join(rep, i, j).classes) for i, j in far)
    near = [x for x in formed if max(x[0].parts) == x[0].i + 1]
    assert len(far) == 10 and far_classes == 377
    assert len(near) == 3 * 37 + 11 == 122
    assert len(formed) - len(near) == 2 * far_classes == 754
    assert len(formed) == 876 and len(set(formed)) == len(formed)


def test_checks_carry_their_seconds():
    report = cached_report((2, 1), 5, "rational")
    assert all(c.seconds >= 0 for c in report.checks)
    assert sum(c.seconds for c in report.checks) > 0
    structure = [c.index for c in report.checks if c.name == "block_structure"]
    assert structure == [1, 2, 3, 4]


@pytest.mark.parametrize("field, lam, n", [
    (SYMBOLIC, (3,), 5),
    (GenericSpecialization(Fraction(2), Fraction(5)), (4, 1), 7),
])
def test_no_whole_matrix_is_assembled(field, lam, n, monkeypatch):
    """Braid, locality and kappa-sigma-kappa run class by class, and so do
    the braid guard of a build without verification and the intertwiner
    checks at every position; central scalars read the y diagonals and the
    JSON output writes its rows from the blocks.  The one dim x dim matrix
    is the chain Hamiltonian's bulk.  The irreps are chosen so that dim
    exceeds every block and every class of a join (at level 4 a class of
    every irrep of dim > 1 spans the whole basis)."""
    dim = comb.dim(lam, n)
    whole = []
    zero = Matrix.zero.__func__

    def counted(cls, rows, cols, f):
        if (rows, cols) == (dim, dim):
            whole.append(rows)
        return zero(cls, rows, cols, f)

    monkeypatch.setattr(Matrix, "zero", classmethod(counted))
    rep = rb.build_rep(lam, n, field=field, verify=False)
    assert dim > max(
        len(c) for i in range(1, n) for j in range(i + 1, n)
        for c in rb._Join(rep, i, j).classes
    )
    assert rb.verify_relations(rep).ok
    rb.build_rep(lam, n, field=field)
    for k in range(1, n):
        assert all(ok for _, _, ok in cen.intertwiner_checks(rep, k)), k
    cen.central_report(rep)
    rb.rep_to_json(rep)
    assert whole == []
    params = chains.ChainParams.standard("q", Fraction(2), Fraction(5))
    chains.hamiltonian(rep, params)
    assert whole == [dim]


def _partition(groups):
    return {frozenset(g) for g in groups}


def _agreeing_outside(paths, levels):
    """Groups of path indices that agree at every level not in ``levels``."""
    groups = {}
    for r, p in enumerate(paths):
        key = tuple(x for level, x in enumerate(p) if level not in levels)
        groups.setdefault(key, []).append(r)
    return _partition(groups.values())


@pytest.mark.parametrize("n", range(3, 7))
def test_join_classes_are_the_path_groups(n):
    """On the built reps the join of the blocks at i and j is the partition
    into paths that agree outside levels i and j, for j = i+1 and j >= i+2."""
    for lam in level_vertices(n):
        rep = cached_rep(lam, n, "rational")
        for i in range(1, n - 1):
            for j in range(i + 1, n):
                got = _partition(rb._Join(rep, i, j).classes)
                assert got == _agreeing_outside(rep.paths, {i, j}), (lam, i, j)


def _merged(rep, i):
    """rep with its first and last block at position i merged into one block,
    whose sigma and kappa are the block-diagonal sums of theirs."""
    f = rep.field
    first, last = rep.blocks[i][0], rep.blocks[i][-1]
    merged = rb.Block(i, first.members + last.members, first.case,
                      first.pairs + last.pairs)
    blocks = dict(rep.blocks)
    blocks[i] = [merged] + rep.blocks[i][1:-1]

    def direct_sum(mats):
        a, b = mats[i - 1][0], mats[i - 1][-1]
        zero_ab, zero_ba = [f.zero] * b.n, [f.zero] * a.n
        rows = [r + zero_ab for r in a.rows] + [zero_ba + r for r in b.rows]
        out = list(mats)
        out[i - 1] = [Matrix(rows, f)] + mats[i - 1][1:-1]
        return out

    return replace_parts(rep, blocks=blocks, sigma=direct_sum(rep.sigma),
                         kappa=direct_sum(rep.kappa))


@pytest.mark.parametrize("mode, lam, n", [("rational", (2, 1), 5),
                                          ("rational", (1,), 5),
                                          ("symbolic", (1, 1), 4)])
def test_merged_blocks_verify_like_the_oracle(mode, lam, n):
    """Two blocks of one position merged into one block that pairs paths
    the path groups keep apart: the classes follow the blocks, and the
    verdicts are the oracle's, with the merged sigma block-diagonal (a
    rep that still holds) and with one entry coupling its two parts.  The
    intertwiner checks, whose ``U_braid`` runs on the same join classes,
    give the dense oracle's verdicts on both."""
    rep = cached_rep(lam, n, mode)
    coarsened = 0
    for i in range(1, n):
        if len(rep.blocks[i]) < 2:
            continue
        merged = _merged(rep, i)
        for pair in ((i - 1, i), (i, i + 1)):
            if 1 <= pair[0] and pair[1] < n:
                classes = rb._Join(merged, *pair).classes
                members = set(merged.blocks[i][0].members)
                assert any(members <= set(c) for c in classes), pair
                coarsened += len(classes) < len(rb._Join(rep, *pair).classes)
        report = rb.verify_relations(merged)
        assert report.ok and _oracle_ok(merged), i
        assert _relations(report) == _relations(dense_verify_relations(merged))
        assert _checks(merged) == _entrywise_checks(merged), i
        size = merged.blocks[i][0].size
        coupled = replace_parts(merged, sigma=set_entries(
            merged.sigma, i - 1, 0,
            {(0, size - 1): merged.sigma[i - 1][0].rows[0][size - 1] + 1}))
        ok = rb.verify_relations(coupled).ok
        assert ok == _oracle_ok(coupled) and not ok, i
        assert _checks(coupled) == _entrywise_checks(coupled), i
        for bad in (merged, coupled):
            for k in range(1, n):
                got, want = (
                    [(name, index, bool(ok)) for name, index, ok in checks(bad, k)]
                    for checks in (cen.intertwiner_checks, dense_intertwiner_checks))
                assert got == want, (i, k)
    assert coarsened

"""The per-call local atlas: shared blocks and verdicts, against unshared ones."""

from collections import Counter
from fractions import Fraction

import pytest

from bmwtower import cli
from bmwtower import combinatorics as comb
from bmwtower import repbuilder as rb
from bmwtower.scalars import SYMBOLIC, GenericSpecialization

from conftest import conjugate_diagonal, level_vertices, replace_parts, set_entries

# the four rational points of the benchmark's reference outputs
REFERENCE_POINTS = [GenericSpecialization(Fraction(q), Fraction(nu))
                    for q, nu in ((2, 5), (-2, 5), (2, -5), (-2, -5))]


def _shared_level(n, field, flip=False):
    """Every irrep of level n built with one atlas and without verification,
    and the atlas."""
    atlas = rb.LocalAtlas(field, flip)
    reps = [rb.build_rep(lam, n, field=field, flip=flip, verify=False, atlas=atlas)
            for lam in level_vertices(n)]
    return reps, atlas


def _unshared(rep):
    """rep with every block matrix copied to a fresh object."""
    def fresh(mats):
        return [[m.copy() for m in ms] for ms in mats]

    return replace_parts(rep, sigma=fresh(rep.sigma), kappa=fresh(rep.kappa))


def _checks(report):
    return [(c.name, c.index, c.detail, c.ok) for c in report.checks]


def _name(value):
    if isinstance(value, int):
        return f"n{value}"
    return value.name if value is SYMBOLIC else f"{value.q_value},{value.nu_value}"


@pytest.mark.parametrize("field, n", [
    *((f, n) for f in REFERENCE_POINTS for n in range(2, 7)),
    (REFERENCE_POINTS[0], 7),
    *((SYMBOLIC, n) for n in range(2, 6)),
], ids=_name)
def test_shared_verdicts_equal_unshared_ones(field, n):
    """Verifying the irreps of a level with one atlas, whose blocks and
    verdicts they share, gives every check the name, index, detail and
    verdict of verifying each irrep with all its blocks copied, where no
    block or class has a key and every relation is tested on every one."""
    reps, atlas = _shared_level(n, field)
    stored = [m for rep in reps for mats in rep.sigma for m in mats]
    if n > 2:
        assert len({id(m) for m in stored}) < len(stored)
    for rep in reps:
        shared = rb.verify_relations(rep, atlas)
        assert shared.ok, rep.lam
        assert _checks(shared) == _checks(rb.verify_relations(_unshared(rep))), rep.lam


def _perturbed(rep, i, k):
    """Two perturbations of block k at position i of rep: one sigma entry
    changed (local relations fail), and a diagonal gauge on that block alone
    (local relations hold, the braid test fails)."""
    s = rep.sigma[i - 1][k]
    yield replace_parts(rep, sigma=set_entries(rep.sigma, i - 1, k, {(0, 0): s.rows[0][0] + 1}))
    scales = [rep.field.one] * rep.dim
    scales[rep.blocks[i][k].members[-1]] = rep.field.from_int(2)
    gauged = conjugate_diagonal(rep, scales)
    sigma = list(rep.sigma)
    sigma[i - 1] = list(sigma[i - 1])
    sigma[i - 1][k] = gauged.sigma[i - 1][k]
    yield replace_parts(rep, sigma=sigma)


def test_a_perturbed_block_fails_its_irrep_only():
    """In a shared-atlas ``verify --n 5``, a block perturbed in one irrep
    (a copy, so no key) fails that irrep as the unshared verification does,
    although its unperturbed type is shared with other irreps and its
    verdicts are recorded; every other irrep still verifies."""
    field = REFERENCE_POINTS[0]
    reps, atlas = _shared_level(5, field)
    owners = Counter(id(m) for rep in reps for mats in rep.sigma for m in mats)
    target, i, k = next(
        (r, i, k) for r, rep in enumerate(reps) for i in range(1, 5)
        for k, s in enumerate(rep.sigma[i - 1]) if s.n == 2 and owners[id(s)] > 1
        and any(id(s) in map(id, mats) for other in reps if other is not rep
                for mats in other.sigma))
    assert all(rb.verify_relations(rep, atlas).ok for rep in reps)
    failed = set()
    for bad in _perturbed(reps[target], i, k):
        report = rb.verify_relations(bad, atlas)
        assert not report.ok
        assert _checks(report) == _checks(rb.verify_relations(_unshared(bad)))
        failed |= {c.name for c in report.failures()}
        assert all(rb.verify_relations(rep, atlas).ok for rep in reps)
    assert "braid" in failed and failed - {"braid"}


def test_blocks_are_shared_by_local_type_only():
    """Over every irrep of levels 2..6 in both conventions, two stored
    blocks are one object exactly when their local types agree:
    lambda_{i-1}, the lambda_i of the members in order, lambda_{i+1}."""
    for flip in (False, True):
        for n in range(2, 7):
            reps, _ = _shared_level(n, REFERENCE_POINTS[0], flip)
            types = {}
            for rep in reps:
                for i in range(1, n):
                    for b, s, k in zip(rep.blocks[i], rep.sigma[i - 1], rep.kappa[i - 1]):
                        p = rep.paths[b.members[0]]
                        local = (p[i - 1], tuple(rep.paths[m][i] for m in b.members), p[i + 1])
                        types.setdefault(local, set()).add((id(s), id(k)))
            objects = [obj for ids in types.values() for obj in ids]
            assert all(len(ids) == 1 for ids in types.values()), (flip, n)
            assert len(set(objects)) == len(objects), (flip, n)


def test_member_order_is_part_of_the_type():
    """A Case-4 block that lists its members in reverse gets matrices of its
    own from the atlas: the original S and K with rows and columns
    reversed."""
    field = REFERENCE_POINTS[0]
    atlas = rb.LocalAtlas(field)
    rep = rb.build_rep((2, 1), 5, field=field, verify=False, atlas=atlas)
    seen = 0
    for i in range(1, 5):
        for b in rep.blocks[i]:
            if b.size < 3:
                continue
            s, k = atlas.block(b, rep.paths)
            rev = rb.Block(b.pos, b.members[::-1], b.case, b.pairs[::-1])
            rs, rk = atlas.block(rev, rep.paths)
            assert rs is not s and rk is not k
            for got, want in ((rs, s), (rk, k)):
                assert got.rows == [row[::-1] for row in want.rows[::-1]]
            seen += 1
    assert seen


def test_stored_matrices_are_not_changed(monkeypatch):
    """No S or K that the atlas of ``verify --n 6 --mode rational`` forms
    changes while the command runs: every row reads as when it was formed."""
    formed = {}

    class Recording(rb.LocalAtlas):
        def block(self, b, paths):
            pair = super().block(b, paths)
            for m in pair:
                formed.setdefault(id(m), (m, [list(r) for r in m.rows]))
            return pair

    monkeypatch.setattr(rb, "LocalAtlas", Recording)
    status, _ = cli.run(cli._build_parser().parse_args(
        ["verify", "--n", "6", "--mode", "rational"]))
    assert status == 0 and formed
    assert all([list(r) for r in m.rows] == rows for m, rows in formed.values())


def test_an_atlas_serves_one_field_and_convention():
    field = REFERENCE_POINTS[0]
    atlas = rb.LocalAtlas(field)
    rep = rb.build_rep((1,), 3, field=field, atlas=atlas)
    for kwargs in ({"field": SYMBOLIC}, {"field": REFERENCE_POINTS[1]},
                   {"field": field, "flip": True}):
        with pytest.raises(ValueError):
            rb.build_rep((1,), 3, atlas=atlas, **kwargs)
    with pytest.raises(ValueError):
        rb.verify_relations(rb.build_rep((1,), 3, field=field, flip=True), atlas)
    assert rb.verify_relations(rep, atlas).ok


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "5", "--mode", "rational"],
    ["rep", "--lambda", "4,1", "--n", "7", "--mode", "rational"],
])
def test_each_token_value_is_formed_once_per_command(argv, monkeypatch):
    """The y diagonals, the blocks and the Zhat table of one command read
    token values from its atlas, which forms each once."""
    calls = Counter()
    real = GenericSpecialization.token_value

    def counted(self, tok):
        calls[tok] += 1
        return real(self, tok)

    monkeypatch.setattr(GenericSpecialization, "token_value", counted)
    status, _ = cli.run(cli._build_parser().parse_args(argv))
    assert status == 0
    n = int(argv[argv.index("--n") + 1])
    assert set(calls.values()) == {1} and len(calls) <= 4 * n + 2
    assert {tok for lam in level_vertices(n) for s, _ in comb.basis(lam, n)
            for tok in s} >= set(calls)

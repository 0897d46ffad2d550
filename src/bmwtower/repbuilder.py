"""Seminormal matrices for the tower generators, built block by block.

For an irrep labeled (lambda, n) the basis is the list of oscillating
paths sorted by content string (``comb.basis``).  At each position i the
paths split into blocks: sets sharing everything except the level-i
diagram.  A block is

* Case 3a (size 1): sigma acts by +-q^{+-1}, kappa by 0;
* Case 3b (size 2): a Hecke-type two-block, kappa 0;
* Case 4 (odd size 2m+1): lambda_{i-1} = lambda_{i+1}; kappa is the
  rank-one matrix of the kappa weights Delta(lambda_i)/Delta(lambda_{i-1}),
  ratios of quantum dimensions (``quantum_dimension``), and sigma is
  forced entrywise.

The relations at one position fix each block up to one scale per member.
Those scales are chosen by a closed formula in the block's own data
(``kappa_block``, ``_partner_scale``): kappa in the all-ones row gauge,
and the off-diagonal pair of each 3b block from its tokens and the
quantum dimensions of its diagrams.  That choice is consistent across
positions, so no gauge is solved for.  ``gauge.repair_position`` tests
the braid identity between positions i and i+1 on each class of the join
of their blocks (``_braid_holds``): as the verifier's ``braid`` check, or
while building when no verification follows (``build_rep(verify=False)``),
so each build computes the braid products once.  Only the verifier's
``kappa_y_power`` check reads the central scalars (``central.ZhatTable``),
so it tests the weights against an independent formula.

The storage follows the basis: sigma_i and kappa_i only mix paths of one
block at position i, so a ``SeminormalRep`` keeps them as their block
matrices S and K, in the order of ``blocks[i]``, and every y as its
diagonal.  No whole matrix is assembled from them: the JSON output
(``rep_to_json``) writes its rows of strings straight from the blocks,
the intertwiners (``central``) are stored and checked block by block too,
and the chain Hamiltonian (``chains``) scatters its one dim x dim bulk
from the blocks.

``verify_relations`` proves every defining relation exactly: those at one
position on the blocks, and those that couple two positions on the
classes of the join of their blocks (``_Join``), so it multiplies and
inverts no whole matrix.  ``build_rep`` runs it unless ``verify=False``.

One ``LocalAtlas`` per call forms each local type's S and K once (they
depend only on lambda_{i-1}, the ordered lambda_i of the block's members
and lambda_{i+1}) and proves each relation once per key: the identities
of the objects stored on a block or a class, only of objects the atlas
made and keeps alive, so no id is reused.  The same objects in the same
places are the same matrices, none changed once stored, so each verdict
is the one a new test would give (``verify_relations``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dfield
from functools import cached_property
from time import perf_counter

from . import central as cen
from . import combinatorics as comb
from . import gauge
from . import spectrum as spec
# solve is not called; perfbench/tracing.py patches repbuilder.solve by name
from .linalg import Matrix, solve  # noqa: F401
from .scalars import SYMBOLIC, format_scalar, require_generic


class VerificationFailed(RuntimeError):
    def __init__(self, report):
        self.report = report
        failures = [c for c in report.checks if not c.ok]
        super().__init__(
            "relation verification failed: "
            + "; ".join(f"{c.name}[i={c.index}]" for c in failures[:8])
        )


@dataclass(frozen=True)
class Block:
    pos: int                     # i, 1-based
    members: tuple               # indices into the canonical path list
    case: spec.LocalCase
    pairs: tuple                 # per member: (token of y_i, token of y_{i+1})

    @property
    def size(self):
        return len(self.members)


@dataclass
class SeminormalRep:
    lam: tuple
    n: int
    paths: list
    strings: list
    sigma: list       # n-1 lists of block matrices S, in the order of blocks[i]
    kappa: list       # n-1 lists of block matrices K, zero on 3a/3b blocks
    y: list           # n diagonals (lists of entries), y_1 = identity
    blocks: dict      # position i -> list of Block
    field: object
    flip: bool = False

    @property
    def dim(self):
        return len(self.paths)


@dataclass(frozen=True)
class Check:
    name: str
    index: int
    ok: bool
    detail: str = ""
    seconds: float = dfield(default=0.0, compare=False)


@dataclass
class Report:
    checks: list = dfield(default_factory=list)

    def add(self, name, index, ok, detail=""):
        self.checks.append(Check(name, index, ok, detail))

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]


def _group_blocks(paths, strings):
    """Blocks at every position i = 1..n-1 of the canonical paths and their
    token strings: at i, the paths that agree at every level but i.

    Each path's prefixes p[:k] and suffixes p[k:] are numbered once, each
    from the next shorter one, so the paths at i are grouped by the numbers
    of p[:i] and p[i+1:], and no path is sliced."""
    n = len(paths[0]) - 1
    heads, tails, numbers = {}, {}, []
    for p in paths:
        pre, suf = [0], [0]
        for x, z in zip(p, reversed(p)):
            pre.append(heads.setdefault((pre[-1], x), len(heads) + 1))
            suf.append(tails.setdefault((z, suf[-1]), len(tails) + 1))
        numbers.append((pre, suf[::-1]))  # p[:k] and p[k:] at index k
    blocks = {}
    for i in range(1, n):
        groups = {}
        for idx, (pre, suf) in enumerate(numbers):
            groups.setdefault((pre[i], suf[i + 1]), []).append(idx)
        blocks[i] = []
        for members in groups.values():
            pairs = tuple((strings[m][i - 1], strings[m][i]) for m in members)
            p = paths[members[0]]
            if p[i - 1] == p[i + 1]:
                case = spec.LocalCase("4")
            else:
                case = spec.classify_local(*pairs[0])
            blocks[i].append(Block(i, tuple(members), case, pairs))
    return blocks


def block_decompose(lam, n, i, flip=False):
    """Blocks of coupled paths at position i (1 <= i <= n-1)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"position {i} out of range for level {n}")
    strings, paths = zip(*comb.basis(lam, n, flip))
    return _group_blocks(paths, strings)[i]


def quantum_dimension(lam, field, flip=False):
    """Delta(lambda), the BMW quantum dimension Q_lambda (Wenzl, CMP 133, 1990).

    The kappa weight of a step mu -> lambda is Delta(lambda)/Delta(mu).
    Delta is a product over the boxes (i, j) of lambda, with r = nu^{-1},
    lambda_k = 0 past the last row and hook h = lambda_i - j + lambda'_j - i + 1:
    (r q^d - r^{-1} q^{-d}) / (q^h - q^{-h}) off the diagonal, with
    d = lambda_i + lambda_j - i - j + 1 for i < j and
    d = -lambda'_i - lambda'_j + i + j - 1 for i > j; and
    (r q^e - r^{-1} q^{-e} + q^h - q^{-h}) / (q^h - q^{-h}) for i = j, with
    e = lambda_j - lambda'_j.  So Delta(()) = 1 and Delta((1,)) = mu.  The
    flipped content convention takes Delta of the conjugate diagram.

    Delta is finite and nonzero at every point that ``check_generic``
    accepts at a level n >= |lambda|: a denominator q^{-h}(q^{2h} - 1) has
    1 <= h <= n, and a numerator, nu^{-1} q^{-d}(q^{2d} - nu^2) or
    (r q^e + q^h)(1 - r^{-1} q^{-e-h}), vanishes only where
    nu^2 q^{2z} = 1 for z = -d, h - e or -e - h, all with |z| <= 2n.
    """
    lam = tuple(lam)
    cols = tuple(sum(r > j for r in lam) for j in range(max(lam, default=0)))
    if flip:
        lam, cols = cols, lam
    row = (0,) + lam + (0,) * len(cols)  # row[k] = lambda_k, 1-based
    col = (0,) + cols + (0,) * len(lam)

    def qnum(d):
        return field.nu_pow(-1) * field.q_pow(d) - field.nu * field.q_pow(-d)

    num = den = field.one
    for i in range(1, len(lam) + 1):
        for j in range(1, row[i] + 1):
            h = row[i] - j + col[j] - i + 1
            qh = field.q_pow(h) - field.q_pow(-h)
            if i == j:
                num = num * (qnum(row[j] - col[j]) + qh)
            else:
                num = num * qnum(row[i] + row[j] - i - j + 1 if i < j
                                 else -col[i] - col[j] + i + j - 1)
            den = den * qh
    return num / den


def kappa_block(block, weights, field):
    """Rank-one kappa on a Case-4 block: every column is the weight column,
    kappa_kl = gamma_k (the all-ones row gauge), where ``weights`` lists
    gamma_k = Delta(lambda_i)/Delta(lambda_{i-1}) of each member k."""
    return Matrix([[w] * block.size for w in weights], field)


def _swap_product(a, b, u):
    """sigma_12 sigma_21 of a two-member block with eigenvalue pair (a, b)."""
    d = b - a
    return (d * d - u * u * a * b) / (d * d)


def _partner_scale(block, a, b, prod, weights, field):
    """sigma_12 of a 3b block: the braid-consistent normalization.

    Member 1 has the pair (a, b) and member 2 the swapped pair (b, a), a and
    b here the values of the tokens ``block.pairs[0]``, and
    a < b as tokens (canonical order), so member 1 adds a box first when
    the two steps are of different kinds.  With kappa in the all-ones row
    gauge, lambda = lambda_{i-1} and lambda^k the middle diagram of member
    k, the normalization that makes every position braid-consistent is

    * two added boxes: sigma_12 = 1 (Young's seminormal choice);
    * two removed boxes: sigma_21 = Delta(lambda^2) / Delta(lambda^1);
    * add a box (token a), then remove one (token b):
      sigma_12 = Delta(lambda^1) / Delta(lambda), times the two-added-box
      product P(a, nu^2/b) when a.z + b.z < 0, that is when the removed
      box has the larger content (in the tokens' content convention).

    P = ``prod`` is the block's own sigma_12 sigma_21, and ``weights`` are
    the members' kappa weights Delta(lambda^k)/Delta(lambda).  The rules are
    checked, not derived: ``gauge.repair_position`` tests the braid
    identity at every position (in the verifier's ``braid`` check, or while
    building when no verification follows), and the other checks the rest.
    """
    a_tok, b_tok = block.pairs[0]
    if not b_tok.nu:
        return field.one
    if a_tok.nu:
        return prod * weights[0] / weights[1]
    scale = weights[0]
    if a_tok.z + b_tok.z < 0:
        removed = field.nu_pow(2) / b
        scale = scale * _swap_product(a, removed, field.q - field.q_pow(-1))
    return scale


def sigma_block(block, kappa, weights, field, value):
    """Sigma on a single block, from the case tag and (for Case 4) kappa.

    ``weights`` are the members' kappa weights (see ``kappa_block``); 3a
    blocks and 3b blocks of two added boxes do not read them.  ``value``
    gives a token's value (``LocalAtlas.value``).

    No divisor a - b vanishes: a 3b pair's tokens differ (else
    ``spec.classify_local`` raises); in Case 4, a_k = b_l as tokens would
    give an addable and a removable corner of lambda_{i-1} one content;
    and distinct tokens with |z| <= n have distinct values at a symbolic
    or ``check_generic`` point.  Were one zero, the division would raise.
    """
    u = field.q - field.q_pow(-1)
    if block.case.tag == "3a":
        val = field.q if block.case.sign > 0 else -field.q_pow(-1)
        return Matrix([[val]], field)
    if block.case.tag == "3b":
        a, b = map(value, block.pairs[0])
        d = b - a
        prod = _swap_product(a, b, u)
        t = _partner_scale(block, a, b, prod, weights, field)
        return Matrix([[u * b / d, t], [prod / t, u * a / (-d)]], field)
    # Case 4: sigma_{kl} (a_k - b_l) = u (kappa_{kl} - delta_{kl}) b_l
    s = block.size
    a_vals = [value(a) for (a, _) in block.pairs]
    b_vals = [value(b) for (_, b) in block.pairs]
    rows = []
    for k in range(s):
        row = []
        for l in range(s):
            d = a_vals[k] - b_vals[l]
            kap = kappa.rows[k][l]
            if k == l:
                kap = kap - field.one
            row.append(u * kap * b_vals[l] / d)
        rows.append(row)
    return Matrix(rows, field)


class LocalAtlas:
    """The local data of one call: token values, blocks and verdicts.

    A block's S and K are functions of its local type: lambda_{i-1}, the
    lambda_i of its members in their order, and lambda_{i+1}.  Its case,
    its tokens and its kappa weights are all read off those diagrams, and
    nothing else (the position i included) enters ``sigma_block`` or
    ``kappa_block``.  An atlas of one field and content convention forms
    each token's value once (``value``) and each local type's S and K once
    (``block``), and holds them for as long as it lives, so the irreps
    built with it share those objects.  It lives for one call: ``cli``
    makes one per ``verify`` or ``central`` command, and a lone
    ``build_rep`` or ``verify_relations`` makes its own.

    It records verdicts too (``holds``): of a one-position relation per
    block key (``block_key``), and of a two-position relation per class
    key (``class_keys``).  A key is made of the identities of stored
    objects, never of paths, and only of objects this atlas formed and
    holds, so no id is reused while the atlas lives; ``verify_relations``
    gives the argument that a recorded verdict is exact.
    """

    def __init__(self, field, flip=False):
        self.field, self.flip = field, flip
        self._values = {}    # token -> its value
        self._qdims = {}     # diagram -> Delta
        self._blocks = {}    # local type -> (S, K)
        self._owned = set()  # ids of the values, S and K above
        self._verdicts = {}  # (relation, key) -> verdict
        self._zhat = None

    def value(self, tok):
        """The token's value in the field, formed once."""
        v = self._values.get(tok)
        if v is None:
            v = self._values[tok] = self.field.token_value(tok)
            self._owned.add(id(v))
        return v

    def _qdim(self, lam):
        d = self._qdims.get(lam)
        if d is None:
            d = self._qdims[lam] = quantum_dimension(lam, self.field, self.flip)
        return d

    def block(self, b, paths):
        """S and K of the block b of ``paths``, formed once per local type."""
        i, first = b.pos, paths[b.members[0]]
        mids = tuple(paths[m][i] for m in b.members)
        key = (first[i - 1], mids, first[i + 1])
        got = self._blocks.get(key)
        if got is None:
            f = self.field
            w = None
            if b.case.tag == "4" or (b.case.tag == "3b" and b.pairs[0][1].nu):
                w = [self._qdim(mid) / self._qdim(first[i - 1]) for mid in mids]
            if b.case.tag == "4":
                k = kappa_block(b, w, f)
                s = sigma_block(b, k, w, f, self.value)
            else:
                s = sigma_block(b, None, w, f, self.value)
                # (q - S)(S + q^-1) = 0 by Cayley-Hamilton: S is q or -q^-1
                # on 3a, and has trace u, determinant -1 on 3b
                k = Matrix.zero(b.size, b.size, f)
            got = self._blocks[key] = (s, k)
            self._owned.update((id(s), id(k)))
        return got

    def block_key(self, lb):
        """The identities of the S, K and y_i, y_{i+1} entries stored on a
        ``_LocalBlock``, or None where the atlas does not own them all."""
        key = (id(lb.s), id(lb.k), *map(id, lb.a), *map(id, lb.b))
        return key if self._owned.issuperset(key) else None

    def class_keys(self, join):
        """Per class of a join(i, i+1): the identities of the S and K stored
        at i and at i+1 on it, with their places in the class, or None where
        the atlas does not own them all."""
        rep, owned, keys = join.rep, self._owned, []
        for c in range(len(join.classes)):
            key = tuple(
                tuple((id(rep.sigma[pos - 1][k]), id(rep.kappa[pos - 1][k]), *idx)
                      for k, idx in join.parts[pos][c])
                for pos in (join.i, join.i + 1))
            mine = all(s in owned and k in owned for part in key for s, k, *_ in part)
            keys.append(key if mine else None)
        return keys

    def holds(self, name, key, test):
        """``test()``, the verdict of relation ``name`` on the block or class
        of ``key``: made once per key, and every time where key is None."""
        if key is None:
            return test()
        ok = self._verdicts.get((name, key))
        if ok is None:
            ok = self._verdicts[name, key] = test()
        return ok

    def zhat(self, order):
        """The call's ``central.ZhatTable`` at ``order`` or above."""
        if self._zhat is None or self._zhat.order < order:
            self._zhat = cen.ZhatTable(self.field, order, self.value, self.flip)
        return self._zhat


def _atlas_for(atlas, field, flip):
    """``atlas``, or a new one where it is None; ValueError where it was
    made for another field or content convention."""
    if atlas is None:
        return LocalAtlas(field, flip)
    if atlas.field is not field or atlas.flip != flip:
        raise ValueError("the atlas was made for another field or content convention")
    return atlas


def build_rep(lam, n, field=SYMBOLIC, flip=False, verify=True, atlas=None):
    """Assemble and verify the seminormal irrep labeled (lambda, n).

    A rational field must be generic at level n (``require_generic``).  The
    token values and blocks come from ``atlas``, a ``LocalAtlas`` of this
    field and convention, or from a new one where it is None.
    """
    lam = tuple(lam)
    if field.name == "rational":
        require_generic(field, n)
    atlas = _atlas_for(atlas, field, flip)
    strings, paths = map(list, zip(*comb.basis(lam, n, flip)))
    y = [[atlas.value(s[j]) for s in strings] for j in range(n)]
    blocks = _group_blocks(paths, strings)
    sigma, kappa = [], []
    for i in range(1, n):
        sig, kap = zip(*[atlas.block(b, paths) for b in blocks[i]])
        sigma.append(list(sig))
        kappa.append(list(kap))
    rep = SeminormalRep(lam, n, paths, strings, sigma, kappa, y, blocks, field, flip)
    if verify:
        report = verify_relations(rep, atlas)
        if not report.ok:
            raise VerificationFailed(report)
    else:
        # the normalization is braid-consistent by construction; the braid
        # test of each position against the next guards it here when no
        # verification (whose ``braid`` check makes this test) follows
        for i in range(1, n - 1):
            join = _Join(rep, i, i + 1)
            if not _braid_holds(join, atlas.class_keys(join), atlas):
                raise gauge.GaugeRepairFailed(
                    "braid relation fails between consecutive positions")
    return rep


def verify_relations(rep, atlas=None):
    """Exact checks of every defining relation on the built matrices.

    Relations at one position are proven on the blocks of
    ``rep.blocks[i]``, and the relations that couple two positions on the
    classes of the join of their blocks.  This is exact, not a
    sampling, because the storage is the block structure: sigma_i and
    kappa_i are the direct sums of their stored blocks S, K, and every y
    is the diagonal of its stored entries (so any two commute, and its
    restriction to a block is the diagonal Y of its entries there).  The
    one thing left to check is ``block_structure`` at each i: the blocks
    partition the basis and sigma_i, kappa_i hold one matrix of its
    block's size per block.  Every other check reads that structure, so
    where it fails the report ends there.

    Sums, products and scalar multiples of direct sums are formed block by
    block, and a direct sum vanishes exactly when every block does.  So
    ``cubic``, ``kappa_definition``, ``y_recursion``, ``kappa_y_product``
    and ``kappa_y_power`` hold on the whole space exactly when they hold on
    every block.  A direct sum is invertible exactly when every block is,
    and S (S - u + u K) = I on a square block says that S is invertible
    with S^{-1} = S - u + u K: that is ``skein``, and these blocks make up
    the sigma^{-1} that ``kappa_sigma_kappa_minus`` uses, with no
    inversion (each formed once for both, ``_LocalBlock.skein_inverse``).
    ``kappa_y_power`` reads Zhat^(p) of each member's lambda_{i-1}, the
    diagram its prefix reaches (``central.ZhatTable``).  It and
    ``kappa_y_product`` are trivially true on a block where K = 0, and
    take no product there.

    Where K != 0 it is tested once for rank one (``_LocalBlock.rank_one``):
    with a nonzero pivot K[a0][b0], its row r and its column c,
    K[a][b] pivot = c[a] r[b] for every entry says exactly K = c r / pivot.
    Then K Y^p K = (r Y^p c / pivot) K, and where the members share one
    lambda_{i-1} Zhat^(p) is one scalar z, so, K being nonzero,
    ``kappa_y_power`` holds on the block exactly when r Y^p c = z pivot.  Given
    ``kappa_definition``, (S - q)(S + q^{-1}) = -nu u K, so the cubic is
    -nu u K (S - nu): it holds where K = 0, and for K = c r / pivot, c != 0,
    exactly when r S = nu r.  So ``cubic``, like ``kappa_sigma_kappa_minus``
    with ``skein``, may pass on a block where the relation it rests on
    fails, and ``report.ok`` stays exact.  A block where K has rank two or
    more, or whose members' lambda_{i-1} differ, is checked with the dense
    block products.  The members of a block share lambda_{i-1}, and kappa
    is rank one on every Case-4 block by construction (``kappa_block``),
    so a built representation takes the scalar forms throughout.  The
    Zhat^(p) come from one ``central.ZhatTable`` made for this call at the
    largest order 2m any position needs; it forms each box's factor once
    and each diagram's product from its parent's, and is dropped when the
    call returns.

    ``braid`` and the two kappa-sigma-kappa relations couple positions i
    and i+1, and ``locality`` couples i and j >= i+2.  Every block at i and
    every block at j lies inside one class of the join of the two
    partitions (``_Join``), so sigma_i, kappa_i and sigma_j, kappa_j, and
    the sigma_j^{-1} made of the blocks' S - u + u K, are direct sums over
    a common coarsening: the classes.  Each relation compares two products
    of such operators, and a product of direct sums over the same classes
    is the direct sum of the class products, so each relation holds on the
    whole space exactly when it holds on every class.  The join reads only
    the member lists, whose being partitions ``block_structure`` has
    proven.  On each class the operators are small matrices formed from
    the stored blocks by ``_Join.form``, once per join(i, i+1) for braid
    and kappa-sigma-kappa (``_Join.matrix``), and uncached for locality,
    which reads each join(i, j) once.  Where kappa_i vanishes on a class
    both sides of kappa-sigma-kappa do.  ``braid`` is
    ``gauge.repair_position`` on the classes of join(i, i+1)
    (``_braid_holds``), the test that ``build_rep`` skips when this
    verification follows.

    Each relation is proven once per key of ``atlas`` (``LocalAtlas``, a
    new one where it is None, which keys nothing it did not make): a
    one-position relation once per block key, the identities of the S, K
    and y_i, y_{i+1} entries stored on the block (with the members'
    lambda_{i-1} and the power p for ``kappa_y_power``, whose test forms
    the y_i^p entries it reads), and braid and the kappa-sigma-kappa
    relations once per class key, the identities and places of the S, K
    stored at i and i+1 on the class.  This is exact: each relation's
    verdict on a block or a class is a function of the matrices there, and
    the same objects in the same places are the same matrices, since no
    stored matrix or entry is changed during a call.  An id names one
    object while it is alive, and the atlas keys only objects it formed
    and keeps for the whole call, so two keys are equal only where the
    objects are.  A block or class holding an object the atlas did not
    make, as a perturbed or copied block does, has no key and is tested
    every time.  So every check has the name, index, detail and verdict of
    testing every block and every class.  Locality is tested on every
    class of its joins.

    Each check carries the perf_counter seconds it took.
    """
    f = rep.field
    n = rep.n
    q = f.q
    qinv = f.q_pow(-1)
    nu = f.nu
    u = q - qinv
    nu2 = f.nu_pow(2)
    nu_u = nu * u
    atlas = _atlas_for(atlas, f, rep.flip)
    report = Report()

    def timed(name, index, test, detail=""):
        t0 = perf_counter()
        ok = test()
        report.checks.append(Check(name, index, ok, detail, perf_counter() - t0))

    for i in range(1, n):
        timed("block_structure", i, lambda: _respects_blocks(rep, i))
    if not report.ok:
        return report
    local = {i: _LocalBlock.at(rep, i) for i in range(1, n)}
    keyed = {i: [(lb, atlas.block_key(lb)) for lb in local[i]] for i in range(1, n)}
    joins = {i: _Join(rep, i, i + 1) for i in range(1, n - 1)}
    class_keys = {i: atlas.class_keys(joins[i]) for i in joins}

    def on_blocks(name, test):
        """``test`` on every block of every position, once per block key."""
        for i in range(1, n):
            timed(name, i, lambda: all(
                atlas.holds(name, key, lambda: test(lb)) for lb, key in keyed[i]))

    def commute(i, j):
        classes = _Join(rep, i, j)
        si, sj = rep.sigma[i - 1].__getitem__, rep.sigma[j - 1].__getitem__

        def holds(c):
            a, b = classes.form(c, i, si), classes.form(c, j, sj)
            return (a * b).equals(b * a)

        return all(holds(c) for c in range(len(classes.classes)))

    def sandwich(name, i, x, c):
        """kappa_i X kappa_i = c kappa_i on every class of join(i, i+1),
        ``x(cls)`` giving X on class cls (sigma_{i+1} or its skein inverse)."""
        def holds(cls):
            k = joins[i].matrix(cls, i, "kappa")
            return k.is_zero or (k * x(cls) * k).equals(k.scale(c))

        return _on_classes(atlas, name, class_keys[i], holds)

    for i in range(1, n - 1):
        timed("braid", i, lambda: _braid_holds(joins[i], class_keys[i], atlas))
    for i in range(1, n):
        for j in range(i + 2, n):
            timed("locality", i, lambda: commute(i, j), detail=f"j={j}")

    def cubic_holds(lb):
        """The cubic on a block, given kappa_definition there."""
        if lb.k.is_zero:
            return True
        if lb.rank_one:
            row = Matrix([lb.rank_one[1]], f)
            return (row * lb.s).equals(row.scale(nu))
        return (lb.s.shift(-q) * lb.s.shift(qinv) * lb.s.shift(-nu)).is_zero

    on_blocks("cubic", cubic_holds)
    for i in range(1, n - 1):
        timed("kappa_sigma_kappa_plus", i, lambda: sandwich(
            "kappa_sigma_kappa_plus", i,
            lambda c: joins[i].matrix(c, i + 1, "sigma"), f.one / nu))
        # sigma_{i+1}^{-1} block by block, from the skein form (see skein)
        timed("kappa_sigma_kappa_minus", i, lambda: sandwich(
            "kappa_sigma_kappa_minus", i,
            lambda c: joins[i].matrix(
                c, i + 1, "skein", lambda k: local[i + 1][k].skein_inverse), nu))
    on_blocks("kappa_definition", lambda lb: (
        (-lb.s).shift(q) * lb.s.shift(qinv)).equals(lb.k.scale(nu_u)))
    on_blocks("skein", lambda lb: (
        lb.s * lb.skein_inverse).equals(Matrix.identity(lb.s.n, f)))
    on_blocks("y_recursion", lambda lb: (
        lb.s * Matrix.diagonal(lb.a, f) * lb.s).equals(Matrix.diagonal(lb.b, f)))

    def kills_kappa(lb):
        if lb.k.is_zero:
            return True
        prod = Matrix.diagonal([a * b for a, b in zip(lb.a, lb.b)], f)
        target = lb.k.scale(nu2)
        return (prod * lb.k).equals(target) and (lb.k * prod).equals(target)

    on_blocks("kappa_y_product", kills_kappa)
    orders = {}  # position -> 2m, m the largest (size - 1) // 2 of a Case-4 block
    for i in range(1, n):
        sizes = [b.size for b in rep.blocks[i] if b.case.tag == "4"]
        if sizes:
            orders[i] = 2 * ((max(sizes) - 1) // 2)
    # Zhat^(p) does not depend on the order a series is truncated at, so
    # long as it is >= p: the call's table answers every order up to its own
    zhat = atlas.zhat(max(orders.values(), default=0))

    def moment_holds(lb, lams, p):
        ypow = [a ** p for a in lb.a]
        if lb.rank_one and len(set(lams)) == 1:
            col, row, pivot = lb.rank_one
            pairing = sum((r * x * c for r, x, c in zip(row, ypow, col)), f.zero)
            return pairing == zhat[lams[0]][p] * pivot
        z = Matrix.diagonal([zhat[lam][p] for lam in lams], f)
        return (lb.k * Matrix.diagonal(ypow, f) * lb.k).equals(z * lb.k)

    for i, order in orders.items():
        # trivially true where K = 0; keyed by the members' lambda_{i-1} too
        coupled = []
        for lb, key in keyed[i]:
            if not lb.k.is_zero:
                lams = [rep.paths[r][i - 1] for r in lb.block.members]
                coupled.append((lb, lams, key and (key, *lams)))
        for p in range(order + 1):
            timed("kappa_y_power", i, lambda: all(
                atlas.holds(("kappa_y_power", p), key,
                            lambda: moment_holds(lb, lams, p))
                for lb, lams, key in coupled), detail=f"p={p}")
    return report


@dataclass(frozen=True)
class _LocalBlock:
    """Blocks S, K of sigma_i, kappa_i and the y_i, y_{i+1} entries there."""

    block: Block
    s: Matrix
    k: Matrix
    a: list
    b: list

    @classmethod
    def at(cls, rep, i):
        """The blocks of position i with their stored S, K and y entries."""
        a, b = rep.y[i - 1], rep.y[i]
        return [
            cls(
                block, s, k,
                [a[r] for r in block.members],
                [b[r] for r in block.members],
            )
            for block, s, k in zip(rep.blocks[i], rep.sigma[i - 1], rep.kappa[i - 1])
        ]

    @cached_property
    def rank_one(self):
        """(col, row, pivot) with K = col row / pivot when K has rank one.

        The pivot is the first nonzero entry K[a0][b0] in row order, row is
        K's row a0 and col its column b0; None when K is zero or has rank
        two or more.
        """
        rows = self.k.rows
        a0, b0 = next(
            ((a, b) for a, r in enumerate(rows) for b, x in enumerate(r) if x),
            (None, None),
        )
        if a0 is None:
            return None
        pivot, row = rows[a0][b0], rows[a0]
        col = [r[b0] for r in rows]
        if all(x * pivot == c * y for c, r in zip(col, rows) for x, y in zip(r, row)):
            return col, row, pivot
        return None

    @cached_property
    def skein_inverse(self):
        """S - u + u K: the inverse of S exactly when the skein relation holds."""
        f = self.s.field
        u = f.q - f.q_pow(-1)
        return self.s.shift(-u) + self.k.scale(u)


class _Join:
    """The join of the partitions ``rep.blocks[i]`` and ``rep.blocks[j]``.

    Its classes are the finest partition of the basis in which every block
    at i and every block at j lies inside one class (union-find over the
    member lists); each class lists its basis indices in increasing order.
    sigma_i, kappa_i and sigma_j, kappa_j are direct sums over these
    classes.  Nothing here reads the paths: ``block_structure`` proves that
    both lists of blocks partition the basis, and that is all it needs.
    Every class matrix of a join is formed by ``form``.
    """

    def __init__(self, rep, i, j):
        self.rep, self.i = rep, i
        self._matrices = {}
        root = list(range(rep.dim))

        def find(r):
            while root[r] != r:
                root[r] = root[root[r]]
                r = root[r]
            return r

        for block in rep.blocks[i] + rep.blocks[j]:
            first = find(block.members[0])
            for r in block.members[1:]:
                root[find(r)] = first
        classes = {}
        for r in range(rep.dim):
            classes.setdefault(find(r), []).append(r)
        self.classes = list(classes.values())
        self._place = [None] * rep.dim  # basis index -> (class, index in it)
        for c, members in enumerate(self.classes):
            for k, r in enumerate(members):
                self._place[r] = (c, k)
        # pos -> per class: (index in rep.blocks[pos], places in the class)
        # of each block at pos that it holds
        self.parts = {pos: [[] for _ in self.classes] for pos in (i, j)}
        place = self._place
        for pos, parts in self.parts.items():
            for k, block in enumerate(rep.blocks[pos]):
                parts[place[block.members[0]][0]].append(
                    (k, [place[r][1] for r in block.members]))

    def class_of(self, block):
        """The index of the class that holds a block at i or at j."""
        return self._place[block.members[0]][0]

    def form(self, c, pos, block):
        """Class c's matrix of the block matrices ``block(k)`` of position
        pos (i or j) on their blocks, zero elsewhere."""
        parts = [(idx, block(k)) for k, idx in self.parts[pos][c]]
        return Matrix.direct_sum(len(self.classes[c]), parts, self.rep.field)

    def matrix(self, c, pos, name, block=None):
        """``form`` of sigma or kappa (``name``) at pos, or of the block
        matrices ``block(k)`` named ``name``; formed once per join."""
        key = (c, pos, name)
        m = self._matrices.get(key)
        if m is None:
            block = block or getattr(self.rep, name)[pos - 1].__getitem__
            m = self._matrices[key] = self.form(c, pos, block)
        return m


def _on_classes(atlas, name, keys, test):
    """``test(c)`` on every class c of a join(i, i+1) whose class keys
    (``LocalAtlas.class_keys``) are ``keys``: once per key in ``atlas``."""
    return all(atlas.holds(name, key, lambda: test(c)) for c, key in enumerate(keys))


def _braid_holds(join, keys, atlas):
    """sigma_i sigma_{i+1} sigma_i = sigma_{i+1} sigma_i sigma_{i+1} for the
    positions i, i+1 of ``join``: one ``gauge.repair_position`` call (with
    kappa None: it is returned unread) per class key of ``keys``."""
    i = join.i

    def holds(c):
        try:
            gauge.repair_position(
                join.matrix(c, i, "sigma"), join.matrix(c, i + 1, "sigma"), None)
        except gauge.GaugeRepairFailed:
            return False
        return True

    return _on_classes(atlas, "braid", keys, holds)


def _respects_blocks(rep, i):
    """True when rep.blocks[i] partitions the basis and sigma_i, kappa_i
    hold one matrix of its block's size per block."""
    blocks = rep.blocks[i]
    if sorted(r for b in blocks for r in b.members) != list(range(rep.dim)):
        return False
    return all(
        len(mats) == len(blocks)
        and all(m.n == m.m == b.size for m, b in zip(mats, blocks))
        for mats in (rep.sigma[i - 1], rep.kappa[i - 1])
    )


def level_vertices(n):
    return comb.build_graph(n).levels[n]


def _layout(obj, level):
    """``json.dumps(obj, indent=2)`` of nested lists whose leaves are
    already JSON text."""
    if not isinstance(obj, list):
        return obj
    if not obj:
        return "[]"
    inner = "\n" + "  " * (level + 1)
    if isinstance(obj[0], str):
        items = obj
    else:
        items = [_layout(x, level + 1) for x in obj]
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * level + "]"


def rep_to_json(rep):
    """The rep as JSON: whole matrices of printed entries, with each block
    entry and each diagonal entry printed and every other entry the zero
    printed once.

    The text is ``json.dumps(data, indent=2, sort_keys=True)`` byte for
    byte, laid out by ``_layout`` with each distinct printed entry quoted
    once; json's own encoder runs in pure Python when it indents.
    """
    quoted = {}

    def text(x):
        s = format_scalar(x)
        q = quoted.get(s)
        if q is None:
            q = quoted[s] = json.dumps(s)
        return q

    zero = text(rep.field.zero)

    def zeros():
        return [[zero] * rep.dim for _ in range(rep.dim)]

    def whole(i, mats):
        rows = zeros()
        for block, small in zip(rep.blocks[i], mats):
            for r, small_row in zip(block.members, small.rows):
                row = rows[r]
                for c, x in zip(block.members, small_row):
                    row[c] = text(x)
        return rows

    def diagonal(d):
        rows = zeros()
        for r, x in enumerate(d):
            rows[r][r] = text(x)
        return rows

    data = {
        "kappa": [whole(i, m) for i, m in enumerate(rep.kappa, 1)],
        "lambda": [str(r) for r in rep.lam],
        "mode": json.dumps(rep.field.name),
        "n": str(rep.n),
        "paths": [[[str(r) for r in lamk] for lamk in p] for p in rep.paths],
        "sigma": [whole(i, m) for i, m in enumerate(rep.sigma, 1)],
        "y": [diagonal(d) for d in rep.y],
    }
    return "{\n" + ",\n".join(
        f'  "{key}": {_layout(value, 1)}' for key, value in sorted(data.items())
    ) + "\n}"

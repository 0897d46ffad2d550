"""Seminormal matrices for the tower generators, built block by block.

For an irrep labeled (lambda, n) the basis is the canonical list of
oscillating paths.  At each position i the paths split into blocks: sets
sharing everything except the level-i diagram.  A block is

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
positions, so no gauge is solved for; the braid identity with the
previous position is still tested while building.  Only the verifier's
``kappa_y_power`` check reads the central scalars (``central.zhat_series``),
so it tests the weights against an independent formula.

Every built representation is verified against the full defining relation
list before being returned.  In this basis sigma_i and kappa_i only mix
paths of one block at position i and every y is diagonal, so relations at
one position (cubic, kappa definition, skein, JM recursion, kappa-moment
identities) are proven on the blocks, after a ``block_structure`` check
that the blocks partition the basis and that sigma_i, kappa_i vanish off
them.  Only braid, locality and kappa-sigma-kappa multiply whole matrices,
and sigma^{-1} comes from the skein relation, not from an inversion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dfield
from fractions import Fraction
from functools import lru_cache
from time import perf_counter

from . import central as cen
from . import combinatorics as comb
from . import gauge
from . import spectrum as spec
# solve is not called; perfbench/tracing.py patches repbuilder.solve by name
from .linalg import Matrix, solve  # noqa: F401
from .scalars import SYMBOLIC, format_scalar


class NonGenericBlock(ArithmeticError):
    pass


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
    sigma: list       # n-1 matrices
    kappa: list       # n-1 matrices
    y: list           # n diagonal matrices, y_1 = identity
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


def _canonical_paths(lam, n, flip=False):
    paths = comb.enumerate_paths(lam, n)
    if flip:
        paths = sorted(paths, key=lambda p: spec.content_string(p, flip=True))
    return paths


def _group_blocks(paths, strings, i):
    """Blocks at position i of the canonical paths and their token strings."""
    groups = {}
    for idx, p in enumerate(paths):
        groups.setdefault((p[:i], p[i + 1 :]), []).append(idx)
    blocks = []
    for (pre, post), members in groups.items():
        pairs = tuple((strings[m][i - 1], strings[m][i]) for m in members)
        if pre[i - 1] == post[0]:
            case = spec.LocalCase("4")
        else:
            case = spec.classify_local(*pairs[0])
        blocks.append(Block(i, tuple(members), case, pairs))
    return blocks


def block_decompose(lam, n, i, flip=False):
    """Blocks of coupled paths at position i (1 <= i <= n-1)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"position {i} out of range for level {n}")
    paths = _canonical_paths(lam, n, flip=flip)
    strings = [spec.content_string(p, flip=flip) for p in paths]
    return _group_blocks(paths, strings, i)


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


def _partner_scale(block, prod, weights, field):
    """sigma_12 of a 3b block: the braid-consistent normalization.

    Member 1 has the pair (a, b) and member 2 the swapped pair (b, a), and
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
    identity at every position, and the relation verification the rest.
    """
    a_tok, b_tok = block.pairs[0]
    if not b_tok.nu:
        return field.one
    if a_tok.nu:
        return prod * weights[0] / weights[1]
    scale = weights[0]
    if a_tok.z + b_tok.z < 0:
        added = field.token_value(a_tok)
        removed = field.nu_pow(2) / field.token_value(b_tok)
        scale = scale * _swap_product(added, removed, field.q - field.q_pow(-1))
    return scale


def sigma_block(block, kappa, weights, field):
    """Sigma on a single block, from the case tag and (for Case 4) kappa.

    ``weights`` are the members' kappa weights (see ``kappa_block``); 3a
    blocks and 3b blocks of two added boxes do not read them.
    """
    u = field.q - field.q_pow(-1)
    if block.case.tag == "3a":
        val = field.q if block.case.sign > 0 else -field.q_pow(-1)
        return Matrix([[val]], field)
    if block.case.tag == "3b":
        a = field.token_value(block.pairs[0][0])
        b = field.token_value(block.pairs[0][1])
        d = b - a
        if not d:
            raise NonGenericBlock(f"coincident pair in 3b block at i={block.pos}")
        prod = _swap_product(a, b, u)
        t = _partner_scale(block, prod, weights, field)
        return Matrix([[u * b / d, t], [prod / t, u * a / (-d)]], field)
    # Case 4: sigma_{kl} (a_k - b_l) = u (kappa_{kl} - delta_{kl}) b_l
    s = block.size
    a_vals = [field.token_value(a) for (a, _) in block.pairs]
    b_vals = [field.token_value(b) for (_, b) in block.pairs]
    rows = []
    for k in range(s):
        row = []
        for l in range(s):
            d = a_vals[k] - b_vals[l]
            if not d:
                raise NonGenericBlock(
                    f"eigenvalue collision a_k = b_l in block at i={block.pos}"
                )
            kap = kappa.rows[k][l]
            if k == l:
                kap = kap - field.one
            row.append(u * kap * b_vals[l] / d)
        rows.append(row)
    return Matrix(rows, field)


def _scatter(target, block, small):
    for bi, gi in enumerate(block.members):
        for bj, gj in enumerate(block.members):
            target.rows[gi][gj] = small.rows[bi][bj]


def build_rep(lam, n, field=SYMBOLIC, flip=False, verify=True):
    """Assemble and verify the seminormal irrep labeled (lambda, n)."""
    lam = tuple(lam)
    paths = _canonical_paths(lam, n, flip=flip)
    strings = [spec.content_string(p, flip=flip) for p in paths]
    dim = len(paths)
    y = [
        Matrix.diagonal([field.token_value(s[j]) for s in strings], field)
        for j in range(n)
    ]
    sigma = []
    kappa = []
    blocks = {}

    @lru_cache(maxsize=None)
    def qdim(diagram):
        return quantum_dimension(diagram, field, flip)

    @lru_cache(maxsize=None)
    def weight(before, mid):
        return qdim(mid) / qdim(before)

    for i in range(1, n):
        sig = Matrix.zero(dim, dim, field)
        kap = Matrix.zero(dim, dim, field)
        blist = _group_blocks(paths, strings, i)
        blocks[i] = blist
        for b in blist:
            w = None
            if b.case.tag == "4" or (b.case.tag == "3b" and b.pairs[0][1].nu):
                w = [weight(paths[m][i - 1], paths[m][i]) for m in b.members]
            if b.case.tag == "4":
                kb = kappa_block(b, w, field)
                sb = sigma_block(b, kb, w, field)
                _scatter(kap, b, kb)
            else:
                sb = sigma_block(b, None, w, field)
                # kappa must vanish on 3a/3b blocks by the quadratic factor
                ident = Matrix.identity(b.size, field)
                kb = (ident.scale(field.q) - sb) * (
                    sb + ident.scale(field.q_pow(-1))
                )
                if not kb.is_zero:
                    raise NonGenericBlock(
                        f"nonzero kappa on a {b.case.tag} block at i={i}"
                    )
            _scatter(sig, b, sb)
        if i >= 2:
            # the normalization is braid-consistent by construction; the
            # braid test against position i-1 guards it
            sig, kap, _ = gauge.repair_position(sigma[-1], sig, kap)
        sigma.append(sig)
        kappa.append(kap)
    rep = SeminormalRep(lam, n, paths, strings, sigma, kappa, y, blocks, field, flip)
    if verify:
        report = verify_relations(rep)
        if not report.ok:
            raise VerificationFailed(report)
    return rep


def verify_relations(rep):
    """Exact checks of every defining relation on the built matrices.

    Relations at one position are proven on the blocks of
    ``rep.blocks[i]``; only braid, locality and the two
    kappa-sigma-kappa relations, which couple positions, use products of
    whole matrices.  This is exact, not a sampling, because of two checks
    made first:

    * ``block_structure`` at i: the blocks partition the basis and sigma_i,
      kappa_i vanish off them, so each is the direct sum of its blocks
      S, K;
    * ``y_commute``: every y is diagonal (so any two commute), so its
      restriction to a block is the diagonal Y of its entries there.

    Sums, products and scalar multiples of direct sums are formed block by
    block, and a direct sum vanishes exactly when every block does.  So
    ``cubic``, ``kappa_definition``, ``y_recursion``, ``kappa_y_product``
    and ``kappa_y_power`` hold on the whole space exactly when they hold on
    every block.  A direct sum is invertible exactly when every block is,
    and S (S - u + u K) = I on a square block says that S is invertible
    with S^{-1} = S - u + u K: that is ``skein``, and these blocks make up
    the sigma^{-1} that ``kappa_sigma_kappa_minus`` uses, with no
    inversion.  ``kappa_y_power`` reads Zhat^(p) from each
    member's own prefix, and is trivially true on a block where K = 0.

    Each check carries the perf_counter seconds it took.
    """
    f = rep.field
    n = rep.n
    q = f.q
    qinv = f.q_pow(-1)
    nu = f.nu
    u = q - qinv
    nu2 = f.nu_pow(2)
    report = Report()
    sig = rep.sigma
    kap = rep.kappa
    y = rep.y

    def timed(name, index, test, detail=""):
        t0 = perf_counter()
        ok = test()
        report.checks.append(Check(name, index, ok, detail, perf_counter() - t0))

    local = {}
    for i in range(1, n):
        timed("block_structure", i, lambda: _respects_blocks(rep, i))
        local[i] = [_LocalBlock.of(rep, i, b) for b in rep.blocks[i]]

    def on_blocks(name, test):
        for i in range(1, n):
            timed(name, i, lambda: all(test(lb) for lb in local[i]))

    def sigma_inverse(i):
        """sigma_i^{-1}, assembled from the blocks' S - u + u K (see skein)."""
        out = Matrix.zero(rep.dim, rep.dim, f)
        for lb in local[i]:
            _scatter(out, lb.block, lb.skein_inverse(u))
        return out

    for i in range(n - 2):
        timed(
            "braid", i + 1,
            lambda: (sig[i] * sig[i + 1] * sig[i]).equals(
                sig[i + 1] * sig[i] * sig[i + 1]
            ),
        )
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            timed(
                "locality", i + 1,
                lambda: (sig[i] * sig[j]).equals(sig[j] * sig[i]),
                detail=f"j={j + 1}",
            )
    on_blocks(
        "cubic",
        lambda lb: (lb.s.shift(-q) * lb.s.shift(qinv) * lb.s.shift(-nu)).is_zero,
    )
    for i in range(n - 2):
        timed(
            "kappa_sigma_kappa_plus", i + 1,
            lambda: (kap[i] * sig[i + 1] * kap[i]).equals(kap[i].scale(f.one / nu)),
        )
        timed(
            "kappa_sigma_kappa_minus", i + 1,
            lambda: (kap[i] * sigma_inverse(i + 2) * kap[i]).equals(kap[i].scale(nu)),
        )
    on_blocks(
        "kappa_definition",
        lambda lb: ((-lb.s).shift(q) * lb.s.shift(qinv)).equals(lb.k.scale(nu * u)),
    )
    on_blocks(
        "skein",
        lambda lb: (lb.s * lb.skein_inverse(u)).equals(Matrix.identity(lb.s.n, f)),
    )
    on_blocks(
        "y_recursion",
        lambda lb: (lb.s * Matrix.diagonal(lb.a, f) * lb.s).equals(
            Matrix.diagonal(lb.b, f)
        ),
    )
    diagonal = [_is_diagonal(m) for m in y]
    for i in range(n):
        for j in range(i + 1, n):
            timed(
                "y_commute", i + 1, lambda: diagonal[i] and diagonal[j],
                detail=f"j={j + 1}",
            )

    def kills_kappa(lb):
        prod = Matrix.diagonal([a * b for a, b in zip(lb.a, lb.b)], f)
        target = lb.k.scale(nu2)
        return (prod * lb.k).equals(target) and (lb.k * prod).equals(target)

    on_blocks("kappa_y_product", kills_kappa)
    # Zhat series by prefix; a prefix's length fixes its position, so its order
    zhat = {}

    def moment_holds(lb, ypow, p, order):
        for pre in lb.prefixes:
            if pre not in zhat:
                zhat[pre] = cen.zhat_series(pre, order, f)
        z = Matrix.diagonal([zhat[pre][p] for pre in lb.prefixes], f)
        return (lb.k * Matrix.diagonal(ypow, f) * lb.k).equals(z * lb.k)

    for i in range(1, n):
        m = max(
            ((b.size - 1) // 2 for b in rep.blocks[i] if b.case.tag == "4"),
            default=None,
        )
        if m is None:
            continue
        coupled = [lb for lb in local[i] if not lb.k.is_zero]
        ypows = [[f.one] * len(lb.a) for lb in coupled]  # Y_i^p diagonals
        for p in range(2 * m + 1):
            timed(
                "kappa_y_power", i,
                lambda: all(
                    moment_holds(lb, ypow, p, 2 * m)
                    for lb, ypow in zip(coupled, ypows)
                ),
                detail=f"p={p}",
            )
            ypows = [
                [x * a for x, a in zip(ypow, lb.a)]
                for lb, ypow in zip(coupled, ypows)
            ]
    return report


@dataclass(frozen=True)
class _LocalBlock:
    """Sub-blocks S, K of sigma_i, kappa_i and the y_i, y_{i+1} diagonals."""

    block: Block
    s: Matrix
    k: Matrix
    a: list
    b: list
    prefixes: list    # per member: its string before position i

    @classmethod
    def of(cls, rep, i, block):
        ms = block.members

        def restrict(mat):
            return Matrix([[mat.rows[r][c] for c in ms] for r in ms], rep.field)

        return cls(
            block,
            restrict(rep.sigma[i - 1]),
            restrict(rep.kappa[i - 1]),
            [rep.y[i - 1].rows[r][r] for r in ms],
            [rep.y[i].rows[r][r] for r in ms],
            [rep.strings[r][: i - 1] for r in ms],
        )

    def skein_inverse(self, u):
        """S - u + u K: the inverse of S exactly when the skein relation holds."""
        return self.s.shift(-u) + self.k.scale(u)


def _respects_blocks(rep, i):
    """True when rep.blocks[i] partitions the basis and sigma_i, kappa_i
    vanish outside the blocks."""
    owner = [None] * rep.dim
    for bi, b in enumerate(rep.blocks[i]):
        for r in b.members:
            if not 0 <= r < rep.dim or owner[r] is not None:
                return False
            owner[r] = bi
    if None in owner:
        return False
    return all(
        not x or owner[r] == owner[c]
        for mat in (rep.sigma[i - 1], rep.kappa[i - 1])
        for r, row in enumerate(mat.rows)
        for c, x in enumerate(row)
    )


def _is_diagonal(mat):
    return all(
        not x for r, row in enumerate(mat.rows) for c, x in enumerate(row) if r != c
    )


def level_vertices(n):
    return comb.build_graph(n).levels[n]


def _format_entry(x, field):
    if isinstance(x, Fraction):
        return str(x)
    return format_scalar(x)


def rep_to_json(rep):
    f = rep.field

    def mat(m):
        return [[_format_entry(x, f) for x in row] for row in m.rows]

    data = {
        "lambda": list(rep.lam),
        "n": rep.n,
        "mode": f.name,
        "paths": [[list(lamk) for lamk in p] for p in rep.paths],
        "sigma": [mat(m) for m in rep.sigma],
        "kappa": [mat(m) for m in rep.kappa],
        "y": [mat(m) for m in rep.y],
    }
    return json.dumps(data, indent=2, sort_keys=True)

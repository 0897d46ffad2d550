"""Seminormal matrices for the tower generators, built block by block.

For an irrep labeled (lambda, n) the basis is the canonical list of
oscillating paths.  At each position i the paths split into blocks: sets
sharing everything except the level-i diagram.  A block is

* Case 3a (size 1): sigma acts by +-q^{+-1}, kappa by 0;
* Case 3b (size 2): a Hecke-type two-block, kappa 0;
* Case 4 (odd size 2m+1): lambda_{i-1} = lambda_{i+1}; kappa is the
  rank-one matrix whose weights solve a Vandermonde system against the
  central generating-function scalars, and sigma is forced entrywise.

Every built representation is verified against the full defining relation
list before being returned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dfield
from fractions import Fraction

from . import central as cen
from . import combinatorics as comb
from . import gauge
from . import spectrum as spec
from .linalg import Matrix, solve
from .scalars import SYMBOLIC, format_scalar


class DegenerateBlock(ArithmeticError):
    pass


class NonGenericBlock(ArithmeticError):
    pass


class VerificationFailed(RuntimeError):
    def __init__(self, report):
        self.report = report
        failures = [c for c in report.checks if not c.ok]
        super().__init__(
            "relation verification failed after gauge repair: "
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
    repaired_positions: tuple = ()

    @property
    def dim(self):
        return len(self.paths)


@dataclass(frozen=True)
class Check:
    name: str
    index: int
    ok: bool
    detail: str = ""


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


def block_decompose(lam, n, i, flip=False):
    """Blocks of coupled paths at position i (1 <= i <= n-1)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"position {i} out of range for level {n}")
    paths = _canonical_paths(lam, n, flip=flip)
    strings = [spec.content_string(p, flip=flip) for p in paths]
    groups = {}
    for idx, p in enumerate(paths):
        key = (p[:i], p[i + 1 :])
        groups.setdefault(key, []).append(idx)
    blocks = []
    for (pre, post), members in sorted(groups.items(), key=lambda kv: kv[1][0]):
        pairs = tuple((strings[m][i - 1], strings[m][i]) for m in members)
        if pre[i - 1] == post[0]:
            case = spec.LocalCase("4")
        else:
            case = spec.classify_local(*pairs[0])
        blocks.append(Block(i, tuple(members), case, pairs))
    return blocks


def kappa_block(block, prefix, field):
    """Rank-one kappa on a Case-4 block in the all-ones row gauge.

    The weight column gamma solves sum_k gamma_k a_k^p = Zhat^(p) for
    p = 0..2m, where the right-hand side comes from the central
    generating function evaluated on the shared path prefix.
    """
    s = block.size
    a_vals = [field.token_value(a) for (a, _) in block.pairs]
    for k in range(s):
        for l in range(k + 1, s):
            if a_vals[k] == a_vals[l]:
                raise DegenerateBlock(
                    f"repeated eigenvalue in block at i={block.pos}"
                )
    zh = cen.zhat_series(prefix, s - 1, field)
    vand = Matrix(
        [[a_vals[k] ** p for k in range(s)] for p in range(s)], field
    )
    gamma = solve(vand, zh)
    return Matrix([[gamma[k]] * s for k in range(s)], field)


def sigma_block(block, kappa, field):
    """Sigma on a single block, from the case tag and (for Case 4) kappa."""
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
        return Matrix(
            [
                [u * b / d, field.one],
                [(d * d - u * u * a * b) / (d * d), u * a / (-d)],
            ],
            field,
        )
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
    repaired = []
    for i in range(1, n):
        sig = Matrix.zero(dim, dim, field)
        kap = Matrix.zero(dim, dim, field)
        blist = block_decompose(lam, n, i, flip=flip)
        blocks[i] = blist
        for b in blist:
            if b.case.tag == "4":
                prefix = strings[b.members[0]][: i - 1]
                kb = kappa_block(b, prefix, field)
                sb = sigma_block(b, kb, field)
                _scatter(kap, b, kb)
            else:
                sb = sigma_block(b, None, field)
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
            # block-local gauges need not be mutually braid-consistent;
            # align position i against the already-fixed position i-1
            sig, kap, scales = gauge.repair_position(
                sigma[-1], sig, kap, blist, field,
                commuters=sigma[:-1] + kappa[:-1],
            )
            if scales is not None:
                repaired.append(i)
        sigma.append(sig)
        kappa.append(kap)
    rep = SeminormalRep(lam, n, paths, strings, sigma, kappa, y, blocks, field, flip)
    rep.repaired_positions = tuple(repaired)
    if verify:
        report = verify_relations(rep)
        if not report.ok:
            raise VerificationFailed(report)
    return rep


def verify_relations(rep, with_zhat=True):
    """Exact checks of every defining relation on the built matrices."""
    f = rep.field
    n = rep.n
    q = f.q
    qinv = f.q_pow(-1)
    nu = f.nu
    u = q - qinv
    ident = Matrix.identity(rep.dim, f)
    report = Report()
    sig = rep.sigma
    kap = rep.kappa
    y = rep.y

    for i in range(n - 2):
        lhs = sig[i] * sig[i + 1] * sig[i]
        rhs = sig[i + 1] * sig[i] * sig[i + 1]
        report.add("braid", i + 1, lhs.equals(rhs))
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            report.add(
                "locality", i + 1, (sig[i] * sig[j]).equals(sig[j] * sig[i]),
                detail=f"j={j + 1}",
            )
    for i in range(n - 1):
        cubic = (sig[i].shift(-q)) * (sig[i].shift(qinv)) * (sig[i].shift(-nu))
        report.add("cubic", i + 1, cubic.is_zero)
    for i in range(n - 2):
        report.add(
            "kappa_sigma_kappa_plus",
            i + 1,
            (kap[i] * sig[i + 1] * kap[i]).equals(kap[i].scale(f.one / nu)),
        )
        report.add(
            "kappa_sigma_kappa_minus",
            i + 1,
            (kap[i] * sig[i + 1].inverse() * kap[i]).equals(kap[i].scale(nu)),
        )
    for i in range(n - 1):
        quad = (ident.scale(q) - sig[i]) * (sig[i] + ident.scale(qinv))
        report.add("kappa_definition", i + 1, quad.equals(kap[i].scale(nu * u)))
    for i in range(n - 1):
        skein = sig[i].inverse() - sig[i] + ident.scale(u)
        report.add("skein", i + 1, skein.equals(kap[i].scale(u)))
    for i in range(n - 1):
        report.add("y_recursion", i + 1, (sig[i] * y[i] * sig[i]).equals(y[i + 1]))
    for i in range(n):
        for j in range(i + 1, n):
            report.add(
                "y_commute", i + 1, (y[i] * y[j]).equals(y[j] * y[i]),
                detail=f"j={j + 1}",
            )
    nu2 = f.nu_pow(2)
    for i in range(n - 1):
        prod = y[i] * y[i + 1]
        report.add(
            "kappa_y_product",
            i + 1,
            (prod * kap[i]).equals(kap[i].scale(nu2))
            and (kap[i] * prod).equals(kap[i].scale(nu2)),
        )
    if with_zhat:
        for i in range(1, n):
            m = max(
                ((b.size - 1) // 2 for b in rep.blocks[i] if b.case.tag == "4"),
                default=None,
            )
            if m is None:
                continue
            zdiags = _zhat_diagonals(rep, i, 2 * m)
            ypow = Matrix.identity(rep.dim, f)
            for p in range(2 * m + 1):
                lhs = kap[i - 1] * ypow * kap[i - 1]
                rhs = zdiags[p] * kap[i - 1]
                report.add("kappa_y_power", i, lhs.equals(rhs), detail=f"p={p}")
                ypow = ypow * y[i - 1]
    return report


def _zhat_diagonals(rep, i, order):
    """Diagonal matrices of the per-path central scalars Zhat_{i-1}^(p)."""
    f = rep.field
    cache = {}
    cols = []
    for s in rep.strings:
        prefix = s[: i - 1]
        if prefix not in cache:
            cache[prefix] = cen.zhat_series(prefix, order, f)
        cols.append(cache[prefix])
    return [
        Matrix.diagonal([cols[k][p] for k in range(rep.dim)], f)
        for p in range(order + 1)
    ]


def conjugate_diagonal(rep, scales):
    """Gauge transform by an invertible diagonal matrix (for invariance tests)."""
    f = rep.field
    d = Matrix.diagonal(list(scales), f)
    dinv = d.inverse()
    return SeminormalRep(
        rep.lam,
        rep.n,
        rep.paths,
        rep.strings,
        [d * s * dinv for s in rep.sigma],
        [d * k * dinv for k in rep.kappa],
        list(rep.y),
        rep.blocks,
        f,
        rep.flip,
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

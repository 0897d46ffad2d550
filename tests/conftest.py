import functools
from fractions import Fraction

import pytest

from bmwtower.combinatorics import build_graph, enumerate_paths
from bmwtower.linalg import Matrix
from bmwtower.repbuilder import (
    SeminormalRep,
    VerificationFailed,
    build_rep,
    verify_relations,
)
from bmwtower.scalars import SYMBOLIC, GenericSpecialization

RATIONAL = GenericSpecialization(Fraction(2), Fraction(3))


@functools.lru_cache(maxsize=None)
def _built(lam, n, mode):
    """Build, with its verification, once per (irrep, mode) for the whole
    test session: (rep, None), or (None, the failed report)."""
    field = SYMBOLIC if mode == "symbolic" else RATIONAL
    try:
        return build_rep(lam, n, field=field), None
    except VerificationFailed as exc:
        return None, exc.report


def cached_rep(lam, n, mode="symbolic"):
    """The session's irrep; raises VerificationFailed if a relation fails."""
    rep, failed = _built(lam, n, mode)
    if failed is not None:
        raise VerificationFailed(failed)
    return rep


def cached_verdict(lam, n, mode="symbolic"):
    """True when the session's build of the irrep passed its verification."""
    return _built(lam, n, mode)[1] is None


@functools.lru_cache(maxsize=None)
def cached_report(lam, n, mode="symbolic"):
    """A verification report of the session's irrep, for tests that read
    individual checks; the build's own report is not kept when it passes."""
    rep, failed = _built(lam, n, mode)
    return failed if failed is not None else verify_relations(rep)


def replace_parts(rep, **fields):
    """Copy of rep with some of sigma, kappa, y, blocks replaced."""
    parts = dict(sigma=rep.sigma, kappa=rep.kappa, y=rep.y, blocks=rep.blocks)
    parts.update(fields)
    return SeminormalRep(
        rep.lam, rep.n, rep.paths, rep.strings, parts["sigma"], parts["kappa"],
        parts["y"], parts["blocks"], rep.field, rep.flip,
    )


def conjugate_diagonal(rep, scales):
    """Gauge transform by an invertible diagonal matrix (for invariance
    tests), block by block."""
    f = rep.field
    scales = list(scales)

    def conjugate(mats, i):
        out = []
        for block, mat in zip(rep.blocks[i], mats):
            local = [scales[r] for r in block.members]
            d = Matrix.diagonal(local, f)
            dinv = Matrix.diagonal([f.one / x for x in local], f)
            out.append(d * mat * dinv)
        return out

    return replace_parts(
        rep,
        sigma=[conjugate(s, i) for i, s in enumerate(rep.sigma, 1)],
        kappa=[conjugate(k, i) for i, k in enumerate(rep.kappa, 1)],
    )


def set_entries(mats, index, block, entries):
    """Copy of the block-matrix lists ``mats`` (sigma or kappa) with entries
    {(r, c): value}, in block coordinates, set in mats[index][block]."""
    out = list(mats)
    out[index] = list(out[index])
    mat = out[index][block].copy()
    for (r, c), value in entries.items():
        mat.rows[r][c] = value
    out[index][block] = mat
    return out


@functools.lru_cache(maxsize=None)
def level_vertices(n):
    return tuple(build_graph(n).levels[n])


def class_types(lams, n):
    """The local types of the classes of join(i, i+1) over the irreps
    (lam, n), i <= n-2: lambda_{i-1}, the (lambda_i, lambda_{i+1}) of the
    class's paths in basis order, and lambda_{i+2}, where a class is a group
    of paths that agree outside levels i, i+1; and the number of classes."""
    types, classes = set(), 0
    for lam in lams:
        paths = enumerate_paths(lam, n)
        for i in range(1, n - 1):
            groups = {}
            for p in paths:
                groups.setdefault((p[:i], p[i + 2:]), []).append(p)
            classes += len(groups)
            types |= {(g[0][i - 1], tuple((p[i], p[i + 1]) for p in g), g[0][i + 2])
                      for g in groups.values()}
    return types, classes


@pytest.fixture
def rational_field():
    return RATIONAL

import functools
from fractions import Fraction

import pytest

from bmwtower.combinatorics import build_graph
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
    """Build and verify once per (irrep, mode) for the whole test session."""
    field = SYMBOLIC if mode == "symbolic" else RATIONAL
    rep = build_rep(lam, n, field=field, verify=False)
    return rep, verify_relations(rep)


def cached_rep(lam, n, mode="symbolic"):
    """The session's irrep; raises VerificationFailed if a relation fails."""
    rep, report = _built(lam, n, mode)
    if not report.ok:
        raise VerificationFailed(report)
    return rep


def cached_report(lam, n, mode="symbolic"):
    """The report of the session's one verification pass of the irrep."""
    return _built(lam, n, mode)[1]


def replace_parts(rep, **fields):
    """Copy of rep with some of sigma, kappa, y, blocks replaced."""
    parts = dict(sigma=rep.sigma, kappa=rep.kappa, y=rep.y, blocks=rep.blocks)
    parts.update(fields)
    return SeminormalRep(
        rep.lam, rep.n, rep.paths, rep.strings, parts["sigma"], parts["kappa"],
        parts["y"], parts["blocks"], rep.field, rep.flip,
    )


def conjugate_diagonal(rep, scales):
    """Gauge transform by an invertible diagonal matrix (for invariance tests)."""
    f = rep.field
    scales = list(scales)
    d = Matrix.diagonal(scales, f)
    dinv = Matrix.diagonal([f.one / x for x in scales], f)
    return replace_parts(
        rep,
        sigma=[d * s * dinv for s in rep.sigma],
        kappa=[d * k * dinv for k in rep.kappa],
        y=list(rep.y),
    )


def set_entries(mats, index, entries):
    """Copy of a matrix list with entries {(r, c): value} set in mats[index]."""
    out = list(mats)
    mat = out[index].copy()
    for (r, c), value in entries.items():
        mat.rows[r][c] = value
    out[index] = mat
    return out


@functools.lru_cache(maxsize=None)
def level_vertices(n):
    return tuple(build_graph(n).levels[n])


@pytest.fixture
def rational_field():
    return RATIONAL

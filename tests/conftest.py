import functools
from fractions import Fraction

import pytest

from bmwtower.combinatorics import build_graph
from bmwtower.repbuilder import VerificationFailed, build_rep, verify_relations
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


@functools.lru_cache(maxsize=None)
def level_vertices(n):
    return tuple(build_graph(n).levels[n])


@pytest.fixture
def rational_field():
    return RATIONAL

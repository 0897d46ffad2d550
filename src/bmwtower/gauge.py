"""Diagonal gauge alignment between positions of the tower.

Each block at position i carries its own free gauge (one scale per member
beyond the first).  Block-local relations cannot see these scales; the
braid relation between neighbouring positions does.  This module solves
the braid constraints for an unknown per-path scale vector, exploiting the
fact that every scalar equation produced by the braid difference collapses
to a two-monomial relation: a ratio of scales equals a known field value.
Ratios are then propagated until all determined; leftover freedom is fixed
to 1.  The solver then checks every constraint equation under the solved
scales (each ratio exactly, each longer equation by evaluation) and raises
``GaugeRepairFailed`` on any that fails, so a wrong (or impossible) solution
can never slip through silently.
"""

from __future__ import annotations

from .linalg import Matrix


class GaugeRepairFailed(RuntimeError):
    pass


# A v-polynomial maps monomials to nonzero field coefficients.  A monomial
# is a sorted tuple of (path index, exponent) with nonzero exponents.

_ONE = ()


def _mono_mul(m1, m2):
    d = dict(m1)
    for p, e in m2:
        d[p] = d.get(p, 0) + e
        if not d[p]:
            del d[p]
    return tuple(sorted(d.items()))


def _vp_mul(f1, f2):
    out = {}
    for m1, c1 in f1.items():
        for m2, c2 in f2.items():
            m = _mono_mul(m1, m2)
            cur = out.get(m)
            s = c1 * c2 if cur is None else cur + c1 * c2
            if s:
                out[m] = s
            elif cur is not None:
                del out[m]
    return out


def _vp_add(f1, f2):
    out = dict(f1)
    for m, c in f2.items():
        cur = out.get(m)
        s = c if cur is None else cur + c
        if s:
            out[m] = s
        elif cur is not None:
            del out[m]
    return out


def _vp_neg(f):
    return {m: -c for m, c in f.items()}


def _mat_mul(a, b, dim):
    out = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for k in range(dim):
            x = a[i][k]
            if not x:
                continue
            for j in range(dim):
                y = b[k][j]
                if y:
                    out[i][j] = _vp_add(out[i][j], _vp_mul(x, y))
    return out


def solve_position_gauge(sig_prev, sig_i, blocks_i, field, commuters=()):
    """Per-path scales making braid(sig_prev, V sig_i V^-1) hold.

    ``commuters`` are matrices of distant positions that must commute with
    the rescaled sigma; their equations tie together blocks with the same
    local move but different path prefixes.  Returns a list of field
    elements (one per path, 1 where unconstrained) or raises
    GaugeRepairFailed when the constraints are inconsistent or not of
    ratio form.
    """
    dim = sig_i.n
    one = field.one
    # unknowns: members beyond the first of each nontrivial block
    unknown = set()
    for b in blocks_i:
        if b.size > 1:
            unknown.update(b.members[1:])

    a_const = [
        [({} if not sig_prev.rows[p][s] else {_ONE: sig_prev.rows[p][s]})
         for s in range(dim)]
        for p in range(dim)
    ]
    s_var = [[{} for _ in range(dim)] for _ in range(dim)]
    for p in range(dim):
        for s in range(dim):
            x = sig_i.rows[p][s]
            if not x:
                continue
            mono = {}
            if p in unknown:
                mono[p] = mono.get(p, 0) + 1
            if s in unknown:
                mono[s] = mono.get(s, 0) - 1
            s_var[p][s] = {tuple(sorted(mono.items())): x}

    asa = _mat_mul(_mat_mul(a_const, s_var, dim), a_const, dim)
    sas = _mat_mul(_mat_mul(s_var, a_const, dim), s_var, dim)
    diffs = [_vp_add(asa[p][r], _vp_neg(sas[p][r]))
             for p in range(dim) for r in range(dim)]
    for mat in commuters:
        c_const = [
            [({} if not mat.rows[p][s] else {_ONE: mat.rows[p][s]})
             for s in range(dim)]
            for p in range(dim)
        ]
        cs = _mat_mul(c_const, s_var, dim)
        sc = _mat_mul(s_var, c_const, dim)
        diffs.extend(_vp_add(cs[p][r], _vp_neg(sc[p][r]))
                     for p in range(dim) for r in range(dim))

    constraints = []
    for idx, diff in enumerate(diffs):
        if not diff:
            continue
        items = list(diff.items())
        if len(items) == 1:
            raise GaugeRepairFailed(
                f"unsatisfiable gauge equation #{idx}: single monomial"
            )
        if len(items) > 2:
            # postponed: checked after substitution of the solved scales
            constraints.append(("defer", diff))
            continue
        (m1, c1), (m2, c2) = items
        delta = dict(_mono_mul(m1, tuple((q, -e) for q, e in m2)))
        constraints.append(("ratio", delta, -c2 / c1))

    known = {}
    ratio = [c for c in constraints if c[0] == "ratio"]

    def propagate():
        progress = True
        while progress:
            progress = False
            for _, delta, val in ratio:
                unk = [(q, e) for q, e in delta.items() if q not in known]
                if len(unk) == 1 and abs(unk[0][1]) == 1:
                    q, e = unk[0]
                    acc = one
                    for q2, e2 in delta.items():
                        if q2 == q:
                            continue
                        acc = acc * known[q2] ** e2
                    known[q] = val / acc if e == 1 else acc / val
                    progress = True

    # fix one free scale at a time, then chase its consequences
    propagate()
    for q in sorted(unknown):
        if q not in known:
            known[q] = one
            propagate()
    # consistency of every constraint under the solved assignment
    for _, delta, val in ratio:
        acc = one
        for q, e in delta.items():
            acc = acc * known[q] ** e
        if not (acc == val):
            raise GaugeRepairFailed("inconsistent ratio constraints")
    for kind, diff in (c for c in constraints if c[0] == "defer"):
        total = field.zero
        for mono, coef in diff.items():
            acc = coef
            for q, e in mono:
                acc = acc * known[q] ** e
            total = total + acc
        if total:
            raise GaugeRepairFailed("deferred constraint not satisfied")
    scales = [known.get(p, one) for p in range(dim)]
    return scales


def apply_diagonal(mat, scales, field):
    """V mat V^-1 for the diagonal matrix of the given scales."""
    out = Matrix.zero(mat.n, mat.m, field)
    for p in range(mat.n):
        for s in range(mat.m):
            x = mat.rows[p][s]
            if x:
                out.rows[p][s] = scales[p] * x / scales[s]
    return out


def repair_position(sig_prev, sig_i, kap_i, blocks_i, field, commuters=()):
    """Fix the gauge of position i against an already-fixed predecessor.

    Returns (sigma, kappa, scales).  When the braid identity already holds
    the inputs come back with scales None; otherwise the rescaled sigma
    satisfies it and commutes with every matrix in ``commuters``.
    GaugeRepairFailed means the inconsistency is not of gauge type.
    """
    lhs = sig_prev * sig_i * sig_prev
    rhs = sig_i * sig_prev * sig_i
    if lhs.equals(rhs):
        return sig_i, kap_i, None
    # solve_position_gauge has checked braid and locality entrywise under
    # the returned scales, so the rescaled sigma needs no second check
    scales = solve_position_gauge(sig_prev, sig_i, blocks_i, field, commuters)
    return (apply_diagonal(sig_i, scales, field),
            apply_diagonal(kap_i, scales, field), scales)

"""Partitions, the oscillating Young graph and its paths.

Vertices at level k are the Young diagrams reachable from the empty diagram
in k steps, each step adding or removing a single box.  Paths from the top
label the eigenbasis of the commuting family in each irreducible
representation; the number of paths ending at (lambda, n) is the dimension
of the corresponding irrep.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the empty diagram.
"""

from __future__ import annotations

import json
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple


class Box(NamedTuple):
    row: int  # 1-based
    col: int  # 1-based
    content: int  # col - row


class NotAVertex(ValueError):
    pass


def check_partition(lam):
    if any(r <= 0 for r in lam):
        raise ValueError(f"partition rows must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"rows must be weakly decreasing: {lam}")
    return tuple(lam)


def parse_partition(text):
    """Comma-separated row lengths; the empty string is the empty diagram."""
    text = text.strip()
    if not text:
        return ()
    try:
        rows = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"not a comma-separated list of row lengths: {text!r}") from None
    return check_partition(rows)


def format_partition(lam):
    return ",".join(str(r) for r in lam)


def addable_boxes(lam):
    """Corners where a box can be added, top row first."""
    out = []
    for i in range(len(lam)):
        if i == 0 or lam[i] < lam[i - 1]:
            out.append(Box(i + 1, lam[i] + 1, lam[i] + 1 - (i + 1)))
    out.append(Box(len(lam) + 1, 1, -len(lam)))
    return out

def removable_boxes(lam):
    """Corners where a box can be removed, top row first."""
    out = []
    for i in range(len(lam)):
        if i == len(lam) - 1 or lam[i] > lam[i + 1]:
            out.append(Box(i + 1, lam[i], lam[i] - (i + 1)))
    return out


def add_box(lam, row):
    out = list(lam)
    if row == len(lam) + 1:
        out.append(1)
    else:
        out[row - 1] += 1
    return tuple(out)


def remove_box(lam, row):
    out = list(lam)
    out[row - 1] -= 1
    if out[row - 1] == 0:
        out.pop(row - 1)
    return tuple(out)


@lru_cache(maxsize=None)
def neighbors(lam):
    """All diagrams one box away (additions first, then removals)."""
    outs = [add_box(lam, b.row) for b in addable_boxes(lam)]
    outs += [remove_box(lam, b.row) for b in removable_boxes(lam)]
    return tuple(outs)


def step_token_key(prev, cur):
    """Sort key of a single path step: (0, c) for adding a box of content
    c, (1, -c) for removing one.  Matches the eigenvalue-token ordering."""
    if sum(cur) == sum(prev) + 1:
        for b in addable_boxes(prev):
            if add_box(prev, b.row) == cur:
                return (0, b.content)
    else:
        for b in removable_boxes(prev):
            if remove_box(prev, b.row) == cur:
                return (1, -b.content)
    raise ValueError(f"{prev} -> {cur} is not a single-box step")


class Token(NamedTuple):
    """A step key as an eigenvalue token (``spectrum``), contents signed."""
    nu: int  # 0 or 1
    z: int   # q-exponent: the value is nu^(2*nu) * q^(2*z)


class OscillatingGraph(NamedTuple):
    n: int
    levels: tuple  # levels[k] = sorted tuple of partitions at level k
    edges: tuple  # (level k, lam, mu) with mu at level k+1


def build_graph(n):
    if n < 0:
        raise ValueError("level bound must be >= 0")
    levels = [((),)]
    edges = []
    for k in range(n):
        nxt = set()
        for lam in levels[k]:
            for mu in neighbors(lam):
                nxt.add(mu)
                edges.append((k, lam, mu))
        levels.append(tuple(sorted(nxt)))
    return OscillatingGraph(n, tuple(levels), tuple(edges))


@lru_cache(maxsize=None)
def dim(lam, n):
    """Number of length-n paths from the empty diagram to lam."""
    lam = tuple(lam)
    if n < sum(lam) or (n - sum(lam)) % 2:
        raise NotAVertex(f"{lam} is not a level-{n} vertex")
    # a neighbour of a level-n vertex is a level-(n-1) vertex once it fits
    return 1 if n == 0 else sum(dim(mu, n - 1) for mu in neighbors(lam) if sum(mu) < n)


@lru_cache(maxsize=None)
def _paths_to(lam, n, sign):
    """(content string, path) of every path empty -> lam of length n: one
    ``Token`` per step, the step key with its content times ``sign``,
    formed once per edge into lam and shared by every path through it."""
    if n < sum(lam) or (n - sum(lam)) % 2:
        raise NotAVertex(f"{lam} is not a level-{n} vertex")
    if n == 0:
        return (((), ((),)),)
    out = []
    for mu in neighbors(lam):
        if sum(mu) < n:  # as in ``dim``
            eps, z = step_token_key(mu, lam)
            tok = Token(eps, sign * z)
            out.extend((s + (tok,), p + (lam,)) for s, p in _paths_to(mu, n - 1, sign))
    return tuple(out)


def basis(lam, n, flip=False):
    """The canonical basis of the irrep (lam, n): (content string, path) of
    every path empty -> lam of length n, sorted by string; flip negates the
    contents."""
    return sorted(_paths_to(tuple(lam), n, -1 if flip else 1), key=itemgetter(0))


def enumerate_paths(lam, n):
    """All paths empty -> lam of length n, in canonical order."""
    return [p for _, p in basis(lam, n)]


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def dims_table(n):
    """Per-level dimension table with the sum-of-squares identity check."""
    g = build_graph(n)
    table = []
    for k in range(n + 1):
        row = {
            "level": k,
            "dims": {format_partition(lam): dim(lam, k) for lam in g.levels[k]},
        }
        row["sum_of_squares"] = sum(d * d for d in row["dims"].values())
        row["odd_double_factorial"] = double_factorial(2 * k - 1)
        row["identity_holds"] = row["sum_of_squares"] == row["odd_double_factorial"]
        table.append(row)
    return table


def graph_dot(g, flip=False):
    """DOT text of the oscillating Young graph.

    Vertices are "level:partition"; edges carry "+c"/"-c" with the content
    of the added or removed box (negated when flip is set).
    """
    sign = -1 if flip else 1
    lines = ["digraph oscillating_young {", "  rankdir=TB;"]
    for k, level in enumerate(g.levels):
        for lam in level:
            name = f"{k}:{format_partition(lam)}"
            lines.append(f'  "{name}" [label="{name}"];')
    for (k, lam, mu) in g.edges:
        key = step_token_key(lam, mu)
        c = sign * (key[1] if key[0] == 0 else -key[1])
        tag = ("+" if key[0] == 0 else "-") + str(c)
        lines.append(
            f'  "{k}:{format_partition(lam)}" -> "{k + 1}:{format_partition(mu)}"'
            f' [label="{tag}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def dims_json(table):
    """The JSON text of a ``dims_table``."""
    return json.dumps({"n": len(table) - 1, "levels": table}, indent=2, sort_keys=True)

"""Eigenvalue strings of the commuting Jucys-Murphy family.

A token (eps, z) stands for the formal value nu^(2*eps) * q^(2*z).  A path
on the oscillating Young graph determines a string of tokens: adding a box
of content c contributes q^(2c), removing one contributes nu^2 q^(-2c).
``admissible`` implements the intrinsic string rules; ``string_to_path``
realizes an admissible string as the unique path with that content string,
which together with ``content_string`` gives the spectrum/path bijection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import combinatorics as comb


Token = comb.Token  # formed by the walk over the paths (``comb.basis``)
ONE = Token(0, 0)


class RepeatedEigenvalue(ValueError):
    pass


class NotRealizable(ValueError):
    pass


@dataclass(frozen=True)
class LocalCase:
    tag: str           # "3a", "3b" or "4"
    sign: int = 0      # for 3a: +1 -> eigenvalue q, -1 -> eigenvalue -1/q
    power: int = 0     # for 3a: the q-shift b = q^(2*power) * a, power = +-1


def content_string(path, flip=False):
    """Token string of a path; flip swaps the content sign convention.

    The definition for one path; ``comb.basis`` forms the same strings for
    all paths to a vertex at once, one token per edge."""
    sign = -1 if flip else 1
    toks = []
    for k in range(len(path) - 1):
        eps, z = comb.step_token_key(path[k], path[k + 1])
        toks.append(Token(eps, sign * z))
    return tuple(toks)


def classify_local(a, b):
    """Local type of an adjacent eigenvalue pair (a, b) = (y_i, y_{i+1})."""
    if a == b:
        raise RepeatedEigenvalue(f"repeated eigenvalue {a}")
    if a.nu + b.nu == 1 and a.z + b.z == 0:
        return LocalCase("4")
    if a.nu == b.nu and b.z == a.z + 1:
        return LocalCase("3a", sign=+1, power=+1)
    if a.nu == b.nu and b.z == a.z - 1:
        return LocalCase("3a", sign=-1, power=-1)
    return LocalCase("3b")


def _last_position_ok(s):
    """Check the admissibility rules triggered by the final token of s.

    Every rule constrains a position through strictly earlier entries, so a
    string is admissible iff each prefix passes this check.
    """
    i = len(s) - 1
    a = s[i]
    if i == 0:
        return a == ONE
    prefix = s[:i]
    if a == s[i - 1]:
        return False  # adjacent eigenvalues never repeat
    if a.nu == 1:
        # a = nu^2 q^{-2z} with z = -a.z: q^{2z} must occur before
        if Token(0, -a.z) not in prefix:
            return False
    else:
        if a.z != 0 and Token(0, a.z + 1) not in prefix and Token(0, a.z - 1) not in prefix:
            return False
    # repetition separation: a at positions j < i
    for j in range(i):
        if s[j] != a:
            continue
        between = s[j + 1 : i]
        if a.nu == 0:
            ok = (
                Token(0, a.z + 1) in between and Token(0, a.z - 1) in between
            ) or Token(1, -a.z) in between
        else:
            ok = (
                Token(1, a.z + 1) in between and Token(1, a.z - 1) in between
            ) or Token(0, -a.z) in between
        if not ok:
            return False
    # mixed-type separation with z' = z +- 1
    for j in range(i):
        b = s[j]
        between = s[j + 1 : i]
        if b.nu == 1 and a.nu == 0:
            # b = nu^2 q^{-2z} (z = -b.z), a = q^{2z'}
            z = -b.z
            if a.z in (z + 1, z - 1):
                if Token(0, z) not in between and Token(1, -a.z) not in between:
                    return False
        elif b.nu == 0 and a.nu == 1:
            # b = q^{2z}, a = nu^2 q^{-2z'} (z' = -a.z)
            z = b.z
            if -a.z in (z + 1, z - 1):
                if Token(1, -z) not in between and Token(0, -a.z) not in between:
                    return False
    return True


def admissible(s):
    """True iff the token string passes all spectral rules."""
    return all(_last_position_ok(s[: i + 1]) for i in range(len(s)))


def enumerate_admissible(n):
    """All admissible strings of length n over the alphabet |z| <= n."""
    alphabet = [Token(e, z) for e in (0, 1) for z in range(-n, n + 1)]
    out = []

    def extend(s):
        if len(s) == n:
            out.append(s)
            return
        for t in alphabet:
            cand = s + (t,)
            if _last_position_ok(cand):
                extend(cand)

    extend(())
    return out


def string_to_path(s, flip=False):
    """The unique path whose content string is s; inverse of content_string."""
    sign = -1 if flip else 1
    lam = ()
    path = [lam]
    for k, tok in enumerate(s):
        kind, boxes, step = (("removable", comb.removable_boxes, comb.remove_box) if tok.nu
                             else ("addable", comb.addable_boxes, comb.add_box))
        want = (-sign if tok.nu else sign) * tok.z
        hits = [b for b in boxes(lam) if b.content == want]
        if not hits:
            raise NotRealizable(f"no {kind} box of content {want} on {lam} at step {k + 1}")
        lam = step(lam, hits[0].row)
        path.append(lam)
    return tuple(path)


def strings_of_level(lam, n, flip=False):
    """Content strings of the paths ending at (lam, n), listed in the
    unflipped canonical order of the paths; flip negates the contents."""
    signed = {p: s for s, p in comb.basis(lam, n, flip)}
    return [signed[p] for p in comb.enumerate_paths(lam, n)]


def bijection_report(n, flip=False):
    """Compare path content strings with intrinsically admissible strings.

    Exact set equality plus round-tripping is the correctness arbiter for
    the admissibility rules.  ``strings`` lists each level-n vertex's
    strings as ``strings_of_level`` does.
    """
    g = comb.build_graph(n)
    strings = {}
    roundtrip_ok = True
    for lam in g.levels[n]:
        strings[lam] = strings_of_level(lam, n, flip)
        if any(string_to_path(s, flip=flip) != p for s, p in comb.basis(lam, n, flip)):
            roundtrip_ok = False
    path_strings = {s for level in strings.values() for s in level}
    # the rules are invariant under z -> -z, so no remapping under flip
    adm = set(enumerate_admissible(n))
    return {
        "n": n,
        "num_paths": sum(len(level) for level in strings.values()),
        "num_path_strings": len(path_strings),
        "num_admissible": len(adm),
        "sets_equal": path_strings == adm,
        "roundtrip_ok": roundtrip_ok,
        "only_paths": sorted(path_strings - adm),
        "only_admissible": sorted(adm - path_strings),
        "strings": strings,
    }


def spectra_json(report):
    """The JSON text of a ``bijection_report``: its strings per vertex and
    its verdicts."""
    per_vertex = {
        comb.format_partition(lam): [[{"nu": t.nu, "z": t.z} for t in s] for s in level]
        for lam, level in report["strings"].items()
    }
    return json.dumps(
        {
            "n": report["n"],
            "strings": per_vertex,
            "bijection": {
                "sets_equal": report["sets_equal"],
                "roundtrip_ok": report["roundtrip_ok"],
            },
        },
        indent=2,
        sort_keys=True,
    )

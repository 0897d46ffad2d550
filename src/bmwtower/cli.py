"""Command-line front end.

Every command produces deterministic output (sorted keys, canonical
vertex ordering) and exits 0 exactly when all requested checks pass, 1
when one fails, and 2, with a one-line message on stderr, when the
arguments name no level, partition or generic point it can use, or when
the ``--out`` file cannot be written.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import os
import sys
from fractions import Fraction

from . import central as cen
from . import chains
from . import combinatorics as comb
from . import repbuilder as rb
from . import spectrum as spec
from .scalars import (
    SYMBOLIC,
    GenericSpecialization,
    NonGenericPoint,
    require_generic,
)


def _build_parser():
    p = argparse.ArgumentParser(
        prog="bmwtower",
        description="Exact representation tower engine: oscillating-tableau "
        "combinatorics, seminormal matrices, relation verification, central "
        "scalars, and spin-chain spectra.",
    )
    p.add_argument(
        "command",
        choices=["graph", "dims", "spectra", "rep", "verify", "central", "hamiltonian"],
    )
    p.add_argument("--n", type=int, required=True, help="tower level")
    p.add_argument(
        "--lambda", dest="lam", default=None,
        help='partition as comma-separated rows; "" = empty diagram',
    )
    p.add_argument("--mode", choices=["symbolic", "rational"], default="symbolic")
    p.add_argument("--q", default="2", help="rational value of q (rational mode)")
    p.add_argument("--nu", default="3", help="rational value of nu (rational mode)")
    p.add_argument("--a", choices=list(chains.A_CHOICES), default="q",
                   help="boundary eigenvalue choice for the chain")
    p.add_argument("--xi-re", type=float, default=None)
    p.add_argument("--xi-im", type=float, default=None)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--flip-content", action="store_true",
                   help="negate the box-content convention")
    return p


def _rational(text, option):
    """The rational number an option names; ValueError naming the option
    when the text is not one (``1/0`` included)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{option} must be a rational number, got {text!r}") from None


def _point(args):
    """The rational point (--q, --nu), checked generic at level --n."""
    return require_generic(
        GenericSpecialization(_rational(args.q, "--q"), _rational(args.nu, "--nu")),
        args.n,
    )


def _field(args):
    """The field the command computes in: the checked point for rational
    mode and for ``hamiltonian``, whose chain is numeric; else SYMBOLIC."""
    if args.mode == "rational" or args.command == "hamiltonian":
        return _point(args)
    return SYMBOLIC


def _parse_lam(args):
    if args.lam is None:
        raise ValueError("this command needs --lambda")
    return comb.parse_partition(args.lam)


def _chain_params(args, s):
    """The chain's boundary data at the point s; SingularParameter when xi
    is 1 or, given by --xi-re/--xi-im, does not square to -a*nu."""
    if args.xi_re is None and args.xi_im is None:
        params = chains.ChainParams.standard(args.a, s.q_value, s.nu_value)
    else:
        xi = complex(args.xi_re or 0.0, args.xi_im or 0.0)
        params = chains.ChainParams(args.a, xi)
    params.check_xi(s.q_value, s.nu_value)
    return params


def _check_out(path):
    """ValueError unless ``path`` names a file that can be written or made
    in a writable directory; creates and truncates nothing."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write --out {path}: {os.strerror(code)}")


def _validate(args):
    """The command's field (``_field``), or None for a command that reads
    none.  Raise ValueError, NonGenericPoint or SingularParameter when the
    arguments name no level, partition, point or chain the command can use,
    or an ``--out`` file it cannot write."""
    if args.out:
        _check_out(args.out)
    if args.n < 0:
        raise ValueError(f"level must be >= 0, got --n {args.n}")
    _rational(args.q, "--q")  # also where the mode reads neither
    _rational(args.nu, "--nu")
    field = None
    if args.command in ("rep", "verify", "central", "hamiltonian"):
        field = _field(args)
    if args.command in ("rep", "hamiltonian"):
        comb.dim(_parse_lam(args), args.n)  # NotAVertex unless a level-n vertex
    if args.command == "hamiltonian":
        _chain_params(args, field)
    return field


def run(args, field=None):
    """Returns (exit_status, output_text).  ``field`` is the one
    ``_validate`` returned for these arguments; without it the command
    makes (and checks) its own."""
    flip = args.flip_content

    if args.command == "graph":
        g = comb.build_graph(args.n)
        return 0, comb.graph_dot(g, flip=flip)

    if args.command == "dims":
        table = comb.dims_table(args.n)
        ok = all(row["identity_holds"] for row in table)
        return (0 if ok else 1), comb.dims_json(table)

    if args.command == "spectra":
        report = spec.bijection_report(args.n, flip=flip)
        ok = report["sets_equal"] and report["roundtrip_ok"]
        return (0 if ok else 1), spec.spectra_json(report)

    if field is None:
        field = _field(args)

    if args.command == "rep":
        lam = _parse_lam(args)
        rep = rb.build_rep(lam, args.n, field=field, flip=flip)
        return 0, rb.rep_to_json(rep)

    if args.command == "verify":
        out = []
        status = 0
        atlas = rb.LocalAtlas(field, flip)  # the irreps share blocks and verdicts
        for lam in rb.level_vertices(args.n):
            # one verification per irrep: the build's own, which also makes
            # the braid test
            try:
                rb.build_rep(lam, args.n, field=field, flip=flip, atlas=atlas)
                failures = []
            except rb.VerificationFailed as exc:
                failures = exc.report.failures()
                status = 1
            out.append({
                "lambda": list(lam),
                "dim": comb.dim(lam, args.n),
                "ok": not failures,
                "failures": [
                    {"name": c.name, "index": c.index, "detail": c.detail}
                    for c in failures
                ],
            })
        return status, json.dumps(
            {"n": args.n, "mode": args.mode, "irreps": out},
            indent=2, sort_keys=True,
        )

    if args.command == "central":
        reports = []
        atlas = rb.LocalAtlas(field, flip)
        for lam in rb.level_vertices(args.n):
            rep = rb.build_rep(lam, args.n, field=field, flip=flip, atlas=atlas)
            reports.append(cen.central_report(rep))
        return 0, cen.central_json(reports)

    if args.command == "hamiltonian":
        lam = _parse_lam(args)
        rep = rb.build_rep(lam, args.n, field=field, flip=flip)
        h = chains.hamiltonian(rep, _chain_params(args, field))
        buf = io.StringIO()
        chains.spectrum_csv(h, field, buf)
        return 0, buf.getvalue()

    raise SystemExit(f"unknown command {args.command}")


def main(argv=None):
    """Exit status 0: all checks pass; 1: a check failed; 2: a usage error."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        field = _validate(args)
    except (ValueError, NonGenericPoint, chains.SingularParameter) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    status, text = run(args, field)
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        try:  # checked before the run; it can still fail, say on a full disk
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            parser.exit(2, f"{parser.prog}: error: cannot write --out "
                           f"{args.out}: {exc.strerror or exc}\n")
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Workloads of the bmwtower benchmark: seeded job lists and their checks.

A workload is set up once per process (``setup``) and then run as passes
over its job list, one job after the other.  Each job calls the public API
(``bmwtower.cli.run`` or a module function) and returns the program's
output; ``summary`` reduces that output to data that survives a diagonal
gauge change of the representation matrices (digests of traces, of diagonal
JM matrices, of verdicts and of the combinatorial CLI text, and numeric
Hamiltonian spectra).  A job is correct when its summary matches the one
recorded in ``reference.json`` for the same rational point.

Nothing from bmwtower is imported at module level, so that ``setup`` times
the import of the program.
"""

from __future__ import annotations

import hashlib
import json
import random
import shlex
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Rational points (q, nu), each generic at TOP_LEVEL; the seed picks one.  They
# share |q| and |nu|, so every seed does about the same integer work.
POINTS = ((2, 5), (-2, 5), (2, -5), (-2, -5))
TOP_LEVEL = 7
DEFAULT_SEED = 1
REFERENCE = Path(__file__).with_name("reference.json")
EIGEN_TOL = 1e-10
A_CHOICES = ("q", "-q", "1/q", "-1/q")

WORKLOADS = ("symbolic_tower", "rational_tower", "query_mix")


def point_for(seed):
    return POINTS[random.Random(seed).randrange(len(POINTS))]


def point_key(point):
    return f"q={point[0]},nu={point[1]}"


def digest(obj):
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Job:
    key: str                          # stable name; also the reference key
    run: Callable[[], object]         # the timed call into the program
    summary: Callable[[object], object]


@dataclass
class Workload:
    name: str
    point: tuple
    jobs: list
    largest: str                      # key of the job a user waits on longest


def _fraction_of(text, mode, point):
    """Value of one printed matrix entry at the rational point."""
    from bmwtower.scalars import parse_scalar

    if mode == "symbolic":
        return parse_scalar(text).evaluate(Fraction(point[0]), Fraction(point[1]))
    return Fraction(text)


def _rep_summary(point):
    def summary(result):
        status, text = result
        data = json.loads(text)
        mode = data["mode"]

        def trace(m):
            return str(sum(_fraction_of(m[i][i], mode, point) for i in range(len(m))))

        return [status, digest({
            "lambda": data["lambda"],
            "n": data["n"],
            "sigma": [trace(m) for m in data["sigma"]],
            "kappa": [trace(m) for m in data["kappa"]],
            "y": [[str(_fraction_of(m[i][i], mode, point)) for i in range(len(m))]
                  for m in data["y"]],
        })]
    return summary


def _text_summary(result):
    status, text = result
    return [status, digest(text)]


def _cli_job(cli, parser, argv, point, extra=()):
    args = parser.parse_args(argv + list(extra))
    summary = _rep_summary(point) if argv[0] == "rep" else _text_summary
    return Job(shlex.join(argv), lambda: cli.run(args), summary)


def _scalar_text(x, point):
    if isinstance(x, Fraction):
        return str(x)
    return str(x.evaluate(Fraction(point[0]), Fraction(point[1])))


def _query_jobs(reps, rational_reps, field, point):
    from bmwtower import central, chains

    def central_reports():
        return [central.central_report(r) for r in reps]

    def central_summary(reports):
        return digest([
            [r["lambda"], r["n"], _scalar_text(r["Z"], point),
             {str(p): _scalar_text(v, point) for p, v in r["Zp"].items()}]
            for r in reports
        ])

    def intertwiners():
        return [central.intertwiner_checks(r, k) for r in reps for k in range(1, r.n)]

    def intertwiner_summary(results):
        return digest([[name, k, bool(ok)] for checks in results for name, k, ok in checks])

    def spectra():
        out = []
        for r in rational_reps:
            for a in A_CHOICES:
                params = chains.ChainParams.standard(a, field.q_value, field.nu_value)
                out.append(chains.eigenvalues_numeric(chains.hamiltonian(r, params), field))
        return out

    def spectra_summary(spectra):
        return [[[z.real, z.imag] for z in vals] for vals in spectra]

    return [
        Job("central_report", central_reports, central_summary),
        Job("intertwiner_checks", intertwiners, intertwiner_summary),
        Job("hamiltonian_spectra", spectra, spectra_summary),
    ]


def setup(name, seed):
    """The workload at the seed's point, with its jobs in the seed's order."""
    wl = build(name, point_for(seed))
    random.Random(seed).shuffle(wl.jobs)
    return wl


def build(name, point):
    """Import bmwtower, build the fields (and, for query_mix, the reps)."""
    from bmwtower import cli
    from bmwtower import repbuilder as rb
    from bmwtower.scalars import SYMBOLIC, GenericSpecialization, check_generic

    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    field = GenericSpecialization(Fraction(point[0]), Fraction(point[1]))
    if not check_generic(field, TOP_LEVEL):
        raise ValueError(f"{point_key(point)} is not generic at level {TOP_LEVEL}")
    # the first reduction imports the gcd backend; users pay it on every run
    _ = (SYMBOLIC.q + SYMBOLIC.nu) * (SYMBOLIC.q - SYMBOLIC.nu) / (SYMBOLIC.q + SYMBOLIC.nu)
    parser = cli._build_parser()
    rational = ["--mode", "rational", f"--q={point[0]}", f"--nu={point[1]}"]

    if name == "symbolic_tower":
        argvs = [["verify", "--n", "3"],
                 ["rep", "--lambda", "", "--n", "4"],
                 ["rep", "--lambda", "1,1,1", "--n", "5"]]
        jobs = [_cli_job(cli, parser, a, point) for a in argvs]
        largest = "rep --lambda 1,1,1 --n 5"
    elif name == "rational_tower":
        argvs = [["verify", "--n", "5"],
                 ["rep", "--lambda", "1,1", "--n", "6"],
                 ["rep", "--lambda", "4,1", "--n", "7"]]
        jobs = [_cli_job(cli, parser, a, point, rational) for a in argvs]
        largest = "rep --lambda 4,1 --n 7"
    else:
        sym = [rb.build_rep(lam, n, field=SYMBOLIC, verify=False)
               for n in range(1, 5) for lam in rb.level_vertices(n)]
        rat = [rb.build_rep(lam, 6, field=field, verify=False)
               for lam in rb.level_vertices(6)]
        jobs = _query_jobs(sym + rat, rat, field, point)
        jobs += [_cli_job(cli, parser, a, point)
                 for a in (["dims", "--n", "7"], ["spectra", "--n", "6"], ["graph", "--n", "7"])]
        largest = "intertwiner_checks"
    return Workload(name, point, jobs, largest)


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def same(got, want):
    """Exact match, except floats, which match to EIGEN_TOL (relative above 1)."""
    if isinstance(want, float):
        return isinstance(got, (int, float)) and abs(got - want) <= EIGEN_TOL * max(1.0, abs(want))
    if isinstance(want, list):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(same(g, w) for g, w in zip(got, want)))
    return got == want


def is_correct(job, output, reference, point):
    """True when the job's output summary matches the recorded reference."""
    want = reference.get(point_key(point), {}).get(job.key)
    return want is not None and same(job.summary(output), want)

"""The ten acceptance criteria, one test (and one printed verdict line) each.

Every check here is exact (rational or symbolic arithmetic) except the
numeric spectra in criterion 10, which carry the stated 1e-10 tolerance.
"""

import cmath
from fractions import Fraction

from bmwtower import central as cen
from bmwtower import chains
from bmwtower import combinatorics as comb
from bmwtower import repbuilder as rb
from bmwtower import spectrum as spec
from bmwtower.linalg import Matrix
from bmwtower.scalars import SYMBOLIC

from conftest import (
    RATIONAL,
    cached_rep,
    cached_verdict,
    conjugate_diagonal,
    level_vertices,
)
from dense_oracle import dense_parts


def _verdict(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {text}")
    assert ok, f"acceptance criterion {num} failed: {text}"


def test_01_dimension_identity():
    expected = [1, 3, 15, 105, 945, 10395, 135135]
    ok = True
    for n in range(1, 8):
        total = sum(comb.dim(lam, n) ** 2 for lam in level_vertices(n))
        ok = ok and total == expected[n - 1]
    _verdict(1, ok, "sum of squared dimensions equals (2n-1)!! for n=1..7")


def test_02_string_path_bijection():
    ok = True
    for n in range(1, 7):
        r = spec.bijection_report(n)
        ok = ok and r["sets_equal"] and r["roundtrip_ok"]
    _verdict(2, ok, "admissible strings = path content strings with exact "
             "round-trips for n<=6")


def test_03_relation_suite():
    ok = True
    for n in range(2, 6):
        for lam in level_vertices(n):
            ok = ok and cached_verdict(lam, n)
    for lam in level_vertices(6):
        ok = ok and cached_verdict(lam, 6, "rational")
    _verdict(3, ok, "all defining relations hold on every irrep, n<=5 "
             "symbolic and n<=6 at (q=2, nu=3)")


def test_04_block_structure():
    ok = True
    for n in range(2, 7):
        for lam in level_vertices(n):
            for i in range(1, n):
                for b in rb.block_decompose(lam, n, i):
                    if b.case.tag != "4":
                        continue
                    ok = ok and b.size % 2 == 1
                    m = (b.size - 1) // 2
                    sum_a = (sum(a.nu for a, _ in b.pairs),
                             sum(a.z for a, _ in b.pairs))
                    sum_b = (sum(bb.nu for _, bb in b.pairs),
                             sum(bb.z for _, bb in b.pairs))
                    ok = ok and sum_a == (m, 0) and sum_b == (m + 1, 0)
    _verdict(4, ok, "coupled blocks are odd with eigenvalue products "
             "nu^2m and nu^2m+2, n<=6")


def test_05_local_case_checks():
    ok = True
    for n in range(2, 6):
        for lam in level_vertices(n):
            rep = cached_rep(lam, n)
            strings = set(rep.strings)
            f = rep.field
            for i in range(1, n):
                for b, s, k in zip(rep.blocks[i], rep.sigma[i - 1], rep.kappa[i - 1]):
                    if b.case.tag == "3a":
                        want = f.from_int(b.case.sign) * f.q_pow(b.case.power)
                        ok = ok and s.rows == [[want]] and k.is_zero
                    elif b.case.tag == "3b":
                        s0 = rep.strings[b.members[0]]
                        swapped = s0[: i - 1] + (s0[i], s0[i - 1]) + s0[i + 1:]
                        ok = ok and swapped in strings
    _verdict(5, ok, "singleton blocks act by +-q^{+-1} with vanishing kappa; "
             "two-member swaps stay in the spectrum, n<=5")


def test_06_no_forbidden_triples():
    ok = True
    for n in range(3, 7):
        for lam in level_vertices(n):
            for s in spec.strings_of_level(lam, n):
                for i in range(len(s) - 2):
                    a, b, c = s[i], s[i + 1], s[i + 2]
                    if a == c and b.nu == a.nu and abs(b.z - a.z) == 1:
                        ok = False
    _verdict(6, ok, "no path string contains a (a, q^{+-2}a, a) triple, n<=6")


def test_07_centrality_and_prefix_independence():
    ok = True
    for n in range(2, 6):
        for lam in level_vertices(n):
            try:
                cen.central_scalars(cached_rep(lam, n))
            except cen.CentralityViolated:
                ok = False
    # Vandermonde right-hand sides depend only on the reached diagram
    for n in range(2, 5):
        for lam in level_vertices(n):
            per_diagram = {}
            for path in comb.enumerate_paths(lam, n):
                s = spec.content_string(path)
                coeffs = tuple(cen.zhat_series(s[:-1], 2, RATIONAL))
                per_diagram.setdefault(path[-2], set()).add(coeffs)
            ok = ok and all(len(v) == 1 for v in per_diagram.values())
    _verdict(7, ok, "JM products and power sums act as exact scalars, n<=5; "
             "series data is prefix-independent")


def test_08_intertwiner_identities():
    ok = True
    for n in range(2, 6):
        for lam in level_vertices(n):
            rep = cached_rep(lam, n)
            for k in range(1, n):
                ok = ok and all(
                    passed for _, _, passed in cen.intertwiner_checks(rep, k)
                )
    _verdict(8, ok, "all intertwiner exchange/product/braid/kappa identities "
             "hold, n<=5")


def test_09_hecke_degeneration():
    ok = True
    params = chains.ChainParams.standard("q", Fraction(2), Fraction(3))
    for n in range(2, 6):
        for lam in level_vertices(n):
            rep = cached_rep(lam, n)
            if not all(k.is_zero for mats in rep.kappa for k in mats):
                continue
            qinv = rep.field.q_pow(-1)
            for s in dense_parts(rep)[0]:
                ok = ok and (s.shift(-rep.field.q) * s.shift(qinv)).is_zero
            rrep = cached_rep(lam, n, "rational")
            h = chains.hamiltonian(rrep, params)
            sigma = dense_parts(rrep)[0]
            bare = sigma[0]
            for s in sigma[1:]:
                bare = bare + s
            ok = ok and h.bulk.equals(bare)
    _verdict(9, ok, "kappa-free irreps satisfy the quadratic relation and "
             "the chain drops to its Hecke form")


def test_10_chain_sanity():
    import random

    ok = True
    qv, nuv = 2.0, 3.0
    u = qv - 1 / qv
    mu = 1 + (1 / nuv - nuv) / u
    p = chains.ChainParams.standard("q", Fraction(2), Fraction(3))
    bnd = u * p.xi / (1 - p.xi)
    h = chains.hamiltonian(cached_rep((2,), 2, "rational"), p)
    ok = ok and abs(chains.scalar_value(h, RATIONAL) - (qv + bnd)) < 1e-12
    h = chains.hamiltonian(cached_rep((), 2, "rational"), p)
    closed = nuv + u * nuv * mu / (nuv + qv) + bnd
    ok = ok and abs(chains.scalar_value(h, RATIONAL) - closed) < 1e-12
    rng = random.Random(23)
    for lam, n in [((1,), 3), ((2,), 4)]:
        rep = cached_rep(lam, n, "rational")
        base = chains.eigenvalues_numeric(chains.hamiltonian(rep, p), RATIONAL)
        scales = [
            Fraction(rng.randint(1, 30), rng.randint(1, 30))
            for _ in range(rep.dim)
        ]
        conj = conjugate_diagonal(rep, scales)
        other = chains.eigenvalues_numeric(chains.hamiltonian(conj, p), RATIONAL)
        for x, y in zip(base, other):
            ok = ok and abs(x - y) <= 1e-10 * max(1.0, abs(x))
    _verdict(10, ok, "one-dimensional chains match closed forms exactly; "
             "spectra are gauge invariant to 1e-10")

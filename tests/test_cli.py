"""Command-line interface: outputs, exit codes, determinism."""

import hashlib
import json

import pytest

from bmwtower import cli, gauge, scalars
from bmwtower import combinatorics as comb
from bmwtower import repbuilder as rb
from bmwtower import spectrum as spec
from bmwtower.scalars import SYMBOLIC, parse_scalar

from conftest import RATIONAL, class_types, level_vertices


def run_cli(argv, capsys):
    status = cli.main(argv)
    return status, capsys.readouterr().out


def assert_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("bmwtower: error: ")
    assert message in err
    assert err.count("\n") == 1


class TestDims:
    def test_identity_summary(self, capsys):
        status, out = run_cli(["dims", "--n", "5"], capsys)
        data = json.loads(out)
        assert status == 0
        assert data["levels"][5]["sum_of_squares"] == 945
        assert all(row["identity_holds"] for row in data["levels"])


class TestGraph:
    def test_dot(self, capsys):
        status, out = run_cli(["graph", "--n", "3"], capsys)
        assert status == 0
        assert out.startswith("digraph")


class TestSpectra:
    def test_bijection_verdict(self, capsys):
        status, out = run_cli(["spectra", "--n", "4"], capsys)
        data = json.loads(out)
        assert status == 0
        assert data["bijection"]["sets_equal"]


class TestRep:
    def test_empty_level_2(self, capsys):
        status, out = run_cli(["rep", "--lambda", "", "--n", "2"], capsys)
        data = json.loads(out)
        assert status == 0
        assert data["sigma"][0] == [["nu"]]
        got = parse_scalar(data["kappa"][0][0][0])
        u = SYMBOLIC.q - SYMBOLIC.q_pow(-1)
        mu = SYMBOLIC.one + (SYMBOLIC.nu_pow(-1) - SYMBOLIC.nu) / u
        assert got == mu

    def test_missing_lambda(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["rep", "--n", "2"])


class TestVerify:
    def test_symbolic_level_3(self, capsys):
        status, out = run_cli(["verify", "--n", "3", "--mode", "symbolic"], capsys)
        data = json.loads(out)
        assert status == 0
        assert all(entry["ok"] for entry in data["irreps"])

    def test_rational_level_4(self, capsys):
        status, out = run_cli(["verify", "--n", "4", "--mode", "rational"], capsys)
        assert status == 0

    @pytest.mark.parametrize("argv", [
        ["--n", "4", "--mode", "symbolic"],
        ["--n", "6", "--mode", "rational"],
        ["--n", "5", "--mode", "rational", "--flip-content"],
    ])
    def test_every_irrep_ok(self, argv, capsys):
        status, out = run_cli(["verify", *argv], capsys)
        assert status == 0
        assert all(entry["ok"] and not entry["failures"]
                   for entry in json.loads(out)["irreps"])

    def test_nongeneric_point_rejected(self, capsys):
        from bmwtower.scalars import NonGenericPoint

        argv = ["verify", "--n", "2", "--mode", "rational", "--q", "1"]
        with pytest.raises(NonGenericPoint):
            cli.run(cli._build_parser().parse_args(argv))
        assert_usage_error(argv, "is not generic at level 2", capsys)


class TestOneVerificationPerIrrep:
    """``verify`` builds each irrep with its verification, which is also its
    only braid test, and reports a failing relation instead of raising."""

    def test_build_tests_braid_once(self, monkeypatch):
        """One ``repair_position`` call per distinct class key of join(i,
        i+1) in a call: per local type of the classes, over every position
        and every irrep the call builds, and one braid test per build."""
        calls = []
        real = gauge.repair_position

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(gauge, "repair_position", counted)
        types, classes = class_types([(2, 1)], 5)
        assert classes > len(types) > 5 - 2
        rb.build_rep((2, 1), 5, field=RATIONAL, verify=True)
        assert len(calls) == len(types)
        rb.build_rep((2, 1), 5, field=RATIONAL, verify=False)
        assert len(calls) == 2 * len(types)
        calls.clear()
        atlas = rb.LocalAtlas(RATIONAL)
        rep = rb.build_rep((2, 1), 5, field=RATIONAL, verify=False, atlas=atlas)
        assert rb.verify_relations(rep, atlas).ok
        assert len(calls) == len(types)
        # the three jobs of the benchmark's rational_tower workload at (2, 5)
        point = ["--mode", "rational", "--q", "2", "--nu", "5"]
        for argv, lams, n, want in (
            (["verify", "--n", "5"], level_vertices(5), 5, 32),
            (["rep", "--lambda", "1,1", "--n", "6"], [(1, 1)], 6, 20),
            (["rep", "--lambda", "4,1", "--n", "7"], [(4, 1)], 7, 37),
        ):
            calls.clear()
            cli.run(cli._build_parser().parse_args(argv + point))
            types, classes = class_types(lams, n)
            assert len(calls) == len(types) == want < classes, argv

    def test_braid_failure_is_reported(self, monkeypatch, capsys):
        """A wrong 3b scale is a diagonal gauge on its block: the local
        relations still hold and the braid identity fails."""
        real = rb._partner_scale
        monkeypatch.setattr(
            rb, "_partner_scale", lambda *args: real(*args) * 2)
        with pytest.raises(gauge.GaugeRepairFailed):
            rb.build_rep((1, 1), 4, field=RATIONAL, verify=False)
        status, out = run_cli(["verify", "--n", "4", "--mode", "rational"], capsys)
        assert status == 1
        failed = {tuple(e["lambda"]): e["failures"]
                  for e in json.loads(out)["irreps"] if not e["ok"]}
        assert failed == {(1, 1): [{"name": "braid", "index": 2, "detail": ""}]}


class TestOneComputationPerCommand:
    """``spectra`` makes one bijection report and ``dims`` one table, and
    each formats its output from that one.  A command at a rational point
    checks the point once: ``main`` hands ``run`` the point it validated."""

    @pytest.mark.parametrize("argv, owner, name", [
        (["spectra", "--n", "4"], spec, "bijection_report"),
        (["spectra", "--n", "4", "--flip-content"], spec, "bijection_report"),
        (["dims", "--n", "5"], comb, "dims_table"),
        (["verify", "--n", "5", "--mode", "rational"], scalars, "check_generic"),
        (["rep", "--lambda", "2,1", "--n", "5", "--mode", "rational"],
         scalars, "check_generic"),
        (["hamiltonian", "--lambda", "2,1", "--n", "5"], scalars, "check_generic"),
    ])
    def test_once(self, argv, owner, name, monkeypatch, capsys):
        calls = []
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        status, _ = run_cli(argv, capsys)
        assert status == 0
        assert len(calls) == 1



class TestStdoutDigests:
    """The sha256 of stdout for a few commands.  The first five were
    recorded while sigma and kappa were still stored as dense matrices and
    every y as a diagonal matrix: storing them as blocks and diagonals
    changes no output byte.  The three symbolic entries after those
    (``rep --lambda 1,1,1 --n 5``, ``rep --lambda= --n 4``, ``central --n 4``)
    were recorded while every sum and product in Q(q, nu) still reduced its
    whole cross product by one gcd: skipping or shrinking that gcd where
    the result is provably reduced changes no output byte either.  The
    rational ``central`` digest was recorded while the CLI still chose its
    own formatter for rational entries: printing every entry through
    ``format_scalar`` changes no output byte.  The two after it
    (``verify --n 5``, ``rep --lambda 2,1 --n 5``) were recorded while
    every denominator was still an expanded polynomial reduced by
    sympy's gcd: factoring denominators over the genericity base and
    cancelling by trial division changes no output byte.  The three after
    those (two ``hamiltonian`` runs and ``rep --lambda 4,1 --n 7``) were
    recorded while the chain Hamiltonian and the JSON output still
    assembled whole matrices from the blocks: building both straight from
    the blocks changes no output byte.  The last three were recorded while
    every rational matrix was still a list of Fraction entries and the JSON
    of ``rep`` was still written by json's own encoder: scaled-integer
    matrices and the joined layout change no output byte.  The five
    ``spectra``, ``dims`` and ``graph`` entries at the end were recorded
    while every path's content string was still formed from its diagrams
    step by step, apart from the walk that enumerates the paths.  The two
    after those (rational ``central --n 6`` over every irrep of its level,
    and ``rep`` under the flipped content convention) were recorded while
    every irrep built every block of its own and every relation was proven
    on every block and every class."""

    @pytest.mark.parametrize("argv, digest", [
        ("rep --lambda 1,1 --n 4",
         "958915f5cd8aa7a77a1591c51f28fecf8cbee64cb88ad2f12aad65e0b1b7e4f5"),
        ("rep --lambda 2 --n 4 --flip-content",
         "4032aa1d72e69adc1205a630511bc4022f3743a4a7e5c4765f8bebf8b6f3479a"),
        ("rep --lambda 1 --n 3",
         "4716bbb31657fb98668dbb3b8ebe8668f015f4e119016422f66a66f37add6334"),
        ("rep --lambda 1,1 --n 6 --mode rational",
         "1030a36c55d5d687d475c1559b1a682884db69ab79fa646236bd0331d24e4408"),
        ("verify --n 4",
         "4e17cd15f98a4b09d773f818fce0e3d29749872b2a24beb7d915f3c36e2eec12"),
        ("rep --lambda 1,1,1 --n 5",
         "906b85aa477f5d31c523aee48ca43d4eda8d6ee820a61bf4c1beb17c3181c6ac"),
        ("rep --lambda= --n 4",
         "8392945c8b0dbd1c45666ee12fa01a45385d2a543cabbb3dbf374269e21c9d58"),
        ("central --n 4",
         "9bf3e3cf95bd557fba1c7931f412ec67afd61e1df40ac10e667d9a6648afa97c"),
        ("central --n 4 --mode rational",
         "1e7b9c9d635b4049f49d795e1d7614d40cb75d2a10abdff587e7b6c240d2daee"),
        ("verify --n 5",
         "78eedf132607aecdeca4f5b01c2132f6e9751e4af670f0405a1c2f32e0893ec1"),
        ("rep --lambda 2,1 --n 5",
         "95ba1718bb20571d0ed57cb09c1d22a2bbda2d152f10906003ba4ea3163ede7b"),
        ("hamiltonian --lambda 2,1 --n 5",
         "1e496e8fa80b4541e437f5b45ab15f3c96ed21ef0a3797631509548e44555fe3"),
        ("hamiltonian --lambda 1,1 --n 6 --a=-1/q",
         "a0abb688e1f2ef3355dc51a4aa844aa350d336387a2038817dc974abe1a42534"),
        ("rep --lambda 4,1 --n 7 --mode rational --q 2 --nu 5",
         "6426da675cd6d769080bbabbe7e26f3bf86ea11f08a5724860946d8a0454f0e4"),
        ("verify --n 6 --mode rational",
         "728a4b524fada2090d029eb0977356f3c72bdfb63d4ed92476170cf4bb428338"),
        ("rep --lambda 2 --n 6 --mode rational --q -2 --nu 5",
         "1f5b74b2aa7de013e6af37e83b53fc876cbd073d73c9ced4f6708efbcb320a5a"),
        ("rep --lambda 3 --n 7 --mode rational --q 2 --nu -5",
         "e1d5bc4bfc49bd5dcb7bed5434ec14201d3cd153e3a2cb55590a01d1e27e0b8f"),
        ("spectra --n 6",
         "45cb177216c9dbb460309879cbab16e6e5a850094f9f7aa58f3a9aedfc06d484"),
        ("spectra --n 6 --flip-content",
         "820d74b4a179bb6060c56515bc33b9fbe62210f7f9054189afb6a8cdd47fec24"),
        ("dims --n 7",
         "61aca83f2aacbb82ad3188fd5803ed1d0b562594c9e9fa8f9c266d74faf50e13"),
        ("graph --n 7",
         "546e1652acdc695288ed84e909b46f042703f51d677f37939d5c7f339dc85a56"),
        ("graph --n 6 --flip-content",
         "14c3ba4ed5d7bbf68373c7d435b5680ce18bbd31448b81544349970cde3e846a"),
        ("central --n 6 --mode rational --q -2 --nu 5",
         "6513c0ee397caffd066ad917b79559944310ceee46172eacd59a1b7452367fd7"),
        ("rep --lambda 2,1,1 --n 6 --mode rational --q 2 --nu 5 --flip-content",
         "6a95ce05000a9b5c8c36438c025d91228b3a19db63245de9c8b6173ebed5359e"),
    ])
    def test_stdout_sha256(self, argv, digest, capsys):
        status, out = run_cli(argv.split(), capsys)
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestUsageErrors:
    """Bad arguments exit 2 with one line on stderr, unlike a failed check."""

    @pytest.mark.parametrize("argv, message", [
        (["rep", "--lambda", "9", "--n", "2"], "(9,) is not a level-2 vertex"),
        (["rep", "--lambda", "x", "--n", "2"], "row lengths: 'x'"),
        (["verify", "--n", "0", "--mode", "rational", "--nu", "1"],
         "(q=2, nu=1) is not generic at level 0"),
        (["rep", "--n", "2"], "this command needs --lambda"),
        (["dims", "--n", "-1"], "level must be >= 0"),
        (["hamiltonian", "--lambda", "1", "--n", "3", "--xi-re", "0.5"],
         "but -a*nu = "),
        (["hamiltonian", "--lambda", "1", "--n", "3", "--xi-re", "1"],
         "xi = 1 makes the boundary term singular"),
        (["verify", "--n", "2", "--mode", "rational", "--q", "1/0"],
         "--q must be a rational number, got '1/0'"),
        (["verify", "--n", "2", "--q", "1/0"],
         "--q must be a rational number, got '1/0'"),
        (["hamiltonian", "--lambda", "1", "--n", "3", "--nu", "x"],
         "--nu must be a rational number, got 'x'"),
    ])
    def test_exit_2(self, argv, message, capsys):
        assert_usage_error(argv, message, capsys)

    @pytest.mark.parametrize("command", [["dims", "--n", "2"],
                                         ["verify", "--n", "2", "--mode", "rational"]])
    def test_unwritable_out(self, command, tmp_path, capsys):
        """The output cannot be written: a usage error, not the status of a
        failed check, and no traceback."""
        target = tmp_path / "missing" / "x.json"
        assert_usage_error(command + ["--out", str(target)],
                           f"cannot write --out {target}: ", capsys)
        assert_usage_error(command + ["--out", str(tmp_path)],
                           f"cannot write --out {tmp_path}: ", capsys)


    def test_out_checked_before_the_run(self, tmp_path, monkeypatch, capsys):
        """An unwritable --out exits 2 before any work is done, and the
        check creates and truncates no file."""
        def fail(args):
            raise AssertionError("run() was called")

        monkeypatch.setattr(cli, "run", fail)
        for target in (tmp_path / "missing" / "x.json", tmp_path):
            assert_usage_error(["verify", "--n", "9", "--out", str(target)],
                               f"cannot write --out {target}: ", capsys)
        assert not (tmp_path / "missing").exists()
        kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
        kept.write_text("kept")
        for target in (kept, fresh):
            argv = ["dims", "--n", "2", "--out", str(target)]
            cli._validate(cli._build_parser().parse_args(argv))
        assert kept.read_text() == "kept"
        assert not fresh.exists()


class TestLevelZero:
    """Level 0 has one irrep, the empty diagram, in both modes."""

    @pytest.mark.parametrize("mode", ["symbolic", "rational"])
    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "0"],
        ["central", "--n", "0"],
        ["rep", "--lambda", "", "--n", "0"],
    ])
    def test_exit_0(self, argv, mode, capsys):
        status, out = run_cli(argv + ["--mode", mode], capsys)
        assert status == 0
        assert json.loads(out)


class TestCentral:
    def test_level_3(self, capsys):
        status, out = run_cli(["central", "--n", "3"], capsys)
        data = json.loads(out)
        assert status == 0
        by_lam = {tuple(e["lambda"]): e for e in data}
        assert parse_scalar(by_lam[(1,)]["Z"]) == SYMBOLIC.nu_pow(2)


class TestHamiltonian:
    def test_csv(self, capsys):
        status, out = run_cli(
            ["hamiltonian", "--lambda", "1", "--n", "3", "--a", "q"], capsys
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("lambda,")
        assert len(lines) == 4


class TestPlumbing:
    def test_deterministic_output(self, capsys):
        _, first = run_cli(["central", "--n", "3"], capsys)
        _, second = run_cli(["central", "--n", "3"], capsys)
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "dims.json"
        status = cli.main(["dims", "--n", "3", "--out", str(target)])
        assert status == 0
        assert json.loads(target.read_text())["n"] == 3
        assert capsys.readouterr().out == ""

    def test_flip_content(self, capsys):
        status, out = run_cli(
            ["verify", "--n", "3", "--mode", "rational", "--flip-content"], capsys
        )
        assert status == 0

"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

POINT = workloads.POINTS[0]


def span(i, parent, t0, t1, name="linalg.matmul"):
    return [i, parent, 0, name, t0, t1]


def test_self_time_on_synthetic_tree():
    spans = [
        span(0, None, 0.0, 10.0, "cli.run"),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0, "polygcd.reduce_fraction"),
        span(3, 0, 3.0, 6.0),                    # overlaps span 1
        span(4, 0, 8.0, 12.0),                   # runs past its parent's end
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)   # covered: [1,6] and [8,10]
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)
    assert tracing.outer_time(spans, "linalg.matmul") == pytest.approx(3 + 3 + 4)
    assert tracing.outer_time(spans, "cli.") == pytest.approx(10.0)


def test_outer_time_skips_nested_spans_of_the_same_layer():
    spans = [span(0, None, 0.0, 5.0, "spectrum.spectra_json"),
             span(1, 0, 1.0, 2.0, "spectrum.bijection_report"),
             span(2, None, 6.0, 7.0, "spectrum.bijection_report")]
    assert tracing.outer_time(spans, "spectrum.") == pytest.approx(6.0)


def dims_workload(tamper=None):
    from bmwtower import cli

    job = workloads._cli_job(cli, cli._build_parser(), ["dims", "--n", "7"], POINT)
    if tamper is not None:
        clean = job.run
        job.run = lambda: tamper(*clean())
    return workloads.Workload("query_mix", POINT, [job], job.key)


@pytest.mark.parametrize("tamper", [
    lambda status, text: (status, text.replace("true", "false", 1)),
    lambda status, text: (1, text),
])
def test_tampered_output_counts_as_failed(tamper, capsys):
    reference = workloads.load_reference()
    assert run.run_pass(dims_workload(), reference)[1] == 0
    wl = workloads.Workload("query_mix", POINT, dims_workload().jobs + dims_workload(tamper).jobs,
                            "dims --n 7")
    times, failed = run.run_pass(wl, reference)
    assert failed == 1
    run.report({"pass_s": sum(times.values())}, run.END_TO_END, attempted=2, failed=failed)
    out = capsys.readouterr().out.splitlines()
    assert any(line.startswith("failed_frac") and " 0.5 " in line for line in out)
    result = json.loads(out[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_raising_job_counts_as_failed():
    wl = dims_workload()
    wl.jobs[0].run = lambda: 1 / 0
    assert run.run_pass(wl, workloads.load_reference())[1] == 1


def small_workload():
    from bmwtower import cli

    parser = cli._build_parser()
    rational = ["--mode", "rational", f"--q={POINT[0]}", f"--nu={POINT[1]}"]
    jobs = [workloads._cli_job(cli, parser, ["verify", "--n", "2"], POINT),
            workloads._cli_job(cli, parser, ["rep", "--lambda", "1", "--n", "3"], POINT),
            workloads._cli_job(cli, parser, ["rep", "--lambda", "2", "--n", "4"], POINT, rational)]
    return workloads.Workload("small", POINT, jobs, jobs[-1].key)


def test_per_layer_counts_repeat_between_traced_runs():
    wl = small_workload()
    reference = {workloads.point_key(POINT): {j.key: j.summary(j.run()) for j in wl.jobs}}
    first, _, _, failed1 = run.traced_run(wl, reference, seconds=0)
    second, _, _, failed2 = run.traced_run(wl, reference, seconds=0)
    assert failed1 == failed2 == 0
    counted = [n for n, unit in tracing.PER_LAYER.items() if unit in ("count", "ratio")]
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}
    assert first["polygcd.reduce_calls"] > 0 and first["gauge.repair_calls"] > 0
    assert set(first) == set(tracing.PER_LAYER)


def test_tracer_restores_the_program():
    from bmwtower import repbuilder, scalars
    from bmwtower.linalg import Matrix

    before = (Matrix.__mul__, scalars.reduce_fraction, repbuilder.solve,
              scalars.ScalarFraction.__init__)
    with tracing.Tracer():
        assert Matrix.__mul__ is not before[0]
    assert (Matrix.__mul__, scalars.reduce_fraction, repbuilder.solve,
            scalars.ScalarFraction.__init__) == before


def test_manifest_lists_every_reported_metric():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)


def test_reference_covers_every_point():
    reference = workloads.load_reference()
    assert sorted(reference) == sorted(workloads.point_key(p) for p in workloads.POINTS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

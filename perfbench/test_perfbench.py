"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import io
import json
import random
import re
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))
import supext.cli  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL_JOBS = [
    workloads.Job(("enumerate", "--n", "4")),
    workloads.Job(("verify", "--suite", "functor-laws", "--n", "2")),
    workloads.Job(("verify", "--suite", "eq1", "--n", "3", "--workers", "2")),
    workloads.Job(("verify", "--suite", "axioms", "--n", "2", "--trials", "20")),
    workloads.Job(("ghyper", "--n", "3")),
]


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_metric_names():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_traced_pass_reports_every_per_layer_metric():
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        runs = run.run_pass_inprocess(supext.cli, SMALL_JOBS, tracer)
    assert all(not r.problems for r in runs)
    measured = set(tracing.layer_metrics(tracer)) | {"superext.peak_mb", "cli.import_s", "trace.overhead_s"}
    assert measured == {m["name"] for m in SPEC["per_layer"]}


def test_self_time_within_parent_span():
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        run.run_pass_inprocess(supext.cli, SMALL_JOBS, tracer)
    assert len(tracer) > len(SMALL_JOBS)
    for i, own in enumerate(tracer.self_times()):
        assert 0.0 <= own <= tracer.duration(i)
        p = tracer.parent[i]
        if p >= 0:
            assert own <= tracer.duration(p)
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]


def test_instrument_restores_the_program():
    from supext import setkit, superext, verify

    before = (superext.enumerate_mls, verify.enumerate_mls, dict(verify.SUITES),
              superext.MaxLinkedSystem.__init__, setkit.SetFamily.__init__, Fraction.__dict__["__new__"])
    with tracing.instrument(tracing.Tracer()):
        assert verify.enumerate_mls is not before[1]
        assert verify.SUITES["eq1"] is not before[2]["eq1"]
    after = (superext.enumerate_mls, verify.enumerate_mls, dict(verify.SUITES),
             superext.MaxLinkedSystem.__init__, setkit.SetFamily.__init__, Fraction.__dict__["__new__"])
    assert after == before


def test_parallel_split_is_recorded():
    tracer = tracing.Tracer()
    job = workloads.Job(("enumerate", "--n", "5", "--count-only", "--workers", "2"), expect=(("count", 81),))
    with tracing.instrument(tracer):
        runs = run.run_pass_inprocess(supext.cli, [job], tracer)
    assert not runs[0].problems
    (call,) = tracer.parallel
    assert call["workers"] == 2 and call["items"] == len(call["sizes"])
    assert sum(call["sizes"]) == 81
    assert call["serial_fallback"] is (call["child_cpu_s"] == 0.0)


def test_correct_reports_pass_the_checks(tmp_path):
    jobs = workloads.EXCHANGE + workloads.algebra_jobs(7, tmp_path)[3:]
    runs = run.run_pass_inprocess(supext.cli, jobs, None)
    assert [r.problems for r in runs] == [[] for _ in jobs]


@pytest.mark.parametrize(
    "tamper",
    [
        lambda b: b.replace(b"82944", b"82945"),
        lambda b: b.replace(b'"failures": []', b'"failures": [{}]'),
        lambda b: b.replace(b"\n}", b', "extra": 1\n}'),
        lambda b: b[:-2],
    ],
)
def test_tampered_report_fails(tamper):
    job, twin = workloads.EXCHANGE
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert supext.cli.main(list(job.argv)) == 0
    good = buf.getvalue().encode()
    assert workloads.check_report(job, 0, good, []) == []
    assert workloads.check_report(job, 0, tamper(good), []) != []
    assert workloads.check_report(twin, 0, good, [tamper(good)]) != []
    assert workloads.check_report(job, 1, good, []) != []


def test_extend_interval_check():
    job = workloads.Job(("extend", "--choose", "mid"), contains=Fraction(1))
    ok = json.dumps({"lower": "0", "upper": "2", "p": "1"}).encode()
    assert workloads.check_report(job, 0, ok, []) == []
    for bad in ({"lower": "0", "upper": "2", "p": "3/2"}, {"lower": "3/2", "upper": "2", "p": "7/4"}):
        assert workloads.check_report(job, 0, json.dumps(bad).encode(), []) != []


def test_tampered_report_raises_fail_ratio(monkeypatch, capsys):
    real = run.spawn

    def tampering(argv, env):
        rc, wall, cpu, rss, out = real(argv, env)
        if "--workers" in argv and argv[argv.index("--workers") + 1] == "2":
            out = out.replace(b"82944", b"82943")
        return rc, wall, cpu, rss, out

    monkeypatch.setattr(run, "spawn", tampering)
    assert run.main(["--workload", "exchange", "--seed", "1", "--seconds", "0.01", "--trace", "0"]) == 0
    result = last_json(capsys.readouterr().out)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 2 + run.SETUP_RUNS


def test_random_mls_is_maximal_linked():
    rng = random.Random(5)
    for n in range(1, 7):
        minimal = workloads.random_mls(rng, n)
        full = (1 << n) - 1
        member = [any(m & a == m for m in minimal) for a in range(full + 1)]
        assert all(a & b for a in minimal for b in minimal)
        assert all(member[a] != member[full ^ a] for a in range(full + 1))


def test_phi0_is_never_on_a_generator_orbit():
    # phi0 = k*b + c holds for some order of the values only if an affine map
    # sends the sorted generator values onto the sorted (k > 0) or reversed
    # (k < 0) phi0 values.
    b = sorted(workloads.GENERATOR_VALUES)
    for f in (sorted(workloads.PHI0_VALUES), sorted(workloads.PHI0_VALUES, reverse=True)):
        k = (f[1] - f[0]) / (b[1] - b[0])
        assert any(k * bx + (f[0] - k * b[0]) != fx for bx, fx in zip(b, f))


def test_inputs_depend_only_on_seed(tmp_path):
    a = workloads.algebra_jobs(3, tmp_path / "a")
    b = workloads.algebra_jobs(3, tmp_path / "b")
    c = workloads.algebra_jobs(4, tmp_path / "c")
    files = lambda d: [p.read_text() for p in sorted(d.iterdir())]  # noqa: E731
    assert files(tmp_path / "a") == files(tmp_path / "b") != files(tmp_path / "c")
    assert [j.contains for j in a] == [j.contains for j in b]
    assert workloads.jobs_for("census", 1, tmp_path) == workloads.jobs_for("census", 2, tmp_path)


def test_no_program_no_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "census", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])

"""Benchmark of the supext command-line workbench.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is taken from ``src/``.

With ``--trace 0`` the workload's jobs run as ``python -m supext.cli``
subprocesses in a closed loop (one client, one job at a time), passes are
repeated until ``--seconds`` have elapsed, and the end-to-end metrics are
measured from outside.  With ``--trace 1`` the same jobs run in this process
through ``supext.cli.main``: untraced passes for ``--seconds``, then one pass
under the wrappers of ``tracing.py``, which gives the per-layer metrics.
Every report is checked in both modes.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_RUNS = 10
"""No-op invocations per run, at least; ``setup_s`` is their median."""
JOB_TIMEOUT_S = 60.0
"""The longest job takes about 5 s at the seed commit."""


@dataclass
class JobRun:
    job: workloads.Job
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str]


# --------------------------------------------------------------------------
# Subprocess jobs (trace 0)


def job_env() -> dict[str, str]:
    """The environment of every job: the checkout's sources, no SUPEXT_* overrides.

    The jobs always run the checkout's ``src`` through ``python -m``, since a
    ``supext`` script on PATH may belong to another copy of the program.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("SUPEXT_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: tuple[str, ...], env: dict[str, str]) -> tuple[int, float, float, float, bytes]:
    """Run ``supext argv``; return exit code, wall s, CPU s, peak RSS MB and stdout.

    CPU and RSS come from wait4, which covers the job and its reaped pool
    workers: user+sys summed, RSS the largest of any one of them.  A job
    still running after JOB_TIMEOUT_S is killed and fails.
    """
    with tempfile.TemporaryFile(dir=WORK) as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "supext.cli", *argv],
            stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=WORK,
        )
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        report = out.read()
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, report


class NoOp:
    """``supext --help`` invocations, spread over the run: interpreter start,
    ``import supext`` and building the parser.

    They are spread evenly over the run, not made back to back, so that their
    median does not hang on how busy the machine was in one second of it.
    """

    def __init__(self, env: dict[str, str], seconds: float) -> None:
        self.env = env
        self.every = seconds / SETUP_RUNS
        self.walls: list[float] = []
        self.failed = 0
        spawn(("--help",), env)  # writes the bytecode caches; not measured
        self.due = time.perf_counter()

    def run(self) -> None:
        rc, wall, _, _, _ = spawn(("--help",), self.env)
        self.walls.append(wall)
        self.failed += rc != 0
        self.due += self.every

    def run_if_due(self) -> None:
        if time.perf_counter() >= self.due:
            self.run()


def end_to_end(jobs: list[workloads.Job], seconds: float) -> tuple[dict, list[list[JobRun]], dict]:
    env = job_env()
    setup = NoOp(env, seconds)
    passes: list[list[JobRun]] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        runs: list[JobRun] = []
        reports: list[bytes] = []
        for job in jobs:
            setup.run_if_due()
            rc, wall, cpu, rss, out = spawn(job.argv, env)
            runs.append(JobRun(job, wall, cpu, rss, workloads.check_report(job, rc, out, reports)))
            reports.append(out)
        passes.append(runs)
    while len(setup.walls) < SETUP_RUNS:
        setup.run()
    # A pass's time is the sum over its jobs, each job taken at its median.
    per_job = list(zip(*passes))
    metrics = {
        "wall_s": sum(statistics.median(r.wall_s for r in runs) for runs in per_job),
        "cpu_s": sum(statistics.median(r.cpu_s for r in runs) for runs in per_job),
        "peak_rss_mb": max(r.rss_mb for p in passes for r in p),
        "setup_s": statistics.median(setup.walls),
    }
    extra = {"setup_runs": len(setup.walls), "setup_failed": setup.failed}
    return metrics, passes, extra


# --------------------------------------------------------------------------
# In-process jobs (trace 1)


def run_pass_inprocess(cli, jobs: list[workloads.Job], tracer: tracing.Tracer | None) -> list[JobRun]:
    runs, reports = [], []
    for job in jobs:
        buf = io.StringIO()
        t0 = time.perf_counter()
        span = tracer.open("job") if tracer is not None else None
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(job.argv))
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            rc, problem = None, f"raised {exc!r}"
        else:
            problem = None
        finally:
            if tracer is not None:
                tracer.close(span)
        wall = time.perf_counter() - t0
        out = buf.getvalue().encode()
        problems = [problem] if problem else workloads.check_report(job, rc, out, reports)
        runs.append(JobRun(job, wall, 0.0, 0.0, problems))
        reports.append(out)
    return runs


def memory_probe(n: int) -> float:
    """Peak traced Python allocation, in MB, of one serial enumeration at n."""
    from supext.setkit import GroundSet
    from supext.superext import enumerate_mls

    tracemalloc.start()
    try:
        enumerate_mls(GroundSet(n))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def traced(jobs: list[workloads.Job], seconds: float) -> tuple[dict, list[list[JobRun]], dict]:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    cli = importlib.import_module("supext.cli")
    import_s = time.perf_counter() - t0

    passes: list[list[JobRun]] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass_inprocess(cli, jobs, None))
    untraced_s = statistics.median(sum(r.wall_s for r in p) for p in passes)

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced_pass = run_pass_inprocess(cli, jobs, tracer)
    passes.append(traced_pass)
    traced_s = sum(r.wall_s for r in traced_pass)

    metrics = tracing.layer_metrics(tracer)
    metrics["superext.peak_mb"] = memory_probe(tracer.max_n) if tracer.max_n else 0.0
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_s"] = traced_s - untraced_s

    extra = {"per_job": per_job(tracer, traced_pass), "trace": tracer.dump()}
    return metrics, passes, extra


def per_job(tracer: tracing.Tracer, runs: list[JobRun]) -> list[dict]:
    """Counts and seconds per job of the traced pass, for the printed breakdown."""
    span_root = tracer.roots()
    job_roots = [i for i in range(len(tracer)) if tracer.parent[i] < 0]
    rows = []
    for run, root in zip(runs, job_roots):
        calls = {k: int(v["calls"]) for k, v in sorted(tracer.aggregate(within=root).items()) if k != "job"}
        calls.update(sorted(tracer.totals(within=root).items()))
        par = [p for p in tracer.parallel if span_root[p["span"]] == root]
        rows.append(
            {
                "job": run.job.label,
                "s": tracer.duration(root),
                "calls": calls,
                "parallel": [{k: p[k] for k in ("workers", "items", "sizes", "serial_fallback")} for p in par],
            }
        )
    return rows


# --------------------------------------------------------------------------
# Output


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, in BENCHMARK.json's order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "supext" / "cli.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'supext'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix="inputs-", dir=WORK))
    try:
        jobs = workloads.jobs_for(args.workload, args.seed, inputs)
        metrics, passes, extra = (traced if args.trace else end_to_end)(jobs, args.seconds)
    finally:
        shutil.rmtree(inputs)

    runs = [r for p in passes for r in p]
    attempted = len(runs) + extra.get("setup_runs", 0)
    failed = sum(bool(r.problems) for r in runs) + extra.get("setup_failed", 0)
    units = metric_units(args.trace)
    missing = set(units) - set(metrics)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  jobs {len(runs)}  python {sys.version.split()[0]}  cpus {os.cpu_count()}")
    for r in runs:
        for problem in r.problems:
            print(f"  FAILED {r.job.label}: {problem}")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:14.6g} {unit}")
    print(f"  {'fail_ratio':36s} {failed / attempted:14.6g} ratio  ({failed}/{attempted})")
    for row in extra.get("per_job", []):
        par = "  ".join(f"w{q['workers']} items={q['items']} sizes={q['sizes']}" for q in row["parallel"])
        print(f"  job {row['s']:8.3f}s  {row['job']}  {par}")
        print(f"      calls {json.dumps(row['calls'])}")
    record = {
        "seed": args.seed,
        "trace": args.trace,
        "jobs": [j.label for j in jobs],
        "wall_s": [[r.wall_s for r in p] for p in passes],
    }
    (WORK / f"last-{args.workload}.json").write_text(json.dumps(record))
    if "trace" in extra:
        (WORK / f"trace-{args.workload}.json").write_text(json.dumps(extra["trace"]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Call-count guards on the fast paths.

They count calls instead of timing them, so they are deterministic: a change
that brings back per-call set-family canonicalisation in the pushforwards,
repeated pushforwards in the functor laws, per-term redrawing of the axiom
trials, rational arithmetic in the axiom check of a term, or a process pool
for work smaller than its start-up, or the traced family operations in the
enumeration kernel, fails here rather than only showing up
as a slower benchmark.
"""

from __future__ import annotations

import concurrent.futures
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import supext
from supext import functionals, inclusion, parallel, setkit, superext, verify
from supext.setkit import GroundSet, SetFamily


def test_pushforwards_build_no_setfamily(monkeypatch):
    depth = [0]
    entered = []
    built = []
    init = SetFamily.__init__

    def counting_init(self, *args, **kwargs):
        if depth[0]:
            built.append(args)
        init(self, *args, **kwargs)

    def scoped(fn):
        def wrapped(*args):
            entered.append(fn.__name__)
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1

        return wrapped

    monkeypatch.setattr(setkit.SetFamily, "__init__", counting_init)
    scoped(lambda: SetFamily.of(GroundSet(1), [1]))()  # the counter sees a construction
    assert len(built) == 1
    built.clear()
    monkeypatch.setattr(verify, "lambda_map", scoped(verify.lambda_map))
    monkeypatch.setattr(inclusion, "g_map", scoped(inclusion.g_map))
    report = verify.suite_functor_laws(2)
    assert report["failures"] == []
    assert {"lambda_map", "g_map"} <= set(entered)
    assert built == []


def test_functor_laws_push_each_pair_once(monkeypatch):
    calls = {"lambda_map": [], "g_map": []}

    def recording(fn):
        def wrapped(pm, x):
            calls[fn.__name__].append((pm, x))
            return fn(pm, x)

        return wrapped

    monkeypatch.setattr(verify, "lambda_map", recording(verify.lambda_map))
    monkeypatch.setattr(inclusion, "g_map", recording(inclusion.g_map))
    report = verify.suite_functor_laws(3)
    assert report["failures"] == [] and report["checks_run"] == 26669
    for name, made in calls.items():
        assert len(made) == len(set(made)), name
    assert (len(calls["lambda_map"]), len(calls["g_map"])) == (178, 710)


def test_passing_axiom_check_of_a_term_builds_no_fraction(monkeypatch):
    ground = GroundSet(3)
    terms = verify.term_zoo(ground)
    functionals._trial_table.cache_clear()
    try:
        functionals._trial_table(ground, 500, 0, False)
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        Fraction(1, 2)  # the counter sees a construction
        assert len(built) == 1
        built.clear()
        for term in terms:
            assert functionals.axiom_check(term).ok
        monkeypatch.undo()
    finally:
        functionals._trial_table.cache_clear()
    assert built == []


def test_axiom_suite_draws_one_trial_table(monkeypatch):
    draws = []
    rand_function = functionals._rand_function

    def counting(rng, ground):
        draws.append(ground)
        return rand_function(rng, ground)

    monkeypatch.setattr(functionals, "_rand_function", counting)
    functionals._trial_table.cache_clear()
    try:
        report = verify.suite_axioms(3, seed=5, trials=50)
        info = functionals._trial_table.cache_info()
    finally:
        functionals._trial_table.cache_clear()
    assert report["failures"] == [] and report["checks_run"] > 1
    assert (info.misses, info.hits) == (1, report["checks_run"] - 1)
    assert len(draws) == 50


def test_no_pool_for_eq1_below_n7(monkeypatch):
    started = []

    class NoPool:
        def __init__(self, *args, **kwargs):
            started.append(kwargs)
            raise OSError("no pool in this test")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    assert parallel.map_chunks(abs, [-1, -2], 2) == [1, 2]  # the fake is reached
    assert len(started) == 1
    started.clear()
    assert verify.suite_eq1(5, workers=2)["checks_run"] == 82944
    assert verify.suite_eq1(6, workers=2)["checks_run"] == 10_838_016
    assert started == []


def test_pool_has_one_process_per_item_at_most(monkeypatch):
    """A pool never has more processes than items or than MAX_WORKERS; the
    fake records the size asked for and starts nothing."""
    started = []

    class NoPool:
        def __init__(self, max_workers):
            started.append(max_workers)
            raise OSError("no pool in this test")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    assert parallel.map_chunks(abs, [-1, -2, -3], 100_000) == [1, 2, 3]
    assert parallel.map_chunks(abs, range(-1000, 0), 100_000) == list(range(1000, 0, -1))
    assert len(superext.enumerate_mls(GroundSet(5), workers=100_000)) == 81
    assert started == [3, parallel.MAX_WORKERS, 3]


def test_kernel_calls_no_traced_family_operation(monkeypatch):
    """The kernel reads its leaves through setkit's private helpers, so the
    benchmark's setkit metrics count none of its work."""
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)

        return wrapped

    for module in (setkit, superext):
        for name in ("up_closure", "minimal_members", "is_self_dual_upclosed"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    setkit.minimal_members(setkit.up_closure((1,), 1), 1)  # the counter sees calls
    assert calls == ["up_closure", "minimal_members"]
    calls.clear()
    assert len(superext._enum_subtree((5, 1 << GroundSet(5).full, 0))) == 81
    assert calls == []


def test_cli_import_leaves_out_concurrent_futures():
    """A command loads only the modules it uses, and the package's names load
    theirs on first use; each case runs in a fresh interpreter without a
    bytecode cache, as the benchmark runs its jobs."""
    src = str(Path(supext.__file__).resolve().parents[1])
    unused = ["concurrent.futures", "supext.functionals", "supext.embed", "supext.subbase", "supext.inclusion"]
    report = f"import sys; print(sorted(set({unused!r}) & set(sys.modules)))"
    command = "import contextlib, io, supext.cli\nwith contextlib.redirect_stdout(io.StringIO()): supext.cli.main({})\n"
    star = (
        "import supext\nnames = {}\nexec('from supext import *', names)\n"
        "print(all(getattr(supext, k) is names[k] for k in supext.__all__))"
    )
    cases = [
        ("import supext.cli\n" + report, "[]"),
        (command.format(["enumerate", "--n", "3"]) + report, "[]"),
        (command.format(["verify", "--suite", "counts", "--n", "3"]) + report, "[]"),
        (command.format(["verify", "--suite", "eq1", "--n", "5", "--workers", "2"]) + report, "[]"),
        (star, "True"),
    ]
    for code, expected in cases:
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        ).stdout
        assert out.strip() == expected, code


def test_benchmark_commands_load_no_dataclasses(tmp_path):
    """The value types are plain classes: neither ``import supext.cli`` nor
    any command the benchmark runs loads ``dataclasses`` or ``inspect``,
    which cost each fresh interpreter about 10 ms to import."""
    src = str(Path(supext.__file__).resolve().parents[1])
    gens = tmp_path / "gens.json"
    gens.write_text('{"n": 2, "generators": [{"b": ["0", "1"], "v": "1/2"}]}')
    unused = ["dataclasses", "inspect"]
    report = f"import sys; print(sorted(set({unused!r}) & set(sys.modules)))"
    command = "import contextlib, io, supext.cli\nwith contextlib.redirect_stdout(io.StringIO()): supext.cli.main({})\n"
    argvs = [
        "enumerate --n 3",
        "ghyper --n 3",
        f"extend --generators {gens} --phi 1,0",
        "verify --suite counts --n 3 --workers 2",
        "verify --suite eq1 --n 3",
        "verify --suite subbase-lambda --n 3",
        "verify --suite axioms --n 2 --trials 5",
        "verify --suite functor-laws --n 2",
        "verify --suite usco-roundtrip",
    ]
    cases = ["import supext.cli\n" + report] + [command.format(argv.split()) + report for argv in argvs]
    for code in cases:
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        ).stdout
        assert out.strip() == "[]", code

"""Call-count guards on the algebra fast paths.

They count calls instead of timing them, so they are deterministic: a change
that brings back per-call set-family canonicalisation in the pushforwards, or
per-term redrawing of the axiom trials, fails here rather than only showing
up as a slower benchmark.
"""

from __future__ import annotations

from supext import functionals, setkit, verify
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
    monkeypatch.setattr(verify, "g_map", scoped(verify.g_map))
    report = verify.suite_functor_laws(2)
    assert report["failures"] == []
    assert {"lambda_map", "g_map"} <= set(entered)
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

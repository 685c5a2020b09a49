"""Spans and counts around the public functions of each supext module.

The benchmark installs these wrappers in its own process for the traced run
only; the program itself is unchanged.  A span records its name, start, end
and parent; a layer's self time is its span's duration minus the part its
child spans cover.  Spans are kept in flat arrays so that the several
hundred thousand calls of one pass stay cheap to record.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._depth: Counter[int] = Counter()
        self._counts: Counter[tuple[int, str]] = Counter()  # (root span, name) -> count
        self.parallel: list[dict] = []
        self.max_n = 0  # largest ground set of a serial enumeration

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name[i]] -= 1

    def count(self, name: str, k: int = 1) -> None:
        """Add to a count of the enclosing root span; outside any span, do nothing."""
        if len(self._stack) > 1:
            self._counts[self._stack[1], name] += k

    def totals(self, within: int | None = None) -> Counter[str]:
        """Counts summed over root spans, or of the one root span ``within``."""
        out: Counter[str] = Counter()
        for (root, name), v in self._counts.items():
            if within in (None, root):
                out[name] += v
        return out

    def __len__(self) -> int:
        return len(self.name)

    def span_name(self, i: int) -> str:
        return self.names[self.name[i]]

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - covered[i] for i in range(len(self))]

    def roots(self) -> list[int]:
        """For each span, the index of its outermost ancestor (itself for a root)."""
        root = [0] * len(self)
        for i, p in enumerate(self.parent):
            root[i] = i if p < 0 else root[p]
        return root

    def aggregate(self, within: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds of outermost calls, self seconds.

        With ``within`` set, only spans under that root span count.
        """
        selfs = self.self_times()
        roots = self.roots() if within is not None else None
        out: dict[str, dict[str, float]] = {}
        for i in range(len(self)):
            if roots is not None and roots[i] != within:
                continue
            row = out.setdefault(self.span_name(i), {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[i]
            if self.outer[i]:
                row["s"] += self.end[i] - self.start[i]
        return out

    def dump(self) -> dict:
        """Every span as [name, parent, start, end], with the counts."""
        return {
            "names": self.names,
            "spans": [
                [self.name[i], self.parent[i], self.start[i], self.end[i]] for i in range(len(self))
            ],
            "counts": [[root, name, v] for (root, name), v in sorted(self._counts.items())],
            "parallel": self.parallel,
        }


# --------------------------------------------------------------------------
# Wrappers


def _span(tracer: Tracer, fn, name, note=None):
    """Wrap fn in a span; ``name`` may be a function of the call's arguments."""
    naming = name if callable(name) else None

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        i = tracer.open(naming(args, kwargs) if naming else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if note is not None:
            note(tracer, args, kwargs, result)
        return result

    return wrapped


def _counting(tracer: Tracer, fn, name):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapped


def _arg(args, kwargs, pos: int, key: str, default):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _enum_name(args, kwargs) -> str:
    w1 = _arg(args, kwargs, 1, "workers", 1) <= 1
    return "superext.enumerate_mls" if w1 else "superext.enumerate_mls_w2"


def _enum_note(tracer, args, kwargs, result) -> None:
    if _arg(args, kwargs, 1, "workers", 1) <= 1:
        tracer.count("superext.systems", len(result))
        tracer.max_n = max(tracer.max_n, _arg(args, kwargs, 0, "ground", None).n)


def _eq1_name(args, kwargs) -> str:
    return "verify.eq1" if _arg(args, kwargs, 1, "workers", 1) <= 1 else "verify.eq1_w2"


def _checks_note(counter: str):
    def note(tracer, args, kwargs, result) -> None:
        tracer.count(counter, result["checks_run"])

    return note


def _eq1_note(tracer, args, kwargs, result) -> None:
    if _arg(args, kwargs, 1, "workers", 1) <= 1:
        tracer.count("verify.eq1.checks", result["checks_run"])


def _item_size(result) -> int:
    """Leaves of an enumeration subtree, or checks of an eq1 chunk."""
    if isinstance(result, tuple):
        return result[0]
    return len(result)


def _map_chunks(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapped(work, items, workers):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        i = tracer.open("parallel.map_chunks")
        try:
            results = fn(work, items, workers)
        finally:
            tracer.close(i)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        child_cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        tracer.parallel.append(
            {
                "span": i,
                "workers": workers,
                "items": len(items),
                "sizes": [_item_size(r) for r in results],
                "child_cpu_s": child_cpu,
                # map_chunks swallows a failed pool start and runs serially
                "serial_fallback": workers > 1 and len(items) > 1 and child_cpu == 0.0,
            }
        )
        return results

    return wrapped


# (module, attribute, span name or naming function, note on the result)
SPANS = [
    ("superext", "enumerate_mls", _enum_name, _enum_note),
    ("superext", "MaxLinkedSystem.__init__", "superext.construct", None),
    ("superext", "lambda_map", "superext.lambda_map", None),
    ("superext", "lambda_map_image", "superext.lambda_map_image", None),
    ("verify", "suite_eq1", _eq1_name, _eq1_note),
    ("verify", "suite_subbase_lambda", "verify.subbase_lambda", None),
    ("verify", "lambda_plus_subbase", "verify.lambda_plus_subbase", None),
    ("verify", "suite_axioms", "verify.axioms", None),
    ("verify", "suite_functor_laws", "verify.functor_laws", _checks_note("verify.functor_laws.checks")),
    ("verify", "suite_usco_roundtrip", "verify.usco_roundtrip", None),
    ("verify", "term_zoo", "verify.term_zoo", None),
    ("functionals", "evaluate", "functionals.evaluate", None),
    ("functionals", "axiom_check", "functionals.axiom_check", None),
    ("functionals", "GeneratedSubspace.__init__", "functionals.generated_subspace", None),
    ("functionals", "extend_one", "functionals.extend_one", None),
    ("setkit", "is_self_dual_upclosed", "setkit.is_self_dual_upclosed", None),
    ("setkit", "minimal_members", "setkit.minimal_members", None),
    ("setkit", "up_closure", "setkit.up_closure", None),
    ("inclusion", "enumerate_ih", "inclusion.enumerate_ih", None),
    ("inclusion", "g_map", "inclusion.g_map", None),
    ("subbase", "is_binary", "subbase.is_binary", None),
    ("subbase", "is_normal", "subbase.is_normal", None),
    ("embed", "validate_regular", "embed.validate_regular", None),
    ("embed", "usco_from_regular", "embed.usco_from_regular", None),
    ("embed", "regular_from_usco", "embed.regular_from_usco", None),
    ("cli", "main", "cli.main", None),
]
COUNTS = [
    ("setkit", "SetFamily.__init__", "setkit.setfamily"),
]


def _supext_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "supext" or name.startswith("supext.")]


@contextmanager
def instrument(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore the originals.

    A function imported by name into other modules (``from .superext import
    enumerate_mls``) is replaced in each of them and in module-level dicts
    such as ``verify.SUITES``, so every caller goes through the wrapper.
    """
    undo: list[tuple[object, str, object]] = []  # (dict or class, key, original)

    def put(owner, key: str, value) -> None:
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def replace(owner, key: str, value) -> None:
        undo.append((owner, key, owner[key] if isinstance(owner, dict) else owner.__dict__[key]))
        put(owner, key, value)

    def install(module: str, path: str, make) -> None:
        owner = importlib.import_module(f"supext.{module}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            replace(cls, attr, make(getattr(cls, attr)))
            return
        original = getattr(owner, path)
        wrapper = make(original)
        for mod in _supext_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    replace(vars(mod), key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            replace(value, k, wrapper)

    try:
        for module, path, name, note in SPANS:
            install(module, path, lambda fn, name=name, note=note: _span(tracer, fn, name, note))
        for module, path, name in COUNTS:
            install(module, path, lambda fn, name=name: _counting(tracer, fn, name))
        install("parallel", "map_chunks", lambda fn: _map_chunks(tracer, fn))
        new = Fraction.__new__
        replace(Fraction, "__new__", staticmethod(_counting(tracer, new, "functionals.fraction_new")))
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            put(owner, key, original)


# --------------------------------------------------------------------------
# Per-layer metrics


def _mean_call(rows: dict, name: str) -> float:
    row = rows.get(name)
    return row["s"] / row["calls"] if row and row["calls"] else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass; a layer the pass never enters reads 0."""
    rows = tracer.aggregate()

    def s(name: str) -> float:
        return rows.get(name, {}).get("s", 0.0)

    def calls(name: str) -> int:
        return int(rows.get(name, {}).get("calls", 0))

    counts = tracer.totals()
    par = [p for p in tracer.parallel if p["workers"] > 1]
    # The split that matters most for wall time: the w2 call whose workers did the most.
    busiest = max(par, key=lambda p: p["child_cpu_s"], default=None)
    enum_w1 = s("superext.enumerate_mls")
    return {
        "superext.enumerate_mls.s": enum_w1,
        "superext.enumerate_mls_w2.s": s("superext.enumerate_mls_w2"),
        "superext.systems_per_s": _ratio(counts["superext.systems"], enum_w1),
        "superext.construct.calls": calls("superext.construct"),
        "superext.construct.s": s("superext.construct"),
        "superext.lambda_map.calls": calls("superext.lambda_map"),
        "superext.lambda_map.s": s("superext.lambda_map"),
        "superext.lambda_map_image.calls": calls("superext.lambda_map_image"),
        "superext.lambda_map_image.s": s("superext.lambda_map_image"),
        "parallel.items": busiest["items"] if busiest else 0,
        "parallel.largest_item_share": _ratio(max(busiest["sizes"]), sum(busiest["sizes"])) if busiest else 0.0,
        "parallel.child_cpu_s": sum(p["child_cpu_s"] for p in par),
        "parallel.serial_fallback": sum(p["serial_fallback"] for p in par),
        "parallel.speedup_w2.enumerate": _ratio(
            _mean_call(rows, "superext.enumerate_mls"), _mean_call(rows, "superext.enumerate_mls_w2")
        )
        if calls("superext.enumerate_mls_w2")
        else 0.0,
        "parallel.speedup_w2.eq1": _ratio(_mean_call(rows, "verify.eq1"), _mean_call(rows, "verify.eq1_w2"))
        if calls("verify.eq1_w2")
        else 0.0,
        "verify.eq1.s": s("verify.eq1"),
        "verify.eq1.checks_per_s": _ratio(counts["verify.eq1.checks"], s("verify.eq1")),
        "verify.subbase_lambda.s": s("verify.subbase_lambda"),
        "verify.lambda_plus_subbase.s": s("verify.lambda_plus_subbase"),
        "verify.axioms.s": s("verify.axioms"),
        "verify.functor_laws.s": s("verify.functor_laws"),
        "verify.functor_laws.checks": counts["verify.functor_laws.checks"],
        "verify.usco_roundtrip.s": s("verify.usco_roundtrip"),
        "verify.term_zoo.s": s("verify.term_zoo"),
        "functionals.evaluate.calls": calls("functionals.evaluate"),
        "functionals.evaluate.s": s("functionals.evaluate"),
        "functionals.axiom_check.s": s("functionals.axiom_check"),
        "functionals.generated_subspace.s": s("functionals.generated_subspace"),
        "functionals.extend_one.s": s("functionals.extend_one"),
        "functionals.fraction_new.calls": counts["functionals.fraction_new"],
        "setkit.is_self_dual_upclosed.calls": calls("setkit.is_self_dual_upclosed"),
        "setkit.is_self_dual_upclosed.s": s("setkit.is_self_dual_upclosed"),
        "setkit.setfamily.calls": counts["setkit.setfamily"],
        "setkit.minimal_members.s": s("setkit.minimal_members"),
        "setkit.up_closure.s": s("setkit.up_closure"),
        "inclusion.enumerate_ih.s": s("inclusion.enumerate_ih"),
        "inclusion.g_map.calls": calls("inclusion.g_map"),
        "inclusion.g_map.s": s("inclusion.g_map"),
        "subbase.is_binary.s": s("subbase.is_binary"),
        "subbase.is_normal.s": s("subbase.is_normal"),
        "embed.validate_regular.s": s("embed.validate_regular"),
        "embed.usco_from_regular.s": s("embed.usco_from_regular"),
        "embed.regular_from_usco.s": s("embed.regular_from_usco"),
        "cli.overhead_s": rows.get("cli.main", {}).get("self_s", 0.0),
    }

"""Job lists, seeded inputs and report checks for the supext benchmark.

A workload is a fixed list of ``supext`` command lines, run one after the
other and repeated.  Every report a job prints is checked here; a job whose
check finds a problem counts as failed.  Nothing in this module imports
supext: the expected values are pinned from the seed commit or computed
independently, so a wrong program cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

MLS_6 = 2646  # maximal linked systems on 6 points (OEIS A001206)
IH_5 = 7579  # nonempty up-closed families of nonempty subsets of 5 points: Dedekind M(5) - 2

EXTEND_JOBS = ("mid", "lower", "upper", "mid")
EXTEND_GENERATORS = 20


@dataclass(frozen=True)
class Job:
    """One command line and what its report must satisfy."""

    argv: tuple[str, ...]
    expect: tuple[tuple[str, object], ...] = ()
    """Report fields that must hold exactly these values."""
    digest: str | None = None
    """sha256 of the report bytes printed at the seed commit."""
    same_as: int | None = None
    """Index of an earlier job in the list whose report must be byte-identical."""
    contains: Fraction | None = None
    """For ``extend``: phi_eta(phi0), which the reported interval must contain."""

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _job(cmd: str, **kw) -> Job:
    return Job(tuple(cmd.split()), **kw)


CENSUS = [
    _job(
        "enumerate --n 6",
        expect=(("count", MLS_6),),
        digest="052d1a78e6d9f602a468cc2c2627a1d21636d11a78dc59c2ac1566c57db98646",
    ),
    _job(
        "enumerate --n 6 --count-only --workers 2",
        expect=(("count", MLS_6),),
        digest="9eba29d5101d65a01f28b79f687c85ae407de5d3dce987c414a479e06f9fa4c9",
    ),
    _job(
        "verify --suite counts --n 6 --workers 2",
        expect=(("actual", MLS_6), ("expected", MLS_6)),
        digest="5e1952fc8df117efc4db446dfb031ab1eda89674050662b2347a00da5a6ffc93",
    ),
    _job(
        "verify --suite subbase-lambda --n 6",
        expect=(("checks_run", 2),),
        digest="f097dfc19c8c355b6f173a8654aac0d24428cb3a31660c3819f16829f61e7b75",
    ),
    _job(
        "ghyper --n 5",
        expect=(("count", IH_5),),
        digest="a2dc505c65e6ad93296aab4140f3596c26eb570d0c851b700487feeda5129b32",
    ),
]

_EQ1_N5 = "173b5a26d0a85093aa087d2b64d5079781f826780e8df16e664d6c218d0e428a"
EXCHANGE = [
    # 81 systems x 4^5 grid points
    _job("verify --suite eq1 --n 5 --workers 1", expect=(("checks_run", 82944),), digest=_EQ1_N5),
    _job("verify --suite eq1 --n 5 --workers 2", expect=(("checks_run", 82944),), digest=_EQ1_N5, same_as=0),
]

WORKLOADS = ("census", "exchange", "algebra")


def jobs_for(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The job list of a workload; ``algebra`` writes its seeded inputs to workdir."""
    if workload == "census":
        return list(CENSUS)
    if workload == "exchange":
        return list(EXCHANGE)
    if workload == "algebra":
        return algebra_jobs(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def algebra_jobs(seed: int, workdir: Path) -> list[Job]:
    jobs = [
        # The report names neither seed nor trials, so a passing run prints
        # the same bytes for every seed.
        _job(
            f"verify --suite axioms --n 4 --seed {seed}",
            expect=(("checks_run", 40),),
            digest="13151e1ca537e93f37aa91def1ab36b3dd5fee041e35d11d03c9beb30b5cf03e",
        ),
        _job(
            "verify --suite functor-laws --n 3",
            expect=(("checks_run", 26669),),
            digest="0a1b2850c3e6d460a15c84e0057605532a5aeb5b6a1cb8884e0bdd04b794ff0d",
        ),
        _job(
            "verify --suite usco-roundtrip",
            expect=(("checks_run", 18),),
            digest="157d0136ac2fc6e175f7fe3ea7b8eefb2015b2b7d0f052bc6f437e77f52ef309",
        ),
    ]
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for k, choose in enumerate(EXTEND_JOBS):
        path = workdir / f"extend-{k}.json"
        gens, phi0, value = extend_input(rng, EXTEND_GENERATORS)
        path.write_text(json.dumps({"n": EXTEND_N, "generators": gens}, indent=1) + "\n")
        phi_arg = ",".join(str(v) for v in phi0)
        jobs.append(
            Job(
                ("extend", "--generators", str(path), f"--phi={phi_arg}", "--choose", choose),
                contains=value,
            )
        )
    return jobs


# --------------------------------------------------------------------------
# Seeded inputs


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def points(mask: int) -> list[int]:
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def random_mls(rng: random.Random, n: int) -> tuple[int, ...]:
    """Minimal members of a seeded maximal linked system on n points.

    Visits the complementary pairs {A, A^c} in random order and keeps a side
    that meets every set kept so far, at random when both do.  A linked
    family never dead-ends (if A misses C1 and A^c misses C2 then C1, C2 are
    disjoint), and a linked family holding one side of every pair is
    up-closed, hence maximal linked.
    """
    full = (1 << n) - 1
    pairs = [(a, full ^ a) for a in range(1, full) if a < full ^ a]
    rng.shuffle(pairs)
    chosen = [full]
    for a, b in pairs:
        a_ok = all(a & c for c in chosen)
        b_ok = all(b & c for c in chosen)
        chosen.append(rng.choice((a, b)) if a_ok and b_ok else (a if a_ok else b))
    minimal: list[int] = []
    for m in sorted(chosen, key=lambda m: (popcount(m), m)):
        if not any(k & m == k for k in minimal):
            minimal.append(m)
    return tuple(minimal)


def phi(minimal: tuple[int, ...], values: list[Fraction]) -> Fraction:
    """phi_eta(f): the max over minimal members of the min of f on the member."""
    return max(min(values[x] for x in points(m)) for m in minimal)


# Generators and new functions take their values from fixed multisets in a
# seeded order.  The envelope checks then do the same amount of rational
# arithmetic for every seed, and since no affine map k*x + c sends one
# multiset onto the other, phi0 never lies on a generator orbit.
GENERATOR_VALUES = tuple(Fraction(v) for v in ("-3", "-3/2", "-1/3", "1/2", "2", "7/4"))
PHI0_VALUES = tuple(Fraction(v) for v in ("-2", "-1/4", "0", "1", "5/3", "3"))
EXTEND_N = len(GENERATOR_VALUES)


def _shuffled(rng: random.Random, values: tuple[Fraction, ...]) -> list[Fraction]:
    out = list(values)
    rng.shuffle(out)
    return out


def extend_input(rng: random.Random, count: int) -> tuple[list[dict], list[Fraction], Fraction]:
    """Generators valued by a seeded phi_eta, a new function phi0, and phi_eta(phi0).

    The generators are consistent by construction, and phi_eta(phi0) is one
    admissible extension value, so it must lie in the reported interval.
    """
    eta = random_mls(rng, EXTEND_N)
    bs = [_shuffled(rng, GENERATOR_VALUES) for _ in range(count)]
    gens = [{"b": [str(v) for v in b], "v": str(phi(eta, b))} for b in bs]
    phi0 = _shuffled(rng, PHI0_VALUES)
    return gens, phi0, phi(eta, phi0)


# --------------------------------------------------------------------------
# Report checks


def check_report(job: Job, returncode: int, out: bytes, earlier: list[bytes]) -> list[str]:
    """Problems with one job's report; empty when the report is correct.

    ``earlier`` holds the reports of the jobs before this one in the pass.
    """
    if returncode != 0:
        return [f"exit status {returncode}"]
    try:
        report = json.loads(out)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    problems = []
    if report.get("failures", []) != []:
        problems.append("report lists failures")
    for key, want in job.expect:
        if report.get(key) != want:
            problems.append(f"{key} is {report.get(key)!r}, expected {want!r}")
    if job.digest is not None and hashlib.sha256(out).hexdigest() != job.digest:
        problems.append("report differs from the seed commit's")
    if job.same_as is not None and out != earlier[job.same_as]:
        problems.append(f"report differs from that of {job.same_as}")
    if job.contains is not None:
        problems += _check_interval(job, report)
    return problems


def _check_interval(job: Job, report: dict) -> list[str]:
    try:
        lower, upper, p = (Fraction(report[k]) for k in ("lower", "upper", "p"))
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return ["extend report lacks lower/upper/p"]
    choose = job.argv[job.argv.index("--choose") + 1]
    problems = []
    if not lower <= job.contains <= upper:
        problems.append(f"phi_eta(phi0) = {job.contains} outside [{lower}, {upper}]")
    want_p = {"lower": lower, "upper": upper, "mid": (lower + upper) / 2}[choose]
    if p != want_p:
        problems.append(f"p = {p}, expected the {choose} choice {want_p}")
    return problems

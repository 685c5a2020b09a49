"""Command-line front end.

Exit status contract: 0 = all checks pass, 1 = mathematical failure with
witnesses in the report, 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import verify
from .errors import InputError, _exact, parse_rational
from .setkit import GroundSet
from .superext import enumerate_mls

if TYPE_CHECKING:
    from fractions import Fraction

# Each command imports the other modules it uses: a job starts a fresh
# interpreter, and enumerate, ghyper and the counts suite need none of
# functionals, embed or subbase.  verify, and with it setkit and superext,
# is loaded here: it binds superext's functions by name at import, so a
# wrapper put on superext from outside (perfbench's tracer) reaches verify's
# callers only if verify is already loaded when the wrapper goes in.

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _emit(report: dict, out: str | None, fmt: str = "json") -> None:
    if fmt == "csv-summary":
        keys = ["suite", "n", "checks_run"]
        line = ",".join(str(report.get(k, "")) for k in keys)
        text = f"suite,n,checks_run,failures\n{line},{len(report.get('failures', []))}\n"
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_values(text: str, option: str) -> list[Fraction]:
    return [parse_rational(tok, option) for tok in text.split(",") if tok.strip()]


def _worker_count(text: str) -> int:
    workers = int(text)
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {workers}")
    return workers


def cmd_enumerate(args: argparse.Namespace) -> int:
    lam = enumerate_mls(GroundSet(args.n), workers=args.workers)
    report: dict = {"n": args.n, "count": len(lam)}
    if not args.count_only:
        report["systems"] = [[format(m, "x") for m in eta.minimal] for eta in lam]
    _emit(report, args.out)
    return EXIT_OK


def cmd_ghyper(args: argparse.Namespace) -> int:
    from .inclusion import enumerate_ih

    hs = enumerate_ih(GroundSet(args.n))
    report: dict = {"n": args.n, "count": len(hs)}
    if not args.count_only:
        report["systems"] = [[format(m, "x") for m in a.minimal] for a in hs]
    _emit(report, args.out)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    from .functionals import PointFunction, evaluate, term_from_json

    values = _parse_values(args.f, "--f")
    ground = GroundSet(len(values))
    term = term_from_json(Path(args.term).read_bytes(), ground)
    result = evaluate(term, PointFunction(ground, tuple(values)))
    _emit({"value": _exact(result)}, args.out)
    return EXIT_OK


def cmd_axioms(args: argparse.Namespace) -> int:
    from . import functionals

    ground = GroundSet(args.n)
    term = functionals.term_from_json(Path(args.term).read_bytes(), ground)
    res = functionals.axiom_check(
        term, trials=args.trials, seed=args.seed, normalized=args.normalized
    )
    report = {
        "pass": res.ok,
        "axiom": res.axiom,
        "witness": functionals.witness_to_obj(res.witness),
        "trials": args.trials,
        "seed": args.seed,
    }
    _emit(report, args.out)
    return EXIT_OK if res.ok else EXIT_FAIL


def cmd_extend(args: argparse.Namespace) -> int:
    from . import functionals

    space = functionals.generators_from_json(Path(args.generators).read_bytes())
    phi0 = functionals.PointFunction(space.ground, tuple(_parse_values(args.phi, "--phi")))
    lower, upper, p = functionals.extend_one(space, phi0, choose=args.choose)
    _emit({"lower": _exact(lower), "upper": _exact(upper), "p": _exact(p)}, args.out)
    return EXIT_OK


def cmd_subbase(args: argparse.Namespace) -> int:
    from . import subbase

    sb = subbase.subbase_from_json(Path(args.infile).read_bytes())
    res = subbase.is_binary(sb) if args.check == "binary" else subbase.is_normal(sb)
    witness = [format(m, "x") for m in res.witness] if res.witness else None
    _emit({"check": args.check, "pass": res.ok, "witness": witness}, args.out)
    return EXIT_OK if res.ok else EXIT_FAIL


def cmd_regular(args: argparse.Namespace) -> int:
    from . import embed

    op = embed.operator_from_json(Path(args.validate).read_bytes())
    res = embed.validate_regular(op)
    _emit(
        {"pass": res.ok, "axiom": res.axiom, "witness": list(res.witness) if res.witness else None},
        args.out,
    )
    return EXIT_OK if res.ok else EXIT_FAIL


def cmd_usco(args: argparse.Namespace) -> int:
    from . import embed

    op = embed.operator_from_json(Path(args.source).read_bytes())
    r = embed.usco_from_regular(op)
    report = {
        "values": [
            [[format(m, "x") for m in eta.minimal] for eta in vals] for vals in r.values
        ],
        "usc": r.is_usc(),
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_roundtrip(args: argparse.Namespace) -> int:
    from . import embed

    op = embed.operator_from_json(Path(args.op).read_bytes())
    r = embed.usco_from_regular(op)
    rt = embed.regular_from_usco(r, domain=op.domain)
    res = embed.validate_regular(rt)
    report = {
        "pass": res.ok,
        "axiom": res.axiom,
        "table": [[format(u, "x"), format(eu, "x")] for u, eu in rt.table],
    }
    _emit(report, args.out)
    return EXIT_OK if res.ok else EXIT_FAIL


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify.run_verify_suite(
        args.suite, args.n, seed=args.seed, trials=args.trials, workers=args.workers
    )
    _emit(report, args.out, fmt=args.format)
    return EXIT_OK if not report["failures"] else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="supext", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--out", default=None, help="write the JSON report to a file")

    sp = sub.add_parser("enumerate", help="enumerate maximal linked systems")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--workers", type=_worker_count, default=1)
    common(sp)
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("ghyper", help="enumerate inclusion hyperspaces")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--count-only", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_ghyper)

    sp = sub.add_parser("eval", help="evaluate a functional term")
    sp.add_argument("--term", required=True)
    sp.add_argument("--f", required=True, help="comma-separated rationals, one per point")
    common(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("axioms", help="check the functional axioms of a term")
    sp.add_argument("--term", required=True)
    sp.add_argument("--n", type=int, required=True, help="ground set size")
    sp.add_argument("--trials", type=int, default=500)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--normalized", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_axioms)

    sp = sub.add_parser("extend", help="admissible extension interval for a new function")
    sp.add_argument("--generators", required=True)
    sp.add_argument("--phi", required=True)
    sp.add_argument("--choose", choices=("mid", "lower", "upper"), default="mid")
    common(sp)
    sp.set_defaults(fn=cmd_extend)

    sp = sub.add_parser("subbase", help="binary / normal subbase checks")
    sp.add_argument("--check", choices=("binary", "normal"), required=True)
    sp.add_argument("--in", dest="infile", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_subbase)

    sp = sub.add_parser("regular", help="validate a regular operator")
    sp.add_argument("--validate", required=True, metavar="OP_JSON")
    common(sp)
    sp.set_defaults(fn=cmd_regular)

    sp = sub.add_parser("usco", help="usco map from a regular operator")
    sp.add_argument("--from", dest="source", required=True, metavar="OP_JSON")
    common(sp)
    sp.set_defaults(fn=cmd_usco)

    sp = sub.add_parser("roundtrip", help="operator -> usco map -> operator")
    sp.add_argument("op", metavar="OP_JSON")
    common(sp)
    sp.set_defaults(fn=cmd_roundtrip)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("--suite", required=True)
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=500)
    sp.add_argument("--workers", type=_worker_count, default=1)
    sp.add_argument("--format", choices=("json", "csv-summary"), default="json")
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, OSError) as exc:
        print(f"supext: input error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

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

from . import parallel, verify
from .errors import InputError, _exact, hex_masks, parse_rational
from .setkit import GroundSet
from .superext import enumerate_mls

if TYPE_CHECKING:
    from fractions import Fraction

# Each command imports the other modules it uses: a job starts a fresh
# interpreter, and enumerate, ghyper and the counts suite need none of
# functionals, embed or subbase.  verify, and with it setkit and superext,
# is loaded here although enumerate and ghyper never use it: it binds
# superext's functions by name at import, so a wrapper put on superext from
# outside (perfbench's tracer) reaches verify's callers only if verify is
# already loaded when the wrapper goes in, and the tracer restores only the
# names bound before its block; loaded inside the block, verify would keep
# the wrappers after it.

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _emit(report: dict, out: str | None, fmt: str) -> None:
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
    return [parse_rational(tok, option) for tok in text.split(",")]


def _worker_count(text: str) -> int:
    workers = int(text)
    if not 1 <= workers <= parallel.MAX_WORKERS:
        raise argparse.ArgumentTypeError(f"must be from 1 to {parallel.MAX_WORKERS}, got {workers}")
    return workers


# Each command returns its report; main alone writes it and sets the exit status.


def cmd_enumerate(args: argparse.Namespace) -> dict:
    lam = enumerate_mls(GroundSet(args.n), workers=args.workers)
    report: dict = {"n": args.n, "count": len(lam)}
    if not args.count_only:
        report["systems"] = [hex_masks(eta.minimal) for eta in lam]
    return report


def cmd_ghyper(args: argparse.Namespace) -> dict:
    from .inclusion import enumerate_ih

    hs = enumerate_ih(GroundSet(args.n))
    report: dict = {"n": args.n, "count": len(hs)}
    if not args.count_only:
        report["systems"] = [hex_masks(a.minimal) for a in hs]
    return report


def cmd_eval(args: argparse.Namespace) -> dict:
    from .functionals import PointFunction, evaluate, term_from_json

    values = _parse_values(args.f, "--f")
    ground = GroundSet(len(values))
    term = term_from_json(Path(args.term).read_bytes(), ground)
    result = evaluate(term, PointFunction(ground, tuple(values)))
    return {"value": _exact(result)}


def cmd_axioms(args: argparse.Namespace) -> dict:
    from . import functionals

    ground = GroundSet(args.n)
    term = functionals.term_from_json(Path(args.term).read_bytes(), ground)
    res = functionals.axiom_check(term, trials=args.trials, seed=args.seed, normalized=args.normalized)
    witness = functionals.witness_to_obj(res.witness)
    return {"pass": res.ok, "axiom": res.axiom, "witness": witness, "trials": args.trials, "seed": args.seed}


def cmd_extend(args: argparse.Namespace) -> dict:
    from . import functionals

    space = functionals.generators_from_json(Path(args.generators).read_bytes())
    phi0 = functionals.PointFunction(space.ground, tuple(_parse_values(args.phi, "--phi")))
    lower, upper, p = functionals.extend_one(space, phi0, choose=args.choose)
    return {"lower": _exact(lower), "upper": _exact(upper), "p": _exact(p)}


def cmd_subbase(args: argparse.Namespace) -> dict:
    from . import subbase

    sb = subbase.subbase_from_json(Path(args.infile).read_bytes())
    res = subbase.is_binary(sb) if args.check == "binary" else subbase.is_normal(sb)
    witness = hex_masks(res.witness) if res.witness else None
    return {"check": args.check, "pass": res.ok, "witness": witness}


def cmd_regular(args: argparse.Namespace) -> dict:
    from . import embed

    op = embed.operator_from_json(Path(args.validate).read_bytes())
    res = embed.validate_regular(op)
    return {"pass": res.ok, "axiom": res.axiom, "witness": list(res.witness) if res.witness else None}


def cmd_usco(args: argparse.Namespace) -> dict:
    from . import embed

    op = embed.operator_from_json(Path(args.source).read_bytes())
    r = embed.usco_from_regular(op)
    values = [[hex_masks(eta.minimal) for eta in vals] for vals in r.values]
    return {"values": values, "usc": r.is_usc()}


def cmd_roundtrip(args: argparse.Namespace) -> dict:
    from . import embed

    op = embed.operator_from_json(Path(args.op).read_bytes())
    r = embed.usco_from_regular(op)
    rt = embed.regular_from_usco(r)
    res = embed.validate_regular(rt)
    table = [hex_masks(pair) for pair in rt.table]
    return {"pass": res.ok, "axiom": res.axiom, "table": table}


def cmd_verify(args: argparse.Namespace) -> dict:
    return verify.run_verify_suite(args.suite, args.n, seed=args.seed, trials=args.trials, workers=args.workers)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="supext", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("enumerate", help="enumerate maximal linked systems")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--workers", type=_worker_count, default=1)
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("ghyper", help="enumerate inclusion hyperspaces")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--count-only", action="store_true")
    sp.set_defaults(fn=cmd_ghyper)

    sp = sub.add_parser("eval", help="evaluate a functional term")
    sp.add_argument("--term", required=True)
    sp.add_argument("--f", required=True, help="comma-separated rationals, one per point")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("axioms", help="check the functional axioms of a term")
    sp.add_argument("--term", required=True)
    sp.add_argument("--n", type=int, required=True, help="ground set size")
    sp.add_argument("--trials", type=int, default=500)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--normalized", action="store_true")
    sp.set_defaults(fn=cmd_axioms)

    sp = sub.add_parser("extend", help="admissible extension interval for a new function")
    sp.add_argument("--generators", required=True)
    sp.add_argument("--phi", required=True)
    sp.add_argument("--choose", choices=("mid", "lower", "upper"), default="mid")
    sp.set_defaults(fn=cmd_extend)

    sp = sub.add_parser("subbase", help="binary / normal subbase checks")
    sp.add_argument("--check", choices=("binary", "normal"), required=True)
    sp.add_argument("--in", dest="infile", required=True)
    sp.set_defaults(fn=cmd_subbase)

    sp = sub.add_parser("regular", help="validate a regular operator")
    sp.add_argument("--validate", required=True, metavar="OP_JSON")
    sp.set_defaults(fn=cmd_regular)

    sp = sub.add_parser("usco", help="usco map from a regular operator")
    sp.add_argument("--from", dest="source", required=True, metavar="OP_JSON")
    sp.set_defaults(fn=cmd_usco)

    sp = sub.add_parser("roundtrip", help="operator -> usco map -> operator")
    sp.add_argument("op", metavar="OP_JSON")
    sp.set_defaults(fn=cmd_roundtrip)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("--suite", required=True)
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=500)
    sp.add_argument("--workers", type=_worker_count, default=1)
    sp.add_argument("--format", choices=("json", "csv-summary"), default="json")
    sp.set_defaults(fn=cmd_verify)

    for sp in sub.choices.values():
        sp.add_argument("--out", default=None, help="write the report to a file")
    p.set_defaults(format="json")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.fn(args)
        _emit(report, args.out, args.format)
    except (InputError, OSError) as exc:
        print(f"supext: input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # exit 1 means a witnessed failure: a failed check or a failures list
    return EXIT_FAIL if report.get("pass") is False or report.get("failures") else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

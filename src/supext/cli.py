"""Command-line front end.

Exit status contract: 0 = all checks pass, 1 = mathematical failure with
witnesses in the report, 2 = usage or input error.  A closed or failing
stdout is an input error (2); a closed or failing stderr loses the message
and changes no status.  Any other exception is an internal error: it exits
2 with the one line ``supext: internal error: <type>: <message>`` and no
traceback, never 1.  An interrupt, or SIGTERM while a pool of workers
runs, exits 130 once the workers are reaped; SIGTERM to a serial run ends it
by the signal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import parallel, verify
from .errors import InputError, _exact, hex_mask, hex_masks, parse_rational
from .setkit import GroundSet
from .superext import enumerate_mls

if TYPE_CHECKING:
    from collections.abc import Callable
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
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a run ended by ^C


# A listing goes out this many rows per write.  Written to a file, the n=7
# listing (317 MB) took 1.5-1.8 s and 4 MB above its systems' 352 MB at 4,096
# rows, and 2.4-2.6 s and 176 MB at 262,144 (2 cores, Python 3.11.7, 3 runs).
ROWS_PER_PIECE = 4096


class _Listing:
    """A list of mask rows (``depth`` 1) or of lists of them (``depth`` 2),
    each mask below ``1 << width``, as its command says."""

    def __init__(self, rows: list, width: int, depth: int) -> None:
        self.rows, self.width, self.depth = rows, width, depth


def _write_listing(write: Callable[[str], object], rows: list, table: list[str], level: int, depth: int) -> None:
    """Write ``rows`` as ``json.dumps`` with ``indent=2`` lays it out at
    ``level``, masks from ``table``, at most ROWS_PER_PIECE rows per write."""
    if not rows:
        write("[]")
        return
    pad = "\n" + "  " * (level + 1)
    lead = "[" + pad
    if depth > 1:
        for sub in rows:
            write(lead)
            _write_listing(write, sub, table, level + 1, depth - 1)
            lead = "," + pad
    else:
        inner = pad + "  "
        start, stop = "[" + inner, pad + "]"
        sep, comma = stop + "," + pad + start, "," + inner
        for i in range(0, len(rows), ROWS_PER_PIECE):
            piece = rows[i : i + ROWS_PER_PIECE]
            # one join of the piece's masks, which leaves an empty row as start + stop
            text = start + sep.join([comma.join(map(table.__getitem__, row)) for row in piece]) + stop
            write(lead + text.replace(start + stop, "[]"))
            lead = "," + pad
    write("\n" + "  " * level + "]")


def _write_report(report: dict, fmt: str, write: Callable[[str], object]) -> None:
    """The csv summary, or ``json.dumps(report, sort_keys=True, indent=2)``
    and a newline with a listing's masks as hex strings, joined from a table
    of quoted masks: the encoder ``indent`` selects is pure Python and slow."""
    if fmt == "csv-summary":
        line = ",".join(str(report.get(k, "")) for k in ("suite", "n", "checks_run"))
        write(f"suite,n,checks_run,failures\n{line},{len(report.get('failures', []))}\n")
        return
    lead = "{\n  "
    for key in sorted(report):
        write(lead + json.dumps(key) + ": ")
        value = report[key]
        if type(value) is _Listing:
            table = [f'"{hex_mask(m)}"' for m in range(1 << value.width)]
            _write_listing(write, value.rows, table, 1, value.depth)
        else:
            write(json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  "))
        lead = ",\n  "
    write("\n}\n" if report else "{}\n")


def _emit(report: dict, out: str | None, fmt: str) -> None:
    """Write a complete report to ``out`` or stdout: a failed command writes
    nothing, an error while writing can leave a partial ``out`` file, as
    ``Path.write_text`` could, and the closing flush makes a reader gone
    early or a full disk an OSError here, not a short report."""
    if out:
        with open(out, "w") as target:
            _write_report(report, fmt, target.write)
        return
    if sys.stdout is None:  # fd 1 was closed when the interpreter started
        raise InputError("standard output is closed")
    try:
        _write_report(report, fmt, sys.stdout.write)
        sys.stdout.flush()
    except OSError:
        # stdout is flushed again at exit, where what it still holds would fail
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise


def _parse_values(text: str, option: str) -> list[Fraction]:
    return [parse_rational(tok, option) for tok in text.split(",")]


def _worker_count(text: str) -> int:
    workers = int(text)
    if not 1 <= workers <= parallel.MAX_WORKERS:
        raise argparse.ArgumentTypeError(f"must be from 1 to {parallel.MAX_WORKERS}, got {workers}")
    return workers


# Each command returns its report, with a listing's masks as tuples of ints;
# main alone writes it and sets the exit status.


def _listing_report(args: argparse.Namespace, families: tuple) -> dict:
    """n, the count and, unless --count-only, each family's minimal members."""
    report: dict = {"n": args.n, "count": len(families)}
    if not args.count_only:
        report["systems"] = _Listing([a.minimal for a in families], args.n, 1)
    return report


def cmd_enumerate(args: argparse.Namespace) -> dict:
    return _listing_report(args, enumerate_mls(GroundSet(args.n), workers=args.workers))


def cmd_ghyper(args: argparse.Namespace) -> dict:
    from .inclusion import enumerate_ih

    return _listing_report(args, enumerate_ih(GroundSet(args.n)))


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
    values = [[eta.minimal for eta in vals] for vals in r.values]
    return {"values": _Listing(values, op.domain.n, 2), "usc": r.is_usc()}


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
    args = build_parser().parse_args(argv)
    try:
        report = args.fn(args)
        _emit(report, args.out, args.format)
    except (InputError, OSError) as exc:
        code, message = EXIT_USAGE, f"input error: {exc}"
    except MemoryError:
        # printed below, once the traceback and the frames with the data are gone
        report, code, message = None, EXIT_USAGE, "input error: out of memory"
    except KeyboardInterrupt:
        code, message = EXIT_INTERRUPTED, "interrupted"
    except Exception as exc:
        # a fault of the program, not a witnessed failure: exit 1 stays
        # reserved for reports that carry their witnesses
        code, message = EXIT_USAGE, f"internal error: {type(exc).__name__}: {exc}"
    else:
        # exit 1 means a witnessed failure: a failed check or a failures list
        return EXIT_FAIL if report.get("pass") is False or report.get("failures") else EXIT_OK
    # the message is best effort: with fd 2 closed at start stderr is None,
    # and print would write to stdout in its place
    if sys.stderr is not None:
        try:
            print(f"supext: {message}", file=sys.stderr, flush=True)
        except OSError:
            # the line stays in stderr's buffer, whose flush at exit would fail
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stderr.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())

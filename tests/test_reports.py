"""Golden digests of CLI report bytes.

Each case runs one command through ``cli.main`` and compares its exit
status and the sha256 of the bytes it prints with pinned values.  The
failing cases pin the witness format of every check kind; the passing
cases pin enumeration order and suite reports.  The ``extend`` cases pin
the exact interval ends for each ``--choose``, and an inconsistent
generator file that is refused with exit 2 and no report.  The listings
of ``enumerate``, ``ghyper`` and ``usco --from`` are compared byte for byte
with the text ``json.dumps`` writes for the same report, and so are
synthetic listings several of the writer's pieces long.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from supext.cli import ROWS_PER_PIECE, _Listing, _write_report, main
from supext.embed import FiniteTopSpace, RegularOperator, find_regular_operator, operator_to_json, usco_from_regular
from supext.errors import hex_masks
from supext.inclusion import enumerate_ih
from supext.setkit import GroundSet
from supext.superext import enumerate_mls
from supext.subbase import Subbase, subbase_to_json

# Discrete 2-point X inside a 3-point Y; the open {0} maps to {0, 1}, whose
# trace on X is {0, 1}, so the operator breaks the trace axiom.
TRACE_VIOLATION = RegularOperator(
    FiniteTopSpace.discrete(2),
    FiniteTopSpace(3, (0b001, 0b010, 0b111)),
    (0, 1),
    ((0, 0), (1, 3), (2, 2), (3, 7)),
)

# Discrete 3-point X inside a discrete 4-point Y; the opens {1} and {0, 2}
# are disjoint but both images hold point 3, so the operator breaks
# disjointness, and no earlier pair of opens does.
DISJOINTNESS_VIOLATION = RegularOperator(
    FiniteTopSpace.discrete(3),
    FiniteTopSpace.discrete(4),
    (0, 1, 2),
    ((0, 0), (1, 1), (2, 0b1010), (4, 4), (3, 3), (5, 0b1101), (6, 6), (7, 0b1111)),
)

# Generators on 4 points valued by the max-min functional of the system
# generated by the 2-subsets of {0, 1, 2}; the phi0 of the cases below is
# on no generator orbit.
GENERATORS = (
    '{"n": 4, "generators": ['
    '{"b": ["1/2", "-3", "7/4", "2"], "v": "1/2"}, {"b": ["0", "1", "-1/3", "5/6"], "v": "0"}, '
    '{"b": ["3", "-2/5", "1", "-1"], "v": "1"}, {"b": ["-7/2", "2", "2/3", "1/4"], "v": "2/3"}, '
    '{"b": ["1", "1", "-1", "3/2"], "v": "1"}]}'
)
# Each generator is the other reversed, so the values must sum to 2.
INCONSISTENT_GENERATORS = (
    '{"n": 3, "generators": [{"b": ["0", "1", "2"], "v": "1"}, {"b": ["2", "1", "0"], "v": "3/2"}]}'
)
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # no report

INPUTS = {
    "min-term.json": '{"t": "min", "F": "3"}',
    "gens.json": GENERATORS,
    "gens-inconsistent.json": INCONSISTENT_GENERATORS,
    "trace-op.json": operator_to_json(TRACE_VIOLATION),
    "disjoint-op.json": operator_to_json(DISJOINTNESS_VIOLATION),
    "linked-triangle.json": subbase_to_json(Subbase(3, (0b011, 0b110, 0b101))),
    "unscreened.json": subbase_to_json(Subbase(3, (0b001, 0b010))),
}

CASES = [
    ("enumerate --n 5", 0, "b86541000551c3a34ff6fde835e5aa8dd37e6bdcec5d1050c5f44e3e8f9647ce"),
    ("ghyper --n 4", 0, "ec50610872f87367a256026cc712537a1298eaad67777c527ab3e3fb6ee01ede"),
    # the benchmark's census reports
    ("enumerate --n 6", 0, "052d1a78e6d9f602a468cc2c2627a1d21636d11a78dc59c2ac1566c57db98646"),
    ("verify --suite subbase-lambda --n 6", 0, "f097dfc19c8c355b6f173a8654aac0d24428cb3a31660c3819f16829f61e7b75"),
    ("ghyper --n 5", 0, "a2dc505c65e6ad93296aab4140f3596c26eb570d0c851b700487feeda5129b32"),
    ("verify --suite counts --n 1", 0, "f5f89766bcfc345a4070d8f1580b526d1de5921c317009a064048375be84636b"),
    ("verify --suite counts --n 2", 0, "e42570533b78e2e9c3a90ae19e92c4b3e9ec9f3157833a76b738e954f7a0bfa5"),
    ("verify --suite counts --n 3", 0, "870da7cbc31c02bf16d15e9e2f62dfab846fe67cca2399e47863b18da49e0cd0"),
    ("verify --suite counts --n 4", 0, "20c196dddf60905ddcf65015e806056d9d0a2f423c1dbeb2937448df73171b8b"),
    ("verify --suite eq1 --n 1", 0, "7480d963b834557ebab50eb70ef629c8bd00f3e2f12fcca2a6bb0a03b70364ad"),
    ("verify --suite eq1 --n 2", 0, "4a75c30fff04ed960e2330330126de0c35b8fabe19358a25db46ea9a69194921"),
    ("verify --suite eq1 --n 3", 0, "e2baad613e311571c59e64d306af6c80b70d627dad0fc94a0ddabbe48629b96c"),
    ("verify --suite eq1 --n 4", 0, "55da957f881442e31fb594512690fc080bcf2432a75772e8d0b945ba9f2ae60a"),
    ("verify --suite eq1 --n 5 --workers 1", 0, "173b5a26d0a85093aa087d2b64d5079781f826780e8df16e664d6c218d0e428a"),
    ("verify --suite eq1 --n 5 --workers 2", 0, "173b5a26d0a85093aa087d2b64d5079781f826780e8df16e664d6c218d0e428a"),
    ("verify --suite functor-laws --n 1", 0, "c545dd77108920f9e13acd10546f0ef72f0fa27291ef6a5d83977de5000c2fa4"),
    ("verify --suite functor-laws --n 2", 0, "deb59b5205c0ab2c3e3fee2688faed7b00d066a8d8e551c6733afd2157b3def5"),
    ("verify --suite functor-laws --n 3", 0, "0a1b2850c3e6d460a15c84e0057605532a5aeb5b6a1cb8884e0bdd04b794ff0d"),
    ("verify --suite functor-laws --n 4", 0, "328262710473ed2b107171d36e31c92472bafd639a0caafe5c442576385cdb5d"),
    ("verify --suite subbase-lambda --n 1", 0, "95f21ff648de3075781b195d0c81349c9c71a43de2b47be90c3f592d62b60892"),
    ("verify --suite subbase-lambda --n 2", 0, "8b66b248728da8b2e94fbedd5b9eb66c48fb818679475eb23c713b347e08b6aa"),
    ("verify --suite subbase-lambda --n 3", 0, "fe1b7ec8085e8b9e07ee0ccd2703cf3a7a0e42d3a7a5385ae93242422e728bc9"),
    ("verify --suite subbase-lambda --n 4", 0, "bb9266b5b9524e194a1c549640a3792c174fee48a6224d7e974c6149a3aa4eba"),
    ("verify --suite axioms --n 3 --seed 7", 0, "028a80b968a50f8f0ea5f265602b9b838eaf2bb24c95143bdac000098e344123"),
    ("verify --suite axioms --n 4", 0, "13151e1ca537e93f37aa91def1ab36b3dd5fee041e35d11d03c9beb30b5cf03e"),
    ("verify --suite axioms --n 5", 0, "81fb039f79a0fdea758cd14d5acb7fae297588b80c04d72fc5e6a94dc63f8de2"),
    ("verify --suite usco-roundtrip", 0, "157d0136ac2fc6e175f7fe3ea7b8eefb2015b2b7d0f052bc6f437e77f52ef309"),
    # interval [-23/99, 1/2]
    ("extend --generators {dir}/gens.json --phi=-2,1/3,5/2,0 --choose lower", 0,
     "6334137a52d10ab5ef2ee5f59414fdfbfcddf0be7e074a6020f93dc8e99afa25"),
    ("extend --generators {dir}/gens.json --phi=-2,1/3,5/2,0 --choose mid", 0,
     "f5e39c2558455eacf31141a8052f02891a4a8997a69cc179f58c80a29bf44e3c"),
    ("extend --generators {dir}/gens.json --phi=-2,1/3,5/2,0 --choose upper", 0,
     "0fc76b1467260ffd3dce6f3561edb20912307920af1390f06400467044ce82ec"),
    ("extend --generators {dir}/gens-inconsistent.json --phi=0,0,1", 2, EMPTY),
    # failing reports: exit 1 with a witness
    ("axioms --term {dir}/min-term.json --n 2", 1, "9d82436c9bd185ae41904b43c91f1e8abf6d72b5b57092c7d5f2f981ba0a4f45"),
    ("regular --validate {dir}/trace-op.json", 1, "f39ba0e37189e75a13247ed8742cfce9878d05c2056910c4fc4584d6ad62efbc"),
    # witness [2, 5]: the opens {1} and {0, 2}
    ("regular --validate {dir}/disjoint-op.json", 1, "67b29ae9dfa97bdbd2cbf164c8039a3bf188b4d0bd55628175d435a2c39f9276"),
    ("subbase --check binary --in {dir}/linked-triangle.json", 1, "d2aaf3f0449c12625cf4742625f542c73e92984489ab154559e42a94b4edf5e5"),
    ("subbase --check normal --in {dir}/unscreened.json", 1, "ff4141801d815578850f3f1b059759127560a2c8496f9216b5345fc3c471435a"),
]


@pytest.mark.parametrize("cmd,code,digest", CASES, ids=[c[0] for c in CASES])
def test_report_bytes(cmd, code, digest, capsys, tmp_path):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    argv = [tok.replace("{dir}", str(tmp_path)) for tok in cmd.split()]
    assert main(argv) == code
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def test_inconsistent_generators_message(capsys, tmp_path):
    (tmp_path / "g.json").write_text(INCONSISTENT_GENERATORS)
    assert main(["extend", "--generators", str(tmp_path / "g.json"), "--phi=0,0,1"]) == 2
    err = capsys.readouterr().err
    assert err == "supext: input error: generator values admit no monotone extension\n"


# --------------------------------------------------------------------------
# The listing writer against the standard library's encoder


def dumped(report: dict) -> str:
    """The report text as ``json.dumps`` writes it, with every mask tuple of
    a listing as its list of hex masks."""

    def hexed(value):
        if isinstance(value, tuple):
            return hex_masks(value)
        return [hexed(v) for v in value] if isinstance(value, list) else value

    plain = {k: hexed(v.rows) if isinstance(v, _Listing) else v for k, v in report.items()}
    return json.dumps(plain, sort_keys=True, indent=2) + "\n"


def written(report: dict) -> list[str]:
    """The pieces the writer hands to ``write`` for the report."""
    pieces: list[str] = []
    _write_report(report, "json", pieces.append)
    return pieces


def point_above(k: int) -> RegularOperator:
    """A discrete X of k points inside Y, X plus one point whose minimal
    neighbourhood is all of Y: the least regular operator of the embedding."""
    y = FiniteTopSpace(k + 1, tuple(1 << p for p in range(k)) + ((1 << k + 1) - 1,))
    return find_regular_operator(FiniteTopSpace.discrete(k), y, tuple(range(k)))


LISTINGS = (
    [("enumerate", n) for n in range(1, 7)] + [("ghyper", n) for n in range(1, 6)] + [("usco", k) for k in range(2, 7)]
)


@pytest.mark.parametrize("command,size", LISTINGS, ids=[f"{c}-{k}" for c, k in LISTINGS])
def test_listing_bytes(command, size, capsys, tmp_path):
    """enumerate, ghyper and usco --from print what json.dumps printed for
    their hex lists, on stdout and with --out; usco --from on X of ``size`` points."""
    if command == "enumerate":
        lam = enumerate_mls(GroundSet(size))
        report = {"n": size, "count": len(lam), "systems": _Listing([eta.minimal for eta in lam], size, 1)}
        argv = ["enumerate", "--n", str(size)]
    elif command == "ghyper":
        hs = enumerate_ih(GroundSet(size))
        report = {"n": size, "count": len(hs), "systems": _Listing([a.minimal for a in hs], size, 1)}
        argv = ["ghyper", "--n", str(size)]
    else:
        op = point_above(size)
        (tmp_path / "op.json").write_text(operator_to_json(op))
        r = usco_from_regular(op)
        report = {"values": _Listing([[eta.minimal for eta in vals] for vals in r.values], size, 2), "usc": r.is_usc()}
        argv = ["usco", "--from", str(tmp_path / "op.json")]
    expected = dumped(report)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    assert (tmp_path / "report.json").read_bytes() == expected.encode()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "report",
    [
        {"systems": _Listing([], 3, 1)},
        {"systems": _Listing([()], 3, 1)},
        {"systems": _Listing([(), (1, 6), ()], 3, 1)},
        {"values": _Listing([[]], 3, 2)},
        {"values": _Listing([[], [(1,), (2, 5)], []], 3, 2)},
        {"values": _Listing([[()], [(), (0xFFFF,)]], 16, 2)},
        {"values": _Listing([[(3,)]], 2, 2), "usc": True, "n": 0},
        # values that are no listing keep the encoder's layout
        {},
        {"failures": [{"f": [1, -1], "system": ["3", "5"]}], "pass": False, "detail": "a\nb \u00e9"},
        {"witness": [2, 5], "table": [["0", "0"], ["1", "3"]], "empty": {}, "none": None, "nested": {"b": [], "a": [[]]}},
    ],
)
def test_writer_matches_the_encoder(report):
    assert "".join(written(report)) == dumped(report)


def test_a_value_not_made_of_mask_tuples_goes_to_the_encoder():
    """Only a listing is written from the mask table; tuples anywhere else,
    rows of masks included, go to the encoder as lists of ints."""
    report = {"mixed": [(1,), [(2,)]], "ints": [[1, 2], (3,)], "tuple": (4, 5), "rows": [(1, 6), ()]}
    assert "".join(written(report)) == json.dumps(report, sort_keys=True, indent=2) + "\n"


def synthetic_rows(rng: random.Random, count: int, width: int) -> list[tuple[int, ...]]:
    """``count`` rows of up to 6 masks below ``1 << width``, about one in
    seven empty."""
    return [tuple(rng.randrange(1 << width) for _ in range(rng.choice((0, 1, 2, 3, 4, 5, 6)))) for _ in range(count)]


# Each case is a depth and the length of each list of rows, in pieces.
PAST_ONE_PIECE = [
    # depth 1: exact multiples of the piece size, and half a piece past one
    (1, (1,)), (1, (2,)), (1, (3,)), (1, (3.5,)),
    # depth 2: lists that span pieces, end on a piece's edge, or are empty,
    # and a listing of no lists
    (2, (2, 0, 0.25, 1, 0)), (2, (0, 3)), (2, (0.5, 0, 1.5)), (2, ()),
]


@pytest.mark.parametrize("depth,sizes", PAST_ONE_PIECE, ids=[f"depth{d}-{'-'.join(map(str, s))}" for d, s in PAST_ONE_PIECE])
def test_writer_past_one_piece(depth, sizes):
    """A listing several pieces long reads as the encoder writes it, and no
    write holds more than ROWS_PER_PIECE rows: each row, empty or not,
    holds one ``]``, and the writer's other pieces hold at most one."""
    rng = random.Random(f"{depth}{sizes}")
    lists = [synthetic_rows(rng, int(k * ROWS_PER_PIECE), 7) for k in sizes]
    listing = _Listing(lists[0] if depth == 1 else lists, 7, depth)
    report = {"count": sum(map(len, lists)), "n": 7, "systems": listing}
    out = written(report)
    assert "".join(out) == dumped(report)
    assert max(piece.count("]") for piece in out) == (ROWS_PER_PIECE if sizes else 1)

"""Golden digests of CLI report bytes.

Each case runs one command through ``cli.main`` and compares its exit
status and the sha256 of the bytes it prints with pinned values.  The
failing cases pin the witness format of every check kind; the passing
cases pin enumeration order and suite reports.
"""

from __future__ import annotations

import hashlib

import pytest

from supext.cli import main
from supext.embed import FiniteTopSpace, RegularOperator, operator_to_json
from supext.subbase import Subbase, subbase_to_json

# Discrete 2-point X inside a 3-point Y; the open {0} maps to {0, 1}, whose
# trace on X is {0, 1}, so the operator breaks the trace axiom.
TRACE_VIOLATION = RegularOperator(
    FiniteTopSpace.discrete(2),
    FiniteTopSpace(3, (0b001, 0b010, 0b111)),
    (0, 1),
    ((0, 0), (1, 3), (2, 2), (3, 7)),
)

INPUTS = {
    "min-term.json": '{"t": "min", "F": "3"}',
    "trace-op.json": operator_to_json(TRACE_VIOLATION),
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
    ("verify --suite usco-roundtrip", 0, "157d0136ac2fc6e175f7fe3ea7b8eefb2015b2b7d0f052bc6f437e77f52ef309"),
    # failing reports: exit 1 with a witness
    ("axioms --term {dir}/min-term.json --n 2", 1, "9d82436c9bd185ae41904b43c91f1e8abf6d72b5b57092c7d5f2f981ba0a4f45"),
    ("regular --validate {dir}/trace-op.json", 1, "f39ba0e37189e75a13247ed8742cfce9878d05c2056910c4fc4584d6ad62efbc"),
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

from __future__ import annotations

import concurrent.futures
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from supext import verify
from supext.cli import main
from supext.embed import operator_to_json
from supext.functionals import MAX_GENERATORS, Dirac, term_to_json
from supext.setkit import GroundSet
from supext.subbase import MAX_MEMBERS, Subbase, subbase_to_json
from supext.verify import two_in_three_operator


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestEnumerate:
    def test_count_only(self, capsys):
        code, obj = run_json(capsys, "enumerate", "--n", "4", "--count-only")
        assert code == 0 and obj == {"count": 12, "n": 4}

    def test_systems_listing(self, capsys):
        code, obj = run_json(capsys, "enumerate", "--n", "3")
        assert code == 0
        assert ["3", "5", "6"] in obj["systems"]

    def test_worker_determinism(self, capsys, tmp_path):
        outs = []
        for w in ("1", "2", "8"):
            f = tmp_path / f"out{w}.json"
            code = main(["enumerate", "--n", "5", "--workers", w, "--out", str(f)])
            assert code == 0
            outs.append(f.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_env_cap(self, capsys, monkeypatch):
        """The enumeration cap is a constant; the old SUPEXT_MAX_N knob is ignored."""
        monkeypatch.setenv("SUPEXT_MAX_N", "3")
        code, obj = run_json(capsys, "enumerate", "--n", "4", "--count-only")
        assert code == 0 and obj == {"count": 12, "n": 4}

    @pytest.mark.parametrize(
        "command",
        [
            "enumerate --n 0",
            "enumerate --n 20",
            "verify --suite counts --n 9",
            "verify --suite eq1 --n 8",
        ],
    )
    def test_bad_size(self, capsys, command):
        code = main(command.split())
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "input error" in captured.err and "Traceback" not in captured.err

    def test_env_cap_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("SUPEXT_MAX_N", "abc")
        code, obj = run_json(capsys, "enumerate", "--n", "4", "--count-only")
        assert code == 0 and obj == {"count": 12, "n": 4}

    def test_ghyper(self, capsys):
        code, obj = run_json(capsys, "ghyper", "--n", "3", "--count-only")
        assert code == 0 and obj["count"] == 18


class TestEvalAxioms:
    def test_eval(self, capsys, tmp_path):
        t = tmp_path / "t.json"
        t.write_text(term_to_json(Dirac(GroundSet(3), 1)))
        code, obj = run_json(capsys, "eval", "--term", str(t), "--f", "5,7,9")
        assert code == 0 and obj == {"value": "7"}

    def test_eval_rationals(self, capsys, tmp_path):
        t = tmp_path / "t.json"
        t.write_text(term_to_json(Dirac(GroundSet(2), 0)))
        code, obj = run_json(capsys, "eval", "--term", str(t), "--f", "1/3,2")
        assert code == 0 and obj == {"value": "1/3"}

    def test_axioms_pass(self, capsys, tmp_path):
        t = tmp_path / "t.json"
        t.write_text(term_to_json(Dirac(GroundSet(2), 0)))
        code, obj = run_json(
            capsys, "axioms", "--term", str(t), "--n", "2", "--trials", "50", "--seed", "42"
        )
        assert code == 0 and obj["pass"] is True

    def test_axioms_fail(self, capsys, tmp_path):
        t = tmp_path / "t.json"
        # bare max over two points: breaks homogeneity at negative scalars
        t.write_text('{"t": "max", "F": "3"}')
        code, obj = run_json(capsys, "axioms", "--term", str(t), "--n", "2")
        assert code == 1 and obj["pass"] is False and obj["witness"]

    def test_missing_file(self, capsys, tmp_path):
        for term in ("/nonexistent.json", str(tmp_path)):
            code, _ = run(capsys, "eval", "--term", term, "--f", "0,1")
            assert code == 2

    def test_empty_values(self, capsys, tmp_path):
        t = tmp_path / "t.json"
        t.write_text(term_to_json(Dirac(GroundSet(1), 0)))
        code = main(["eval", "--term", str(t), "--f", ""])
        err = capsys.readouterr().err
        assert code == 2 and "input error" in err

    def test_point_out_of_range(self, capsys, tmp_path):
        t = tmp_path / "t.json"
        t.write_text('{"t": "dirac", "x": 5}')
        code = main(["eval", "--term", str(t), "--f", "0,1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "input error" in captured.err and "Traceback" not in captured.err

    def test_malformed_term(self, capsys, tmp_path):
        t = tmp_path / "t.json"
        t.write_text('{"t": "nope"}')
        code, _ = run(capsys, "eval", "--term", str(t), "--f", "0,1")
        assert code == 2

    @pytest.mark.parametrize("minimal", [["3"], ["1", "3"]], ids=["not-maximal", "not-antichain"])
    def test_maxmin_not_maximal_linked(self, capsys, tmp_path, minimal):
        t = tmp_path / "t.json"
        t.write_text(json.dumps({"t": "maxmin", "minimal": minimal}))
        for argv in (["eval", "--f", "0,0,5"], ["axioms", "--n", "3"]):
            code = main(argv + ["--term", str(t)])
            err = capsys.readouterr().err
            assert code == 2 and "input error" in err

    def test_bad_rational_list(self, capsys, tmp_path):
        t = tmp_path / "t.json"
        t.write_text(term_to_json(Dirac(GroundSet(2), 0)))
        code, _ = run(capsys, "eval", "--term", str(t), "--f", "0,abc")
        assert code == 2


class TestExtend:
    def write_gens(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text(json.dumps({"n": 2, "generators": [{"b": ["1", "1"], "v": "1"}]}))
        return str(f)

    def test_interval(self, capsys, tmp_path):
        code, obj = run_json(capsys, "extend", "--generators", self.write_gens(tmp_path), "--phi", "0,1")
        assert code == 0
        assert obj == {"lower": "0", "upper": "1", "p": "1/2"}

    def test_choose(self, capsys, tmp_path):
        code, obj = run_json(
            capsys, "extend", "--generators", self.write_gens(tmp_path), "--phi", "0,1", "--choose", "upper"
        )
        assert code == 0 and obj["p"] == "1"

    def test_in_subspace_is_input_error(self, capsys, tmp_path):
        code = main(["extend", "--generators", self.write_gens(tmp_path), "--phi", "3,3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "input error: function already lies in the generated subspace" in captured.err

    @pytest.mark.parametrize("gen", [{"b": ["1", "1"], "v": "1/0"}, {"b": ["1/0", "1"], "v": "1"}])
    def test_zero_denominator(self, capsys, tmp_path, gen):
        f = tmp_path / "g.json"
        f.write_text(json.dumps({"n": 2, "generators": [gen]}))
        code = main(["extend", "--generators", str(f), "--phi", "0,1"])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err

    def test_malformed_generators(self, capsys, tmp_path):
        f = tmp_path / "g.json"
        f.write_text('{"n": 2}')
        code, _ = run(capsys, "extend", "--generators", str(f), "--phi", "0,1")
        assert code == 2


class TestSubbaseRegularUsco:
    def test_subbase_binary(self, capsys, tmp_path):
        f = tmp_path / "sb.json"
        f.write_text(subbase_to_json(Subbase(2, (0b01, 0b10))))
        code, obj = run_json(capsys, "subbase", "--check", "binary", "--in", str(f))
        assert code == 0 and obj["pass"] is True

    def test_subbase_binary_fail(self, capsys, tmp_path):
        f = tmp_path / "sb.json"
        f.write_text(subbase_to_json(Subbase(3, (0b011, 0b110, 0b101))))
        code, obj = run_json(capsys, "subbase", "--check", "binary", "--in", str(f))
        assert code == 1 and sorted(obj["witness"]) == ["3", "5", "6"]

    def test_subbase_normal_fail(self, capsys, tmp_path):
        f = tmp_path / "sb.json"
        f.write_text(subbase_to_json(Subbase(3, (0b001, 0b010))))
        code, obj = run_json(capsys, "subbase", "--check", "normal", "--in", str(f))
        assert code == 1

    def op_file(self, tmp_path):
        f = tmp_path / "op.json"
        f.write_text(operator_to_json(two_in_three_operator()))
        return str(f)

    def test_regular_validate(self, capsys, tmp_path):
        code, obj = run_json(capsys, "regular", "--validate", self.op_file(tmp_path))
        assert code == 0 and obj["pass"] is True

    def test_usco(self, capsys, tmp_path):
        code, obj = run_json(capsys, "usco", "--from", self.op_file(tmp_path))
        assert code == 0 and obj["usc"] is True
        assert obj["values"][0] == [["1"]]
        assert obj["values"][2] == [["1"], ["2"]]

    def test_roundtrip(self, capsys, tmp_path):
        code, obj = run_json(capsys, "roundtrip", self.op_file(tmp_path))
        assert code == 0 and obj["pass"] is True


class TestVerify:
    @pytest.mark.parametrize(
        "suite", ["counts", "eq1", "axioms", "functor-laws", "subbase-lambda", "usco-roundtrip"]
    )
    def test_suites_pass(self, capsys, suite):
        code, obj = run_json(capsys, "verify", "--suite", suite, "--n", "3")
        assert code == 0
        assert obj["failures"] == []
        assert obj["suite"] == suite and obj["anchor"]

    def test_axioms_refuses_n7_before_enumerating(self, capsys, monkeypatch):
        """A term per system at n=7 would take hours to check."""
        monkeypatch.setattr(verify, "enumerate_mls", lambda *a, **k: pytest.fail("enumerated"))
        code = main(["verify", "--suite", "axioms", "--n", "7"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "term zoo capped at n <= 6" in captured.err and "Traceback" not in captured.err

    def test_counts_shape(self, capsys):
        code, obj = run_json(capsys, "verify", "--suite", "counts", "--n", "5")
        assert code == 0
        assert obj["expected"] == 81 and obj["actual"] == 81 and obj["pass"] is True

    def test_eq1_check_count(self, capsys):
        code, obj = run_json(capsys, "verify", "--suite", "eq1", "--n", "3")
        assert obj["checks_run"] == 4 * 4**3

    def test_unknown_suite(self, capsys):
        code, _ = run(capsys, "verify", "--suite", "bogus")
        assert code == 2

    def test_csv_summary(self, capsys):
        code, out = run(capsys, "verify", "--suite", "counts", "--n", "4", "--format", "csv-summary")
        assert code == 0
        assert out.splitlines()[0] == "suite,n,checks_run,failures"
        assert out.splitlines()[1] == "counts,4,1,0"

    @pytest.mark.parametrize("suite", ["eq1", "counts", "functor-laws", "subbase-lambda", "usco-roundtrip"])
    def test_worker_determinism(self, suite, tmp_path):
        outs = []
        for w in ("1", "2", "8"):
            f = tmp_path / f"{suite}-{w}.json"
            assert main(["verify", "--suite", suite, "--n", "4", "--workers", w, "--out", str(f)]) == 0
            outs.append(f.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize("command", ["enumerate --n 4", "verify --suite eq1 --n 4"])
    def test_workers_below_one(self, capsys, command, workers):
        with pytest.raises(SystemExit) as exc:
            main(command.split() + ["--workers", workers])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "--workers" in err and "Traceback" not in err

    @pytest.mark.parametrize("workers", ["257", "100000"])
    @pytest.mark.parametrize("command", ["enumerate --n 5", "verify --suite eq1 --n 4"])
    def test_workers_above_cap(self, capsys, monkeypatch, command, workers):
        """A count above parallel.MAX_WORKERS is refused before any pool is
        asked for; the fake pool would record one if it were."""
        started = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda **kw: started.append(kw))
        with pytest.raises(SystemExit) as exc:
            main(command.split() + ["--workers", workers])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "--workers" in err and "Traceback" not in err
        assert started == []

    def test_axioms_determinism_same_seed(self, tmp_path):
        outs = []
        for i in range(2):
            f = tmp_path / f"ax{i}.json"
            assert main(["verify", "--suite", "axioms", "--n", "3", "--seed", "7", "--out", str(f)]) == 0
            outs.append(f.read_bytes())
        assert outs[0] == outs[1]


def run_quiet(argv: list[str]) -> tuple[int, str, str]:
    """``main`` with its output captured; an argparse exit counts as a return."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Input files for the exit-contract fuzz test.  Each field is drawn of the
# right shape or of any other JSON shape, each file is written as JSON,
# truncated JSON or raw bytes, and sizes stay at most 4 so every case runs
# in milliseconds.
_HEX = st.one_of(
    st.integers(min_value=0, max_value=7).map(lambda m: format(m, "x")),
    st.sampled_from(["-1", "0x1", "1_0", "f", "10000", "zz", "", " 3"]),
)
_MASK = st.integers(min_value=-2, max_value=15).map(lambda m: format(m, "x"))
_RATIONAL = st.one_of(
    st.sampled_from(["0", "1", "-2", "1/2", "3/4", "0.25", ".5", "1e5", "1_000", "inf", "1/0", "-", ""]),
    st.integers(min_value=-3, max_value=3),
)
_JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-3, max_value=8),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=3),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner, max_size=3)),
    max_leaves=6,
)
_POINT = st.integers(min_value=-1, max_value=4)


def _or_other(values):
    """A field of the right shape, or any other JSON value in its place."""
    return st.one_of(values, _JSON)


def _near(bases, fields):
    """A drawn valid object of ``bases`` with at most one field drawn anew,
    so a bad field reaches the checks past those of the other fields."""
    return st.tuples(bases, st.sampled_from([None, *fields])).flatmap(
        lambda pair: st.just(pair[0]) if pair[1] is None else fields[pair[1]].map(lambda v: {**pair[0], pair[1]: v})
    )


_TERM_LEAVES = st.one_of(
    st.fixed_dictionaries({"t": st.just("dirac"), "x": _or_other(_POINT)}),
    st.fixed_dictionaries({"t": st.just("maxmin"), "minimal": _or_other(st.lists(_HEX, max_size=4))}),
    st.fixed_dictionaries({"t": st.sampled_from(["min", "max"]), "F": _or_other(_HEX)}),
    st.fixed_dictionaries({"t": st.just("linear"), "w": _or_other(st.lists(_RATIONAL, max_size=4))}),
    # a known tag without its fields, or an unknown one
    st.fixed_dictionaries({"t": st.sampled_from(["dirac", "maxmin", "min", "max", "linear", "convex", "precompose", "nope"])}),
    _JSON,
)
_TERM = st.recursive(
    _TERM_LEAVES,
    lambda inner: st.one_of(
        st.fixed_dictionaries(
            {"t": st.just("convex"), "w": _or_other(st.lists(_RATIONAL, max_size=3)), "parts": _or_other(st.lists(inner, max_size=3))}
        ),
        st.fixed_dictionaries({"t": st.just("precompose"), "map": _or_other(st.lists(_POINT, max_size=4)), "inner": inner}),
    ),
    max_leaves=5,
)
_GENERATORS = _near(
    st.sampled_from([{"n": 2, "generators": [{"b": ["0", "1"], "v": "1/2"}]}, {"n": 3, "generators": []}]),
    {
        "n": _or_other(_POINT),
        "generators": _or_other(
            st.lists(
                _or_other(st.fixed_dictionaries({"b": _or_other(st.lists(_RATIONAL, max_size=4)), "v": _or_other(_RATIONAL)})),
                max_size=3,
            )
        ),
    },
)
_SUBBASE = _near(
    st.just({"carrier": 3, "members": ["3", "6"]}),
    {"carrier": _or_other(_POINT), "members": _or_other(st.lists(_HEX, max_size=4))},
)
_SPACE = _near(
    st.sampled_from([{"n": 1, "min_nbhd": ["1"]}, {"n": 2, "min_nbhd": ["1", "2"]}, {"n": 2, "min_nbhd": ["1", "3"]}]),
    {"n": _or_other(_POINT), "min_nbhd": _or_other(st.lists(_HEX, max_size=4))},
)
_OPERATOR = _near(
    st.sampled_from(
        [json.loads(operator_to_json(two_in_three_operator()))]
        + [{"X": {"n": 1, "min_nbhd": ["1"]}, "Y": y, "inject": [0], "table": [["0", "0"], ["1", "1"]]}
           for y in ({"n": 1, "min_nbhd": ["1"]}, {"n": 2, "min_nbhd": ["1", "2"]})]
    ).flatmap(
        # the same opens of X, each with its image kept or drawn anew
        lambda base: st.tuples(*(st.one_of(st.just(image), _MASK) for _, image in base["table"])).map(
            lambda images: {**base, "table": [[u, image] for (u, _), image in zip(base["table"], images)]}
        )
    ),
    {
        "X": _SPACE,
        "Y": _SPACE,
        "inject": _or_other(st.lists(_POINT, max_size=3)),
        "table": _or_other(st.lists(_or_other(st.lists(_HEX, max_size=3)), max_size=5)),
    },
)


def _file(objects):
    """An input file's bytes: JSON of a drawn object, cut short, or raw bytes."""
    text = objects.map(json.dumps)
    return st.one_of(
        text.map(str.encode),
        st.one_of(
            st.tuples(text, st.integers(min_value=0, max_value=40)).map(lambda tk: tk[0][: tk[1]].encode()),
            st.sampled_from([b"\xff\xfe{", b"\x80", b"{\"n\": \xe9}", b"", b"[" * 2000]),
            st.binary(max_size=6),
        ),
    )


_VALUES = st.lists(_RATIONAL.map(str), max_size=4).map(",".join)
_COMMANDS = {
    "term": st.one_of(
        st.builds(lambda f: ["eval", "--f=" + f], _VALUES),
        st.builds(
            lambda n, normalized: ["axioms", "--n", str(n), "--trials", "3"] + ["--normalized"] * normalized,
            _POINT,
            st.booleans(),
        ),
    ),
    "generators": st.builds(
        lambda phi, choose: ["extend", "--phi=" + phi, "--choose", choose], _VALUES, st.sampled_from(["mid", "lower", "upper"])
    ),
    "subbase": st.sampled_from([["subbase", "--check", "binary"], ["subbase", "--check", "normal"]]),
    "operator": st.sampled_from([["regular"], ["usco"], ["roundtrip"]]),
}
_FILES = {"term": _file(_TERM), "generators": _file(_GENERATORS), "subbase": _file(_SUBBASE), "operator": _file(_OPERATOR)}
_FILE_OPTION = {"eval": "--term", "axioms": "--term", "extend": "--generators", "subbase": "--in",
                "regular": "--validate", "usco": "--from", "roundtrip": None}


class TestExitContract:
    # n = 6 and 7 are valid but slow, so sizes come from below or above them
    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(["enumerate", "ghyper", "verify --suite counts"]),
        n=st.one_of(st.integers(min_value=-2, max_value=5), st.integers(min_value=8, max_value=40)),
        workers=st.one_of(st.none(), st.integers(min_value=-2, max_value=3)),
    )
    def test_sizes_and_workers(self, command, n, workers):
        argv = command.split() + ["--n", str(n)]
        if workers is not None:
            argv += ["--workers", str(workers)]
        code, out, err = run_quiet(argv)
        # none of these commands has a witnessed failure, so never exit 1
        assert code in (0, 2) and "Traceback" not in err
        if code == 0:
            assert json.loads(out)["n"] == n
        else:
            assert out == "" and err

    @pytest.mark.parametrize(
        "command",
        [
            "ghyper --n 6",
            "subbase --check binary --in {sb}",
            "regular --validate {op}",
            "enumerate --n 8",
            "verify --suite subbase-lambda --n 7",
            "subbase --check normal --in {sb_members}",
            "subbase --check binary --in {sb_members}",
            "extend --generators {gens} --phi 0,1",
        ],
    )
    def test_size_caps(self, monkeypatch, tmp_path, command):
        """Every size cap is an input error, found before any enumeration."""
        sb = tmp_path / "sb.json"
        sb.write_text(json.dumps({"carrier": 70000, "members": ["1"]}))
        # one member and one generator above their caps
        sb_members = tmp_path / "sb_members.json"
        sb_members.write_text(json.dumps({"carrier": 2, "members": ["1"] * (MAX_MEMBERS + 1)}))
        gens = tmp_path / "gens.json"
        gens.write_text(json.dumps({"n": 2, "generators": [{"b": ["0", "1"], "v": "1/2"}] * (MAX_GENERATORS + 1)}))
        op = tmp_path / "op.json"
        y = {"n": 17, "min_nbhd": [format(1 << x, "x") for x in range(17)]}
        op.write_text(json.dumps(
            {"X": {"n": 1, "min_nbhd": ["1"]}, "Y": y, "inject": [0], "table": [["0", "0"], ["1", "1"]]}
        ))
        monkeypatch.setattr(verify, "enumerate_mls", None)
        code, out, err = run_quiet(command.format(sb=sb, op=op, sb_members=sb_members, gens=gens).split())
        assert code == 2 and out == ""
        assert "input error" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "table, witness",
        [([], [0]), ([["0", "0"]], [1]), ([["0", "0"], ["1", "1"], ["2", "0"]], [2])],
        ids=["empty", "open-missing", "key-not-open"],
    )
    def test_table_coverage_has_a_witness(self, tmp_path, table, witness):
        """A table that does not cover the opens of the domain is a witnessed
        failure: the least open it lacks, or else the least key that is no open."""
        op = tmp_path / "op.json"
        space = {"n": 1, "min_nbhd": ["1"]}
        op.write_text(json.dumps({"X": space, "Y": space, "inject": [0], "table": table}))
        code, out, err = run_quiet(["regular", "--validate", str(op)])
        assert code == 1 and err == ""
        report = json.loads(out)
        assert report["axiom"] == "table must cover exactly the opens of the domain"
        assert report["witness"] == witness

    @pytest.mark.parametrize("kind", ["term", "generators", "subbase", "operator"])
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_input_files(self, tmp_path_factory, kind, data):
        """Whatever an input file holds, and whatever --f or --phi lists,
        every command exits 0, 1 with a witness, or 2 with no report."""
        argv = data.draw(_COMMANDS[kind])
        f = tmp_path_factory.getbasetemp() / f"{kind}.json"
        f.write_bytes(data.draw(_FILES[kind]))
        option = _FILE_OPTION[argv[0]]
        argv = argv + ([option, str(f)] if option else [str(f)])
        code, out, err = run_quiet(argv)
        assert code in (0, 1, 2) and "Traceback" not in err
        if code == 1:
            report = json.loads(out)
            assert report.get("witness") or report.get("failures")
        elif code == 2:
            assert out == "" and err.startswith("supext: input error: ")
        else:
            json.loads(out)

    @pytest.mark.parametrize(
        "command, kind",
        [
            ("eval --f 0 --term", "term"),
            ("axioms --n 1 --term", "term"),
            ("extend --phi 0,1 --generators", "generators"),
            ("subbase --check binary --in", "subbase"),
            ("regular --validate", "operator"),
            ("usco --from", "operator"),
            ("roundtrip", "operator"),
        ],
    )
    def test_undecodable_file(self, tmp_path, command, kind):
        """A file that is not text is a malformed file of its kind, never a
        traceback from decoding it."""
        f = tmp_path / "in.json"
        f.write_bytes(b"\xff\xfe{")
        code, out, err = run_quiet(command.split() + [str(f)])
        assert code == 2 and out == ""
        assert f"input error: malformed {kind} file: " in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "y, table, axiom, witness",
        [
            ({"n": 2, "min_nbhd": ["1", "2"]}, [["0", "0"], ["1", "5"]], "image not open", [1, 5]),
            ({"n": 2, "min_nbhd": ["1", "2"]}, [["0", "0"], ["1", "1"], ["1", "3"]],
             "table must cover exactly the opens of the domain", [1]),
        ],
        ids=["image-past-y", "open-listed-twice"],
    )
    def test_operator_failures_have_a_witness(self, tmp_path, y, table, axiom, witness):
        """An image outside Y and an open listed twice fail ``regular`` with a
        witness, and ``usco`` and ``roundtrip`` refuse the operator."""
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"X": {"n": 1, "min_nbhd": ["1"]}, "Y": y, "inject": [0], "table": table}))
        code, out, err = run_quiet(["regular", "--validate", str(op)])
        assert code == 1 and err == ""
        assert json.loads(out) == {"pass": False, "axiom": axiom, "witness": witness}
        for command in (["usco", "--from"], ["roundtrip"]):
            code, out, err = run_quiet(command + [str(op)])
            assert code == 2 and out == ""
            assert f"input error: operator fails {axiom}" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["term", "subbase", "operator"])
    @pytest.mark.parametrize(
        "mask",
        ["0x3", " 1_1 ", "+3", "-1", "", "A", "\uff13"],
        ids=["prefix-0x", "spaces-underscore", "sign-plus", "sign-minus", "empty", "upper-case", "full-width"],
    )
    def test_mask_not_in_hex_digits(self, tmp_path, kind, mask):
        """A mask is a string of the hex digits 0-9a-f that supext writes; a
        sign, "0x", "_", spaces, upper case or other scripts' digits, which
        int(s, 16) would read, are an input error naming the field."""
        files = {
            "term": (["eval", "--f", "1,2,3,4,5", "--term"], {"t": "min", "F": mask}, "F"),
            "subbase": (["subbase", "--check", "binary", "--in"], {"carrier": 4, "members": ["3", mask]}, "members"),
            "operator": (["regular", "--validate"], {"X": {"n": 1, "min_nbhd": ["1"]}, "Y": {"n": 1, "min_nbhd": ["1"]},
                                                     "inject": [0], "table": [["0", "0"], ["1", mask]]}, "table entry"),
        }
        command, obj, field = files[kind]
        f = tmp_path / "in.json"
        f.write_text(json.dumps(obj))
        code, out, err = run_quiet(command + [str(f)])
        assert code == 2 and out == ""
        assert f"input error: a mask in {field} must be hex digits 0-9a-f, got {mask!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, message",
        [
            ("extend --generators {bad_gens} --phi 0,1", "value 5 outside the range of its generator"),
            ("extend --generators {gens} --phi 3,3", "function already lies in the generated subspace"),
            ("usco --from {op}", "operator fails trace"),
            ("roundtrip {op}", "operator fails trace"),
            ("usco --from {indiscrete}", "domain is not T1: point 0"),
            ("roundtrip {indiscrete}", "domain is not T1: point 0"),
            ("verify --suite functor-laws --n 0", "ground set must have at least one point"),
            ("verify --suite functor-laws --n -2", "ground set must have at least one point"),
            ("verify --suite usco-roundtrip --n -7", "ground set must have at least one point"),
            ("eval --term {dirac_float} --f 0,1", "x must be an integer, got 0.7"),
            ("eval --term {dirac_bool} --f 0,1", "x must be an integer, got True"),
            ("eval --term {maxmin_str} --f 0,1", "minimal must be a list, got '1'"),
            ("regular --validate {op_float}", "n must be an integer, got 1.9"),
            ("extend --generators {gens_float} --phi 0,1", "n must be an integer, got 2.5"),
            ("subbase --check binary --in {sb_str}", "members must be a list, got '12'"),
            ("extend --generators {gens_bool} --phi 0,1", "v must be a rational string or an integer, got True"),
            ("extend --generators {gens_float_value} --phi 0,1", "v must be a rational string or an integer, got 0.1"),
            ("eval --term {linear_bool} --f 0,1", "w must be a rational string or an integer, got True"),
            ("eval --term {precompose_3000} --f 1", "term nested deeper than 100 nodes"),
            ("eval --term {precompose_200000} --f 1", "term nested deeper than 100 nodes"),
            ("eval --term {convex_600} --f 1", "term nested deeper than 100 nodes"),
            ("eval --term {convex_100} --f 1", "term nested deeper than 100 nodes"),
            ("eval --term {dirac} --f 1e5000", "bad rational '1e5000' in --f"),
            ("eval --term {dirac} --f 1e10000000", "bad rational '1e10000000' in --f"),
            ("eval --term {linear_exponent} --f 0,1", "bad rational '1E3' in w"),
            ("extend --generators {gens_exponent} --phi 0,1", "bad rational '1e5000' in v"),
            ("extend --generators {gens} --phi 0,2.5e1", "bad rational '2.5e1' in --phi"),
            ("eval --term {convex_diracs} --f {tiny}", "result has more than 4300 digits"),
            ("extend --generators {gens3} --phi {tiny},0", "result has more than 4300 digits"),
            ("axioms --n 2 --term {convex_huge}", "result has more than 4300 digits"),
            ("regular --validate {op_str_entries}", "table entry must be a list, got '00'"),
            ("regular --validate {op_long_entry}", "table entry must have two items, got ['1', '1', '1']"),
            ("extend --generators {gens_truncated} --phi 0,1", "malformed generators file: Expecting"),
            ("axioms --n 2 --term {dirac} --trials 50001", "trials 50001 exceeds 50000"),
            ("verify --suite axioms --n 2 --trials 50001", "trials 50001 exceeds 50000"),
            ("eval --term {dirac} --f 1,,2", "bad rational '' in --f"),
            ("eval --term {dirac} --f 1,2,", "bad rational '' in --f"),
            ("extend --generators {gens} --phi 0,", "bad rational '' in --phi"),
        ],
        ids=[
            "extend-value-out-of-range",
            "extend-in-subspace",
            "usco-fails-trace",
            "roundtrip-fails-trace",
            "usco-non-t1",
            "roundtrip-non-t1",
            "functor-laws-n0",
            "functor-laws-n-2",
            "usco-roundtrip-n-7",
            "dirac-float-point",
            "dirac-bool-point",
            "maxmin-string-members",
            "operator-float-size",
            "extend-float-size",
            "subbase-string-members",
            "extend-bool-value",
            "extend-float-value",
            "linear-bool-weights",
            "precompose-3000-deep",
            "precompose-200000-deep",
            "convex-600-deep",
            "convex-100-deep",
            "eval-exponent",
            "eval-huge-exponent",
            "linear-exponent-weight",
            "extend-exponent-value",
            "extend-exponent-phi",
            "eval-huge-result",
            "extend-huge-result",
            "axioms-huge-witness",
            "operator-string-entries",
            "operator-long-entry",
            "extend-truncated-json",
            "axioms-trials-above-cap",
            "verify-axioms-trials-above-cap",
            "eval-empty-value",
            "eval-trailing-comma",
            "extend-trailing-comma",
        ],
    )
    def test_precondition_errors(self, tmp_path, command, message):
        """A broken precondition is an input error: exit 2 and no report,
        never the witnessed failure that exit 1 stands for."""
        gens, bad_gens = tmp_path / "g.json", tmp_path / "bad.json"
        gens.write_text(json.dumps({"n": 2, "generators": [{"b": ["1", "1"], "v": "1"}]}))
        bad_gens.write_text(json.dumps({"n": 2, "generators": [{"b": ["0", "1"], "v": "5"}]}))
        op = tmp_path / "op.json"
        # {0} goes to {1}, which misses the embedded point 0: fails trace
        op.write_text(json.dumps(
            {"X": {"n": 1, "min_nbhd": ["1"]}, "Y": {"n": 2, "min_nbhd": ["1", "2"]},
             "inject": [0], "table": [["0", "0"], ["1", "2"]]}
        ))
        # the identity on the indiscrete 2-point space: regular, but not T1
        indiscrete = tmp_path / "indiscrete.json"
        space = {"n": 2, "min_nbhd": ["3", "3"]}
        indiscrete.write_text(json.dumps(
            {"X": space, "Y": space, "inject": [0, 1], "table": [["0", "0"], ["3", "3"]]}
        ))
        q1, q2 = 10**3000 + 1, 10**3000 + 3
        point = {"n": 1, "min_nbhd": ["1"]}
        # JSON fields of the wrong type: never truncated, coerced or iterated
        files = {
            "dirac_float": {"t": "dirac", "x": 0.7},
            "dirac_bool": {"t": "dirac", "x": True},
            "maxmin_str": {"t": "maxmin", "minimal": "1"},
            "op_float": {"X": {"n": 1.9, "min_nbhd": ["1"]}, "Y": {"n": 1, "min_nbhd": ["1"]},
                         "inject": [0], "table": [["0", "0"], ["1", "1"]]},
            "gens_float": {"n": 2.5, "generators": [{"b": ["0", "1"], "v": "1"}]},
            "sb_str": {"carrier": 2, "members": "12"},
            "gens_bool": {"n": 2, "generators": [{"b": ["0", "1"], "v": True}]},
            "gens_float_value": {"n": 2, "generators": [{"b": ["0", "1"], "v": 0.1}]},
            "linear_bool": {"t": "linear", "w": [True, False]},
            # Fraction reads an exponent, and would build 10**10000000 digit by digit
            "dirac": {"t": "dirac", "x": 0},
            "linear_exponent": {"t": "linear", "w": ["1E3", "0"]},
            "gens_exponent": {"n": 2, "generators": [{"b": ["1", "1"], "v": "1e5000"}]},
            # exact results whose 4201-digit denominators multiply past the
            # digit limit of Python's integer-to-string conversion
            "convex_diracs": {"t": "convex", "w": ["1/3", "2/3"], "parts": [{"t": "dirac", "x": 0}, {"t": "dirac", "x": 1}]},
            "gens3": {"n": 3, "generators": [{"b": ["0", "1", "2"], "v": "1"}]},
            # fails homogeneity with a witness whose denominators are q1*q2
            "convex_huge": {"t": "convex", "w": [f"1/{q1}", f"{q1 - 1}/{q1}"], "parts": [
                {"t": "min", "F": "3"},
                {"t": "convex", "w": [f"1/{q2}", f"{q2 - 1}/{q2}"],
                 "parts": [{"t": "dirac", "x": 0}, {"t": "dirac", "x": 1}]},
            ]},
            # a table entry is a pair, never a string read character by character
            "op_str_entries": {"X": point, "Y": point, "inject": [0], "table": ["00", "11"]},
            "op_long_entry": {"X": point, "Y": point, "inject": [0], "table": [["0", "0"], ["1", "1", "1"]]},
        }
        files = {name: json.dumps(obj) for name, obj in files.items()}
        # nested past the depth cap, some too deep for the JSON reader of
        # some Python version (json.dumps cannot write these): each is
        # refused by the cap, on every version
        dirac = '{"t": "dirac", "x": 0}'
        for k in (3000, 200_000):
            files[f"precompose_{k}"] = '{"t": "precompose", "map": [0], "inner": ' * k + dirac + "}" * k
        files["convex_600"] = '{"t": "convex", "w": ["1"], "parts": [' * 600 + dirac + "]}" * 600
        files["convex_100"] = '{"t": "convex", "w": ["1"], "parts": [' * 100 + dirac + "]}" * 100
        files["gens_truncated"] = '{"n": 2, "generators": ['
        for name, text in files.items():
            files[name] = tmp_path / f"{name}.json"
            if f"{{{name}}}" in command:  # only the files the command reads: one is 8 MB
                files[name].write_text(text)
        tiny = ",".join(f"1/1{'0' * 4199}{d}" for d in (1, 3))
        argv = command.format(gens=gens, bad_gens=bad_gens, op=op, indiscrete=indiscrete, tiny=tiny, **files).split()
        code, out, err = run_quiet(argv)
        assert code == 2 and out == ""
        assert f"input error: {message}" in err and "Traceback" not in err

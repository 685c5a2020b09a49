from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from supext import verify
from supext.cli import main
from supext.embed import operator_to_json
from supext.functionals import Dirac, term_to_json
from supext.setkit import GroundSet
from supext.subbase import Subbase, subbase_to_json
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
        ],
    )
    def test_size_caps(self, monkeypatch, tmp_path, command):
        """Every size cap is an input error, found before any enumeration."""
        sb = tmp_path / "sb.json"
        sb.write_text(json.dumps({"carrier": 70000, "members": ["1"]}))
        op = tmp_path / "op.json"
        y = {"n": 17, "min_nbhd": [format(1 << x, "x") for x in range(17)]}
        op.write_text(json.dumps(
            {"X": {"n": 1, "min_nbhd": ["1"]}, "Y": y, "inject": [0], "table": [["0", "0"], ["1", "1"]]}
        ))
        monkeypatch.setattr(verify, "enumerate_mls", None)
        code, out, err = run_quiet(command.format(sb=sb, op=op).split())
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
        # JSON fields of the wrong type: never truncated, coerced or iterated
        files = {
            "dirac_float": {"t": "dirac", "x": 0.7},
            "dirac_bool": {"t": "dirac", "x": True},
            "maxmin_str": {"t": "maxmin", "minimal": "1"},
            "op_float": {"X": {"n": 1.9, "min_nbhd": ["1"]}, "Y": {"n": 1, "min_nbhd": ["1"]},
                         "inject": [0], "table": [["0", "0"], ["1", "1"]]},
            "gens_float": {"n": 2.5, "generators": [{"b": ["0", "1"], "v": "1"}]},
            "sb_str": {"carrier": 2, "members": "12"},
        }
        for name, obj in files.items():
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps(obj))
        argv = command.format(gens=gens, bad_gens=bad_gens, op=op, indiscrete=indiscrete, **files).split()
        code, out, err = run_quiet(argv)
        assert code == 2 and out == ""
        assert f"input error: {message}" in err and "Traceback" not in err

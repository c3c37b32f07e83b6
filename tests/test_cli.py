import contextlib
import io
import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_koszul_columns import bundle_exprs
from spinorcalc.bbw import MAX_TWIST
from spinorcalc import cli, intersect, mukai, sections
from spinorcalc.cli import SUITES, VerifyReport, run, verify_suite
from spinorcalc.mukai import KERNELS, NAMED_CLASSES


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBBWCommand:
    def test_table_output(self, capsys):
        code, out, _ = invoke(capsys, "bbw", "--bundle", "O(1)")
        assert code == 0
        assert out.strip() == "{0: 16}"

    def test_weight_input(self, capsys):
        code, out, _ = invoke(capsys, "bbw", "--weight", "1/2,1/2,1/2,1/2,1/2")
        assert code == 0
        assert out.strip() == "{0: 16}"

    def test_json_output(self, capsys):
        code, out, _ = invoke(capsys, "bbw", "--bundle", "dual(U)", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"h": {"0": 10}, "euler": 10}

    def test_syntax_error_exit_2(self, capsys):
        code, _, err = invoke(capsys, "bbw", "--bundle", "Q")
        assert code == 2
        assert "offset 0" in err

    def test_weight_outside_lattice_exit_1(self, capsys):
        code, out, err = invoke(capsys, "bbw", "--weight", "1/3,0,0,0,0")
        assert (code, out) == (1, "")
        assert err == "error: coordinates must be integers or half-integers: 1/3,0,0,0,0\n"

    def test_weight_mixed_parity_exit_1(self, capsys):
        code, out, err = invoke(capsys, "bbw", "--weight", "1/2,0,0,0,0")
        assert (code, out) == (1, "")
        assert err == "error: mixed integer/half-integer coordinates: 1/2,0,0,0,0\n"

    @pytest.mark.parametrize("text", ["a,b,c,d,e", "1,2", "1/0,0,0,0,0"])
    def test_weight_syntax_error_exit_2(self, capsys, text):
        code, out, err = invoke(capsys, "bbw", "--weight", text)
        assert (code, out) == (2, "")
        assert err.startswith("syntax error: ") and err.count("\n") == 1

    def test_empty_weight_exit_2(self, capsys):
        # an empty --weight is a weight, not a missing one
        code, out, err = invoke(capsys, "bbw", "--weight", "")
        assert (code, out, err) == (2, "", "syntax error: expected 5 comma-separated rationals, "
                                           "got 1\n")

    def test_non_ascii_digit_twist_exit_2(self, capsys):
        code, out, err = invoke(capsys, "bbw", "--bundle", "O(\u0967)")
        assert (code, out) == (2, "")
        assert err == "syntax error: expected integer at offset 2\n"

    def test_usage_error_exit_2(self, capsys):
        assert invoke(capsys, "bbw")[0] == 2
        assert invoke(capsys, "nonsense")[0] == 2


class TestExpressionBounds:
    # unbounded, DEEP overflows the recursion of the parser and WIDE that of the builder;
    # a twist of 5000 digits passes Python's integer-string limit, one of 400 prints
    # a 4001-character table
    DEEP = "dual(" * 600 + "O" + ")" * 600
    WIDE = "*".join(["O"] * 1500)
    LONG_TWIST = "O(" + "9" * 5000 + ")"
    WIDE_TWIST = "O(" + "9" * 400 + ")"
    NEXT_TWIST = f"U(-{MAX_TWIST + 1})"

    @pytest.mark.parametrize("expr", [DEEP, WIDE, LONG_TWIST, WIDE_TWIST, NEXT_TWIST],
                             ids=["nested-dual", "many-factors", "long-twist", "wide-twist",
                                  "next-twist"])
    @pytest.mark.parametrize("command", [["bbw"], ["koszul", "--codim", "7"]])
    def test_over_bound_exit_2(self, capsys, command, expr):
        code, out, err = invoke(capsys, *command, "--bundle", expr)
        assert (code, out) == (2, "")
        assert err.startswith("syntax error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("twist", ["9" * 4000, str(MAX_TWIST + 1), f"-{MAX_TWIST + 1}"],
                             ids=["long", "next", "next-negative"])
    def test_koszul_twist_over_bound_exit_2(self, capsys, twist):
        code, out, err = invoke(capsys, "koszul", "--codim", "7", "--bundle", "O",
                                "--twist", twist)
        assert (code, out, err) == (
            2, "", f"syntax error: twist outside [-{MAX_TWIST}, {MAX_TWIST}] at offset 0\n")

    def test_koszul_twist_at_bound(self, capsys):
        code, out, _ = invoke(capsys, "koszul", "--codim", "7", "--bundle", "O",
                              "--twist", str(-MAX_TWIST), "--format", "json")
        k = -MAX_TWIST   # chi(O_X(k)) = 2k^3 + 3k^2 + 3k + 1 on the threefold
        assert code == 0 and json.loads(out)["euler"] == 2 * k ** 3 + 3 * k ** 2 + 3 * k + 1


class TestKoszulCommand:
    def test_vanishing_table(self, capsys):
        code, out, _ = invoke(capsys, "koszul", "--codim", "7", "--bundle", "U")
        assert code == 0
        assert "status: exact" in out and "h: {}" in out

    def test_twist_flag(self, capsys):
        code, out, _ = invoke(capsys, "koszul", "--codim", "7", "--bundle",
                              "dual(U)*U", "--twist", "-1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"status": "exact", "h": {"3": 1}, "euler": -1}

    def test_single_degree_bound_is_exact(self, capsys):
        # the clamped page totals leave degree 0 alone, so chi = 755 is h^0;
        # this printed the page total as a bound, "status: euler_only", "h: {0: 1854}"
        code, out, _ = invoke(capsys, "koszul", "--codim", "7", "--bundle", "dual(U)*U",
                              "--twist", "2")
        assert (code, out) == (0, "status: exact\nh: {0: 755}\neuler: 755\n")

    def test_curve_structure_sheaf_has_genus_7(self, capsys):
        # two degrees in [0, 1] with joinable cells; this printed the clamped
        # page totals as bounds, "status: euler_only", "h: {0: 1, 1: 16}"
        code, out, _ = invoke(capsys, "koszul", "--codim", "9", "--bundle", "O")
        assert (code, out) == (0, "status: exact\nh: {0: 1, 1: 7}\neuler: -6\n")

    def test_codim_error_exit_1(self, capsys):
        code, _, err = invoke(capsys, "koszul", "--codim", "12", "--bundle", "O")
        assert code == 1
        assert "codim" in err

    def test_json_round_trip(self, capsys):
        _, out, _ = invoke(capsys, "koszul", "--codim", "8", "--bundle", "O",
                           "--format", "json")
        assert json.dumps(json.loads(out)) == out.strip()


class TestChernCommand:
    def test_eta2(self, capsys):
        code, out, _ = invoke(capsys, "chern", "--target", "eta2")
        assert code == 0
        assert out.strip() == "eta^2 = 14"

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_computation_error_exit_1(self, capsys, monkeypatch, fmt):
        def fail():
            raise ArithmeticError("no solution")
        monkeypatch.setattr(intersect, "eta_square_solve", fail)
        code, out, err = invoke(capsys, "chern", "--target", "eta2", "--format", fmt)
        assert (code, out, err) == (1, "", "error: no solution\n")

    def test_universal_json(self, capsys):
        code, out, _ = invoke(capsys, "chern", "--target", "E1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 2
        assert payload["c"]["2"] == {"H*pt": "7", "L*1": "5", "eta": "1"}
        assert json.dumps(payload) == out.strip()

    def test_tautological(self, capsys):
        code, out, _ = invoke(capsys, "chern", "--target", "U-plus", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 5
        assert payload["ch"] == {"1": "5", "H": "-2", "P": "1"}


class TestFMCommand:
    def test_named_class(self, capsys):
        code, out, _ = invoke(capsys, "fm", "--kernel", "phi1-shriek", "--apply", "O_R")
        assert code == 0
        assert out.strip() == "2*pt (on C)"

    def test_json_class_input(self, capsys):
        code, out, _ = invoke(capsys, "fm", "--kernel", "phi1-shriek",
                              "--apply", '{"L": "2"}', "--format", "json")
        assert code == 0
        assert json.loads(out) == {"model": "C", "class": {"pt": "2"}}

    def test_gram(self, capsys):
        code, out, _ = invoke(capsys, "fm", "--gram", "u,o,phi1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["semiorthogonal"] is True
        assert payload["matrix"][0][0] == "1" and payload["matrix"][1][0] == "0"

    def test_float_literal_is_exact_decimal(self, capsys):
        # 0.1 is read from its decimal text as 1/10, never through a binary float
        as_float = invoke(capsys, "fm", "--kernel", "phi1-shriek", "--apply", '{"P": 0.1}')
        as_text = invoke(capsys, "fm", "--kernel", "phi1-shriek", "--apply", '{"P": "1/10"}')
        assert as_float == as_text == (0, "-1/5 + -6/5*pt (on C)\n", "")

    @pytest.mark.parametrize("text, message", [
        ('{"pt": "1/0"}', "zero denominator in '1/0'"),
        ('{"pt": "abc"}', "not a rational number: 'abc'"),
        ('{"pt": 1e400}', "exponent too large in '1e400'"),
        ('{"pt": "1e3000000"}', "exponent too large in '1e3000000'"),
        ('{"pt": "' + "1" * 300 + '"}', "rational longer than 256 characters"),
        ('{"P": true}', "coefficient of 'P' is a boolean, not a rational number"),
        ('{"P": null}', "coefficient of 'P' is null, not a rational number"),
        ('{"P": NaN}', "NaN is not a rational number"),
        ('{"P": -Infinity}', "-Infinity is not a rational number"),
        ('[1, 2]', "a JSON class must be an object mapping labels to rationals"),
        ('{"P": ', "malformed JSON class: Expecting value: line 1 column 6 (char 5)"),
    ], ids=["zero-denominator", "not-rational", "float-exponent", "string-exponent",
            "long-token", "boolean", "null", "nan", "infinity", "array", "malformed"])
    def test_json_class_syntax_error_exit_2(self, capsys, text, message):
        code, out, err = invoke(capsys, "fm", "--kernel", "phi1-shriek", "--apply", text)
        assert (code, out, err) == (2, "", f"syntax error: {message}\n")

    def test_deeply_nested_json_exit_2(self, capsys):
        code, out, err = invoke(capsys, "fm", "--kernel", "phi1-shriek", "--apply", "[" * 100000)
        assert (code, out) == (2, "")
        assert err.startswith("syntax error: malformed JSON class: ") and err.count("\n") == 1

    def test_non_integral_rank_exit_1(self, capsys):
        code, out, err = invoke(capsys, "fm", "--kernel", "phi1-shriek", "--apply", '{"1": "1/2"}')
        assert (code, out, err) == (1, "", "error: JSON class has a non-integral rank component\n")

    def test_long_weight_token_exit_2(self, capsys):
        code, out, err = invoke(capsys, "bbw", "--weight", "1" * 300 + ",0,0,0,0")
        assert (code, out, err) == (2, "", "syntax error: rational longer than 256 characters\n")

    def test_bad_token_exit_1(self, capsys):
        code, _, err = invoke(capsys, "fm", "--gram", "u,bogus")
        assert code == 1
        assert "bogus" in err

    @pytest.mark.parametrize("tokens, count", [(",".join(["phi1"] * 17), 17),
                                               ("o," * 65536, 65537)], ids=["17", "128KB"])
    def test_gram_token_bound_exit_1(self, capsys, tokens, count):
        # checked before any class is built, so a long argv fails at once
        code, out, err = invoke(capsys, "fm", "--gram", tokens)
        assert (code, out) == (1, "")
        assert err == f"error: a gram collection has at most 16 tokens, got {count}\n"

    def test_gram_at_the_token_bound(self, capsys):
        code, out, _ = invoke(capsys, "fm", "--gram", ",".join(["u", "o"] * 8), "--format", "json")
        assert code == 0 and len(json.loads(out)["labels"]) == 16

    def test_missing_args_exit_1(self, capsys):
        assert invoke(capsys, "fm", "--kernel", "phi1")[0] == 1

    @pytest.mark.parametrize("extra", [("--kernel", "phi1", "--apply", "pt"),
                                       ("--kernel", "phi1"), ("--apply", "pt")],
                             ids=["kernel-and-apply", "kernel", "apply"])
    def test_gram_with_kernel_or_apply_exit_1(self, capsys, monkeypatch, extra):
        # neither flag is dropped silently, and the refusal comes before any class is built
        monkeypatch.setattr(cli, "_gram_collection", lambda tokens: pytest.fail("class built"))
        code, out, err = invoke(capsys, "fm", "--gram", "u", *extra)
        assert (code, out) == (1, "")
        assert err == "error: fm takes either --gram or --kernel and --apply, not both\n"

    def test_gram_rejects_a_phi1_image_of_nonzero_rank(self, capsys, monkeypatch):
        # a transform that returns its input makes Phi1(O_C) the rank-1 O_C
        monkeypatch.setattr(mukai, "transform", lambda kernel, cls: cls)
        code, out, err = invoke(capsys, "fm", "--gram", "phi1")
        assert (code, out, err) == (1, "", "error: Phi1(O_C) has rank 1, not 0\n")


class TestVerifyCommand:
    def test_all_passes(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "all")
        assert code == 0
        assert "FAIL" not in out

    def test_unknown_suite(self):
        with pytest.raises(ValueError) as err:
            verify_suite("bogus")
        assert str(err.value) == ("unknown suite 'bogus'; "
                                  "choose from all, bbw, koszul, cherns, sod, conics")

    def test_suite_union(self):
        union = []
        for name in ("bbw", "koszul", "cherns", "sod", "conics"):
            union.extend(c.name for c in verify_suite(name).checks)
        assert union == [c.name for c in verify_suite("all").checks]

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_records_run_one_at_a_time(self, suite):
        # in order with one shared memo, and each record alone with a fresh memo
        memo = cli._Memo()
        in_order = tuple(cli._run_record(record, memo) for record in SUITES[suite])
        alone = tuple(cli._run_record(record, cli._Memo()) for record in SUITES[suite])
        assert VerifyReport(suite, in_order) == verify_suite(suite)
        assert alone == in_order

    def test_koszul_suite_calls_each_pipeline_once(self, monkeypatch, capsys):
        # from an empty memo, so each entry is solved once whatever ran before; an entry
        # reads the earlier ones through the module name, so the recorder sees those calls
        # too, and cli's own calls are the ones that come from the _PIPELINE_ROWS records
        pipeline = sections.pipeline
        pipeline.cache_clear()
        calls = []
        monkeypatch.setattr(sections, "pipeline", lambda name: calls.append(
            (name, sys._getframe(1).f_globals["__name__"])) or pipeline(name))
        assert run(["verify", "--suite", "koszul"]) == 0
        assert pipeline.cache_info().misses == len(sections._PIPELINES)
        assert sorted(name for name, caller in calls if caller == cli.__name__) == sorted(
            sections._PIPELINES)

    def test_sod_suite_builds_the_collection_gram_once(self, monkeypatch, capsys):
        labels = []
        gram = mukai.gram
        monkeypatch.setattr(mukai, "gram", lambda collection, *args, **kw: labels.append(
            tuple(label for label, _ in collection)) or gram(collection, *args, **kw))
        assert run(["verify", "--suite", "sod"]) == 0
        assert labels.count(("U+", "O_X", "Phi1(O_C)", "Phi1(pt)")) == 1

    @pytest.fixture
    def failing_conics(self, monkeypatch):
        # the first conics record now expects -3 where -4 is computed
        first, *rest = SUITES["conics"]
        monkeypatch.setitem(SUITES, "conics", (first._replace(expected=Fraction(-3)), *rest))

    def test_failing_check_table(self, capsys, failing_conics):
        code, out, err = invoke(capsys, "verify", "--suite", "conics")
        lines = out.splitlines()
        assert (code, err, len(lines)) == (1, "", 5)
        assert lines[0] == ("[FAIL] conic-degree: deg of the tautological bundle on a conic "
                            "is -4 (expected -3, computed -4)")
        assert all(line.startswith("[PASS] ") for line in lines[1:4])
        assert lines[4] == "suite conics: FAIL (3/4)"

    def test_failing_check_json(self, capsys, failing_conics):
        code, out, err = invoke(capsys, "verify", "--suite", "conics", "--format", "json")
        payload = json.loads(out)
        assert (code, err, payload["pass"]) == (1, "", False)
        assert payload["checks"][0] == {
            "name": "conic-degree", "claim": "deg of the tautological bundle on a conic is -4",
            "expected": "-3", "computed": "-4", "pass": False}
        assert [c["pass"] for c in payload["checks"][1:]] == [True, True, True]

    def test_named_suite_json(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "conics", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert any(c["name"] == "conic-right-transform" for c in payload["checks"])


JUNK = st.text(max_size=12)
RATIONALS = st.builds(lambda n, d: f"{n}/{d}", st.integers(-9, 9), st.integers(0, 4))
OPTION_VALUES = {
    "--bundle": bundle_exprs() | JUNK,
    "--weight": st.lists(RATIONALS | st.integers(-3, 3).map(str), max_size=6).map(",".join)
    | JUNK,
    "--format": st.sampled_from(["json", "table"]) | JUNK,
    "--codim": st.integers(-2, 12).map(str) | JUNK,
    "--twist": st.integers(-2 * MAX_TWIST, 2 * MAX_TWIST).map(str) | JUNK,
    "--target": st.sampled_from(["E1", "E2", "U-plus", "eta2"]) | JUNK,
    "--kernel": st.sampled_from(sorted(KERNELS)) | JUNK,
    "--apply": st.sampled_from(sorted(NAMED_CLASSES))
    | st.dictionaries(st.sampled_from(["1", "H", "L", "P", "pt", "x"]),
                      RATIONALS | st.integers(-5, 5)).map(json.dumps)
    | JUNK,
    "--gram": st.lists(st.sampled_from(["u", "o", "phi1", " u", "x", ""]), min_size=1,
                       max_size=4).map(",".join)
    | st.lists(st.sampled_from(["u", "o", "phi1"]), min_size=17, max_size=40).map(",".join)
    | JUNK,
    "--suite": st.sampled_from(["all", *SUITES]) | JUNK,
}
COMMANDS = st.sampled_from(["bbw", "koszul", "chern", "fm", "verify"]) | JUNK


@st.composite
def argvs(draw) -> list[str]:
    """A subcommand, then options with drawn values, bare flags and junk tokens."""
    argv = [draw(COMMANDS)]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["option", "option", "option", "flag", "junk"]))
        if kind == "option":
            option = draw(st.sampled_from(sorted(OPTION_VALUES)))
            argv += [option, draw(OPTION_VALUES[option])]
        elif kind == "flag":
            argv.append(draw(st.sampled_from(["-h", "--help", "--", "-", "--bundle"])))
        else:
            argv.append(draw(JUNK))
    return argv


# argparse's usage line and its indented continuation lines, then its one error line
ARGPARSE_ERROR = re.compile(r"usage: [^\n]*\n(?: [^\n]*\n)*spinorcalc(?: \S+)?: error: ([^\n]*)\n")


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_argv_fuzz_keeps_the_exit_contract(argv):
    # exit 0, 1 or 2; a failure writes one stderr line, or argparse's usage
    # lines ending in its one error line; no exception escapes run()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    elif err.startswith("usage: "):
        assert code == 2
        match = ARGPARSE_ERROR.fullmatch(err)
        assert match and match[1].isprintable(), err
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), err


@pytest.mark.parametrize("token, shown", [("x\ny", r"x\ny"), ("a\rb\x1b", r"a\rb\x1b"),
                                          ("\u2028", r"\u2028"), ("é\t", r"é\t")],
                         ids=["newline", "return-escape", "line-separator", "tab"])
def test_argparse_error_escapes_control_characters(capsys, token, shown):
    code, out, err = invoke(capsys, "bbw", "--bundle", "O", token)
    assert code == 2 and out == ""
    assert ARGPARSE_ERROR.fullmatch(err)
    assert err.splitlines()[-1] == f"spinorcalc: error: unrecognized arguments: {shown}"

"""Command-line interface: verbs, formats, exit codes, round trips."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from daha.cli import run


@pytest.fixture
def capture(capsys):
    def invoke(*argv):
        rc = run(list(argv))
        out = capsys.readouterr()
        return rc, out.out.strip()

    return invoke


class TestEVerb:
    def test_integral_text(self, capture):
        rc, out = capture("e", "--type", "A1", "--weight", "-1", "--integral", "--format", "text")
        assert rc == 0
        assert out == "(1-q*t)*x^-1 + (1-t)*x"

    def test_plain(self, capture):
        rc, out = capture("e", "--type", "A1", "--weight", "1")
        assert rc == 0
        assert out == "x"

    def test_json_round_trip(self, capture):
        rc, out = capture("e", "--type", "A1", "--weight", "-1", "--format", "json")
        assert rc == 0
        blob = json.loads(out)
        assert json.dumps(blob, separators=(",", ":")) == out

    def test_latex(self, capture):
        rc, out = capture("e", "--type", "A1", "--weight", "-1", "--integral", "--format", "latex")
        assert rc == 0
        assert "\\left" in out and "x^{-1}" in out

    def test_multiple_weights(self, capture):
        rc, out = capture("e", "--type", "A1", "--weight", "1", "0")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "1: x"
        assert lines[1] == "0: 1"

    def test_jobs_match_sequential(self, capsys):
        # one dominant and one non-dominant weight: same lines, same stderr note
        outs = []
        for jobs in ("1", "2"):
            assert run(["e", "--type", "A1", "--weight", "1", "-1", "--jobs", jobs]) == 0
            outs.append(capsys.readouterr())
        assert outs[0].out == outs[1].out
        assert outs[0].err == outs[1].err
        assert "not dominant" in outs[1].err

    def test_invalid_weight(self, capture):
        rc, _ = capture("e", "--type", "A1", "--weight", "banana")
        assert rc == 2

    def test_invalid_type(self, capture):
        rc, _ = capture("e", "--type", "G2", "--weight", "1")
        assert rc == 2


class TestOtherVerbs:
    def test_p(self, capture):
        rc, out = capture("p", "--type", "A1", "--weight", "1")
        assert rc == 0
        assert out == "x^-1 + x"

    def test_order_cmp(self, capture):
        rc, out = capture("order", "cmp", "--type", "A1", "--a", "1", "--b", "2")
        assert rc == 0
        assert out == "incomparable"
        rc, out = capture("order", "cmp", "--type", "A1", "--a", "2", "--b", "-2")
        assert out == "less"

    def test_demazure(self, capture):
        rc, out = capture("demazure", "--type", "A1", "--word", "1", "--weight", "3")
        assert rc == 0
        assert out == "x^-3 + (1-t)*x^-1 + (1-t)*x + x^3"

    def test_y_apply(self, capture):
        poly = json.dumps(
            {"terms": [{"weight": [1], "coeff": {"num": [["1", 0, 0]], "den": [["1", 0, 0]]}}]}
        )
        rc, out = capture("y", "--type", "A1", "--mu", "1", "--apply", poly)
        assert rc == 0
        assert out == "q^-1*x"

    def test_verify_pass(self, capture):
        rc, out = capture("verify", "hecke", "--type", "A1", "--bound", "2")
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out

    def test_verify_subjects(self, capture):
        for subject in ("braid", "xcommute", "symmetrizer", "demazure", "order"):
            rc, out = capture("verify", subject, "--type", "A1", "--bound", "2")
            assert rc == 0, (subject, out)

    def test_sl2_validate(self, capture):
        rc, out = capture("sl2", "validate", "-k", "1")
        assert rc == 0
        assert "PASS k=1" in out

    def test_sl2_char(self, capture):
        rc, out = capture("sl2", "char", "-k", "1")
        assert rc == 0
        assert out == "(1-q*t)*x^-1 + (1-t)*x"

    def test_no_verb(self, capture):
        rc, _ = capture()
        assert rc == 2


# bad input: exit 2 with one `error:` line, never a traceback

_ONE_OVER_ZERO = json.dumps({"terms": [{"weight": [1], "coeff": {"num": [["1", 0, 0]], "den": []}}]})

BAD_INPUTS = [
    ("e", "--type", "A2", "--weight", "1"),
    ("e", "--type", "A1", "--weight", "1,0"),
    ("p", "--type", "A2", "--weight", "1"),
    ("order", "cmp", "--type", "A2", "--a", "1", "--b", "1,0"),
    ("order", "cmp", "--type", "A1", "--a", "1,3", "--b", "1"),
    ("demazure", "--type", "A2", "--word", "5", "--weight", "1,0"),
    ("demazure", "--type", "A2", "--word", "0", "--weight", "1,0"),
    ("demazure", "--type", "A1", "--word", "1", "--weight", "1,7"),
    ("y", "--type", "A1", "--mu", "1", "--apply", _ONE_OVER_ZERO),
    ("y", "--type", "A1xA1", "--mu", "1,0", "--apply", '{"terms": []}'),
    ("y", "--type", "A2", "--mu", "1,0", "--apply",
     '{"terms": [{"weight": [1], "coeff": {"num": [["1", 0, 0]], "den": [["1", 0, 0]]}}]}'),
    ("verify", "hecke", "--type", "A2", "--bound=-1"),
    ("sl2", "validate", "-k", "0"),
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=" ".join)
def test_bad_input_exits_2(capsys, argv):
    assert run(list(argv)) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert "Traceback" not in out.err


def _joined(values):
    return ",".join(map(str, values))


def _mono_json(weight):
    coeff = {"num": [["1", 0, 0]], "den": [["1", 0, 0]]}
    return json.dumps({"terms": [{"weight": list(weight), "coeff": coeff}]})


_types = st.sampled_from(["A1", "A2", "B2", "A1xA1"])
_weights = st.lists(st.integers(-1, 1), max_size=3)
_words = st.lists(st.integers(0, 4), max_size=3)
_subjects = st.sampled_from(["hecke", "braid", "xcommute", "symmetrizer", "order", "demazure"])
_argvs = st.one_of(
    st.builds(lambda verb, t, w: [verb, "--type", t, f"--weight={_joined(w)}"],
              st.sampled_from(["e", "p"]), _types, _weights),
    st.builds(lambda t, a, b: ["order", "cmp", "--type", t, f"--a={_joined(a)}", f"--b={_joined(b)}"],
              _types, _weights, _weights),
    st.builds(lambda t, word, w: ["demazure", "--type", t, f"--word={_joined(word)}", f"--weight={_joined(w)}"],
              _types, _words, _weights),
    st.builds(lambda t, mu, w: ["y", "--type", t, f"--mu={_joined(mu)}", "--apply", _mono_json(w)],
              _types, _weights, _weights),
    st.builds(lambda s, t, b: ["verify", s, "--type", t, f"--bound={b}"],
              _subjects, _types, st.integers(-1, 1)),
)


@settings(max_examples=150, deadline=None)
@given(argv=_argvs)
def test_fuzz_exit_codes(argv):
    # an exception escaping run() is a traceback from the console script
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = run(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# the verify reports, byte for byte as the reference engine printed them

VERIFY_GOLDEN = json.loads((Path(__file__).parent / "data" / "verify_golden.json").read_text())


@pytest.mark.parametrize("command", sorted(VERIFY_GOLDEN))
def test_verify_report_golden(capsys, command):
    rc = run(command.split())
    assert capsys.readouterr().out == VERIFY_GOLDEN[command]["stdout"]
    assert rc == VERIFY_GOLDEN[command]["exit"]

"""Command-line interface: verbs, formats, exit codes, round trips."""

import contextlib
import io
import json
import os
import resource
import shlex
import subprocess
import sys
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

    def test_latex_rank_two(self, capture):
        rc, out = capture("e", "--type", "A2", "--weight", "1,-1", "--format", "latex")
        assert rc == 0
        assert out == "\\left(\\frac{1-t}{1-q t^{2}}\\right)x_{2} + x_{1}x_{2}^{-1}"

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

    def test_y_apply_stdin(self, capture, monkeypatch):
        poly = '{"terms":[{"weight":[1],"coeff":{"num":[["1",0,0]],"den":[["1",0,0]]}}]}'
        monkeypatch.setattr("sys.stdin", io.StringIO(poly))
        rc, out = capture("y", "--type", "A1", "--mu", "1", "--apply", "-")
        assert rc == 0
        assert out == "q^-1*x"

    def test_y_apply_keeps_large_exponents(self, capture):
        # q^a t^b is packed as a * 2^64 + b inside the Hecke kernel: a t-exponent above 2^32
        # must not wrap into the q slot, and the q slot has no bound
        rc, out = capture("y", "--type", "A1", "--mu", "1", "--apply", _a1_term(term=("1", 0, 5000000000)))
        assert (rc, out) == (0, "q^-1*t^5000000000*x")
        rc, out = capture("y", "--type", "A1", "--mu", "1", "--apply", _a1_term(term=("1", 10**30, -7)))
        assert (rc, out) == (0, f"q^{10**30 - 1}*t^-7*x")

    def test_y_apply_empty_stdin(self, capture, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        rc, out = capture("y", "--type", "A1", "--mu", "1", "--apply", "-")
        assert rc == 2
        assert out == ""

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

    def test_sl2_build(self, capture):
        rc, out = capture("sl2", "build", "-k", "2")
        assert rc == 0
        assert out == "fusion(2): dimension 16, cyclic, brackets verified"

    def test_sl2_char(self, capture):
        rc, out = capture("sl2", "char", "-k", "1")
        assert rc == 0
        assert out == "(1-q*t)*x^-1 + (1-t)*x"

    def test_no_verb(self, capture):
        rc, _ = capture()
        assert rc == 2

    def test_verify_order_a3_box_2(self, capture):
        # the s_3-fixed weight (-2,1,0) is checked by T_3 E = t E, not by a false set inclusion
        rc, out = capture("verify", "order", "--type", "A3", "--bound", "2")
        assert rc == 0
        assert all(line.startswith("PASS") for line in out.splitlines()[1:]), out


# A3 weights whose lower sets collide for mu* and every skew alternate of
# mu_candidates; E_lam is found, not a DegenerateSpectrumError traceback
@pytest.mark.parametrize("weight", ["4,-1,-1", "-3,2,1", "3,-3,2", "-2,4,-2"])
def test_colliding_spectrum_exits_0(capture, weight):
    rc, out = capture("e", "--type", "A3", "--weight", weight)
    assert rc == 0 and out


_A2_MONO = '{"terms": [{"weight": [1, 0], "coeff": {"num": [["1", 0, 0]], "den": [["1", 0, 0]]}}]}'

# a weight with a negative first entry is a value, in a list and in a single-valued option
NEGATIVE_WEIGHTS = [
    (("e", "--type", "A2", "--weight", "0,1", "-1,0"),
     "0,1: x_2\n-1,0: x_1^-1 + ((1-t)/(1-q*t))*x_2 + ((1-t)/(1-q*t))*x_1*x_2^-1"),
    (("e", "--type", "A2", "--weight", "-1,0"), "x_1^-1 + ((1-t)/(1-q*t))*x_2 + ((1-t)/(1-q*t))*x_1*x_2^-1"),
    (("e", "--type", "A2", "--weight=-1,0"), "x_1^-1 + ((1-t)/(1-q*t))*x_2 + ((1-t)/(1-q*t))*x_1*x_2^-1"),
    (("demazure", "--type", "B2", "--word", "2", "--weight", "-1,2"), "x_1^-1*x_2^2 + (1-t) + x_1*x_2^-2"),
    (("order", "cmp", "--type", "A2", "--a", "-1,0", "--b", "0,0"), "incomparable"),
    (("y", "--type", "A2", "--mu", "-1,0", "--apply", _A2_MONO), "q*t*x_1"),
]


@pytest.mark.parametrize("argv,expected", NEGATIVE_WEIGHTS, ids=[" ".join(a) for a, _ in NEGATIVE_WEIGHTS])
def test_negative_weights_parse(capture, argv, expected):
    assert capture(*argv) == (0, expected)


# bad input: exit 2 with one `error:` line, never a traceback

_ONE_OVER_ZERO = json.dumps({"terms": [{"weight": [1], "coeff": {"num": [["1", 0, 0]], "den": []}}]})


def _a1_term(weight=(1,), term=("1", 0, 0)):
    """An A1 polynomial of one term, with the given weight and numerator term, for --apply."""
    return json.dumps({"terms": [{"weight": list(weight), "coeff": {"num": [list(term)], "den": [["1", 0, 0]]}}]})


def _a1_coeff(num):
    return {"num": num, "den": [["1", 0, 0]]}


# valid JSON of the wrong shape, a non-integer weight entry, exponent or coefficient,
# or a repeated exponent pair or weight
_BAD_JSON = ["[]", '{"terms": 5}', '"str"', _a1_term(weight=["a"]), _a1_term(weight=[1.0]),
             _a1_term(weight=[True]), _a1_term(term=("1", 0.5, 0)), _a1_term(term=(1.5, 0, 0)),
             json.dumps({"terms": [{"weight": [1], "coeff": _a1_coeff([["1", 0, 0], ["2", 0, 0]])}]}),
             json.dumps({"terms": [{"weight": [1], "coeff": _a1_coeff([["1", 0, 0]])},
                                   {"weight": [1], "coeff": _a1_coeff([["5", 0, 0]])}]})]

BAD_INPUTS = [
    ("e", "--type", "A2", "--weight", "1"),
    ("e", "--type", "A1", "--weight", "1,0"),
    ("p", "--type", "A2", "--weight", "1"),
    # E, P and Y need the highest root, which the reducible A1xA1 lacks
    ("e", "--type", "A1xA1", "--weight", "0,0"),
    ("p", "--type", "A1xA1", "--weight", "0,0"),
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
    # a t-exponent beyond the packed range of the Hecke kernel, (-2^62, 2^62)
    ("y", "--type", "A1", "--mu", "1", "--apply", _a1_term(term=("1", 0, 2**62))),
    ("y", "--type", "A1", "--mu", "1", "--apply", _a1_term(term=("1", 3, -2**62))),
    # a weight too large for an index-sized integer
    ("e", "--type", "A1", "--weight", "99999999999999999999"),
    ("p", "--type", "A1", "--weight", "99999999999999999999"),
    *(("y", "--type", "A1", "--mu", "1", "--apply", bad) for bad in _BAD_JSON),
    # rejected before any worker pool is started
    ("e", "--type", "A1", "--weight", "1", "--jobs", "-3"),
    ("p", "--type", "A1", "--weight", "1", "0", "--jobs", "0"),
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=" ".join)
def test_bad_input_exits_2(capsys, argv):
    assert run(list(argv)) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert "Traceback" not in out.err


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_limited(argv, timeout):
    """Run daha in a child process with a 1 GB address space, and fail past the timeout."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "daha.cli", *argv], capture_output=True, text=True,
                          env=env, preexec_fn=_limit_address_space, timeout=timeout)


# boxes of 10^9 and 2 * 10^8 + 1 points; run in a child process with a 1 GB address space, so a
# box that is allocated before it is refused ends the child with a MemoryError, not the machine
@pytest.mark.parametrize("argv", [
    ("e", "--type", "A1", "--weight", "1000000000"),
    ("verify", "hecke", "--type", "A1", "--bound", "100000000"),
], ids=" ".join)
def test_huge_box_exits_2(argv):
    proc = _run_limited(argv, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: a box of ") and proc.stderr.count("\n") == 1


def test_readme_command_lines(capsys):
    # every daha line of the README's command-line block runs and exits 0
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("daha ")]
    assert len(lines) == 8
    for argv in lines:
        assert run(argv) == 0, argv
        out = capsys.readouterr().out
        if "--integral" in argv:
            assert out == "(1-q*t)*x^-1 + (1-t)*x\n"


def _joined(values):
    return ",".join(map(str, values))


def _mono_json(weight):
    coeff = {"num": [["1", 0, 0]], "den": [["1", 0, 0]]}
    return json.dumps({"terms": [{"weight": list(weight), "coeff": coeff}]})


# inputs past MAX_BOX that ran out of memory or ran on without end before they were refused: an
# order check of 14,641^2 weight pairs, alpha_1-strings of 10^8 shifts, translation words of 2 * 10^8
# letters, and the search for the dominant decomposition of mu = -10^8
@pytest.mark.parametrize("argv", [
    ("verify", "order", "--type", "A2", "--bound", "60"),
    ("demazure", "--type", "A1", "--word", "1", "--weight", "100000000"),
    ("y", "--type", "A1", "--mu", "1", "--apply", _mono_json((10 ** 8,))),
    ("y", "--type", "A1", "--mu", "100000000", "--apply", _mono_json((1,))),
    ("y", "--type", "A1", "--mu", "-100000000", "--apply", _mono_json((1,))),
], ids=["order-pairs", "demazure-string", "y-string", "y-word", "y-negative-mu"])
def test_huge_operator_input_exits_2(argv):
    proc = _run_limited(argv, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "more than the 16777216 allowed" in proc.stderr


def _option(name, value, attached):
    """--name=value, or --name value as two arguments."""
    return [f"--{name}={value}"] if attached else [f"--{name}", value]


_types = st.sampled_from(["A1", "A2", "B2", "A1xA1"])
_weights = st.lists(st.integers(-1, 1), max_size=3)
_words = st.lists(st.integers(0, 4), max_size=3)
_subjects = st.sampled_from(["hecke", "braid", "xcommute", "symmetrizer", "order", "demazure"])
_attached = st.booleans()
_argvs = st.one_of(
    st.builds(lambda verb, t, w: [verb, "--type", t, f"--weight={_joined(w)}"],
              st.sampled_from(["e", "p"]), _types, _weights),
    st.builds(lambda verb, t, ws: [verb, "--type", t, "--weight", *map(_joined, ws)],
              st.sampled_from(["e", "p"]), _types, st.lists(_weights, min_size=1, max_size=3)),
    st.builds(lambda t, a, b, at: ["order", "cmp", "--type", t,
                                   *_option("a", _joined(a), at), *_option("b", _joined(b), at)],
              _types, _weights, _weights, _attached),
    st.builds(lambda t, word, w, at: ["demazure", "--type", t, f"--word={_joined(word)}",
                                      *_option("weight", _joined(w), at)],
              _types, _words, _weights, _attached),
    st.builds(lambda t, mu, w, at: ["y", "--type", t, *_option("mu", _joined(mu), at), "--apply", _mono_json(w)],
              _types, _weights, _weights, _attached),
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

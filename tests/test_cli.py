"""Command-line interface: verbs, formats, exit codes, round trips."""

import json

import pytest

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

"""Tests that the benchmark's checkers accept right answers and reject wrong ones.

    python3 -m pytest -q perfbench/test_oracles.py

The inputs are written out by hand; nothing here imports daha.
"""

from fractions import Fraction

import oracles
from tracer import Tracer

Q0 = Fraction(5, 7)
ONE = [["1", 0, 0]]


def laurent(*terms):
    return {"terms": [{"weight": list(w), "coeff": {"num": n, "den": d}} for w, n, d in terms]}


# A1: E_{-1} = x^-1 + (1-t)/(1-qt) x
E_MINUS_1 = laurent(((-1,), ONE, ONE), ((1,), [["1", 0, 0], ["-1", 0, 1]], [["1", 0, 0], ["-1", 1, 1]]))

# A1: P_2 = x^2 + x^-2 + (1+q)(1-t)/(1-qt)
P_2 = laurent(
    ((-2,), ONE, ONE),
    ((0,), [["1", 0, 0], ["1", 1, 0], ["-1", 0, 1], ["-1", 1, 1]], [["1", 0, 0], ["-1", 1, 1]]),
    ((2,), ONE, ONE),
)

HECKE_A2_B2 = """Hecke relations for A2, |mu_i| <= 2
PASS quadratic i=0 (25 monomials)
PASS quadratic i=1 (25 monomials)
PASS quadratic i=2 (25 monomials)
PASS braid i=0 j=1 m=3
PASS x-commute i=0 (5 weights)
"""


def test_weyl_character_dimensions():
    dims = {("A2", (1, 1)): 8, ("B2", (1, 0)): 5, ("B2", (0, 1)): 4,
            ("C2", (1, 0)): 4, ("C2", (0, 1)): 5, ("A3", (0, 1, 0)): 6, ("A1", (4,)): 5}
    for (t, lam), dim in dims.items():
        assert sum(oracles.Lattice(t).weyl_character(lam).values()) == dim, (t, lam)
    assert oracles.Lattice("A2").weyl_character((1, 1))[(0, 0)] == 2


def test_e_accepts_the_right_answer():
    assert oracles.check_e("A1", (-1,), E_MINUS_1, Q0) == []


def test_e_rejects_a_perturbed_coefficient():
    bad = laurent(((-1,), ONE, ONE), ((1,), [["1", 0, 0], ["-2", 0, 1]], [["1", 0, 0], ["-1", 1, 1]]))
    assert any("t=1" in p for p in oracles.check_e("A1", (-1,), bad, Q0))


def test_e_rejects_a_wrong_leading_coefficient_and_support():
    bad = laurent(((-1,), [["2", 0, 0]], ONE), ((3,), ONE, ONE), ((0,), ONE, ONE))
    problems = oracles.check_e("A1", (-1,), bad, Q0)
    assert any("is not 1" in p for p in problems)
    assert any("hull" in p for p in problems)
    assert any("lam + Q" in p for p in problems)


def test_p_accepts_the_right_answer():
    assert oracles.check_p("A1", (2,), P_2, Q0) == []


def test_p_rejects_a_missing_orbit_weight():
    bad = {"terms": [t for t in P_2["terms"] if t["weight"] != [-2]]}
    problems = oracles.check_p("A1", (2,), bad, Q0)
    assert any("invariant" in p for p in problems)
    assert any("orbit sum" in p for p in problems)
    assert any("Weyl character" in p for p in problems)


def test_report_accepts_a_full_box():
    argv = ["verify", "hecke", "--type", "A2", "--bound", "2"]
    assert oracles.check_report(argv, 0, HECKE_A2_B2) == []


def test_report_rejects_a_fail_line():
    argv = ["verify", "hecke", "--type", "A2", "--bound", "2"]
    text = HECKE_A2_B2.replace("PASS braid", "FAIL braid")
    assert any("not a PASS line" in p for p in oracles.check_report(argv, 1, text))


def test_report_rejects_a_vacuous_box():
    argv = ["verify", "hecke", "--type", "A2", "--bound", "-1"]
    text = "Hecke relations for A2, |mu_i| <= -1\nPASS quadratic i=0 (0 monomials)\n"
    problems = oracles.check_report(argv, 0, text)
    assert any("vacuous" in p for p in problems)
    argv = ["verify", "hecke", "--type", "A2", "--bound", "3"]
    assert any("bound 3 gives 49" in p for p in oracles.check_report(argv, 0, HECKE_A2_B2))


def test_report_rejects_wrong_sl2_dimensions():
    argv = ["sl2", "validate", "-k", "2"]
    good = "PASS k=1: dim 4, char x\nPASS k=2: dim 16, char x\n"
    assert oracles.check_report(argv, 0, good) == []
    assert oracles.check_report(argv, 0, good.replace("dim 16", "dim 15"))
    assert oracles.check_report(["sl2", "validate", "-k", "0"], 0, "")


def test_tracer_self_time_excludes_children():
    tr = Tracer()
    inner = tr.wrap("inner", lambda: sum(range(1000)))
    outer = tr.wrap("outer", lambda: [inner() for _ in range(3)])
    tr.op("op", outer)
    assert tr.calls == {"inner": 3, "outer": 1}
    assert tr.self_ns["outer"] + tr.incl_ns["inner"] == tr.incl_ns["outer"]
    assert tr.edge_ns["outer>inner"] == tr.incl_ns["inner"]
    assert [s[0] for s in tr.spans] == ["op"]

"""Module laboratory: deformed blocks, fusion, filtration, recursion, twist."""

import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from daha.qt import QTPoly, RatQT, rat
from daha.roots import root_system
from daha.polyring import QTLaurent, laurent_to_text, specialize_dim
from daha.sl2 import (
    _CONST,
    _solve_linear,
    cross_validate,
    daha_integral_form,
    deformed_block,
    fusion,
    graded_character,
    pi_twist,
    recursion_e,
    twist_cocycle,
)

A1 = root_system("A1")
BLOCKS = json.loads((Path(__file__).parent / "data" / "sl2_blocks.json").read_text())


def x(m):
    return QTLaurent.mono(A1, (m,))


def v(rep, **coords):
    return {int(k): Fraction(c) for k, c in coords.items()}


class TestDeformedBlock:
    def test_presentation_actions(self):
        blk = deformed_block(0)
        w = blk.cyclic_vector()
        # e w = p, e p = 0, and the basis images land on the right vectors
        assert blk.apply(("e", 0, 0), w) == {2: Fraction(1)}
        assert blk.apply(("e", 0, 0), {2: Fraction(1)}) == {}
        assert blk.apply(("e", 0, 1), w) == {3: Fraction(1)}
        assert blk.apply(("h", 1, 1), w) == {1: Fraction(1)}

    @pytest.mark.parametrize("alpha", [0, 1, Fraction(-3, 2)])
    def test_evaluation_action(self, alpha):
        # e z^k w = alpha^k e w, the deformed evaluation structure
        blk = deformed_block(alpha)
        w = blk.cyclic_vector()
        for k in (1, 2, 3):
            got = blk.apply(("e", k, 0), w)
            want = {2: Fraction(alpha) ** k} if alpha or k == 0 else {}
            assert got == want

    def test_middle_line_resolution(self):
        # h z^a xi w = alpha^{a-1} (h z xi w): solved, not the inconsistent display
        blk = deformed_block(2)
        w = blk.cyclic_vector()
        for a in (1, 2, 3):
            assert blk.apply(("h", a, 1), w) == {1: Fraction(2) ** (a - 1)}
        assert blk.apply(("h", 0, 1), w) == {}

    def test_brackets_checked(self):
        deformed_block(1).check_brackets()

    @pytest.mark.parametrize("alpha", sorted(BLOCKS))
    def test_golden_actions(self, alpha):
        # every generator matrix, as solved by the earlier fixpoint solver
        got = {
            ",".join(map(str, g)): [{str(i): str(c) for i, c in col.items()} for col in cols]
            for g, cols in deformed_block(Fraction(alpha)).actions.items()
        }
        assert got == BLOCKS[alpha]

    @pytest.mark.parametrize("index", [1, 3])
    def test_non_cyclic_vector_rejected(self, index):
        # hz.xi.w and e.xi.w generate proper submodules: the filtration stops growing below dim 4
        with pytest.raises(ValueError, match="module is not cyclic"):
            graded_character(replace(deformed_block(1), cyclic_index=index))

    def test_character_independent_of_alpha(self):
        a = graded_character(deformed_block(0))
        b = graded_character(deformed_block(Fraction(7, 3)))
        assert a == b
        assert laurent_to_text(a) == "(1-q*t)*x^-1 + (1-t)*x"
        assert specialize_dim(a) == 4


class TestSolveLinear:
    """Rows {var: coefficient, _CONST: constant} mean sum = 0."""

    def test_pinned_pair(self):
        # a + b = 3, a - b = 1
        rows = [{"a": 1, "b": 1, _CONST: -3}, {"a": 1, "b": -1, _CONST: -1}]
        assert _solve_linear(rows) == {"a": 2, "b": 1}

    def test_free_pair(self):
        # a + b = 1 twice: nothing pinned
        assert _solve_linear([{"a": 1, "b": 1, _CONST: -1}, {"a": 2, "b": 2, _CONST: -2}]) == {}

    def test_inconsistent_pair(self):
        with pytest.raises(ValueError, match="inconsistent constraint system"):
            _solve_linear([{"a": 1, "b": 1, _CONST: -1}, {"a": 1, "b": 1, _CONST: -2}])

    def test_back_substitution_pins(self):
        # a + b + c = 1, b + c = 0: a = 1 alone, which a forward-only echelon leaves coupled to b, c
        got = _solve_linear([{"a": 1, "b": 1, "c": 1, _CONST: -1}, {"b": 1, "c": 1}])
        assert got == {"a": 1} and isinstance(got["a"], Fraction)


class TestSharedResults:
    """A caller that mutates a returned value changes no later answer."""

    def test_block_actions(self):
        col = deformed_block(1).actions[("e", 0, 0)][0]
        saved = dict(col)
        col.clear()
        try:
            assert laurent_to_text(graded_character(fusion(1, (1,)))) == "(1-q*t)*x^-1 + (1-t)*x"
        finally:
            col.update(saved)

    def test_integral_form(self):
        terms = daha_integral_form(-1).terms
        saved = dict(terms)
        terms.clear()
        try:
            assert all(r.passed for r in cross_validate(1))
        finally:
            terms.update(saved)

    def test_recursion(self):
        terms = recursion_e(-1).terms
        saved = dict(terms)
        terms.clear()
        try:
            assert laurent_to_text(recursion_e(-1)) == "(1-q*t)*x^-1 + (1-t)*x"
        finally:
            terms.update(saved)


class TestFusion:
    def test_k1_matches_block(self):
        assert graded_character(fusion(1, (5,))) == graded_character(deformed_block(5))

    def test_distinctness_required(self):
        with pytest.raises(ValueError):
            fusion(2, (1, 1))

    def test_dimension_and_cyclicity(self):
        rep = fusion(2, (1, 2))
        assert rep.dim == 16

    def test_cyclic_vector_relations(self):
        rep = fusion(2, (1, 2))
        w = rep.cyclic_vector()
        assert rep.apply(("f", 1, 0), w) == {}
        assert rep.apply(("h", 0, 1), w) == {}
        e = lambda vec: rep.apply(("e", 0, 0), vec)
        assert e(e(e(w))) == {}

    def test_h_positive_degree_in_zero_layer(self):
        # h z^a w is a scalar multiple of w modulo nothing: it lies in F_0,
        # so it vanishes in the associated graded
        rep = fusion(2, (1, 2))
        w = rep.cyclic_vector()
        got = rep.apply(("h", 1, 0), w)
        assert set(got) <= {rep.cyclic_index}

    def test_bracket_compatibility(self):
        fusion(2, (1, 2)).check_brackets()


class TestTwist:
    def test_rule_solved(self):
        rule = twist_cocycle()
        assert rule.slope == Fraction(1, 2)

    def test_defining_constraint(self):
        assert pi_twist(daha_integral_form(-1)) == daha_integral_form(2)

    def test_on_constant(self):
        assert pi_twist(QTLaurent.one(A1)) == x(1)

    def test_square_is_q_power(self):
        f = daha_integral_form(-1)
        twice = pi_twist(pi_twist(f))
        assert twice == f.scale(RatQT.monomial(1, 1, 0))

    def test_integrality_enforced(self):
        bad = x(0) + x(1)  # mixed parity support cannot be twisted
        with pytest.raises(ValueError):
            pi_twist(bad)


class TestRecursion:
    def test_base(self):
        assert recursion_e(0) == QTLaurent.one(A1)
        assert recursion_e(1) == x(1)

    def test_first_step(self):
        assert laurent_to_text(recursion_e(-1)) == "(1-q*t)*x^-1 + (1-t)*x"

    def test_two(self):
        # (1-qt) x^2 + q(1-t)
        want = x(2).scale(rat(QTPoly({(0, 0): 1, (1, 1): -1}))) + QTLaurent.one(A1).scale(
            rat(QTPoly({(1, 0): 1, (1, 1): -1}))
        )
        assert recursion_e(2) == want

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_operator_form(self, k):
        assert recursion_e(-k) == daha_integral_form(-k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_dimension(self, k):
        assert specialize_dim(recursion_e(-k)) == 4 ** k

    def test_leading_coefficient_product_law(self):
        from daha.macdonald import a1_integral_scalar

        for k in (1, 2, 3):
            lead = recursion_e(-k).coeff((-k,))
            assert lead == a1_integral_scalar(k)


class TestCrossValidation:
    def test_k_up_to_two(self):
        reports = cross_validate(2)
        assert all(r.passed for r in reports)
        assert [r.dimension for r in reports] == [4, 16]

    def test_characters_match_fusion(self):
        rep = fusion(2, (3, 5))
        assert graded_character(rep) == recursion_e(-2)

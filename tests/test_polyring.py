"""Group-algebra arithmetic, orbit sums, integral forms, serialization."""

import json

import pytest

from daha.qt import QTPoly, RatQT, rat
from daha.roots import root_system
from daha.polyring import (
    QTLaurent,
    integral_form,
    laurent_from_json,
    laurent_to_json,
    laurent_to_text,
    orbit_sum,
    specialize_dim,
)

A1 = root_system("A1")
A2 = root_system("A2")

ONE_MINUS_T = QTPoly({(0, 0): 1, (0, 1): -1})
ONE_MINUS_QT = QTPoly({(0, 0): 1, (1, 1): -1})


def x(m: int) -> QTLaurent:
    return QTLaurent.mono(A1, (m,))


class TestArithmetic:
    def test_mono_mul(self):
        assert x(1) * x(-1) == QTLaurent.one(A1)

    def test_square(self):
        f = x(1) + x(-1)
        sq = f * f
        assert sq == x(2) + x(-2) + QTLaurent.one(A1).scale(RatQT.from_int(2))

    def test_mul_commutative_associative(self):
        f = x(1) + x(-1)
        g = x(2).scale(rat(ONE_MINUS_T)) + QTLaurent.one(A1)
        h = x(-1).scale(rat(3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


class TestOrbitSum:
    def test_a1(self):
        assert orbit_sum(A1, (2,)) == x(2) + x(-2)

    def test_zero(self):
        assert orbit_sum(A1, (0,)) == QTLaurent.one(A1)

    def test_a2_fundamental(self):
        m = orbit_sum(A2, (1, 0))
        assert sorted(m.support()) == [(-1, 1), (0, -1), (1, 0)]
        assert all(c == RatQT.from_int(1) for c in m.terms.values())

    def test_w_invariance(self):
        for lam in [(2, 1), (1, 1), (3, 0)]:
            m = orbit_sum(A2, lam)
            for i in (1, 2):
                assert m.map_weights(lambda w: A2.reflect(i, w)) == m

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            orbit_sum(A1, (-1,))


class TestIntegralForm:
    def test_known_module_character(self):
        f = x(-1) + x(1).scale(rat(ONE_MINUS_T, ONE_MINUS_QT))
        g = integral_form(f, (-1,))
        assert g == x(-1).scale(rat(ONE_MINUS_QT)) + x(1).scale(rat(ONE_MINUS_T))

    def test_constant(self):
        assert integral_form(QTLaurent.one(A1), (0,)) == QTLaurent.one(A1)

    def test_single_term(self):
        f = x(1).scale(rat(ONE_MINUS_T, ONE_MINUS_QT))
        assert integral_form(f, (1,)) == x(1).scale(rat(ONE_MINUS_T))

    def test_idempotent(self):
        f = x(-1) + x(1).scale(rat(ONE_MINUS_T, ONE_MINUS_QT))
        g = integral_form(f, (-1,))
        assert integral_form(g, (-1,)) == g

    def test_missing_leading_rejected(self):
        with pytest.raises(ValueError):
            integral_form(x(1), (0,))


class TestSpecializeDim:
    def test_module_dimension(self):
        f = x(-1).scale(rat(ONE_MINUS_QT)) + x(1).scale(rat(ONE_MINUS_T))
        assert specialize_dim(f) == 4

    def test_one(self):
        assert specialize_dim(QTLaurent.one(A1)) == 1

    def test_demazure_dimension(self):
        f = x(3) + (x(1) + x(-1)).scale(rat(ONE_MINUS_T)) + x(-3)
        assert specialize_dim(f) == 6

    def test_denominator_rejected(self):
        f = x(1).scale(rat(1, ONE_MINUS_T))
        with pytest.raises(ValueError):
            specialize_dim(f)


class TestSerialization:
    def test_round_trip_byte_identical(self):
        f = x(-1).scale(rat(ONE_MINUS_QT)) + x(1).scale(rat(ONE_MINUS_T))
        blob = json.dumps(laurent_to_json(f), separators=(",", ":"))
        back = laurent_from_json(A1, json.loads(blob))
        assert back == f
        assert json.dumps(laurent_to_json(back), separators=(",", ":")) == blob

    def test_text_format(self):
        f = x(-1).scale(rat(ONE_MINUS_QT)) + x(1).scale(rat(ONE_MINUS_T))
        assert laurent_to_text(f) == "(1-q*t)*x^-1 + (1-t)*x"

    def test_text_rank_two(self):
        f = QTLaurent.mono(A2, (1, -2))
        assert laurent_to_text(f) == "x_1*x_2^-2"

    def test_str_is_text(self):
        f = x(-1).scale(rat(ONE_MINUS_QT)) + x(1).scale(rat(ONE_MINUS_T))
        assert str(f) == f"{f}" == "(1-q*t)*x^-1 + (1-t)*x"
        assert str(QTLaurent.zero(A2)) == "0"

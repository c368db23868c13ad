"""Weyl combinatorics: reflections, orders, lower sets, translation words."""

import pytest

from daha.roots import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    root_system,
)

A1 = root_system("A1")
A2 = root_system("A2")
B2 = root_system("B2")
A1A1 = root_system("A1xA1")


class TestCartanData:
    def test_symmetrizers(self):
        assert A2.d == (1, 1)
        assert B2.d == (2, 1)

    def test_theta(self):
        assert A1.theta() == (2,)
        assert A2.theta() == (1, 1)
        assert B2.theta() == (0, 2)  # alpha_1 + 2 alpha_2, the long highest root

    def test_theta_coroot(self):
        assert A1.theta_coroot() == (1,)
        assert A2.theta_coroot() == (1, 1)
        assert B2.theta_coroot() == (1, 1)

    def test_positive_root_counts(self):
        assert len(A1.positive_roots()) == 1
        assert len(A2.positive_roots()) == 3
        assert len(B2.positive_roots()) == 4
        assert len(root_system("A3").positive_roots()) == 6

    def test_braid_orders(self):
        assert A2.braid_order(1, 2) == 3
        assert B2.braid_order(1, 2) == 4
        assert A1A1.braid_order(1, 2) == 2
        assert A1.braid_order(0, 1) is None  # infinite in the affine A1 diagram
        assert A2.braid_order(0, 1) == 3
        assert A2.braid_order(0, 2) == 3
        assert B2.braid_order(0, 1) == 2
        assert B2.braid_order(0, 2) == 4

    def test_no_affine_node_for_reducible(self):
        with pytest.raises(ValueError):
            A1A1.theta()


class TestReflections:
    def test_rank_one(self):
        assert A1.reflect(1, (3,)) == (-3,)

    def test_a2_fundamental(self):
        # s_1(w_1) = w_1 - alpha_1 = -w_1 + w_2
        assert A2.reflect(1, (1, 0)) == (-1, 1)

    def test_wall_fixed(self):
        assert A2.reflect(1, (0, 5)) == (0, 5)
        assert B2.reflect(2, (7, 0)) == (7, 0)

    def test_affine_q_twist_is_involution(self):
        for rs, lam in [(A1, (1,)), (A2, (2, -1)), (B2, (1, 1))]:
            pair = rs.affine_reflect_q(lam, 0)
            assert rs.affine_reflect_q(*pair) == (lam, 0)

    def test_affine_q_twist_a1(self):
        assert A1.affine_reflect_q((3,), 0) == ((-3,), 3)
        assert A1.affine_reflect_q((0,), 5) == ((0,), 5)

    def test_s0_level_one_a1(self):
        # s_0(k w) = (2 - k) w
        assert A1.s0_level_one((3,)) == (-1,)
        assert A1.s0_level_one((0,)) == (2,)

    def test_t_theta_coroot_normalization(self):
        # s_theta s_0 translates by -theta, in every type
        for rs in (A1, A2, B2):
            for lam in [rs.zero(), (1,) * rs.rank, tuple(range(1, rs.rank + 1))]:
                img = rs.s_theta(rs.s0_level_one(lam))
                assert img == rs.sub(lam, rs.theta())


class TestAntidominant:
    def test_a1(self):
        assert A1.antidominant((3,)) == ((-3,), (1,))
        assert A1.antidominant((-2,)) == ((-2,), ())

    def test_a2_orbit_oracle(self):
        # minimal-length oracle: scan all W elements for those sending w_1 to P_-
        lam = (1, 0)
        best = None
        for elt, word in A2.weyl_elements().items():
            img = A2.apply_word(word, lam)
            if A2.is_antidominant(img):
                if best is None or len(word) < len(best[1]):
                    best = (img, word)
        assert best[0] == (0, -1)
        assert len(best[1]) == 2
        lam_minus, u = A2.antidominant(lam)
        assert lam_minus == (0, -1)
        assert u == (2, 1)
        assert A2.apply_word(u, lam) == lam_minus

    def test_minimality_across_orbits(self):
        for rs in (A2, B2):
            for lam in [(2, 1), (0, 3), (1, 1)]:
                lam_minus, u = rs.antidominant(lam)
                assert rs.is_antidominant(lam_minus)
                assert rs.apply_word(u, lam) == lam_minus
                assert len(u) == rs.length(u)


class TestWeylGroup:
    @pytest.mark.parametrize("rs,order", [(A1, 2), (A1A1, 4), (A2, 6), (B2, 8)])
    def test_group_order(self, rs, order):
        assert len(rs.weyl_elements()) == order

    def test_a3_order(self):
        assert len(root_system("A3").weyl_elements()) == 24

    def test_longest_element_words(self):
        w0 = A2.longest_word()
        assert len(w0) == 3
        words = A2.reduced_words(A2.element_of_word(w0))
        assert sorted(words) == [(1, 2, 1), (2, 1, 2)]
        w0b = B2.longest_word()
        assert len(w0b) == 4
        assert sorted(B2.reduced_words(B2.element_of_word(w0b))) == [
            (1, 2, 1, 2),
            (2, 1, 2, 1),
        ]


class TestCherednikOrder:
    def test_a1_examples(self):
        assert A1.cherednik_cmp((2,), (-2,)) == LESS
        assert A1.cherednik_cmp((0,), (2,)) == LESS
        assert A1.cherednik_cmp((1,), (2,)) == INCOMPARABLE
        assert A1.cherednik_cmp((1,), (1,)) == EQUAL
        assert A1.cherednik_cmp((-2,), (2,)) == GREATER

    def test_lower_sets_a1(self):
        assert A1.lower_set((1,)) == [(1,)]
        assert A1.lower_set((-1,)) == [(1,), (-1,)]
        assert A1.lower_set((2,)) == [(0,), (2,)]

    def test_lower_sets_a1_closed_form(self):
        # independent description: for m > 0 the strict part is {j : |j| < m, j = m mod 2},
        # for m <= 0 it is {j : |j| <= |m|, j = m mod 2} minus {m}
        for m in range(-6, 7):
            got = set(A1.lower_set((m,)))
            if m > 0:
                want = {(j,) for j in range(-m + 2, m, 2)} | {(m,)}
            else:
                want = {(j,) for j in range(m, -m + 1, 2)}
            assert got == want, m

    def test_lower_set_sorted_by_order(self):
        for rs, lam in [(A1, (-3,)), (A2, (1, 1)), (A2, (-1, 2)), (B2, (1, 1))]:
            ls = rs.lower_set(lam)
            assert ls[-1] == lam
            for i, a in enumerate(ls):
                for b in ls[i + 1:]:
                    assert rs.cherednik_cmp(b, a) != LESS

    def test_macdonald_set_is_w_stable(self):
        lam = (1, 1)
        strict = [m for m in A2.lower_set(lam) if A2.macdonald_lhd(m, lam)]
        for m in strict:
            for i in (1, 2):
                assert A2.reflect(i, m) in strict


def _order_table(rs, bound):
    box = []

    def rec(pref):
        if len(pref) == rs.rank:
            box.append(tuple(pref))
            return
        for v in range(-bound, bound + 1):
            rec(pref + [v])

    rec([])
    return box


class TestOrderAxioms:
    @pytest.mark.parametrize("rs", [A1, A2, B2])
    def test_partial_order_axioms(self, rs):
        bound = 4 if rs.rank == 1 else 2
        box = _order_table(rs, bound)
        rel = {}
        for a in box:
            for b in box:
                rel[a, b] = rs.cherednik_cmp(a, b)
        for a in box:
            assert rel[a, a] == EQUAL
            for b in box:
                if rel[a, b] == LESS:
                    assert rel[b, a] == GREATER
                    for c in box:
                        if rel[b, c] == LESS:
                            assert rel[a, c] == LESS


class TestTranslationWords:
    def test_a1_alpha_check(self):
        assert A1.translation_word((1,)) == (0, 1)

    def test_zero(self):
        assert A2.translation_word((0, 0)) == ()

    def test_a2_length(self):
        w = A2.translation_word((1, 1))
        assert len(w) == 4

    def test_b2_length(self):
        # 2 rho pairing: sum over the 4 positive roots
        mu = (3, 2)
        w = B2.translation_word(mu)
        expected = sum(B2.coroot_pair(mu, wc) for _, wc in B2.positive_roots())
        assert len(w) == expected

    def test_not_dominant_rejected(self):
        with pytest.raises(ValueError):
            A2.translation_word((1, -1))
        with pytest.raises(ValueError):
            A2.translation_word((1, -1))

    def test_memoized_per_mu(self):
        w = B2.translation_word((1, 1))
        assert isinstance(w, tuple)
        assert B2.translation_word([1, 1]) is w

    @pytest.mark.parametrize(
        "rs,mu",
        [(A1, (1,)), (A1, (2,)), (A2, (1, 1)), (A2, (2, 1)), (B2, (3, 2)), (B2, (1, 1))],
    )
    def test_level_one_action_translates(self, rs, mu):
        word = rs.translation_word(mu)
        shift = rs.translation_image(mu)
        for lam in [rs.zero(), (1,) * rs.rank, tuple(range(1, rs.rank + 1))]:
            img = rs.apply_word(word, lam, affine=True)
            assert img == rs.add(lam, shift)

    def test_a1_translation_shifts_by_two(self):
        word = A1.translation_word((1,))
        assert A1.apply_word(word, (0,), affine=True) == (2,)
        assert A1.apply_word(word, (3,), affine=True) == (5,)

"""Weyl combinatorics: reflections, orders, lower sets, translation words."""

import heapq
import json
import random
import time
from fractions import Fraction
from itertools import count, product
from math import lcm, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from daha import orders, roots
from daha.hecke import dl_op
from daha.macdonald import nonsym_e, sym_p
from daha.orders import verify_order
from daha.polyring import QTLaurent
from daha.qt import RatQT
from daha.roots import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    MAX_BOX,
    MAX_ORBIT,
    RootSystem,
    root_system,
    weight_box,
)

A1 = root_system("A1")
A2 = root_system("A2")
B2 = root_system("B2")
A1A1 = root_system("A1xA1")


def _s_theta(rs, lam):
    return tuple(a - rs.theta_pair(lam) * b for a, b in zip(lam, rs.theta()))


def _affine_reflect_q(rs, lam, a):
    """Level-zero twisted s_0 on pairs: (lam, a) -> (s_theta lam, a + <theta^vee, lam>)."""
    return _s_theta(rs, lam), a + rs.theta_pair(lam)


def _is_antidominant(lam):
    return all(c <= 0 for c in lam)

# translation_word(mu) for every nonzero dominant mu in the boxes 0..b: A1 b = 8, A2/B2/C2
# b = 4, A3 b = 2, A4 b = 1, as computed by the affine-root greedy descent this walk replaced
TRANSLATION_WORDS = json.loads((Path(__file__).parent / "data" / "translation_words.json").read_text())


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

    @pytest.mark.parametrize("name", ["A1", "A1xA1", "A2", "B2", "C2", "A3"])
    def test_positive_roots_are_the_nonnegative_roots(self, name):
        rs = root_system(name)
        assert isinstance(rs.positive_roots(), tuple)
        assert rs.positive_roots() == tuple(r for r in rs.roots() if all(c >= 0 for c in r[0]))

    @pytest.mark.parametrize("name", ["A1", "A1xA1", "A2", "B2", "C2", "A3"])
    def test_positive_roots_sum_to_two_rho(self, name):
        # so sum over beta > 0 of <mu, beta> is <mu, 2 rho> for every coroot vector mu
        rs = root_system(name)
        for mu in weight_box([2] * rs.rank):
            assert sum(rs.coroot_pair(mu, wc) for _, wc in rs.positive_roots()) == rs.coroot_pair(mu, (2,) * rs.rank)

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


class TestOneInstancePerType:
    @pytest.mark.parametrize("spelling,name", [("a2", "A2"), ("A02", "A2"), ("A01", "A1"), ("a1xa1", "A1XA1")])
    def test_spellings_of_a_type_share_one_instance(self, spelling, name):
        assert root_system(spelling) is root_system(name)
        assert RootSystem(spelling).name == name

    def test_results_on_two_spellings_are_equal(self):
        # QTLaurent equality compares root-system identity, so two instances of A2 never compare equal
        assert sym_p(root_system("a2"), (1, 1)) == sym_p(root_system("A2"), (1, 1))

    @pytest.mark.parametrize("name", ["A0", "A00", "G2", "A", "A-1"])
    def test_unsupported_names_raise(self, name):
        with pytest.raises(ValueError, match="unsupported root system"):
            root_system(name)


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
            pair = _affine_reflect_q(rs, lam, 0)
            assert _affine_reflect_q(rs, *pair) == (lam, 0)

    def test_affine_q_twist_a1(self):
        assert _affine_reflect_q(A1, (3,), 0) == ((-3,), 3)
        assert _affine_reflect_q(A1, (0,), 5) == ((0,), 5)

    def test_s0_level_one_a1(self):
        # s_0(k w) = (2 - k) w
        assert A1.s0_level_one((3,)) == (-1,)
        assert A1.s0_level_one((0,)) == (2,)

    def test_t_theta_coroot_normalization(self):
        # s_theta s_0 translates by -theta, in every type
        for rs in (A1, A2, B2):
            for lam in [rs.zero(), (1,) * rs.rank, tuple(range(1, rs.rank + 1))]:
                img = _s_theta(rs, rs.s0_level_one(lam))
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
            if _is_antidominant(img):
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
                assert _is_antidominant(lam_minus)
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


# The reference model of the Weyl group for the differential tests below: each element keyed by the
# r images of the fundamental weights, every image reflected at each step, and reduced words found
# by looking up the length of every prefix.  It shares only reflect with RootSystem.

def _image_of_word(rs, word):
    images = []
    for k in range(rs.rank):
        lam = tuple(int(j == k) for j in range(rs.rank))
        for i in reversed(word):
            lam = rs.reflect(i, lam)
        images.append(lam)
    return tuple(images)


def _image_weyl_elements(rs):
    """Element (images of the fundamental weights) -> reduced word, breadth first."""
    ident = _image_of_word(rs, ())
    out = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for elt in frontier:
            for i in range(1, rs.rank + 1):
                elt2 = tuple(rs.reflect(i, im) for im in elt)
                if elt2 not in out:
                    out[elt2] = (i,) + out[elt]
                    nxt.append(elt2)
        frontier = nxt
    return out


def _image_reduced_words(rs, elements, elt):
    """Every reduced word of elt: s_i extends a word on the left when s_i elt is one shorter."""
    out = []
    ident = _image_of_word(rs, ())

    def rec(cur, prefix):
        k = len(elements[cur])
        if cur == ident:
            out.append(tuple(prefix))
            return
        for i in range(1, rs.rank + 1):
            nxt = tuple(rs.reflect(i, im) for im in cur)
            if len(elements[nxt]) == k - 1:
                rec(nxt, prefix + [i])

    rec(elt, [])
    return out


class TestWeylKeyMatchesImageModel:
    @pytest.mark.parametrize("name", ["A1", "A1xA1", "A2", "B2", "C2", "A3", "A4", "A5"])
    def test_same_words_in_the_same_order(self, name):
        rs = root_system(name)
        assert list(rs.weyl_elements().values()) == list(_image_weyl_elements(rs).values())

    @pytest.mark.parametrize("name", ["A1", "A1xA1", "A2", "B2", "C2", "A3", "A4", "A5"])
    def test_same_longest_word(self, name):
        rs = root_system(name)
        assert rs.longest_word() == max(_image_weyl_elements(rs).values(), key=len)

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "C2"])
    def test_same_reduced_words(self, name):
        rs = root_system(name)
        elements = _image_weyl_elements(rs)
        for elt, word in elements.items():
            assert rs.reduced_words(rs.element_of_word(word)) == _image_reduced_words(rs, elements, elt), word

    @pytest.mark.parametrize("name", ["A1", "A1xA1", "A2", "B2", "C2", "A3", "A4"])
    def test_same_length_on_every_short_word(self, name):
        rs = root_system(name)
        elements = _image_weyl_elements(rs)
        letters = range(1, rs.rank + 1)
        for k in range(7):
            for word in product(letters, repeat=k):
                assert rs.length(word) == len(elements[_image_of_word(rs, word)]), word

    def test_length_of_words_that_are_not_reduced(self):
        assert A2.length((1, 1)) == 0
        assert A2.length((1, 2, 1, 2)) == 2
        assert B2.length((1, 2, 1, 2, 1)) == 3


class TestWordCheck:
    def test_letter_zero_is_not_finite(self):
        with pytest.raises(ValueError, match=r"word \(0,\) has a letter outside 1\.\.2"):
            A2.apply_word((0,), (0, 1))
        with pytest.raises(ValueError, match=r"outside 1\.\.2"):
            A2.length((0,))

    def test_letter_past_the_rank(self):
        with pytest.raises(ValueError, match=r"word \(3,\) has a letter outside 1\.\.2"):
            A2.length((3,))
        with pytest.raises(ValueError, match=r"word \(1, -1\) has a letter outside 1\.\.2"):
            A2.apply_word((1, -1), (0, 1))

    def test_affine_letters(self):
        assert A2.apply_word((0,), (0, 0), affine=True) == (1, 1)
        with pytest.raises(ValueError, match=r"word \(3,\) has a letter outside 0\.\.2"):
            A2.apply_word((3,), (0, 0), affine=True)
        # a reducible type has no affine node
        with pytest.raises(ValueError, match=r"word \(0,\) has a letter outside 1\.\.2"):
            A1A1.apply_word((0,), (0, 0), affine=True)


class TestSharedCaches:
    # root_system() shares one RootSystem per type, so what it hands out must not be mutable;
    # a fresh instance keeps a failure here from reaching the other tests

    def test_roots_are_read_only(self):
        rs = RootSystem("A2")
        with pytest.raises(AttributeError):
            rs.roots().clear()
        with pytest.raises(AttributeError):
            rs.positive_roots().clear()
        assert len(rs.roots()) == 6 and len(rs.positive_roots()) == 3
        assert rs.theta() == (1, 1)

    def test_weyl_elements_are_read_only(self):
        rs = RootSystem("A2")
        elements = rs.weyl_elements()
        ident = rs.element_of_word(())
        with pytest.raises(TypeError):
            elements[ident] = (1, 2)
        with pytest.raises(TypeError):
            del elements[ident]
        with pytest.raises(AttributeError):
            elements.clear()
        assert len(rs.weyl_elements()) == 6 and rs.weyl_elements()[ident] == ()
        assert len(rs.longest_word()) == 3

    def test_mutating_orbits_and_lower_sets_changes_no_later_lower_set(self):
        # the W-orbits behind orbit and lower_set are memoized per dominant weight and handed out read-only;
        # what the two return is a fresh set and a fresh list
        rs, fresh = RootSystem("B2"), RootSystem("B2")
        coords = rs._orbit_coords((1, 1))
        with pytest.raises(TypeError):
            coords[(0, 0)] = (0, 0)
        with pytest.raises(AttributeError):
            coords.clear()
        for lam in [(2, 0), (-1, 1), (0, -2)]:
            want = fresh.lower_set(lam)
            orbit, lower = rs.orbit(lam), rs.lower_set(lam)
            orbit.clear()
            lower.reverse()
            lower.append((9, 9))
            rs.orbit(rs.dominant(lam)[0]).add((9, 9))
            assert rs.lower_set(lam) == want and rs.orbit_below(lam) == fresh.orbit_below(lam)
            assert rs.orbit(lam) == fresh.orbit(lam) == set(rs._orbit_coords(rs.dominant(lam)[0]))


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
        strict = [m for m in A2.lower_set(lam) if _REFERENCE["A2"].macdonald_lhd(m, lam)]
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


class _FractionOrder:
    """Reference for the integer kernel: the orders on Fraction simple-root coordinates,
    and lower sets sorted by the pairwise lexicographically least topological sort."""

    def __init__(self, rs):
        n = rs.rank
        m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
             for i, row in enumerate(rs.cartan)]
        for col in range(n):
            piv = next(r for r in range(col, n) if m[r][col])
            m[col], m[piv] = m[piv], m[col]
            m[col] = [x / m[col][col] for x in m[col]]
            for r in range(n):
                if r != col:
                    m[r] = [x - m[r][col] * y for x, y in zip(m[r], m[col])]
        self.rs = rs
        self.inv = [row[n:] for row in m]

    def root_coords(self, lam):
        return [sum(a * b for a, b in zip(row, lam)) for row in self.inv]

    def in_root_lattice(self, lam):
        return all(x.denominator == 1 for x in self.root_coords(lam))

    def dominance_leq(self, lam, mu):
        return all(c.denominator == 1 and c >= 0 for c in self.root_coords(self.rs.sub(mu, lam)))

    def in_hull(self, mu, lam_plus):
        return all(c >= 0 for c in self.root_coords(self.rs.sub(lam_plus, self.rs.dominant(mu)[0])))

    def macdonald_lhd(self, lam, mu):
        lm, mm = self.rs.antidominant(lam)[0], self.rs.antidominant(mu)[0]
        return lm != mm and self.dominance_leq(mm, lm)

    def cherednik_cmp(self, lam, mu):
        if lam == mu:
            return EQUAL
        lm, mm = self.rs.antidominant(lam)[0], self.rs.antidominant(mu)[0]
        if lm == mm:
            if self.dominance_leq(mu, lam):
                return LESS
            if self.dominance_leq(lam, mu):
                return GREATER
            return INCOMPARABLE
        diff = self.root_coords(self.rs.sub(lm, mm))
        if all(c.denominator == 1 for c in diff):
            if all(c >= 0 for c in diff):
                return LESS
            if all(c <= 0 for c in diff):
                return GREATER
        return INCOMPARABLE

    def lower_set(self, lam):
        rs = self.rs
        lam_plus = rs.dominant(lam)[0]
        orbit = rs.orbit(lam_plus)
        members = sorted(
            mu for mu in weight_box([max(abs(w[k]) for w in orbit) for k in range(rs.rank)])
            if self.in_root_lattice(rs.sub(mu, lam)) and self.in_hull(mu, lam_plus)
            and self.cherednik_cmp(mu, lam) in (LESS, EQUAL))
        below = {b: {a for a in members if self.cherednik_cmp(a, b) == LESS} for b in members}
        out = []
        while members:
            m = next(m for m in members if below[m] <= set(out))
            out.append(m)
            members.remove(m)
        return out


_KERNEL_TYPES = ["A1", "A1xA1", "A2", "B2", "C2", "A3"]
_REFERENCE = {name: _FractionOrder(root_system(name)) for name in _KERNEL_TYPES}


@st.composite
def _typed_weights(draw, count):
    name = draw(st.sampled_from(_KERNEL_TYPES))
    rank = root_system(name).rank
    coord = st.integers(-4, 4)
    return name, [tuple(draw(st.lists(coord, min_size=rank, max_size=rank))) for _ in range(count)]


def _all_pairs_extension(keys):
    """The lexicographically least linear extension by Kahn's algorithm on the order graph of all
    pairs of weights: the oracle of lower_set, which merges orbit orders."""
    succ = {w: [] for w in keys}
    indeg = dict.fromkeys(keys, 0)
    for a, (am, av) in keys.items():
        for b, (bm, bv) in keys.items():
            if a != b and all(x >= y for x, y in (zip(av, bv) if am == bm else zip(am, bm))):
                succ[a].append(b)
                indeg[b] += 1
    heap = [w for w, n in indeg.items() if not n]
    heapq.heapify(heap)
    out = []
    while heap:
        a = heapq.heappop(heap)
        out.append(a)
        for b in succ[a]:
            indeg[b] -= 1
            if not indeg[b]:
                heapq.heappush(heap, b)
    assert len(out) == len(keys)
    return out


def _box_scan_lower_set(rs, lam):
    """lower_set(lam) as it was computed before orbits were merged: the weights of W lam_+ below lam,
    and every orbit W nu of a dominant nu != lam_+ in the box 0 <= nu_k <= max of w_k over W lam_+
    with nu <= lam_+ in dominance, ordered by Kahn's algorithm with a min-heap on all their weights.
    Orbits are compared with orbits (one orbit is below another when its key half M nu_- is >= the
    other's) and weights only within their orbit."""
    lam_plus = rs.dominant(lam)[0]
    orbit = rs._orbit_coords(lam_plus)
    top = rs.order_key(lam)
    keys = {mu: k for mu, m in orbit.items() if rs.compare_keys(k := (top[0], m), top) in (LESS, EQUAL)}
    for nu in product(*(range(max(c) + 1) for c in zip(*orbit))):
        if nu != lam_plus and rs.dominance_leq(nu, lam_plus):
            low = rs.scaled_root_coords(rs.antidominant(nu)[0])
            keys.update((mu, (low, m)) for mu, m in rs._orbit_coords(nu).items())
    orbits = {}
    for w, (m, _) in keys.items():
        orbits.setdefault(m, []).append(w)
    later = {m: [o for o in orbits if o != m and all(x >= y for x, y in zip(m, o))] for m in orbits}
    waiting = dict.fromkeys(orbits, 0)  # per orbit, the orbits below it not yet used up
    for m in orbits:
        for o in later[m]:
            waiting[o] += 1
    succ = {w: [] for w in keys}
    indeg = dict.fromkeys(keys, 0)
    for ws in orbits.values():
        for a in ws:
            for b in ws:
                if a != b and all(x >= y for x, y in zip(keys[a][1], keys[b][1])):
                    succ[a].append(b)
                    indeg[b] += 1
    left = {m: len(ws) for m, ws in orbits.items()}
    heap = [w for m, ws in orbits.items() if not waiting[m] for w in ws if not indeg[w]]
    heapq.heapify(heap)
    out = []
    while heap:
        a = heapq.heappop(heap)
        out.append(a)
        for b in succ[a]:
            indeg[b] -= 1
            if not indeg[b]:
                heapq.heappush(heap, b)
        m = keys[a][0]
        left[m] -= 1
        if not left[m]:
            for o in later[m]:
                waiting[o] -= 1
                if not waiting[o]:
                    for b in orbits[o]:
                        if not indeg[b]:
                            heapq.heappush(heap, b)
    assert len(out) == len(keys)
    return out


# the boxes of the box-scan reference: every weight's lower set is compared list for list
_SCAN_BOXES = [("A1", 9), ("A2", 6), ("B2", 5), ("C2", 5), ("A3", 3), ("A4", 1), ("A5", 1), ("A1xA1", 3)]


@pytest.fixture(scope="module")
def _scanned():
    """{(name, bound): {lam: the box-scan lower set}}, each reference computed once on its own RootSystem."""
    out = {}
    for name, bound in _SCAN_BOXES:
        rs = RootSystem(name)
        out[name, bound] = {lam: _box_scan_lower_set(rs, lam) for lam in weight_box([bound] * rs.rank)}
    return out


class TestLowerSetMerge:
    """lower_set merges memoized orbit orders along memoized covers; the box scan is its reference."""

    @pytest.mark.parametrize("name,bound", _SCAN_BOXES)
    def test_shuffled_in_one_process(self, _scanned, name, bound):
        # one RootSystem whose memos fill in a shuffled order
        rs, want = RootSystem(name), _scanned[name, bound]
        lams = list(want)
        random.Random(bound).shuffle(lams)
        for lam in lams:
            assert rs.lower_set(lam) == want[lam], lam

    @pytest.mark.parametrize("name,bound", _SCAN_BOXES)
    def test_each_weight_on_cleared_caches(self, _scanned, name, bound):
        rs, want = RootSystem(name), _scanned[name, bound]
        for lam, ref in want.items():
            rs._caches.clear()
            assert rs.lower_set(lam) == ref, lam

    def test_orbit_below_is_the_tail_of_the_lower_set(self, _scanned):
        # lower_set(lam) is lower_set(lam_+) without lam_+, followed by orbit_below(lam)
        rs = RootSystem("B2")
        for lam, ref in _scanned["B2", 5].items():
            lam_plus = rs.dominant(lam)[0]
            assert ref == rs.lower_set(lam_plus)[:-1] + rs.orbit_below(lam), lam

    def test_memos_hold_orbits_and_covers_only(self):
        rs = RootSystem("A2")
        rs.lower_set((-3, -3))
        kinds = {key[0] for key in rs._caches if isinstance(key, tuple)}
        assert kinds == {"orbit", "orbit_order", "covers"}
        orders = {key[1]: v for key, v in rs._caches.items() if key[0] == "orbit_order"}
        assert orders.keys() == {key[1] for key in rs._caches if key[0] == "covers"}
        assert sum(map(len, orders.values())) == len(rs.lower_set((-3, -3)))

    def test_deep_chain_a1(self):
        # the descent along covers is a loop: 2,000 dominant weights below (4000,) raise no RecursionError,
        # where the box scan took about 2.6 s and 34 MB
        rs = RootSystem("A1")
        start = time.perf_counter()
        lower = rs.lower_set((4000,))
        assert time.perf_counter() - start < 1.0
        assert len(lower) == 4000 and lower[0] == (0,) and lower[-1] == (4000,)
        assert lower == sorted(lower, key=lambda w: (abs(w[0]), w[0] < 0))

    @pytest.mark.parametrize("name,lam", [("A1", (MAX_BOX,)), ("A1", (10**20,)), ("A2", (4096, 4096)),
                                          ("A1xA1", (1, MAX_BOX))])
    def test_hull_over_max_box_is_refused(self, name, lam):
        # the hull box of W lam_+ holds every dominant weight below lam_+: refused before any descent
        rs = RootSystem(name)
        size = prod(max(c) + 1 for c in zip(*rs.orbit(lam)))
        assert size > MAX_BOX
        with pytest.raises(ValueError, match=f"a box of {size} integer points is more than the {MAX_BOX} allowed"):
            rs.lower_set(tuple(-x for x in lam))
        assert not any(key[0] == "covers" for key in rs._caches if isinstance(key, tuple))


class TestIntegerKernel:
    @pytest.mark.parametrize("name", [*_KERNEL_TYPES, "A4", "A5", "A8"])
    def test_scaled_inverse(self, name):
        rs = root_system(name)
        ref = _REFERENCE.get(name) or _FractionOrder(rs)
        assert rs.root_den == lcm(*(x.denominator for row in ref.inv for x in row))
        assert rs.root_mat == tuple(tuple(int(x * rs.root_den) for x in row) for row in ref.inv)

    def test_scaled_inverse_a_n_closed_form(self):
        # the inverse Cartan matrix of A_n is min(i, j)(n + 1 - max(i, j))/(n + 1)
        for n in range(1, 51):
            rs = RootSystem(f"A{n}")
            inv = [[Fraction(x, rs.root_den) for x in row] for row in rs.root_mat]
            assert inv == [[Fraction(min(i, j) * (n + 1 - max(i, j)), n + 1) for j in range(1, n + 1)]
                           for i in range(1, n + 1)]
            assert rs.root_den == lcm(*(x.denominator for row in inv for x in row))

    def test_a_n_closed_form_matches_bareiss(self):
        # A_n takes its root coordinates from the closed form; every other type from Bareiss
        for n in range(1, 61):
            rs = RootSystem(f"A{n}")
            assert (rs.root_den, rs.root_mat) == roots._scaled_inverse(rs.cartan), n

    @pytest.mark.parametrize("name,bound", [("A1", 6), ("A2", 3), ("B2", 3), ("C2", 3), ("A3", 2), ("A4", None)])
    def test_linear_extension_matches_all_pairs(self, name, bound):
        # every lower set of the box (A4: the 291 weights below (-1,-1,-1,-1)), in the all-pairs order
        rs = root_system(name)
        for lam in weight_box([bound] * rs.rank) if bound else [(-1, -1, -1, -1)]:
            got = rs.lower_set(lam)
            assert got == _all_pairs_extension({mu: rs.order_key(mu) for mu in got}), lam

    @settings(max_examples=300, deadline=None)
    @given(_typed_weights(2))
    def test_matches_fraction_reference(self, drawn):
        name, (a, b) = drawn
        rs, ref = root_system(name), _REFERENCE[name]
        assert list(rs.scaled_root_coords(a)) == [x * rs.root_den for x in ref.root_coords(a)]
        assert rs.dominance_leq(a, b) == ref.dominance_leq(a, b)
        assert rs.in_hull(a, rs.dominant(b)[0]) == ref.in_hull(a, rs.dominant(b)[0])
        assert rs.cherednik_cmp(a, b) == ref.cherednik_cmp(a, b)
        assert rs.compare_keys(rs.order_key(a), rs.order_key(b)) == ref.cherednik_cmp(a, b)

    @pytest.mark.parametrize("name,lam", [("A1", (3,)), ("A2", (2, 1)), ("B2", (1, 2)), ("C2", (0, 3)),
                                          ("A3", (1, 0, 2)), ("A1xA1", (2, 1))])
    def test_orbit_walk_carries_root_coordinates(self, name, lam):
        # M s_i mu = M mu - mu_i D e_i along the walk, against the matrix product at every orbit weight
        rs = root_system(name)
        coords = rs._orbit_coords(lam)
        assert coords.keys() == {rs.apply_word(word, lam) for word in rs.weyl_elements().values()}
        assert all(m == rs.scaled_root_coords(mu) for mu, m in coords.items())

    @pytest.mark.parametrize("name,bound", [("A1", 4), ("A2", 2), ("B2", 2), ("C2", 2), ("A3", 1), ("A1xA1", 2)])
    def test_lower_sets_match_pairwise_sort(self, name, bound):
        # the weights of the e-table benchmark boxes, and the reducible type, element for element
        rs, ref = RootSystem(name), _REFERENCE[name]
        for lam in weight_box([bound] * rs.rank):
            assert rs.lower_set(lam) == ref.lower_set(lam), lam


class TestVerifyOrder:
    def test_string_gap_fails(self):
        # a strict lower set {(-5,), (-1,)} of (3,) has a gap at (-3,) along alpha = (2,)
        rs = RootSystem("A1")
        real = rs.lower_set
        rs.lower_set = lambda lam: [(-5,), (-1,), (3,)] if lam == (3,) else real(lam)
        report = verify_order(rs, 3)
        check = next(c for c in report.checks if c[0] == "root-string convexity of strict lower sets")
        assert check[1:] == (False, "string gap at lam=(3,), mu=(-1,), i=1, c=1")

    # planted faults in the A1 box 2 order, where (0,) < (2,) < (-2,), (0,) < (-2,) and (1,) < (-1,)

    @staticmethod
    def _faulty_order(faults):
        """A fresh A1 whose compare_keys answers faults[(a, b)] for the weight pairs listed there."""
        rs = RootSystem("A1")
        names, real = {rs.order_key(a): a for a in weight_box([2])}, rs.compare_keys
        rs.compare_keys = lambda ka, kb: faults.get((names.get(ka), names.get(kb))) or real(ka, kb)
        return verify_order(rs, 2).checks

    def test_reflexivity_fails(self):
        checks = self._faulty_order({((0,), (0,)): LESS})
        assert checks[0] == ("antisymmetry on 5 weights", False, "reflexivity fails at (0,)")

    def test_antisymmetry_fails(self):
        checks = self._faulty_order({((-1,), (1,)): EQUAL, ((1,), (-1,)): EQUAL})
        assert checks[0] == ("antisymmetry on 5 weights", False, "antisymmetry fails at (-1,), (1,)")

    def test_asymmetry_fails(self):
        checks = self._faulty_order({((-1,), (1,)): INCOMPARABLE})
        assert checks[0] == ("antisymmetry on 5 weights", False, "asymmetry fails at (1,), (-1,)")

    def test_transitivity_fails(self):
        checks = self._faulty_order({((0,), (-2,)): INCOMPARABLE, ((-2,), (0,)): INCOMPARABLE})
        assert checks[0][1]
        assert checks[1] == ("transitivity", False, "transitivity fails at (0,) < (2,) < (-2,)")

    def test_lowering_reflection_fails(self):
        # s_1 (-1,) = (1,) is below (-1,), so s_1 must map the lower set of (-1,) into itself
        rs = RootSystem("A1")
        real = rs.lower_set
        rs.lower_set = lambda lam: [*real(lam), (3,)] if lam == (-1,) else real(lam)
        check = next(c for c in verify_order(rs, 2).checks if c[0].startswith("reflection compatibility"))
        assert check[1:] == (False, "lowering reflection fails at lam=(-1,), i=1")

    # each fault below sits at a weight with over 60 weights below it: the checks cover large
    # lower sets, so the report fails there and names the weight

    def test_fixed_point_identity_runs_on_large_lower_sets(self, monkeypatch):
        # A3 (-2,-2,0) is s_3-fixed and has 68 weights below it; E_lam is solved once per lam
        rs, lam = root_system("A3"), (-2, -2, 0)
        assert len(rs.lower_set(lam)) == 68
        real, calls = orders.nonsym_e, []

        def faulty(rs, mu):
            calls.append(mu)
            r = real(rs, mu)
            if mu == lam:
                r.cleared = r.cleared + QTLaurent.mono(rs, (0, 0, 1))
            return r

        monkeypatch.setattr(orders, "nonsym_e", faulty)
        check = next(c for c in verify_order(rs, 2).checks if c[0].startswith("reflection compatibility"))
        assert check == ("reflection compatibility of lower sets (finite indices)", False,
                         f"T_3 E_lam = t E_lam fails at lam={lam}, i=3")
        assert calls[-1] == lam and len(calls) == len(set(calls))

    def test_y_closure_runs_on_large_lower_sets(self, monkeypatch):
        # A2 (-4,-4) has 61 weights below it
        rs, lam = root_system("A2"), (-4, -4)
        assert len(rs.lower_set(lam)) == 61
        real = orders._y

        def faulty(rs, mu, f):
            out = real(rs, mu, f)
            return {**out, (5, 5): {0: 1}} if f == {lam: {0: 1}} else out

        monkeypatch.setattr(orders, "_y", faulty)
        assert verify_order(rs, 4).lines()[-1] == (
            f"FAIL Y-operator closure of lower sets (81 weights): Y-image of e^{lam} escapes its lower set")

    def test_each_lower_set_is_computed_once_per_run(self):
        rs, asked = RootSystem("A2"), []
        real = rs.lower_set

        def recording(lam):
            asked.append(lam)
            return real(lam)

        rs.lower_set = recording
        report = verify_order(rs, 2)
        assert asked and len(asked) == len(set(asked))
        # E_lam is solved on root_system("A2"), not on rs; the kernels compare all the same
        assert report.passed

    def test_fixed_point_identity_a3(self):
        # lam = (-2,1,0) is s_3-fixed, yet its lower set holds alpha_3 and not -alpha_3:
        # the check there is T_3 E_lam = t E_lam (the whole A3 box 2 suite is a CLI test)
        rs, lam = root_system("A3"), (-2, 1, 0)
        lower = rs.lower_set(lam)
        assert (0, -1, 2) in lower and (0, 1, -2) not in lower
        e = nonsym_e(rs, lam).cleared
        assert dl_op(rs, 3, e) == e.scale(RatQT.monomial(1, 0, 1))


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

    @pytest.mark.parametrize("name", sorted(TRANSLATION_WORDS))
    def test_golden_words(self, name):
        rs = root_system(name)
        for mu, word in TRANSLATION_WORDS[name]:
            assert rs.translation_word(tuple(mu)) == tuple(word), mu

    def test_reducible_has_no_affine_node(self):
        assert A1A1.translation_word((0, 0)) == ()
        with pytest.raises(ValueError):
            A1A1.translation_word((1, 0))

    def test_a1_translation_shifts_by_two(self):
        word = A1.translation_word((1,))
        assert A1.apply_word(word, (0,), affine=True) == (2,)
        assert A1.apply_word(word, (3,), affine=True) == (5,)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for v in range(total + 1):
        for rest in _compositions(total - v, parts - 1):
            yield (v,) + rest


def _searched_strictly_dominant_coroot(rs):
    """mu* by the search the closed form replaced: the first composition of 1, 2, 3, ... into
    rank parts that pairs to at least 1 with every simple root."""
    for total in count(1):
        for c in _compositions(total, rs.rank):
            if all(rs.coroot_pair(c, rs.simple_root(j)) >= 1 for j in range(1, rs.rank + 1)):
                return c


def _pairings_below(rs, scaled_sum):
    """Every pairing vector c >= 1 of a coweight mu with root_den * (coordinate sum of mu) below
    scaled_sum: that sum is sum_k c_k h_k, h_k the k-th row sum of root_mat = root_den A^-1,
    which is positive in an irreducible type."""
    h = [sum(row) for row in rs.root_mat]
    assert min(h) > 0

    def extend(prefix, used):
        k = len(prefix)
        if k == rs.rank:
            yield tuple(prefix)
            return
        c = 1
        while used + c * h[k] + sum(h[k + 1:]) < scaled_sum:
            yield from extend(prefix + [c], used + c * h[k])
            c += 1
    return list(extend([], 0))


class TestStrictlyDominantCoroot:
    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B2", "C2"])
    def test_matches_the_search(self, name):
        rs = root_system(name)
        assert rs.strictly_dominant_coroot() == _searched_strictly_dominant_coroot(rs)

    @pytest.mark.parametrize("n", range(7, 13))
    def test_least_in_high_rank(self, n):
        # the search gives no answer in A7 within 100 s; here every pairing vector of a
        # coweight with a smaller coordinate sum is listed, and none lies in the coroot lattice
        rs = root_system(f"A{n}")
        mu = rs.strictly_dominant_coroot()
        assert all(isinstance(x, int) for x in mu)
        pairings = tuple(rs.coroot_pair(mu, rs.simple_root(j)) for j in range(1, n + 1))
        assert min(pairings) >= 1
        assert pairings in _pairings_below(rs, rs.root_den * sum(mu) + 1)  # the listing reaches mu* itself
        smaller = _pairings_below(rs, rs.root_den * sum(mu))
        assert smaller or n % 2 == 0  # rho^vee itself lies in the coroot lattice of A_n only for even n
        for c in smaller:
            scaled = rs.scaled_coroot(c)
            assert any(x % rs.root_den for x in scaled), c

    def test_scaled_coroot_inverts_the_pairing(self):
        for name in ("A3", "B2", "C2"):
            rs = root_system(name)
            for c in [(1,) * rs.rank, tuple(range(1, rs.rank + 1))]:
                scaled = rs.scaled_coroot(c)
                assert [rs.coroot_pair(scaled, rs.simple_root(j)) for j in range(1, rs.rank + 1)] == \
                    [rs.root_den * x for x in c]

    def test_reducible_has_none(self):
        with pytest.raises(ValueError, match="reducible"):
            A1A1.strictly_dominant_coroot()


class TestWeylBounds:
    def test_a9_group_is_refused_before_it_is_built(self):
        rs = RootSystem("A9")
        with pytest.raises(ValueError, match=f"A9 has 3628800 elements, more than the {MAX_ORBIT} allowed"):
            rs.weyl_elements()
        assert "weyl" not in rs._caches

    def test_group_at_the_bound(self, monkeypatch):
        monkeypatch.setattr(roots, "MAX_ORBIT", 24)
        assert len(RootSystem("A3").weyl_elements()) == 24
        monkeypatch.setattr(roots, "MAX_ORBIT", 23)
        with pytest.raises(ValueError, match="A3 has 24 elements, more than the 23 allowed"):
            RootSystem("A3").weyl_elements()

    def test_orbit_at_the_bound(self, monkeypatch):
        monkeypatch.setattr(roots, "MAX_ORBIT", 24)
        assert len(RootSystem("A3").orbit((1, 1, 1))) == 24
        monkeypatch.setattr(roots, "MAX_ORBIT", 23)
        with pytest.raises(ValueError, match=r"orbit of \(1, 1, 1\) has more than the 23 weights allowed"):
            RootSystem("A3").orbit((1, 1, 1))

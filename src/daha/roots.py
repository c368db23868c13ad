"""Root systems of rank <= 2 and type A_n: Weyl combinatorics on the weight lattice.

Weights are tuples of integers in fundamental-weight coordinates, so
coords[i] = <alpha_i^vee, lambda>.  Coroot-lattice vectors are tuples in the
simple-coroot basis.  Simple reflections are indexed 1..r; index 0 is the
affine reflection of the untwisted extension (irreducible types only).

Conventions for the affine node:

  * level-one action      s_0(lam) = lam + (1 - <theta^vee, lam>) theta
  * level-zero q-twist    s_0 . e^lam = q^{<theta^vee, lam>} e^{s_theta lam}

which together normalize t_{-theta^vee} = s_theta s_0, i.e. translation
elements of the coroot lattice act on weights by lam -> lam + M(mu) with
M(alpha_i^vee) = (d_max/d_i) alpha_i.

The module also implements the dominance order and the Cherednik order used
for triangularity of nonsymmetric Macdonald polynomials, finite lower sets, and
reduced words for translation elements of the affine Weyl group.  The affine
Weyl group has one implementation, its action on weights: a translation word is
read off an alcove walk of rho back into the fundamental alcove, reflecting in
the first separating wall in the order 0..r at each step (see translation_word).
The coroot mu* of the default Y-operator is an invariant in closed form, rho^vee
plus the least dominant coweight of its coset (strictly_dominant_coroot).
An element w of the finite Weyl group is keyed by the weight w rho: rho is
regular, so w -> w rho is one-to-one, and s_i w < w iff <alpha_i^vee, w rho>
< 0 (Bjorner-Brenti, GTM 231, 4.4).  Listings of the Weyl group and of W-orbits
stop at MAX_ORBIT elements.

Integer root coordinates.  The simple-root coordinates of lam are A^{-1} lam.
Each RootSystem stores (root_den, root_mat) = (D, M) with M = D A^{-1} an
integer matrix and D > 0 least, so the orders run on the integer vector M lam:
"divisible by D" means "in the root lattice" and sign tests replace rational
comparisons.  The Cherednik order reads a weight only through its order key
(M lam_-, M lam), lam_- the antidominant representative: lam < mu iff either
lam_- != mu_- and M lam_- - M mu_- is >= 0 and divisible by D, or lam_- = mu_-
and M lam >= M mu (one orbit lies in one coset of the root lattice).

Lower-set contract.  lower_set(lam) lists P[<= lam] in the lexicographically
least linear extension of the Cherednik order: at each step the least weight
(as a tuple) all of whose predecessors are already listed.  Inside a lower set
every weight lies in lam + Q, so no divisibility test is needed there.  It has
no memo: a caller that needs one lam more than once keeps the set itself.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import product
from math import gcd, lcm, prod
from types import MappingProxyType


Weight = tuple[int, ...]
CorootVec = tuple[int, ...]
WeylWord = tuple[int, ...]
OrderKey = tuple[tuple[int, ...], tuple[int, ...]]  # (M lam_-, M lam)

LESS, GREATER, EQUAL, INCOMPARABLE = "less", "greater", "equal", "incomparable"

_CARTAN = {
    "A1": ((2,),),
    "A1XA1": ((2, 0), (0, 2)),
    "A2": ((2, -1), (-1, 2)),
    "B2": ((2, -1), (-2, 2)),   # alpha_1 long, alpha_2 short
    "C2": ((2, -2), (-1, 2)),   # alpha_1 short, alpha_2 long
}

_BRAID_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}

# the most integer points a box may hold, and the most weight pairs, alpha_i-string shifts or
# translation-word letters one step may ask for: far above every use, small enough to refuse first
MAX_BOX = 1 << 24
# the most elements a listing of the Weyl group or of one W-orbit may hold: |W(A8)| = 9! = 362,880
# fits.  Listing W(A9) (10! elements, about 0.4 kB each) ran out of 1 GB at 2.6 million, so it is
# refused before it starts; the regular orbit of A10 is refused as it passes 2^19 weights, at 120 MB
MAX_ORBIT = 1 << 19


class RootSystem:
    """Cartan data plus cached Weyl-group and affine combinatorics."""

    def __init__(self, name: str):
        key = _canonical_name(name)
        if key in _CARTAN:
            cartan = _CARTAN[key]
        elif key.startswith("A") and key[1:].isdigit() and int(key[1:]) >= 1:
            n = int(key[1:])
            cartan = tuple(
                tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
                for i in range(n)
            )
        else:
            raise ValueError(f"unsupported root system {name!r}")
        self.name = key
        self.cartan = cartan
        self.rank = len(cartan)
        self.rho = (1,) * self.rank  # the sum of the fundamental weights, regular
        self._simple_roots = tuple(zip(*cartan))  # alpha_i is column i of the Cartan matrix
        self.irreducible = key != "A1XA1"
        # symmetrizers d_i with d_i A_ij = d_j A_ji, smallest positive integers
        d: list[Fraction | None] = [None] * self.rank
        d[0] = Fraction(1)
        changed = True
        while changed:
            changed = False
            for i in range(self.rank):
                for j in range(self.rank):
                    if d[i] is not None and d[j] is None and cartan[i][j]:
                        d[j] = d[i] * cartan[i][j] / cartan[j][i]
                        changed = True
        d = [Fraction(1) if x is None else x for x in d]
        denom = lcm(*(x.denominator for x in d))
        ints = [int(x * denom) for x in d]
        self.d = tuple(x // gcd(*ints) for x in ints)
        assert all(
            self.d[i] * cartan[i][j] == self.d[j] * cartan[j][i]
            for i in range(self.rank)
            for j in range(self.rank)
        )
        # integer root coordinates: M = D A^{-1} with D > 0 least, so M lam = D A^{-1} lam
        self.root_den, self.root_mat = (_scaled_inverse_a(self.rank) if key == f"A{self.rank}"
                                        else _scaled_inverse(cartan))
        self._caches: dict = {}

    def __repr__(self):
        return f"RootSystem({self.name})"

    # -- basic lattice maps --------------------------------------------------

    def simple_root(self, i: int) -> Weight:
        """alpha_i in fundamental-weight coordinates."""
        return self._simple_roots[i - 1]

    def reflect(self, i: int, lam: Weight) -> Weight:
        """s_i(lam) = lam - <alpha_i^vee, lam> alpha_i for finite i in 1..r."""
        m = lam[i - 1]
        if m == 0:
            return lam
        alpha = self.simple_root(i)
        return tuple(lam[k] - m * alpha[k] for k in range(self.rank))

    def coroot_pair(self, mu: CorootVec, lam: Weight) -> int:
        """<mu, lam> for mu in the simple-coroot basis."""
        return sum(m * l for m, l in zip(mu, lam))

    def add(self, a: Weight, b: Weight) -> Weight:
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a: Weight, b: Weight) -> Weight:
        return tuple(x - y for x, y in zip(a, b))

    def check_weight(self, lam: Sequence[int]) -> Weight:
        """lam as a tuple; ValueError unless it has one coordinate per simple root."""
        lam = tuple(lam)
        if len(lam) != self.rank:
            raise ValueError(f"weight {lam} has length {len(lam)}, but {self.name} has rank {self.rank}")
        return lam

    def zero(self) -> Weight:
        return (0,) * self.rank

    # -- roots ----------------------------------------------------------------

    def roots(self) -> tuple[tuple[tuple[int, ...], Weight], ...]:
        """All roots as (simple-root coordinates, weight coordinates): the W-orbits of the simple roots."""
        if "roots" not in self._caches:
            weights = set().union(*(self.orbit(self.simple_root(i)) for i in range(1, self.rank + 1)))
            self._caches["roots"] = tuple(sorted(
                (tuple(x // self.root_den for x in self.scaled_root_coords(w)), w) for w in weights))
        return self._caches["roots"]

    def positive_roots(self) -> tuple[tuple[tuple[int, ...], Weight], ...]:
        if "positive_roots" not in self._caches:
            self._caches["positive_roots"] = tuple(
                (rc, wc) for rc, wc in self.roots() if all(c >= 0 for c in rc))
        return self._caches["positive_roots"]

    def theta(self) -> Weight:
        """Highest root, weight coordinates (irreducible types only)."""
        return self._highest_root()[1]

    def theta_root_coords(self) -> tuple[int, ...]:
        """Highest root, simple-root coordinates (irreducible types only)."""
        return self._highest_root()[0]

    def _highest_root(self) -> tuple[tuple[int, ...], Weight]:
        if not self.irreducible:
            raise ValueError(f"{self.name} is reducible: no highest root")
        if "highest_root" not in self._caches:
            self._caches["highest_root"] = max(self.positive_roots(), key=lambda p: sum(p[0]))
        return self._caches["highest_root"]

    def theta_coroot(self) -> CorootVec:
        """theta^vee in the simple-coroot basis: theta is long, so theta^vee = sum_i c_i (d_i/d_max) alpha_i^vee."""
        if "theta_coroot" not in self._caches:
            dmax = max(self.d)
            self._caches["theta_coroot"] = tuple(c * d // dmax for c, d in zip(self.theta_root_coords(), self.d))
        return self._caches["theta_coroot"]

    def theta_pair(self, lam: Weight) -> int:
        """<theta^vee, lam>."""
        return self.coroot_pair(self.theta_coroot(), lam)

    def short_theta(self) -> tuple[Weight, CorootVec, WeylWord]:
        """(vartheta, vartheta^vee, a reduced word of s_vartheta) for the highest short root vartheta
        (irreducible types only): theta in A_n, alpha_1 + alpha_2 in B2 and C2.

        The short roots are the W-orbit of a simple root alpha_j with d_j least, and vartheta is its
        one dominant weight; for vartheta = sum_i c_i alpha_i, vartheta^vee = sum_i c_i (d_i/d_j)
        alpha_i^vee.  rho is regular, so the minimal word u with u s_vartheta rho = rho spells
        s_vartheta^-1 = s_vartheta, reduced."""
        if not self.irreducible:
            raise ValueError(f"{self.name} is reducible: no highest short root")
        if "short_theta" not in self._caches:
            dmin = min(self.d)
            th = self.dominant(self.simple_root(self.d.index(dmin) + 1))[0]
            coroot = tuple(c * d // (self.root_den * dmin) for c, d in zip(self.scaled_root_coords(th), self.d))
            m = self.coroot_pair(coroot, self.rho)
            word = self.dominant(tuple(r - m * c for r, c in zip(self.rho, th)))[1]
            self._caches["short_theta"] = th, coroot, word
        return self._caches["short_theta"]

    def strictly_dominant_coroot(self) -> CorootVec:
        """mu*: the coroot-lattice vector with every <mu*, alpha_j> >= 1 and the least coordinate sum.

        mu* - rho^vee (rho^vee pairs to 1 with every alpha_j) is a dominant coweight in the coset
        -rho^vee + Q^vee.  A coset holds one least dominant coweight, 0 or minuscule (Stembridge,
        The partial order of dominant weights, Adv. Math. 1998), and its other dominant coweights
        lie above it, with larger sums.  So mu* is the one rho^vee + nu, nu in {0, omega_1^vee, ...,
        omega_r^vee}, with integer coordinates and the least sum.  Irreducible types only."""
        if not self.irreducible:
            raise ValueError(f"{self.name} is reducible: no Y-operators")
        if "strictly_dominant_coroot" not in self._caches:
            cands = [self.scaled_coroot([1 + (k == j) for k in range(self.rank)]) for j in range(-1, self.rank)]
            ints = [tuple(x // self.root_den for x in c) for c in cands if all(x % self.root_den == 0 for x in c)]
            self._caches["strictly_dominant_coroot"] = min(ints, key=sum)
        return self._caches["strictly_dominant_coroot"]

    # -- affine action ----------------------------------------------------------

    def s0_level_one(self, lam: Weight) -> Weight:
        th = self.theta()
        c = 1 - self.theta_pair(lam)
        return tuple(lam[k] + c * th[k] for k in range(self.rank))

    def reflect_affine(self, i: int, lam: Weight) -> Weight:
        """Level-one action of s_i for i in 0..r."""
        return self.s0_level_one(lam) if i == 0 else self.reflect(i, lam)

    def translation_image(self, mu: CorootVec) -> Weight:
        """t_mu(lam) - lam under the level-one action: M(alpha_i^vee) = (d_max/d_i) alpha_i."""
        dmax = max(self.d)
        out = self.zero()
        for i in range(self.rank):
            if mu[i]:
                alpha = self.simple_root(i + 1)
                c = mu[i] * (dmax // self.d[i])
                out = tuple(out[k] + c * alpha[k] for k in range(self.rank))
        return out

    # -- braid orders -------------------------------------------------------------

    def braid_order(self, i: int, j: int) -> int | None:
        """ord(s_i s_j) in the (affine) Weyl group, or None when infinite."""
        a_ij = self.affine_cartan(i, j)
        a_ji = self.affine_cartan(j, i)
        return _BRAID_ORDER.get(a_ij * a_ji)

    def affine_cartan(self, i: int, j: int) -> int:
        if i == j:
            return 2
        if i and j:
            return self.cartan[i - 1][j - 1]
        if not self.irreducible:
            raise ValueError(f"{self.name} has no affine node")
        if i == 0:
            return -self.theta_pair(self.simple_root(j))
        return -self.theta()[i - 1]

    # -- dominance and orbits -----------------------------------------------------

    def is_dominant(self, lam: Weight) -> bool:
        return all(c >= 0 for c in lam)

    def antidominant(self, lam: Weight) -> tuple[Weight, WeylWord]:
        """Antidominant representative and the minimal word u with u(lam) antidominant."""
        return self._chamber(lam, 1)

    def dominant(self, lam: Weight) -> tuple[Weight, WeylWord]:
        """Dominant representative and the minimal word u with u(lam) dominant."""
        return self._chamber(lam, -1)

    def _chamber(self, lam: Weight, sign: int) -> tuple[Weight, WeylWord]:
        """Reflect away the first coordinate of the given sign until none is left."""
        letters = []
        while True:
            for i in range(1, self.rank + 1):
                if sign * lam[i - 1] > 0:
                    lam = self.reflect(i, lam)
                    letters.append(i)
                    break
            else:
                return lam, tuple(reversed(letters))

    def check_word(self, word: Sequence[int], affine: bool = False) -> WeylWord:
        """word as a tuple; ValueError unless its letters lie in 1..r (0..r when affine, irreducible types only)."""
        low = 0 if affine and self.irreducible else 1
        if any(not low <= i <= self.rank for i in word):
            raise ValueError(f"word {tuple(word)} has a letter outside {low}..{self.rank}, the letters of {self.name}")
        return tuple(word)

    def apply_word(self, word: WeylWord, lam: Weight, affine: bool = False) -> Weight:
        """w(lam) for w given as a word, first letter applied last; its letters as check_word takes them."""
        for i in reversed(self.check_word(word, affine)):
            lam = self.reflect_affine(i, lam) if affine else self.reflect(i, lam)
        return lam

    def orbit(self, lam: Weight) -> set[Weight]:
        """W lam; a ValueError once it passes MAX_ORBIT weights."""
        seen = {lam}
        frontier = [lam]
        while frontier:
            w = frontier.pop()
            for i in range(1, self.rank + 1):
                w2 = self.reflect(i, w)
                if w2 not in seen:
                    seen.add(w2)
                    frontier.append(w2)
                    if len(seen) > MAX_ORBIT:
                        raise ValueError(f"the W-orbit of {lam} has more than the {MAX_ORBIT} weights allowed")
        return seen

    # -- Weyl group elements ----------------------------------------------------

    def weyl_order(self) -> int:
        """|W|, the product of (ht alpha + 1) / ht alpha over the positive roots alpha (the Poincare
        polynomial of W at t = 1; Macdonald, The Poincare series of a Coxeter group, Math. Ann. 1972)."""
        return int(prod(Fraction(sum(c) + 1, sum(c)) for c, _ in self.positive_roots()))

    def weyl_elements(self) -> Mapping[Weight, WeylWord]:
        """Read-only map from element w, keyed by the weight w rho, to one reduced word.

        Built breadth first, so the elements come in order of length and each word is
        (i,) + the word of its parent s_i w, which comes earlier.  A group of more than MAX_ORBIT
        elements is refused before it is built."""
        if "weyl" not in self._caches:
            if (size := self.weyl_order()) > MAX_ORBIT:
                raise ValueError(f"the Weyl group of {self.name} has {size} elements, "
                                 f"more than the {MAX_ORBIT} allowed")
            out, queue = {self.rho: ()}, [self.rho]
            for elt in queue:  # first in, first out: breadth first
                for i in range(1, self.rank + 1):
                    elt2 = self.reflect(i, elt)  # s_i w rho
                    if elt2 not in out:
                        out[elt2] = (i,) + out[elt]
                        queue.append(elt2)
            self._caches["weyl"] = out
        return MappingProxyType(self._caches["weyl"])

    def element_of_word(self, word: WeylWord) -> Weight:
        """The key w rho of the element w that a word over 1..r spells."""
        return self.apply_word(word, self.rho)

    def length(self, word: WeylWord) -> int:
        """The length of the element a word spells, reduced or not: its chamber walk back to rho."""
        return len(self.dominant(self.element_of_word(word))[1])

    def longest_word(self) -> WeylWord:
        """A reduced word of w0, the element that takes -rho to rho."""
        return self.dominant((-1,) * self.rank)[1]

    def reduced_words(self, elt: Weight) -> list[WeylWord]:
        """All reduced words of the element keyed elt = w rho: one i followed by each reduced word of
        s_i w, for each descent i (elt[i-1] < 0) in turn."""
        descents = [i for i in range(1, self.rank + 1) if elt[i - 1] < 0]
        return [(i,) + w for i in descents for w in self.reduced_words(self.reflect(i, elt))] if descents else [()]

    # -- lattice membership -------------------------------------------------------

    def scaled_root_coords(self, lam: Weight) -> tuple[int, ...]:
        """M lam: root_den times the simple-root coordinates of lam."""
        return tuple(sum(m * l for m, l in zip(row, lam)) for row in self.root_mat)

    def scaled_coroot(self, pairings: Sequence[int]) -> tuple[int, ...]:
        """root_den times the simple-coroot coordinates of the mu with <mu, alpha_k> = pairings[k]:
        mu = A^-T pairings, and M = root_den A^-1."""
        return tuple(sum(row[i] * c for row, c in zip(self.root_mat, pairings)) for i in range(self.rank))

    def dominance_leq(self, lam: Weight, mu: Weight) -> bool:
        """lam <= mu in dominance order: mu - lam is a nonnegative integer sum of simple roots."""
        return all(c >= 0 and c % self.root_den == 0 for c in self.scaled_root_coords(self.sub(mu, lam)))

    def in_hull(self, mu: Weight, lam_plus: Weight) -> bool:
        """mu lies in the convex hull of the W-orbit of the dominant weight lam_plus."""
        return all(c >= 0 for c in self.scaled_root_coords(self.sub(lam_plus, self.dominant(mu)[0])))

    # -- the Cherednik order --------------------------------------------------------

    def order_key(self, lam: Weight) -> OrderKey:
        """(M lam_-, M lam): everything the Cherednik order reads of lam."""
        return self.scaled_root_coords(self.antidominant(lam)[0]), self.scaled_root_coords(lam)

    def compare_keys(self, a: OrderKey, b: OrderKey) -> str:
        """Compare two weights in the Cherednik order through their order keys."""
        (am, av), (bm, bv) = a, b
        if av == bv:
            return EQUAL
        if am == bm:  # one W-orbit, so one coset of the root lattice
            diff = [x - y for x, y in zip(av, bv)]
        else:
            diff = [x - y for x, y in zip(am, bm)]
            if any(x % self.root_den for x in diff):
                return INCOMPARABLE
        if all(x >= 0 for x in diff):
            return LESS
        if all(x <= 0 for x in diff):
            return GREATER
        return INCOMPARABLE

    def cherednik_cmp(self, lam: Weight, mu: Weight) -> str:
        """Compare lam and mu in the Cherednik order."""
        if lam == mu:
            return EQUAL
        return self.compare_keys(self.order_key(lam), self.order_key(mu))

    def lower_set(self, lam: Weight) -> list[Weight]:
        """P[<= lam] in the Cherednik order, in its lexicographically least linear extension (computed afresh).

        Built from whole W-orbits.  Order keys compare mu_- - lam_- = w_0 (mu_+ - lam_+), and
        w_0 Q_+ = -Q_+, so a weight mu is below lam only if lam_+ - mu_+ lies in Q_+, and for a
        dominant nu != lam_+ with lam_+ - nu in Q_+ the whole orbit W nu is below lam.  The
        candidates are these orbits and W lam_+; the comparison with lam drops weights of W lam_+
        only.  Such nu lie in the hull of W lam_+, so in the box 0 <= nu_k <= max of w_k over
        W lam_+, and every weight of W nu has the same key half M nu_-.
        """
        lam_plus = self.dominant(lam)[0]
        top = self.order_key(lam)
        keys = {}
        for nu in _box([range(max(c) + 1) for c in zip(*self.orbit(lam_plus))]):
            if self.dominance_leq(nu, lam_plus):
                low = self.scaled_root_coords(self.antidominant(nu)[0])
                for mu in self.orbit(nu):
                    k = (low, self.scaled_root_coords(mu))
                    if self.compare_keys(k, top) in (LESS, EQUAL):
                        keys[mu] = k
        return _linear_extension(keys)

    # -- affine Weyl group words ---------------------------------------------------

    def translation_word(self, mu: CorootVec) -> WeylWord:
        """Reduced word over {0..r} for the translation t_mu by a dominant coroot vector (memoized per mu).

        An alcove walk at level L = <theta^vee, rho> + 1, where rho lies inside the fundamental
        alcove: from y = t_{-mu} rho = rho - L M(mu), reflect y in the first wall, in the order
        0..r, that separates it from the alcove (wall 0 when <theta^vee, y> > L, wall i when
        y_i < 0) until y = rho; the letters, reversed, spell t_mu.
        """
        key = ("translation", tuple(mu))
        if key not in self._caches:
            if len(mu) != self.rank:
                raise ValueError("coroot vector has wrong rank")
            pairings = [self.coroot_pair(mu, wc) for _, wc in self.positive_roots()]
            if any(p < 0 for p in pairings):
                raise ValueError(f"{mu} is not dominant")
            if sum(pairings) > MAX_BOX:
                raise ValueError(f"a translation word of {sum(pairings)} letters is more than the {MAX_BOX} allowed")
            letters = []
            if any(pairings):
                level = self.theta_pair(self.rho) + 1
                theta = self.theta()
                y = self.sub(self.rho, tuple(level * c for c in self.translation_image(mu)))
                while y != self.rho:
                    h = self.theta_pair(y)
                    if h > level:
                        y = tuple(a + (level - h) * b for a, b in zip(y, theta))
                        letters.append(0)
                    else:
                        i = next(i for i in range(1, self.rank + 1) if y[i - 1] < 0)
                        y = self.reflect(i, y)
                        letters.append(i)
            if len(letters) != sum(pairings):
                raise AssertionError("translation word has wrong length")
            self._caches[key] = tuple(reversed(letters))
        return self._caches[key]


def _canonical_name(name: str) -> str:
    """The type name in upper case, with A_n written A{n}: a2, A2 and A02 all name A2."""
    key = name.upper()
    if key.startswith("A") and key[1:].isdigit():
        key = f"A{int(key[1:])}"
    return key


def root_system(name: str) -> RootSystem:
    """The one RootSystem of the type that name spells (see _canonical_name)."""
    return _root_system(_canonical_name(name))


@lru_cache(maxsize=None)
def _root_system(name: str) -> RootSystem:
    return RootSystem(name)


def weight_box(bounds: Sequence[int]) -> list[Weight]:
    """All integer points with |x_k| <= bounds[k], in lexicographic order."""
    if any(b < 0 for b in bounds):
        raise ValueError(f"negative box bound in {list(bounds)}")
    return list(_box([range(-b, b + 1) for b in bounds]))


def _box(ranges: list[range]):
    """The points of the product of the unit-step ranges, lazily; a ValueError above MAX_BOX points.

    itertools.product turns each range into a tuple first, so the size is checked before it runs."""
    size = prod(r.stop - r.start for r in ranges)
    if size > MAX_BOX:
        raise ValueError(f"a box of {size} integer points is more than the {MAX_BOX} allowed")
    return product(*ranges)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _scaled_inverse(cartan) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, M) with M = D A^{-1} integral and D > 0 least, by fraction-free Gauss-Jordan on [A | I].

    Bareiss's update m_rj <- (p m_rj - m_rc m_cj) / p_prev, for the pivot p = m_cc of column c and
    the pivot p_prev before it, divides exactly, since every entry stays a minor of [A | I]
    (Bareiss, Math. Comp. 1968).  It ends with [d I | d A^{-1}], d = +-det A, so D is |d| over
    the gcd of d and the entries of d A^{-1}."""
    n = len(cartan)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(cartan)]
    prev = 1
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        top, p = m[col], m[col][col]
        for r in range(n):
            if r != col:
                row, c = m[r], m[r][col]
                m[r] = [(p * x - c * y) // prev for x, y in zip(row, top)]
        prev = p
    scaled = [row[n:] for row in m]  # d A^{-1}, d = prev
    g = gcd(prev, *(x for row in scaled for x in row))
    sign = 1 if prev > 0 else -1
    return abs(prev) // g, tuple(tuple(sign * x // g for x in row) for row in scaled)


def _scaled_inverse_a(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """_scaled_inverse of the Cartan matrix of A_n in closed form: A^{-1} has entries
    min(i, j)(n + 1 - max(i, j))/(n + 1), and its (1, 1) entry n/(n + 1) is in lowest terms, so D = n + 1."""
    return n + 1, tuple(tuple(min(i, j) * (n + 1 - max(i, j)) for j in range(1, n + 1)) for i in range(1, n + 1))


def _linear_extension(keys: dict[Weight, OrderKey]) -> list[Weight]:
    """The lexicographically least linear extension of the Cherednik order on weights of one
    root-lattice coset, given their order keys: Kahn's algorithm with a min-heap.

    The weights of one W-orbit share the key half M lam_-, and a whole orbit lies below another
    when its half is >= the other's, so orbits are compared with orbits and weights only within
    their orbit.  A weight is ready once its orbit's predecessors are listed and every orbit below
    its own is used up: the weights that are ready at each step, and so the order, are those of
    Kahn's algorithm on all pairs."""
    orbits: dict[tuple[int, ...], list[Weight]] = {}
    for w, (m, _) in keys.items():
        orbits.setdefault(m, []).append(w)
    later = {m: [o for o in orbits if o != m and all(x >= y for x, y in zip(m, o))] for m in orbits}
    waiting = dict.fromkeys(orbits, 0)  # per orbit, the orbits below it not yet used up
    for m in orbits:
        for o in later[m]:
            waiting[o] += 1
    succ: dict[Weight, list[Weight]] = {w: [] for w in keys}
    indeg = dict.fromkeys(keys, 0)
    for ws in orbits.values():
        for a in ws:
            av = keys[a][1]
            for b in ws:
                if a != b and all(x >= y for x, y in zip(av, keys[b][1])):
                    succ[a].append(b)
                    indeg[b] += 1
    left = {m: len(ws) for m, ws in orbits.items()}
    heap = [w for m, ws in orbits.items() if not waiting[m] for w in ws if not indeg[w]]
    heapify(heap)
    out = []
    while heap:
        a = heappop(heap)
        out.append(a)
        for b in succ[a]:  # b is in a's orbit, which is not waiting
            indeg[b] -= 1
            if not indeg[b]:
                heappush(heap, b)
        m = keys[a][0]
        left[m] -= 1
        if not left[m]:
            for o in later[m]:
                waiting[o] -= 1
                if not waiting[o]:
                    for b in orbits[o]:
                        if not indeg[b]:
                            heappush(heap, b)
    if len(out) != len(keys):
        raise AssertionError("cycle in order relation")
    return out

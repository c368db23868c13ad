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

The module also implements the three partial orders on the weight lattice
(dominance, the W-orbit-comparison order, and the Cherednik order used for
triangularity of nonsymmetric Macdonald polynomials), finite lower sets, and
reduced words for translation elements of the affine Weyl group.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _math_gcd


Weight = tuple[int, ...]
CorootVec = tuple[int, ...]
WeylWord = tuple[int, ...]

LESS, GREATER, EQUAL, INCOMPARABLE = "less", "greater", "equal", "incomparable"

_CARTAN = {
    "A1": ((2,),),
    "A1XA1": ((2, 0), (0, 2)),
    "A2": ((2, -1), (-1, 2)),
    "B2": ((2, -1), (-2, 2)),   # alpha_1 long, alpha_2 short
    "C2": ((2, -2), (-1, 2)),   # alpha_1 short, alpha_2 long
}

_BRAID_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}


class RootSystem:
    """Cartan data plus cached Weyl-group and affine combinatorics."""

    def __init__(self, name: str):
        key = name.upper()
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
        self.name = name.upper()
        self.cartan = cartan
        self.rank = len(cartan)
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
        denom = 1
        for x in d:
            denom = denom * x.denominator // _math_gcd(denom, x.denominator)
        ints = [int(x * denom) for x in d]
        g = 0
        for x in ints:
            g = _math_gcd(g, x)
        self.d = tuple(x // g for x in ints)
        assert all(
            self.d[i] * cartan[i][j] == self.d[j] * cartan[j][i]
            for i in range(self.rank)
            for j in range(self.rank)
        )
        self._caches: dict = {}

    def __repr__(self):
        return f"RootSystem({self.name})"

    # -- basic lattice maps --------------------------------------------------

    def simple_root(self, i: int) -> Weight:
        """alpha_i in fundamental-weight coordinates (column i of the Cartan matrix)."""
        return tuple(self.cartan[k][i - 1] for k in range(self.rank))

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

    def coroot_reflect(self, i: int, mu: CorootVec) -> CorootVec:
        """s_i acting on the coroot lattice: mu - <mu, alpha_i> alpha_i^vee."""
        m = sum(mu[k] * self.cartan[k][i - 1] for k in range(self.rank))
        return tuple(mu[k] - m * (1 if k == i - 1 else 0) for k in range(self.rank))

    def add(self, a: Weight, b: Weight) -> Weight:
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a: Weight, b: Weight) -> Weight:
        return tuple(x - y for x, y in zip(a, b))

    def zero(self) -> Weight:
        return (0,) * self.rank

    def two_rho(self) -> Weight:
        return (2,) * self.rank

    # -- roots ----------------------------------------------------------------

    def roots(self) -> list[tuple[tuple[int, ...], Weight]]:
        """All roots as (simple-root coordinates, weight coordinates)."""
        if "roots" not in self._caches:
            seen = {}
            frontier = []
            for i in range(self.rank):
                rc = tuple(1 if k == i else 0 for k in range(self.rank))
                wc = self.simple_root(i + 1)
                seen[rc] = wc
                frontier.append((rc, wc))
            while frontier:
                rc, wc = frontier.pop()
                for i in range(1, self.rank + 1):
                    m = wc[i - 1]
                    rc2 = tuple(rc[k] - m * (1 if k == i - 1 else 0) for k in range(self.rank))
                    if rc2 not in seen:
                        wc2 = self.reflect(i, wc)
                        seen[rc2] = wc2
                        frontier.append((rc2, wc2))
            self._caches["roots"] = sorted(seen.items())
        return self._caches["roots"]

    def positive_roots(self) -> list[tuple[tuple[int, ...], Weight]]:
        return [(rc, wc) for rc, wc in self.roots() if all(c >= 0 for c in rc)]

    def theta(self) -> Weight:
        """Highest root, weight coordinates (irreducible types only)."""
        if not self.irreducible:
            raise ValueError(f"{self.name} is reducible: no highest root")
        rc, wc = max(self.positive_roots(), key=lambda p: sum(p[0]))
        return wc

    def theta_root_coords(self) -> tuple[int, ...]:
        rc, wc = max(self.positive_roots(), key=lambda p: sum(p[0]))
        return rc

    def theta_coroot(self) -> CorootVec:
        """theta^vee in the simple-coroot basis."""
        if "theta_coroot" not in self._caches:
            # follow the reflections that build theta from a simple root
            target = self.theta()
            for i in range(self.rank):
                rc = tuple(1 if k == i else 0 for k in range(self.rank))
                cv = rc
                wc = self.simple_root(i + 1)
                found = self._coroot_search(wc, cv, target)
                if found is not None:
                    self._caches["theta_coroot"] = found
                    break
            else:
                raise AssertionError("highest root not in any simple-root orbit")
        return self._caches["theta_coroot"]

    def _coroot_search(self, wc, cv, target):
        seen = {wc: cv}
        frontier = [(wc, cv)]
        while frontier:
            wc, cv = frontier.pop()
            if wc == target:
                return cv
            for i in range(1, self.rank + 1):
                wc2 = self.reflect(i, wc)
                if wc2 not in seen:
                    cv2 = self.coroot_reflect(i, cv)
                    seen[wc2] = cv2
                    frontier.append((wc2, cv2))
        return None

    def theta_pair(self, lam: Weight) -> int:
        """<theta^vee, lam>."""
        return self.coroot_pair(self.theta_coroot(), lam)

    # -- affine action ----------------------------------------------------------

    def s_theta(self, lam: Weight) -> Weight:
        th = self.theta()
        m = self.theta_pair(lam)
        return tuple(lam[k] - m * th[k] for k in range(self.rank))

    def affine_reflect_q(self, lam: Weight, a: int) -> tuple[Weight, int]:
        """Level-zero twisted s_0 on pairs: (lam, a) -> (s_theta lam, a + <theta^vee, lam>)."""
        return self.s_theta(lam), a + self.theta_pair(lam)

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

    def is_antidominant(self, lam: Weight) -> bool:
        return all(c <= 0 for c in lam)

    def antidominant(self, lam: Weight) -> tuple[Weight, WeylWord]:
        """Antidominant representative and the minimal word u with u(lam) antidominant."""
        letters = []
        cur = lam
        while True:
            for i in range(1, self.rank + 1):
                if cur[i - 1] > 0:
                    cur = self.reflect(i, cur)
                    letters.append(i)
                    break
            else:
                return cur, tuple(reversed(letters))

    def dominant(self, lam: Weight) -> tuple[Weight, WeylWord]:
        letters = []
        cur = lam
        while True:
            for i in range(1, self.rank + 1):
                if cur[i - 1] < 0:
                    cur = self.reflect(i, cur)
                    letters.append(i)
                    break
            else:
                return cur, tuple(reversed(letters))

    def apply_word(self, word: WeylWord, lam: Weight, affine: bool = False) -> Weight:
        """w(lam) for w given as a word, first letter applied last."""
        for i in reversed(word):
            lam = self.reflect_affine(i, lam) if affine else self.reflect(i, lam)
        return lam

    def orbit(self, lam: Weight) -> set[Weight]:
        seen = {lam}
        frontier = [lam]
        while frontier:
            w = frontier.pop()
            for i in range(1, self.rank + 1):
                w2 = self.reflect(i, w)
                if w2 not in seen:
                    seen.add(w2)
                    frontier.append(w2)
        return seen

    # -- Weyl group elements ----------------------------------------------------

    def weyl_elements(self) -> dict[tuple[Weight, ...], WeylWord]:
        """Map from element (images of the fundamental weights) to one reduced word."""
        if "weyl" not in self._caches:
            fw = [tuple(1 if k == i else 0 for k in range(self.rank)) for i in range(self.rank)]
            ident = tuple(fw)
            out = {ident: ()}
            frontier = [ident]
            while frontier:
                nxt = []
                for elt in frontier:
                    word = out[elt]
                    for i in range(1, self.rank + 1):
                        # s_i * w: apply s_i after w
                        elt2 = tuple(self.reflect(i, im) for im in elt)
                        if elt2 not in out:
                            out[elt2] = (i,) + word
                            nxt.append(elt2)
                frontier = nxt
            self._caches["weyl"] = out
        return self._caches["weyl"]

    def element_of_word(self, word: WeylWord) -> tuple[Weight, ...]:
        fw = [tuple(1 if k == i else 0 for k in range(self.rank)) for i in range(self.rank)]
        return tuple(self.apply_word(word, f) for f in fw)

    def length(self, word: WeylWord) -> int:
        return len(self.weyl_elements()[self.element_of_word(word)])

    def longest_word(self) -> WeylWord:
        return max(self.weyl_elements().values(), key=len)

    def reduced_words(self, elt: tuple[Weight, ...]) -> list[WeylWord]:
        """All reduced words of a Weyl group element."""
        n = len(self.weyl_elements()[elt])
        if n == 0:
            return [()]
        out = []
        fw = [tuple(1 if k == i else 0 for k in range(self.rank)) for i in range(self.rank)]
        ident = tuple(fw)

        def rec(cur, prefix):
            k = len(self.weyl_elements()[cur])
            if cur == ident:
                out.append(tuple(prefix))
                return
            for i in range(1, self.rank + 1):
                nxt = tuple(self.reflect(i, im) for im in cur)
                if len(self.weyl_elements()[nxt]) == k - 1:
                    # cur = s_i * nxt, so the word extends on the left
                    rec(nxt, prefix + [i])

        rec(elt, [])
        return out

    # -- lattice membership -------------------------------------------------------

    def _cartan_inverse(self) -> list[list[Fraction]]:
        if "cartan_inv" not in self._caches:
            n = self.rank
            m = [
                [Fraction(self.cartan[i][j]) for j in range(n)]
                + [Fraction(1 if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
            aug = [row[n:] for row in _gauss_solve_rows(m, n)]
            self._caches["cartan_inv"] = aug
        return self._caches["cartan_inv"]

    def root_coords(self, lam: Weight) -> list[Fraction] | None:
        """Coordinates of lam in the simple-root basis (always defined over Q)."""
        inv = self._cartan_inverse()
        n = self.rank
        # lam = sum_j x_j alpha_j  <=>  coords = A^T? here alpha_j has coords column j,
        # so lam_i = sum_j A_ij x_j and x = A^{-1} lam.
        return [sum(inv[i][j] * lam[j] for j in range(n)) for i in range(n)]

    def in_root_lattice(self, lam: Weight) -> bool:
        return all(x.denominator == 1 for x in self.root_coords(lam))

    def dominance_leq(self, lam: Weight, mu: Weight) -> bool:
        """lam <= mu in dominance order: mu - lam is a nonnegative integer sum of simple roots."""
        x = self.root_coords(self.sub(mu, lam))
        return all(c.denominator == 1 and c >= 0 for c in x)

    def in_hull(self, mu: Weight, lam_plus: Weight) -> bool:
        """mu lies in the convex hull of the W-orbit of the dominant weight lam_plus."""
        mu_plus, _ = self.dominant(mu)
        x = self.root_coords(self.sub(lam_plus, mu_plus))
        return all(c >= 0 for c in x)

    # -- the three orders ---------------------------------------------------------

    def macdonald_lhd(self, lam: Weight, mu: Weight) -> bool:
        """lam is strictly below mu in the orbit-comparison order."""
        lm = self.antidominant(lam)[0]
        mm = self.antidominant(mu)[0]
        if lm == mm:
            return False
        x = self.root_coords(self.sub(lm, mm))
        return all(c.denominator == 1 and c >= 0 for c in x)

    def cherednik_cmp(self, lam: Weight, mu: Weight) -> str:
        """Compare lam and mu in the Cherednik order."""
        if lam == mu:
            return EQUAL
        lm = self.antidominant(lam)[0]
        mm = self.antidominant(mu)[0]
        if lm == mm:
            if self.dominance_leq(mu, lam):
                return LESS
            if self.dominance_leq(lam, mu):
                return GREATER
            return INCOMPARABLE
        diff = self.root_coords(self.sub(lm, mm))
        if all(c.denominator == 1 for c in diff):
            if all(c >= 0 for c in diff):
                return LESS
            if all(c <= 0 for c in diff):
                return GREATER
        return INCOMPARABLE

    def cherednik_leq(self, lam: Weight, mu: Weight) -> bool:
        return self.cherednik_cmp(lam, mu) in (LESS, EQUAL)

    def lower_set(self, lam: Weight) -> list[Weight]:
        """P[<= lam] in the Cherednik order, sorted by a fixed linear extension."""
        key = ("lower", lam)
        if key not in self._caches:
            lam_plus, _ = self.dominant(lam)
            bound = [0] * self.rank
            for w in self.orbit(lam_plus):
                for k in range(self.rank):
                    bound[k] = max(bound[k], abs(w[k]))
            members = []
            for mu in _box_iter(bound):
                if not self.in_root_lattice(self.sub(mu, lam)):
                    continue
                if not self.in_hull(mu, lam_plus):
                    continue
                if self.cherednik_cmp(mu, lam) in (LESS, EQUAL):
                    members.append(mu)
            self._caches[key] = _linear_extension(self, members)
        return self._caches[key]

    # -- affine Weyl group words ---------------------------------------------------

    def translation_word(self, mu: CorootVec) -> WeylWord:
        """Reduced word over {0..r} for the translation by a dominant coroot vector (memoized per mu)."""
        key = ("translation", tuple(mu))
        if key not in self._caches:
            if len(mu) != self.rank:
                raise ValueError("coroot vector has wrong rank")
            pr = self.positive_roots()
            pairings = [self.coroot_pair(mu, wc) for _, wc in pr]
            if any(p < 0 for p in pairings):
                raise ValueError(f"{mu} is not dominant")
            expected_len = sum(pairings)
            word = _affine_greedy_word(self, mu) if expected_len else ()
            if len(word) != expected_len:
                raise AssertionError("translation word has wrong length")
            self._caches[key] = word
        return self._caches[key]


@lru_cache(maxsize=None)
def root_system(name: str) -> RootSystem:
    return RootSystem(name)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _gauss_solve_rows(m: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    """Row-reduce an n x 2n augmented matrix to [I | X] and return the rows."""
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return m


def _box_iter(bound: list[int]):
    """All integer points with |x_k| <= bound[k]."""
    if not bound:
        yield ()
        return
    for rest in _box_iter(bound[1:]):
        for v in range(-bound[0], bound[0] + 1):
            yield (v,) + rest


def _linear_extension(rs: RootSystem, members: list[Weight]) -> list[Weight]:
    """Topological sort compatible with the Cherednik order, lex tie-break."""
    remaining = sorted(members)
    below: dict[Weight, set[Weight]] = {m: set() for m in remaining}
    for a in remaining:
        for b in remaining:
            if a != b and rs.cherednik_cmp(a, b) == LESS:
                below[b].add(a)
    out = []
    while remaining:
        for m in remaining:
            if not below[m] - set(out):
                out.append(m)
                remaining.remove(m)
                break
        else:
            raise AssertionError("cycle in order relation")
    return out


class _AffElt:
    """Element of the affine Weyl group via its action on affine roots.

    An affine root is a pair (beta, n) with beta a finite root in simple-root
    coordinates.  The element maps (beta, n) -> (mat . beta, n + f(beta)).
    """

    __slots__ = ("rs", "mat", "f")

    def __init__(self, rs: RootSystem, mat, f):
        self.rs = rs
        self.mat = mat  # tuple of rows
        self.f = f      # tuple, linear functional in root coordinates

    @classmethod
    def identity(cls, rs: RootSystem) -> "_AffElt":
        n = rs.rank
        return cls(rs, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), (0,) * n)

    @classmethod
    def translation(cls, rs: RootSystem, mu: CorootVec) -> "_AffElt":
        n = rs.rank
        ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        # t_mu : (beta, m) -> (beta, m - <mu, beta>)
        f = tuple(-rs.coroot_pair(mu, rs.simple_root(j + 1)) for j in range(n))
        return cls(rs, ident, f)

    def is_identity(self) -> bool:
        n = self.rs.rank
        return self.f == (0,) * n and all(
            self.mat[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n)
        )

    def apply(self, beta, m):
        n = self.rs.rank
        img = tuple(sum(self.mat[i][j] * beta[j] for j in range(n)) for i in range(n))
        return img, m + sum(self.f[j] * beta[j] for j in range(n))

    def mul_simple_right(self, i: int) -> "_AffElt":
        """self * s_i (the action applies s_i first)."""
        rs = self.rs
        n = rs.rank
        if i == 0:
            smat, sf = _s0_root_action(rs)
        else:
            smat, sf = _si_root_action(rs, i)
        mat = tuple(
            tuple(sum(self.mat[r][k] * smat[k][c] for k in range(n)) for c in range(n))
            for r in range(n)
        )
        f = tuple(sf[c] + sum(self.f[k] * smat[k][c] for k in range(n)) for c in range(n))
        return _AffElt(rs, mat, f)


def _si_root_action(rs: RootSystem, i: int):
    """Matrix of s_i on root coordinates, plus zero delta-shift."""
    n = rs.rank
    mat = []
    for r in range(n):
        row = []
        for c in range(n):
            # s_i(alpha_c) = alpha_c - <alpha_i^vee, alpha_c> alpha_i
            v = 1 if r == c else 0
            if r == i - 1:
                v -= rs.cartan[i - 1][c]
            row.append(v)
        mat.append(tuple(row))
    return tuple(mat), (0,) * n


def _s0_root_action(rs: RootSystem):
    """s_0 on affine roots: (beta, n) -> (s_theta beta, n + <theta^vee, beta>)."""
    n = rs.rank
    th_rc = rs.theta_root_coords()
    mat = []
    for r in range(n):
        row = []
        for c in range(n):
            v = 1 if r == c else 0
            # s_theta(alpha_c) = alpha_c - <theta^vee, alpha_c> theta
            v -= rs.theta_pair(rs.simple_root(c + 1)) * th_rc[r]
            row.append(v)
        mat.append(tuple(row))
    f = tuple(rs.theta_pair(rs.simple_root(c + 1)) for c in range(n))
    return tuple(mat), f


def _affine_greedy_word(rs: RootSystem, mu: CorootVec) -> WeylWord:
    """Reduced word for t_mu by greedy right-descent stripping."""
    n = rs.rank
    elt = _AffElt.translation(rs, mu)
    collected = []
    guard = 4 * (sum(rs.coroot_pair(mu, wc) for _, wc in rs.positive_roots()) + 1)
    while not elt.is_identity():
        guard -= 1
        if guard < 0:
            raise AssertionError("descent loop failed to terminate")
        for i in range(0, n + 1):
            if i == 0:
                beta = tuple(-c for c in rs.theta_root_coords())
                m0 = 1
            else:
                beta = tuple(1 if k == i - 1 else 0 for k in range(n))
                m0 = 0
            img, m = elt.apply(beta, m0)
            if m < 0 or (m == 0 and all(c <= 0 for c in img)):
                elt = elt.mul_simple_right(i)
                collected.append(i)
                break
        else:
            raise AssertionError("no descent found for non-identity element")
    return tuple(reversed(collected))

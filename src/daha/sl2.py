"""Cyclic modules over truncated sl2 supercurrents and their supercharacters.

The lab builds, by exact linear algebra over Q:

  * the 4-dimensional deformed block on basis (w, hz.xi.w, e.w, e.xi.w),
    with generator matrices solved from bracket compatibility plus the
    presentation relations on the cyclic vector;
  * fusion products of k blocks at distinct evaluation parameters, with
    Koszul signs for the odd generators;
  * the associated graded of the z-degree filtration on the cyclic vector
    and its supercharacter  sum_m q^m sum_b (-t)^b ch(F_m/F_{m-1})_b;
  * the four-step character recursion and the diagram-automorphism twist,
    solved at character level and frozen;
  * a three-way cross-validation against the operator pipeline.

One fully reduced echelon over Q, _Echelon, does all the elimination: the block solve, the spans
of the cyclicity check and the layers of the z-filtration.

Supercharacters are QTLaurent values over the A1 weight lattice, x = e^omega.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from .qt import QTPoly, RatQT
from .polyring import QTLaurent, _sum_terms, specialize_dim
from .roots import MAX_BOX, root_system
from .macdonald import a1_integral_scalar, nonsym_e, eigen_check

Generator = tuple[str, int, int]  # (symbol in {e,h,f}, z-degree, xi-degree)
Vector = dict[int, Fraction]

_WEIGHT_STEP = {"e": 2, "h": 0, "f": -2}
_BRACKET = {
    ("h", "e"): (2, "e"),
    ("e", "h"): (-2, "e"),
    ("h", "f"): (-2, "f"),
    ("f", "h"): (2, "f"),
    ("e", "f"): (1, "h"),
    ("f", "e"): (-1, "h"),
}


def _bracket(x: Generator, y: Generator) -> tuple[int, tuple[int, Generator] | None]:
    """The super-bracket [x, y] = x y - sign y x as (sign, target): target (c, g) means c g, None means 0."""
    (sx, ax, bx), (sy, ay, by) = x, y
    sign = -1 if (bx and by) else 1
    br = _BRACKET.get((sx, sy)) if bx + by <= 1 else None
    if br is None:
        return sign, None
    c, sym = br
    if sym == "f" and ax + ay == 0:
        raise AssertionError("bracket escaping the algebra")
    return sign, (c, (sym, ax + ay, bx + by))


DEPTH = 6  # the truncation: every generator has z-degree at most DEPTH (no plain f)
GENERATORS: list[Generator] = [
    (sym, a, b) for sym in "ehf" for a in range(sym == "f", DEPTH + 1) for b in (0, 1)
]


class FiniteRep:
    """Finite-dimensional module: labeled basis plus sparse action matrices."""

    __slots__ = ("weights", "xidegs", "actions", "cyclic_index")

    def __init__(self, weights: list[int], xidegs: list[int], actions: dict[Generator, list[Vector]],
                 cyclic_index: int):
        self.weights = weights  # h-eigenvalue of each basis vector (multiples of omega)
        self.xidegs = xidegs
        self.actions = actions  # column j = image of basis vector j
        self.cyclic_index = cyclic_index

    @property
    def dim(self) -> int:
        return len(self.weights)

    def apply(self, gen: Generator, v: Vector) -> Vector:
        cols = self.actions[gen]
        out: Vector = {}
        for j, c in v.items():
            for i, a in cols[j].items():
                s = out.get(i, Fraction(0)) + c * a
                if s:
                    out[i] = s
                else:
                    out.pop(i, None)
        return out

    def cyclic_vector(self) -> Vector:
        return {self.cyclic_index: Fraction(1)}

    def check_brackets(self):
        """Exact super-Jacobi compatibility for all generator pairs within DEPTH."""
        for x in GENERATORS:
            for y in GENERATORS:
                if x[1] + y[1] > DEPTH:
                    continue
                if not self._bracket_ok(x, y):
                    raise AssertionError(f"bracket failure for {x}, {y}")

    def _bracket_ok(self, x: Generator, y: Generator) -> bool:
        sign, target = _bracket(x, y)
        for j in range(self.dim):
            v = {j: Fraction(1)}
            lhs = self.apply(x, self.apply(y, v))
            rhs = self.apply(y, self.apply(x, v))
            comm = {
                i: lhs.get(i, Fraction(0)) - sign * rhs.get(i, Fraction(0))
                for i in set(lhs) | set(rhs)
            }
            comm = {i: c for i, c in comm.items() if c}
            want = {}
            if target is not None:
                c, g = target
                want = {i: c * v2 for i, v2 in self.apply(g, v).items() if c * v2}
            if comm != want:
                return False
        return True


# ---------------------------------------------------------------------------
# linear spans over Q
# ---------------------------------------------------------------------------

_CONST = None  # the key of the constant term in a _solve_linear row


def _add(row: dict, key, c: Fraction):
    s = row.get(key, 0) + c
    if s:
        row[key] = s
    else:
        row.pop(key, None)


class _Echelon:
    """Fully reduced row echelon form of sparse vectors over Q, the one exact elimination here.

    Each row has pivot coefficient 1, and no pivot occurs in another row, so reduce is one pass
    over the pivots present in a vector.  A row's pivot is its first key other than _CONST, so
    the keys may be basis indices or the block solver's (generator, i, j) unknowns.  insert
    changes earlier rows in place (their span stays the same); copy() copies them."""

    def __init__(self):
        self.rows: dict = {}  # pivot -> row with pivot coefficient 1

    def reduce(self, v: dict) -> dict:
        v = dict(v)
        for piv in [k for k in v if k in self.rows]:
            c = v[piv]
            for k, a in self.rows[piv].items():
                _add(v, k, -c * a)
        return v

    def insert(self, v: dict) -> bool:
        """Add v to the span; False if it is already there.  A vector that reduces to a nonzero
        constant alone is an inconsistent equation: ValueError."""
        v = self.reduce(v)
        piv = next((k for k in v if k is not _CONST), _CONST)
        if piv is _CONST:
            if v:
                raise ValueError("inconsistent constraint system")
            return False
        inv = 1 / Fraction(v[piv])
        row = {k: c * inv for k, c in v.items()}
        for r in self.rows.values():
            if c := r.get(piv):
                for k, a in row.items():
                    _add(r, k, -c * a)
        self.rows[piv] = row
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)

    def vectors(self) -> list[dict]:
        return list(self.rows.values())

    def copy(self) -> "_Echelon":
        out = _Echelon()
        out.rows = {piv: dict(r) for piv, r in self.rows.items()}  # a later insert changes rows in place
        return out


def _solve_linear(rows: list[dict]) -> dict:
    """The variables pinned by the rows {var: coefficient, _CONST: constant}, each meaning sum = 0.

    After full reduction a variable is pinned exactly when its row holds no other variable.
    Raises ValueError on an inconsistent system."""
    ech = _Echelon()
    for row in rows:
        ech.insert(row)
    return {piv: -r.get(_CONST, Fraction(0)) for piv, r in ech.rows.items() if len(r) - (_CONST in r) == 1}


def _closure(rep: FiniteRep, ech: _Echelon, gens: list[Generator], vectors: list[Vector]) -> _Echelon:
    """Insert vectors into ech, whose span is stable under gens, and close the span under gens."""
    vectors = [v for v in vectors if ech.insert(v)]
    while vectors:
        vectors = [img for v in vectors for g in gens if (img := rep.apply(g, v)) and ech.insert(img)]
    return ech


# ---------------------------------------------------------------------------
# the block solver
# ---------------------------------------------------------------------------

def deformed_block(alpha: Fraction | int) -> FiniteRep:
    """The 4-dimensional deformed module at evaluation parameter alpha.

    On the basis (w, hz.xi.w, e.w, e.xi.w), each matrix entry allowed by the weight and the
    xi-degree is one unknown.  The presentation pins h w = -w, h xi w = 0, h(z - alpha) w = 0 and
    the basis images; every other entry follows from the entries (i, j) of [x, y] - c g, one
    constraint each, a sum of products of two entries.  Each round solves the constraints in which
    every product has a known factor and adds the entries they pin, until all are known.
    """
    alpha = Fraction(alpha)
    weights = [-1, -1, 1, 1]
    xidegs = [0, 1, 0, 1]
    allowed = {
        g: {(i, j) for i in range(4) for j in range(4)
            if weights[i] == weights[j] + _WEIGHT_STEP[g[0]] and xidegs[i] == xidegs[j] + g[2]}
        for g in GENERATORS
    }
    known: dict[tuple[Generator, int, int], Fraction] = {
        (("h", 0, 0), i, i): Fraction(wt) for i, wt in enumerate(weights)  # h acts by the weight
    }
    known[("e", 0, 0), 2, 0] = Fraction(1)   # p := e w
    known[("e", 0, 1), 3, 0] = Fraction(1)   # r := e xi w
    known[("h", 1, 1), 1, 0] = Fraction(1)   # u := h z xi w
    known[("h", 0, 1), 1, 0] = Fraction(0)   # h xi w = 0
    known[("h", 1, 0), 0, 0] = -alpha        # h (z - alpha) w = 0

    # entry (i, j) of [x, y] - c g as terms (coefficient, entry, entry or None)
    constraints = []
    for x in GENERATORS:
        for y in GENERATORS:
            if x[1] + y[1] > DEPTH or x < y:
                continue
            sign, target = _bracket(x, y)
            for i in range(4):
                for j in range(4):
                    terms = [(1, (x, i, k), (y, k, j)) for k in range(4)
                             if (i, k) in allowed[x] and (k, j) in allowed[y]]
                    terms += [(-sign, (y, i, k), (x, k, j)) for k in range(4)
                              if (i, k) in allowed[y] and (k, j) in allowed[x]]
                    if target is not None and (i, j) in allowed[target[1]]:
                        terms.append((-target[0], (target[1], i, j), None))
                    if terms:
                        constraints.append(terms)

    free = {(g, i, j) for g in GENERATORS for i, j in allowed[g]} - known.keys()
    while free:
        rows = []
        for terms in constraints:
            row: dict = {}
            for c, u, v in terms:
                if v is not None:
                    if u in known:
                        c, u = c * known[u], v
                    elif v in known:
                        c = c * known[v]
                    else:
                        break
                if u in known:
                    _add(row, _CONST, c * known[u])
                else:
                    _add(row, u, c)
            else:
                rows.append(row)
        pinned = _solve_linear(rows)
        if not pinned:
            raise ValueError(f"block constraints underdetermined: {len(free)} free entries")
        known.update(pinned)
        free -= pinned.keys()

    actions = {
        g: [{i: known[g, i, j] for i in range(4) if (i, j) in allowed[g] and known[g, i, j]} for j in range(4)]
        for g in GENERATORS
    }
    rep = FiniteRep(weights=weights, xidegs=xidegs, actions=actions, cyclic_index=0)
    rep.check_brackets()
    w = rep.cyclic_vector()
    hz, hw = rep.apply(("h", 1, 0), w), rep.apply(("h", 0, 0), w)
    if any(hz.get(i, 0) - alpha * hw.get(i, 0) for i in set(hz) | set(hw)):
        raise ValueError("h(z - alpha) does not annihilate the cyclic vector")
    _check_cyclic(rep, 1)
    return rep


def _check_cyclic(rep: FiniteRep, k: int):
    """The cyclic-vector relations of k fused blocks, and that the cyclic vector generates rep."""
    w = rep.cyclic_vector()
    for a in range(1, DEPTH + 1):
        for b in (0, 1):
            if rep.apply(("f", a, b), w):
                raise ValueError("f z^a xi^b does not annihilate the cyclic vector")
    if rep.apply(("h", 0, 1), w):
        raise ValueError("h xi does not annihilate the cyclic vector")
    v = w
    for _ in range(k + 1):
        v = rep.apply(("e", 0, 0), v)
    if v:
        raise ValueError(f"e^{k + 1} does not annihilate the cyclic vector")
    if _closure(rep, _Echelon(), GENERATORS, [w]).dim != rep.dim:
        raise ValueError("module is not cyclic")


# ---------------------------------------------------------------------------
# fusion product
# ---------------------------------------------------------------------------

def _check_fusion_size(k: int):
    """ValueError unless k >= 1 and a fusion of k blocks has at most MAX_BOX action entries (fusion)."""
    if k < 1:
        raise ValueError("k must be positive")
    if (entries := len(GENERATORS) * k * 4 ** k) > MAX_BOX:
        raise ValueError(f"a fusion of {k} blocks has up to {entries} action entries, more than the {MAX_BOX} allowed")


def fusion(k: int, alphas: tuple | None = None) -> FiniteRep:
    """Tensor product of k deformed blocks at pairwise distinct parameters.

    Each generator acts on the 4^k basis vectors by columns of at most k entries, so a table of
    more than MAX_BOX entries (k >= 8) is refused before any block is built."""
    _check_fusion_size(k)
    if alphas is None:
        alphas = tuple(range(1, k + 1))
    alphas = tuple(Fraction(a) for a in alphas)
    if len(alphas) != k or len(set(alphas)) != k:
        raise ValueError("need k pairwise distinct evaluation parameters")
    blocks = [deformed_block(a) for a in alphas]
    labels = list(product(*(range(b.dim) for b in blocks)))
    index = {lab: n for n, lab in enumerate(labels)}
    weights = [sum(blocks[f].weights[i] for f, i in enumerate(lab)) for lab in labels]
    xidegs = [sum(blocks[f].xidegs[i] for f, i in enumerate(lab)) for lab in labels]

    actions: dict[Generator, list[Vector]] = {}
    for gen in GENERATORS:
        odd = gen[2] == 1
        cols: list[Vector] = []
        for lab in labels:
            col: Vector = {}
            sign = 1
            for f in range(k):
                img_col = blocks[f].actions[gen][lab[f]]
                for i, c in img_col.items():
                    lab2 = lab[:f] + (i,) + lab[f + 1:]
                    idx = index[lab2]
                    s = col.get(idx, Fraction(0)) + sign * c
                    if s:
                        col[idx] = s
                    else:
                        col.pop(idx, None)
                if odd and blocks[f].xidegs[lab[f]] == 1:
                    sign = -sign
            cols.append(col)
        actions[gen] = cols

    rep = FiniteRep(weights=weights, xidegs=xidegs, actions=actions, cyclic_index=index[(0,) * k])
    _check_cyclic(rep, k)
    return rep


# ---------------------------------------------------------------------------
# filtration and supercharacter
# ---------------------------------------------------------------------------

def graded_character(rep: FiniteRep) -> QTLaurent:
    """Supercharacter of the associated graded of the z-filtration on the cyclic vector.

    A layer equal to its predecessor is stable under the z-degree 0 and 1 generators, which
    generate the truncated algebra, so it is the cyclic submodule: below full dimension the
    module is not cyclic."""
    rs = root_system("A1")
    zero_gens = [g for g in GENERATORS if g[1] == 0]
    pos_gens = [g for g in GENERATORS if g[1] >= 1]
    layers = [_closure(rep, _Echelon(), zero_gens, [rep.cyclic_vector()])]
    while layers[-1].dim < rep.dim:
        m = len(layers)
        new = [rep.apply(g, v) for g in pos_gens if g[1] <= m for v in layers[m - g[1]].vectors()]
        layers.append(_closure(rep, layers[-1].copy(), zero_gens, new))
        if layers[-1].dim == layers[-2].dim:
            raise ValueError("module is not cyclic")

    def component_dims(ech: _Echelon) -> dict[tuple[int, int], int]:
        # every inserted vector is homogeneous in (weight, xi-degree), and elimination only combines
        # rows of one component, so a row's pivot names its component
        out: dict[tuple[int, int], int] = {}
        for i in ech.rows:
            key = (rep.weights[i], rep.xidegs[i])
            out[key] = out.get(key, 0) + 1
        return out

    terms: list[tuple[tuple[int], RatQT]] = []
    prev: dict[tuple[int, int], int] = {}
    for m, ech in enumerate(layers):
        dims = component_dims(ech)
        for (wt, b), d in dims.items():
            delta = d - prev.get((wt, b), 0)
            if delta:
                terms.append(((wt,), RatQT.monomial((-1) ** (b % 2) * delta, m, b)))
        prev = dims
    out = QTLaurent(rs, _sum_terms(terms))
    _assert_supercharacter(out)
    return out


def _assert_supercharacter(f: QTLaurent):
    for w, c in f.terms.items():
        if not c.is_polynomial():
            raise AssertionError("supercharacter with non-polynomial coefficient")
        if c.num.min_exps()[0] < 0:
            raise AssertionError("supercharacter with negative q-exponent")


# ---------------------------------------------------------------------------
# integral forms from the operator pipeline, twist, recursion
# ---------------------------------------------------------------------------

def daha_integral_form(m: int) -> QTLaurent:
    """Scalar-normalized E_{m omega}: prod_{j<=k}(1-t q^j) E with k = -m or m-1."""
    rs = root_system("A1")
    k = -m if m <= 0 else m - 1
    e = nonsym_e(rs, (m,)).e_poly
    return e.scale(a1_integral_scalar(k))


class TwistRule:
    """Character substitution x^m q^j -> x^{1-m} q^{j + slope*(m - anchor)}."""

    __slots__ = ("slope",)

    def __init__(self, slope: Fraction):
        self.slope = slope

    def apply(self, f: QTLaurent) -> QTLaurent:
        rs = f.rs
        if f.is_zero():
            return f
        anchor = min(w[0] for w in f.terms)
        out: dict[tuple[int, ...], RatQT] = {}
        for (m,), c in f.terms.items():  # m -> 1 - m is one-to-one, so nothing is summed
            shift = self.slope * (m - anchor)
            if shift.denominator != 1:
                raise ValueError(f"twist produces fractional q-power at weight {m}")
            out[(1 - m,)] = c * RatQT.monomial(1, int(shift), 0)
        return QTLaurent(rs, out)


@lru_cache(maxsize=None)
def twist_cocycle() -> TwistRule:
    """Solve the character-level twist from the single k = 1 constraint.

    The rule must send the degree-normalized character of the lowest
    negative-weight module to the one with leading weight 2, and fix the
    q-degree of the lowest-weight term.  That pins an affine-linear exponent
    shift c(m) = slope * (m - anchor) with anchor at the lowest weight.
    """
    src = daha_integral_form(-1)
    dst = daha_integral_form(2)
    src_terms = dict(src.terms)
    dst_terms = dict(dst.terms)
    anchor = min(w[0] for w in src_terms)
    shifts: dict[int, int] = {}
    for (m,), c in src_terms.items():
        target = dst_terms.get((1 - m,))
        if target is None:
            raise ValueError(f"twist constraint unsolvable: no image weight {1-m}\n{src}\n{dst}")
        ratio = target / c
        mono = ratio.as_monomial()
        if mono is None or mono[0] != 1 or mono[2] != 0:
            raise ValueError(f"twist constraint unsolvable: non-monomial ratio {ratio}\n{src}\n{dst}")
        shifts[m] = mono[1]
    if shifts.get(anchor) != 0:
        raise ValueError(f"twist does not fix the lowest-weight degree: {shifts}\n{src}\n{dst}")
    slopes = {
        Fraction(shifts[m] - shifts[anchor], m - anchor) for m in shifts if m != anchor
    }
    if len(slopes) != 1:
        raise ValueError(f"no affine-linear exponent shift fits: {shifts}\n{src}\n{dst}")
    rule = TwistRule(slope=slopes.pop())
    if rule.apply(src) != dst:
        raise ValueError(f"solved twist fails its defining constraint\n{src}\n{dst}")
    return rule


def pi_twist(f: QTLaurent) -> QTLaurent:
    return twist_cocycle().apply(f)


def recursion_e(m: int) -> QTLaurent:
    """Degree-normalized characters from the four-step filtration recursion."""
    rs = root_system("A1")
    if m == 0:
        return QTLaurent.one(rs)
    if m > 0:
        return pi_twist(recursion_e(-(m - 1)))
    k = -m - 1  # recursion step from -k to -(k+1)
    lower = recursion_e(-k)
    upper = pi_twist(lower)  # recursion_e(k + 1)
    coeff = RatQT(QTPoly({(0, 0): 1, (k + 1, 1): -1}))  # 1 - t q^{k+1}
    one_minus_t = RatQT(QTPoly({(0, 0): 1, (0, 1): -1}))
    x_inv = QTLaurent.mono(rs, (-1,))
    return (x_inv * lower).scale(coeff) + upper.scale(one_minus_t)


# ---------------------------------------------------------------------------
# cross validation
# ---------------------------------------------------------------------------

class CrossValidation:
    __slots__ = ("k", "character", "dimension", "checks")

    def __init__(self, k: int, character: QTLaurent, dimension: int, checks: list[tuple[str, bool, str]]):
        self.k = k
        self.character = character
        self.dimension = dimension
        self.checks = checks

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def cross_validate(k_max: int) -> list[CrossValidation]:
    """Fusion supercharacter == filtration recursion == operator integral form, plus
    dimensions 4^k, independence of the deformation parameters, and eigenvalue patterns.  A k_max
    whose fusion is refused is refused before k = 1 runs."""
    _check_fusion_size(k_max)
    rs = root_system("A1")
    out = []
    for k in range(1, k_max + 1):
        checks = []
        rep = fusion(k, tuple(range(1, k + 1)))
        a = graded_character(rep)
        b = recursion_e(-k)
        c = daha_integral_form(-k)
        checks.append(("fusion == recursion", a == b, f"{a} vs {b}" if a != b else ""))
        checks.append(("recursion == operator form", b == c, f"{b} vs {c}" if b != c else ""))
        dim = specialize_dim(a)
        checks.append((f"dimension == 4^{k}", dim == 4 ** k, str(dim)))
        alt = graded_character(fusion(k, tuple(Fraction(2 * j + 1, 2) for j in range(k))))
        checks.append(("alpha-independence", alt == a, ""))
        neg = eigen_check(rs, (-k,), (1,))
        ok = neg.ok and neg.q_exp == k and neg.t_exp == 2
        checks.append((f"eigen pattern at -{k}", ok, f"q^{neg.q_exp} t^{neg.t_exp}"))
        pos = eigen_check(rs, (k + 1,), (1,))
        ok = pos.ok and pos.q_exp == -(k + 1) and pos.t_exp == 0
        checks.append((f"eigen pattern at {k+1}", ok, f"q^{pos.q_exp} t^{pos.t_exp}"))
        out.append(CrossValidation(k=k, character=a, dimension=int(dim), checks=checks))
    return out

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

Supercharacters are QTLaurent values over the A1 weight lattice, x = e^omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .qt import QTPoly, RatQT
from .polyring import QTLaurent, specialize_dim
from .roots import root_system
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


def generators(depth: int) -> list[Generator]:
    """All algebra generators with z-degree at most depth (no plain f)."""
    out = []
    for sym in "ehf":
        lo = 1 if sym == "f" else 0
        for a in range(lo, depth + 1):
            for b in (0, 1):
                out.append((sym, a, b))
    return out


@dataclass
class FiniteRep:
    """Finite-dimensional module: labeled basis plus sparse action matrices."""

    weights: list[int]            # h-eigenvalue of each basis vector (multiples of omega)
    xidegs: list[int]
    zdegs: list[int | None]       # None when the module is deformed (not z-graded)
    actions: dict[Generator, list[Vector]]  # column j = image of basis vector j
    cyclic_index: int
    depth: int

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

    def apply_word(self, gens: list[Generator], v: Vector) -> Vector:
        for g in reversed(gens):
            v = self.apply(g, v)
        return v

    def cyclic_vector(self) -> Vector:
        return {self.cyclic_index: Fraction(1)}

    def check_brackets(self):
        """Exact super-Jacobi compatibility for all generator pairs within depth."""
        gens = generators(self.depth)
        for x in gens:
            for y in gens:
                if x[1] + y[1] > self.depth:
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
# linear expressions and the block solver
# ---------------------------------------------------------------------------

class _Deferred(Exception):
    """Both factors symbolic: retry once more entries are numeric."""


class _Lin:
    """Affine-linear expression over solver variables with Fraction coefficients."""

    __slots__ = ("const", "lin")

    def __init__(self, const=Fraction(0), lin=None):
        self.const = Fraction(const)
        self.lin = lin or {}

    @classmethod
    def var(cls, v: int) -> "_Lin":
        return cls(Fraction(0), {v: Fraction(1)})

    def is_const(self) -> bool:
        return not self.lin

    def __add__(self, other: "_Lin") -> "_Lin":
        lin = dict(self.lin)
        for v, c in other.lin.items():
            s = lin.get(v, Fraction(0)) + c
            if s:
                lin[v] = s
            else:
                lin.pop(v, None)
        return _Lin(self.const + other.const, lin)

    def __sub__(self, other: "_Lin") -> "_Lin":
        return self + other.scale(Fraction(-1))

    def scale(self, c: Fraction) -> "_Lin":
        if not c:
            return _Lin()
        return _Lin(self.const * c, {v: x * c for v, x in self.lin.items()})

    def mul(self, other: "_Lin") -> "_Lin":
        if self.is_const():
            return other.scale(self.const)
        if other.is_const():
            return self.scale(other.const)
        raise _Deferred

    def subst(self, sol: dict[int, Fraction]) -> "_Lin":
        const = self.const
        lin = {}
        for v, c in self.lin.items():
            if v in sol:
                const += c * sol[v]
            else:
                lin[v] = c
        return _Lin(const, lin)


def _solve_linear(eqs: list[_Lin]) -> dict[int, Fraction]:
    """Determine as many variables as the system pins uniquely; detect inconsistency."""
    rows = [e for e in eqs if e.lin or e.const]
    for e in rows:
        if not e.lin and e.const:
            raise ValueError("inconsistent constraint system")
    # Gaussian elimination over the occurring variables
    rows = [e for e in rows if e.lin]
    reduced: list[_Lin] = []
    for e in rows:
        for r in reduced:
            piv = min(r.lin)
            if piv in e.lin:
                e = e - r.scale(e.lin[piv] / r.lin[piv])
        if not e.lin:
            if e.const:
                raise ValueError("inconsistent constraint system")
            continue
        piv = min(e.lin)
        e = e.scale(1 / e.lin[piv])
        reduced = [
            r - e.scale(r.lin[piv]) if piv in r.lin else r for r in reduced
        ]
        reduced.append(e)
    sol = {}
    changed = True
    while changed:
        changed = False
        for r in list(reduced):
            r2 = r.subst(sol)
            if not r2.lin:
                if r2.const:
                    raise ValueError("inconsistent constraint system")
                reduced.remove(r)
                changed = True
            elif len(r2.lin) == 1:
                v, c = next(iter(r2.lin.items()))
                sol[v] = -r2.const / c
                reduced.remove(r)
                changed = True
    return sol


def deformed_block(alpha: Fraction | int, depth: int = 6) -> FiniteRep:
    """The 4-dimensional deformed module at evaluation parameter alpha.

    Generator matrices are the unique solution of the linear constraints:
    bracket compatibility, the presentation relations annihilating the
    cyclic vector, h w = -w, and the basis being (w, hz.xi.w, e.w, e.xi.w).
    """
    return _deformed_block_cached(Fraction(alpha), depth)


@lru_cache(maxsize=None)
def _deformed_block_cached(alpha: Fraction, depth: int) -> FiniteRep:
    weights = [-1, -1, 1, 1]
    xidegs = [0, 1, 0, 1]
    gens = generators(depth)

    counter = [0]
    entries: dict[Generator, list[list[_Lin | None]]] = {}
    for sym, a, b in gens:
        mat: list[list[_Lin | None]] = [[None] * 4 for _ in range(4)]
        for j in range(4):
            for i in range(4):
                if weights[i] != weights[j] + _WEIGHT_STEP[sym]:
                    continue
                if xidegs[i] != xidegs[j] + b:
                    continue
                counter[0] += 1
                mat[i][j] = _Lin.var(counter[0])
        entries[(sym, a, b)] = mat

    def pin(gen: Generator, i: int, j: int, value: Fraction):
        assert entries[gen][i][j] is not None, (gen, i, j)
        entries[gen][i][j] = _Lin(value)

    # h acts by the weight
    for i, wt in enumerate(weights):
        pin(("h", 0, 0), i, i, Fraction(wt))
    pin(("e", 0, 0), 2, 0, Fraction(1))    # p := e w
    pin(("e", 0, 1), 3, 0, Fraction(1))    # r := e xi w
    pin(("h", 1, 1), 1, 0, Fraction(1))    # u := h z xi w
    pin(("h", 0, 1), 1, 0, Fraction(0))    # h xi w = 0
    pin(("h", 1, 0), 0, 0, -alpha)         # h (z - alpha) w = 0

    sol: dict[int, Fraction] = {}

    def current(gen: Generator) -> list[list[_Lin | None]]:
        return [
            [None if e is None else e.subst(sol) for e in row]
            for row in entries[gen]
        ]

    def apply_lin(mat, vec: list[_Lin]) -> list[_Lin]:
        out = [_Lin() for _ in range(4)]
        for j in range(4):
            if vec[j].is_const() and not vec[j].const:
                continue
            for i in range(4):
                e = mat[i][j]
                if e is None:
                    continue
                out[i] = out[i] + e.mul(vec[j])
        return out

    basis_vecs = [[_Lin(Fraction(1) if i == j else 0) for i in range(4)] for j in range(4)]

    while True:
        eqs: list[_Lin] = []
        for x in gens:
            for y in gens:
                if x[1] + y[1] > depth or x < y:
                    continue
                sign, target = _bracket(x, y)
                mx, my = current(x), current(y)
                for j in range(4):
                    try:
                        lhs = apply_lin(mx, apply_lin(my, basis_vecs[j]))
                        rhs = apply_lin(my, apply_lin(mx, basis_vecs[j]))
                        want = [_Lin() for _ in range(4)]
                        if target is not None:
                            c, g = target
                            want = [e.scale(Fraction(c)) for e in apply_lin(current(g), basis_vecs[j])]
                        for i in range(4):
                            e = lhs[i] - rhs[i].scale(Fraction(sign)) - want[i]
                            if e.lin or e.const:
                                eqs.append(e)
                    except _Deferred:
                        continue
        new = _solve_linear(eqs)
        progress = False
        for v, val in new.items():
            if v not in sol:
                sol[v] = val
                progress = True
        unknown = sum(
             1
             for gen in gens
             for row in current(gen)
             for e in row
             if e is not None and not e.is_const()
        )
        if unknown == 0:
            break
        if not progress:
            raise ValueError(f"block constraints underdetermined: {unknown} free entries")

    actions: dict[Generator, list[Vector]] = {}
    for gen in gens:
        mat = current(gen)
        cols: list[Vector] = []
        for j in range(4):
            col: Vector = {}
            for i in range(4):
                e = mat[i][j]
                if e is not None and e.const:
                    col[i] = e.const
            cols.append(col)
        actions[gen] = cols

    rep = FiniteRep(
        weights=weights,
        xidegs=xidegs,
        zdegs=[None] * 4,
        actions=actions,
        cyclic_index=0,
        depth=depth,
    )
    rep.check_brackets()
    w = rep.cyclic_vector()
    hz, hw = rep.apply(("h", 1, 0), w), rep.apply(("h", 0, 0), w)
    if any(hz.get(i, 0) - alpha * hw.get(i, 0) for i in set(hz) | set(hw)):
        raise ValueError("h(z - alpha) does not annihilate the cyclic vector")
    _check_cyclic(rep, 1)
    return rep


# ---------------------------------------------------------------------------
# linear spans over Q
# ---------------------------------------------------------------------------

class _Echelon:
    """Row-reduced spanning set of sparse vectors over Q."""

    def __init__(self):
        self.rows: dict[int, Vector] = {}  # pivot index -> normalized vector

    def reduce(self, v: Vector) -> Vector:
        v = dict(v)
        while v:
            piv = min(v)
            row = self.rows.get(piv)
            if row is None:
                return v
            c = v[piv]
            for i, a in row.items():
                s = v.get(i, Fraction(0)) - c * a
                if s:
                    v[i] = s
                else:
                    v.pop(i, None)
        return v

    def insert(self, v: Vector) -> bool:
        v = self.reduce(v)
        if not v:
            return False
        piv = min(v)
        inv = 1 / v[piv]
        self.rows[piv] = {i: c * inv for i, c in v.items()}
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)

    def vectors(self) -> list[Vector]:
        return list(self.rows.values())

    def copy(self) -> "_Echelon":
        out = _Echelon()
        out.rows = dict(self.rows)  # rows are never mutated in place
        return out


def _closure(rep: FiniteRep, ech: _Echelon, gens: list[Generator], vectors: list[Vector]) -> _Echelon:
    """Insert vectors into ech, whose span is stable under gens, and close the span under gens."""
    vectors = [v for v in vectors if ech.insert(v)]
    while vectors:
        vectors = [img for v in vectors for g in gens if (img := rep.apply(g, v)) and ech.insert(img)]
    return ech


def _check_cyclic(rep: FiniteRep, k: int):
    """The cyclic-vector relations of k fused blocks, and that the cyclic vector generates rep."""
    w = rep.cyclic_vector()
    for a in range(1, rep.depth + 1):
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
    if _closure(rep, _Echelon(), generators(rep.depth), [w]).dim != rep.dim:
        raise ValueError("module is not cyclic")


# ---------------------------------------------------------------------------
# fusion product
# ---------------------------------------------------------------------------

def fusion(k: int, alphas: tuple | None = None, depth: int = 6) -> FiniteRep:
    """Tensor product of k deformed blocks at pairwise distinct parameters."""
    if k < 1:
        raise ValueError("k must be positive")
    if alphas is None:
        alphas = tuple(range(1, k + 1))
    alphas = tuple(Fraction(a) for a in alphas)
    if len(alphas) != k or len(set(alphas)) != k:
        raise ValueError("need k pairwise distinct evaluation parameters")
    blocks = [deformed_block(a, depth) for a in alphas]
    dims = [b.dim for b in blocks]
    index: dict[tuple[int, ...], int] = {}
    labels: list[tuple[int, ...]] = []

    def rec(pref):
        if len(pref) == k:
            index[tuple(pref)] = len(labels)
            labels.append(tuple(pref))
            return
        for i in range(dims[len(pref)]):
            rec(pref + [i])

    rec([])
    weights = [sum(blocks[f].weights[i] for f, i in enumerate(lab)) for lab in labels]
    xidegs = [sum(blocks[f].xidegs[i] for f, i in enumerate(lab)) for lab in labels]

    actions: dict[Generator, list[Vector]] = {}
    for gen in generators(depth):
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

    rep = FiniteRep(
        weights=weights,
        xidegs=xidegs,
        zdegs=[None] * len(labels),
        actions=actions,
        cyclic_index=index[(0,) * k],
        depth=depth,
    )
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
    gens = generators(rep.depth)
    zero_gens = [g for g in gens if g[1] == 0]
    pos_gens = [g for g in gens if g[1] >= 1]
    layers = [_closure(rep, _Echelon(), zero_gens, [rep.cyclic_vector()])]
    while layers[-1].dim < rep.dim:
        m = len(layers)
        new = [rep.apply(g, v) for g in pos_gens if g[1] <= m for v in layers[m - g[1]].vectors()]
        layers.append(_closure(rep, layers[-1].copy(), zero_gens, new))
        if layers[-1].dim == layers[-2].dim:
            raise ValueError("module is not cyclic")

    def component_dims(ech: _Echelon) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for v in ech.vectors():
            i = min(v)
            key = (rep.weights[i], rep.xidegs[i])
            out[key] = out.get(key, 0) + 1
        return out

    char: dict[tuple[int, ...], RatQT] = {}
    prev: dict[tuple[int, int], int] = {}
    for m, ech in enumerate(layers):
        dims = component_dims(ech)
        for (wt, b), d in dims.items():
            delta = d - prev.get((wt, b), 0)
            if delta:
                c = RatQT(QTPoly.monomial(delta * (-1) ** (b % 2) if b % 2 else delta, m, b))
                key = (wt,)
                cur = char.get(key)
                char[key] = c if cur is None else cur + c
        prev = dims
    out = QTLaurent(rs, char)
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

@lru_cache(maxsize=None)
def daha_integral_form(m: int) -> QTLaurent:
    """Scalar-normalized E_{m omega}: prod_{j<=k}(1-t q^j) E with k = -m or m-1."""
    rs = root_system("A1")
    k = -m if m <= 0 else m - 1
    e = nonsym_e(rs, (m,)).e_poly
    return e.scale(a1_integral_scalar(k))


@dataclass(frozen=True)
class TwistRule:
    """Character substitution x^m q^j -> x^{1-m} q^{j + slope*(m - anchor)}."""

    slope: Fraction

    def apply(self, f: QTLaurent) -> QTLaurent:
        rs = f.rs
        if f.is_zero():
            return f
        anchor = min(w[0] for w in f.terms)
        out: dict[tuple[int, ...], RatQT] = {}
        for w, c in f.terms.items():
            m = w[0]
            shift = self.slope * (m - anchor)
            if shift.denominator != 1:
                raise ValueError(f"twist produces fractional q-power at weight {m}")
            c2 = c * RatQT.monomial(1, int(shift), 0)
            key = (1 - m,)
            cur = out.get(key)
            out[key] = c2 if cur is None else cur + c2
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


@lru_cache(maxsize=None)
def recursion_e(m: int) -> QTLaurent:
    """Degree-normalized characters from the four-step filtration recursion."""
    rs = root_system("A1")
    if m == 0:
        return QTLaurent.one(rs)
    if m > 0:
        return pi_twist(recursion_e(-(m - 1)))
    k = -m - 1  # recursion step from -k to -(k+1)
    lower = recursion_e(-k)
    upper = recursion_e(k + 1)
    coeff = RatQT(QTPoly({(0, 0): 1, (k + 1, 1): -1}))  # 1 - t q^{k+1}
    one_minus_t = RatQT(QTPoly({(0, 0): 1, (0, 1): -1}))
    x_inv = QTLaurent.mono(rs, (-1,))
    return (x_inv * lower).scale(coeff) + upper.scale(one_minus_t)


# ---------------------------------------------------------------------------
# cross validation
# ---------------------------------------------------------------------------

@dataclass
class CrossValidation:
    k: int
    character: QTLaurent
    dimension: int
    checks: list[tuple[str, bool, str]]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def cross_validate(k_max: int, depth: int = 6) -> list[CrossValidation]:
    """Fusion supercharacter == filtration recursion == operator integral form, plus
    dimensions 4^k, independence of the deformation parameters, and eigenvalue patterns."""
    if k_max < 1:
        raise ValueError("k must be positive")
    rs = root_system("A1")
    out = []
    for k in range(1, k_max + 1):
        checks = []
        rep = fusion(k, tuple(range(1, k + 1)), depth)
        a = graded_character(rep)
        b = recursion_e(-k)
        c = daha_integral_form(-k)
        checks.append(("fusion == recursion", a == b, f"{a} vs {b}" if a != b else ""))
        checks.append(("recursion == operator form", b == c, f"{b} vs {c}" if b != c else ""))
        dim = specialize_dim(a)
        checks.append((f"dimension == 4^{k}", dim == 4 ** k, str(dim)))
        alt = graded_character(fusion(k, tuple(Fraction(2 * j + 1, 2) for j in range(k)), depth))
        checks.append(("alpha-independence", alt == a, ""))
        neg = eigen_check(rs, (-k,), (1,))
        ok = neg.ok and neg.q_exp == k and neg.t_exp == 2
        checks.append((f"eigen pattern at -{k}", ok, f"q^{neg.q_exp} t^{neg.t_exp}"))
        pos = eigen_check(rs, (k + 1,), (1,))
        ok = pos.ok and pos.q_exp == -(k + 1) and pos.t_exp == 0
        checks.append((f"eigen pattern at {k+1}", ok, f"q^{pos.q_exp} t^{pos.t_exp}"))
        out.append(CrossValidation(k=k, character=a, dimension=int(dim), checks=checks))
    return out

"""Demazure-Lusztig operators and the relation-verification suites.

The generator T_i acts on the group algebra by

    T_i f = t (s_i f) + (t - 1) (s_i f - f) / (X^{alpha_i} - 1)

and the division is an exact geometric string sum, so the image is again a
Laurent element.  For the affine index i = 0 the substitutions are
X^{alpha_0} = q e^{-theta} and the level-zero twisted reflection
s_0 . e^mu = q^{<theta^vee, mu>} e^{s_theta mu}.

Y-operators for coroot-lattice vectors come from reduced words of translation
elements; the composition order is "first letter outermost", which for A1
makes Y^{alpha^vee} = T_0 T_1.

Coefficient ring.  T_i, T_i^{-1}, Y and the symmetrizer map Z[q^±, t^±][P]
into itself, so they run on one integer kernel: an element is a dict
{weight: {(dq, dt): int}}, and T_i only adds integer coefficients at shifted
exponents.  The public operators take and return QTLaurent and convert once
per call.  An input with a non-polynomial coefficient is first multiplied by
the lcm D of its denominators; the operators are Q(q, t)-linear, so the image
is the kernel image divided by D.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .qt import ONE_P, QTPoly, RatQT, Term, div_exact, poly_lcm
from .polyring import QTLaurent, orbit_sum
from .roots import RootSystem, Weight, WeylWord, CorootVec, weight_box

R_T = RatQT.monomial(1, 0, 1)

Kernel = dict[Weight, dict[Term, int]]


def _pairing(rs: RootSystem, i: int, mu: Weight) -> int:
    """<alpha_i^vee, mu>, with the level-zero convention at i = 0."""
    return -rs.theta_pair(mu) if i == 0 else mu[i - 1]


def _alpha_step(rs: RootSystem, i: int) -> tuple[Weight, int]:
    """X^{alpha_i} as (weight, power of q)."""
    if i == 0:
        return tuple(-c for c in rs.theta()), 1
    return rs.simple_root(i), 0


# ---------------------------------------------------------------------------
# the integer kernel
# ---------------------------------------------------------------------------

def _acc(out: Kernel, w: Weight, c: dict[Term, int], dq: int, dt: int, c0: int, c1: int):
    """out[w] += q^dq t^dt (c0 + c1 t) c."""
    d = out.get(w)
    if d is None:
        d = out[w] = {}
    for (a, b), v in c.items():
        if c0:
            k = (a + dq, b + dt)
            d[k] = d.get(k, 0) + c0 * v
        if c1:
            k = (a + dq, b + dt + 1)
            d[k] = d.get(k, 0) + c1 * v


def _pruned(out: Kernel) -> Kernel:
    return {w: d for w, c in out.items() if (d := {k: v for k, v in c.items() if v})}


def _t(rs: RootSystem, i: int, f: Kernel) -> Kernel:
    """T_i on the kernel form.  With m = <alpha_i^vee, mu>, s_i e^mu = X^{-m alpha_i} e^mu and
    T_i e^mu = t X^{-m alpha_i} e^mu + (1 - t) sum_{k=1..m} X^{-k alpha_i} e^mu (the k = m terms
    add up to X^{-m alpha_i} e^mu), or + (t - 1) sum_{k=0..-m-1} X^{k alpha_i} e^mu when m <= 0.
    A shift (k, c0, c1) stands for (c0 + c1 t) X^{k alpha_i} e^mu."""
    out: Kernel = {}
    step_w, step_q = _alpha_step(rs, i)
    for mu, c in f.items():
        m = _pairing(rs, i, mu)
        shifts = ([(-k, 1, -1) for k in range(1, m)] + [(-m, 1, 0)] if m > 0
                  else [(-m, 0, 1)] + [(k, -1, 1) for k in range(-m)])
        for k, c0, c1 in shifts:
            _acc(out, tuple(a + k * b for a, b in zip(mu, step_w)), c, k * step_q, 0, c0, c1)
    return _pruned(out)


def _t_inv(rs: RootSystem, i: int, f: Kernel) -> Kernel:
    """T_i^{-1} = t^{-1} T_i + t^{-1} - 1 on the kernel form."""
    out: Kernel = {}
    for w, c in _t(rs, i, f).items():
        _acc(out, w, c, 0, -1, 1, 0)
    for w, c in f.items():
        _acc(out, w, c, 0, -1, 1, -1)
    return _pruned(out)


def _word(rs: RootSystem, word: WeylWord, f: Kernel) -> Kernel:
    for i in reversed(word):
        f = _t(rs, i, f)
    return f


def _y(rs: RootSystem, mu: CorootVec, f: Kernel) -> Kernel:
    if len(mu) != rs.rank:
        raise ValueError("coroot vector has wrong rank")
    plus, minus = _dominant_decomposition(rs, mu)
    for i in rs.translation_word(minus) if any(minus) else ():
        f = _t_inv(rs, i, f)
    return _word(rs, rs.translation_word(plus), f) if any(plus) else f


def _kernel(f: QTLaurent) -> tuple[Kernel, QTPoly]:
    """(k, D) with f = k / D and D the lcm of the coefficient denominators."""
    den = ONE_P
    for c in f.terms.values():
        if not c.is_polynomial():
            den = poly_lcm(den, c.den)
    return {w: c.num.terms if c.den == den else (c.num * div_exact(den, c.den)).terms
            for w, c in f.terms.items()}, den


def _lifted(rs: RootSystem, op, f: QTLaurent) -> QTLaurent:
    """Run a kernel operator on a QTLaurent, converting once each way."""
    k, den = _kernel(f)
    return QTLaurent(rs, {w: RatQT(QTPoly(c), den, _reduced=den.is_one()) for w, c in op(k).items()})


# ---------------------------------------------------------------------------
# the operators
# ---------------------------------------------------------------------------

def dl_op(rs: RootSystem, i: int, f: QTLaurent) -> QTLaurent:
    """Apply T_i, i in 0..rank."""
    return _lifted(rs, lambda k: _t(rs, i, k), f)


def dl_inv(rs: RootSystem, i: int, f: QTLaurent) -> QTLaurent:
    """T_i^{-1} = t^{-1} T_i + t^{-1} - 1."""
    return _lifted(rs, lambda k: _t_inv(rs, i, k), f)


def word_op(rs: RootSystem, word: WeylWord, f: QTLaurent) -> QTLaurent:
    """T_{i_1} ... T_{i_k} f, first letter outermost."""
    return _lifted(rs, lambda k: _word(rs, word, k), f)


def y_op(rs: RootSystem, mu: CorootVec, f: QTLaurent) -> QTLaurent:
    """Y^mu for mu in the coroot lattice, via dominant decomposition mu = mu_+ - mu_-."""
    return _lifted(rs, lambda k: _y(rs, mu, k), f)


def _dominant_decomposition(rs: RootSystem, mu: CorootVec) -> tuple[CorootVec, CorootVec]:
    """Write mu = mu_+ - mu_- with both dominant (greedy over dominant coroot generators)."""
    if all(rs.coroot_pair(mu, wc) >= 0 for _, wc in rs.positive_roots()):
        return mu, (0,) * rs.rank
    # mu + N rho^vee-like correction: use the smallest strictly dominant vector
    base = strictly_dominant_coroot(rs)
    n = 1
    while True:
        cand = tuple(m + n * b for m, b in zip(mu, base))
        if all(rs.coroot_pair(cand, wc) >= 0 for _, wc in rs.positive_roots()):
            return cand, tuple(n * b for b in base)
        n += 1


def strictly_dominant_coroot(rs: RootSystem) -> CorootVec:
    """Smallest coroot-lattice vector with all simple-root pairings >= 1."""
    best = None
    for total in range(1, 8 * rs.rank):
        for c in _compositions(total, rs.rank):
            if all(rs.coroot_pair(c, rs.simple_root(j + 1)) >= 1 for j in range(rs.rank)):
                return c
    raise AssertionError("no strictly dominant coroot vector found")


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for v in range(total + 1):
        for rest in _compositions(total - v, parts - 1):
            yield (v,) + rest


def demazure_op(rs: RootSystem, i: int, f: QTLaurent) -> QTLaurent:
    """D_i = T_i + 1."""
    return dl_op(rs, i, f) + f


def demazure_char(rs: RootSystem, word: WeylWord, lam: Weight) -> QTLaurent:
    """(T_{i_1}+1) ... (T_{i_k}+1) e^lam for a word over the finite indices."""
    if any(i == 0 for i in word):
        raise ValueError("demazure_char takes a word over the finite indices")
    f = QTLaurent.mono(rs, lam)
    for i in reversed(word):
        f = demazure_op(rs, i, f)
    return f


def x_op(rs: RootSystem, lam: Weight, qpow: int, f: QTLaurent) -> QTLaurent:
    """Multiplication by q^qpow e^lam."""
    g = f.shift_weight(lam)
    return g.scale(RatQT.monomial(1, qpow, 0)) if qpow else g


def symmetrizer(rs: RootSystem, f: QTLaurent) -> QTLaurent:
    """P f = sum over the finite Weyl group of T_w f."""

    def sym(k: Kernel) -> Kernel:
        out: Kernel = {}
        for word in rs.weyl_elements().values():
            for w, c in _word(rs, word, k).items():
                _acc(out, w, c, 0, 0, 1, 0)
        return _pruned(out)

    return _lifted(rs, sym, f)


def poincare_polynomial(rs: RootSystem) -> RatQT:
    """sum_w t^{l(w)} over the finite Weyl group."""
    total = QTPoly()
    for word in rs.weyl_elements().values():
        total = total + QTPoly.monomial(1, 0, len(word))
    return RatQT(total)


# ---------------------------------------------------------------------------
# relation verification
# ---------------------------------------------------------------------------

@dataclass
class RelationReport:
    title: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, ok, detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def lines(self) -> list[str]:
        out = []
        for name, ok, detail in self.checks:
            status = "PASS" if ok else "FAIL"
            out.append(f"{status} {name}" + (f": {detail}" if detail else ""))
        return out


def _affine_indices(rs: RootSystem) -> list[int]:
    return list(range(0, rs.rank + 1)) if rs.irreducible else list(range(1, rs.rank + 1))


def _quadratic_checks(rs: RootSystem, box: list[Weight], report: RelationReport):
    """(T_i + 1)(T_i - t) = 0."""
    for i in _affine_indices(rs):
        bad = ""
        for mu in box:
            f = QTLaurent.mono(rs, mu)
            g = dl_op(rs, i, f) - f.scale(R_T)
            h = dl_op(rs, i, g) + g
            if not h.is_zero():
                bad = f"counterexample e^{mu}"
                break
        report.record(f"quadratic i={i} ({len(box)} monomials)", not bad, bad)


def _braid_checks(rs: RootSystem, box: list[Weight], report: RelationReport):
    """Braid relations where the order is finite."""
    idxs = _affine_indices(rs)
    for a in range(len(idxs)):
        for b in range(a + 1, len(idxs)):
            i, j = idxs[a], idxs[b]
            m = rs.braid_order(i, j)
            if m is None:
                continue
            w1 = tuple(i if k % 2 == 0 else j for k in range(m))
            w2 = tuple(j if k % 2 == 0 else i for k in range(m))
            bad = ""
            for mu in box:
                f = QTLaurent.mono(rs, mu)
                if word_op(rs, w1, f) != word_op(rs, w2, f):
                    bad = f"counterexample e^{mu}"
                    break
            report.record(f"braid i={i} j={j} m={m}", not bad, bad)


def _xcommute_checks(rs: RootSystem, box: list[Weight], report: RelationReport):
    """X-T commutation for pairings 0 and 1."""
    for i in _affine_indices(rs):
        step_w, step_q = _alpha_step(rs, i)
        for pairing_target in (0, 1):
            lams = [lam for lam in box if _pairing(rs, i, lam) == pairing_target]
            bad = ""
            for lam in lams:
                for mu in box:
                    f = QTLaurent.mono(rs, mu)
                    lhs = x_op(rs, lam, 0, dl_op(rs, i, f))
                    if pairing_target == 0:
                        rhs = dl_op(rs, i, x_op(rs, lam, 0, f))
                    else:
                        shifted = tuple(a - b for a, b in zip(lam, step_w))
                        rhs = dl_inv(rs, i, x_op(rs, shifted, -step_q, f)).scale(R_T)
                    if lhs != rhs:
                        bad = f"counterexample lam={lam} e^{mu}"
                        break
                if bad:
                    break
            name = "commute" if pairing_target == 0 else "shift"
            report.record(f"x-{name} i={i} ({len(lams)} weights)", not bad, bad)


RELATION_CHECKS = {"quadratic": _quadratic_checks, "braid": _braid_checks, "xcommute": _xcommute_checks}


def verify_relations(rs: RootSystem, bound: int, parts=tuple(RELATION_CHECKS)) -> RelationReport:
    """Quadratic, braid, and X-T commutation relations on the monomial box
    (only the named parts of RELATION_CHECKS, if given)."""
    report = RelationReport(f"Hecke relations for {rs.name}, |mu_i| <= {bound}")
    box = weight_box([bound] * rs.rank)
    for part in parts:
        RELATION_CHECKS[part](rs, box, report)
    return report


def verify_symmetrizer(rs: RootSystem, bound: int) -> RelationReport:
    """T_i P = P T_i = t P, invariance, hull support, and m_mu commutation."""
    report = RelationReport(f"symmetrizer properties for {rs.name}")
    box = weight_box([bound] * rs.rank)
    sym: dict[Weight, QTLaurent] = {mu: symmetrizer(rs, QTLaurent.mono(rs, mu)) for mu in box}

    bad = ""
    for mu in box:
        pf = sym[mu]
        tpf = pf.scale(R_T)
        for i in range(1, rs.rank + 1):
            if dl_op(rs, i, pf) != tpf:
                bad = f"T_{i} P at e^{mu}"
                break
            if symmetrizer(rs, dl_op(rs, i, QTLaurent.mono(rs, mu))) != tpf:
                bad = f"P T_{i} at e^{mu}"
                break
        if bad:
            break
    report.record(f"T_i P = P T_i = t P ({len(box)} monomials)", not bad, bad)

    bad = ""
    for mu in box:
        if not sym[mu].is_w_invariant():
            bad = f"not W-invariant at e^{mu}"
            break
    report.record("image is W-invariant", not bad, bad)

    bad = ""
    for mu in box:
        mu_plus, _ = rs.dominant(mu)
        for w in sym[mu].support():
            if not rs.in_hull(w, mu_plus):
                bad = f"support of P e^{mu} leaves hull at {w}"
                break
        if bad:
            break
    report.record("support in convex hull of W mu_+", not bad, bad)

    bad = ""
    doms = [lam for lam in box if rs.is_dominant(lam)][: 2 * rs.rank + 2]
    for lam in doms:
        m = orbit_sum(rs, lam)
        for mu in box:
            f = QTLaurent.mono(rs, mu)
            if symmetrizer(rs, m * f) != m * sym[mu]:
                bad = f"m_{lam} does not commute at e^{mu}"
                break
        if bad:
            break
    report.record("commutes with multiplication by m_mu", not bad, bad)
    return report


def demazure_char_classical(rs: RootSystem, word: WeylWord, lam: Weight) -> QTLaurent:
    """The t = 0 slice of the iterated Demazure character (classical formula)."""
    f = demazure_char(rs, word, lam)
    out: dict[Weight, RatQT] = {}
    for w, c in f.terms.items():
        assert c.is_polynomial()
        v = c.num.terms.get((0, 0), 0)
        if v:
            out[w] = RatQT.from_int(v)
    return QTLaurent(rs, out)


def verify_demazure(rs: RootSystem, bound: int) -> RelationReport:
    """Word comparison of iterated Demazure operators plus the quadratic law.

    The operator products (T_{i1}+1)...(T_{ik}+1) along two reduced words of
    the same element are NOT equal: the Hecke relations force, e.g. for a
    braid pair of order 3, D_i D_j D_i - D_j D_i D_j = t (D_i - D_j).  What
    is word-independent is (a) the t = 0 slice (the classical Demazure
    character formula) and (b) the defect-corrected combination, which is the
    character of the rank-2 parabolic induction.  Both are verified here,
    together with the exact shape of the defect.
    """
    report = RelationReport(f"Demazure properties for {rs.name}")
    doms = [lam for lam in weight_box([bound] * rs.rank) if rs.is_dominant(lam)]

    bad = ""
    for elt in rs.weyl_elements():
        words = rs.reduced_words(elt)
        if len(words) < 2:
            continue
        for lam in doms:
            ref = demazure_char_classical(rs, words[0], lam)
            for w in words[1:]:
                if demazure_char_classical(rs, w, lam) != ref:
                    bad = f"words {words[0]} vs {w} differ at lam={lam}"
                    break
            if bad:
                break
        if bad:
            break
    report.record(
        f"classical (t=0) word independence ({len(doms)} dominant weights)", not bad, bad
    )

    box = weight_box([bound] * rs.rank)

    def dword(word, f):
        for i in reversed(word):
            f = demazure_op(rs, i, f)
        return f

    bad = ""
    pairs = [
        (i, j)
        for i in range(1, rs.rank + 1)
        for j in range(i + 1, rs.rank + 1)
        if rs.braid_order(i, j) in (3, 4)
    ]
    for i, j in pairs:
        m = rs.braid_order(i, j)
        for mu in box:
            f = QTLaurent.mono(rs, mu)
            if m == 3:
                lhs = dword((i, j, i), f) - demazure_op(rs, i, f).scale(R_T)
                rhs = dword((j, i, j), f) - demazure_op(rs, j, f).scale(R_T)
            else:
                two_t = RatQT(QTPoly({(0, 1): 2}))
                lhs = dword((i, j, i, j), f) - dword((i, j), f).scale(two_t)
                rhs = dword((j, i, j, i), f) - dword((j, i), f).scale(two_t)
            if lhs != rhs:
                bad = f"braid defect identity fails for ({i},{j}) at e^{mu}"
                break
        if bad:
            break
    report.record("defect-corrected word comparison (parabolic character)", not bad, bad)

    one_plus_t = RatQT(QTPoly({(0, 0): 1, (0, 1): 1}))
    bad = ""
    for i in range(1, rs.rank + 1):
        for mu in box:
            f = QTLaurent.mono(rs, mu)
            di = demazure_op(rs, i, f)
            if demazure_op(rs, i, di) != di.scale(one_plus_t):
                bad = f"i={i} at e^{mu}"
                break
        if bad:
            break
    report.record("D_i^2 = (1+t) D_i on the box", not bad, bad)
    return report

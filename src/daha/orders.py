"""Exhaustive property suites for the Cherednik order on weight boxes.

Checks, over the box |lam_i| <= bound:

  * partial-order axioms (antisymmetry, transitivity);
  * root-string convexity of strict lower sets, for the simple directions
    and the highest-root direction (the affine string): each line of the set
    along a direction runs without a gap between its two ends;
  * compatibility of lower sets with the simple reflections: the literal
    raising/lowering inclusions for the finite indices, and in rank one for
    the affine index as well.  Where s_i lam = lam for a finite i the lower
    set need not be s_i-stable (in A3, the lower set of lam = (-2,1,0) holds
    alpha_3 but not -alpha_3); there the check is the exact identity
    T_i E_lam = t E_lam, on every lam of the box (irreducible types only, as
    E_lam needs the affine node), with E_lam computed once per lam;
  * closure of lower sets under the Y-operators (the affine convexity that
    makes the Y-operators triangular on them).

Pairs are compared from the order keys as they are read (a box of over 2^24
pairs is refused), each lower set is computed once per run, and T_i and Y run
on the integer kernel of hecke.py, on E_lam's denominator-cleared numerators.

The weight-projected raising/lowering transcription for the affine index is
false in rank two: reflecting a lower set as a plain set of weights loses the
loop degree that rides along with the affine reflection.  Rank-one keeps it
because every orbit there is a single string.  The Y-closure check is the
rank-independent replacement carrying the same content.
"""

from __future__ import annotations

from functools import cache

from .hecke import RelationReport, _comb, _mono, _t, _y
from .macdonald import nonsym_e
from .polyring import _pack
from .roots import EQUAL, GREATER, LESS, MAX_BOX, RootSystem, weight_box


def verify_order(rs: RootSystem, bound: int) -> RelationReport:
    report = RelationReport(f"Cherednik order properties for {rs.name}, box {bound}")
    box = weight_box([bound] * rs.rank)
    if len(box) ** 2 > MAX_BOX:
        raise ValueError(f"an order check of {len(box)}^2 weight pairs is more than the {MAX_BOX} allowed")
    keys = {a: rs.order_key(a) for a in box}

    def cmp(a, b):
        return rs.compare_keys(keys[a], keys[b])

    lower = cache(lambda lam: frozenset(rs.lower_set(lam)))

    def antisymmetry():
        for a in box:
            if cmp(a, a) != EQUAL:
                yield f"reflexivity fails at {a}"
            for b in box:
                c = cmp(a, b)
                if a != b and c == EQUAL:
                    yield f"antisymmetry fails at {a}, {b}"
                if c == LESS and cmp(b, a) != GREATER:
                    yield f"asymmetry fails at {a}, {b}"

    report.first_failure(f"antisymmetry on {len(box)} weights", antisymmetry())

    lesses = {a: [b for b in box if cmp(a, b) == LESS] for a in box}
    report.first_failure("transitivity", (
        f"transitivity fails at {a} < {b} < {c}"
        for a in box for b in lesses[a] for c in lesses[b] if cmp(a, c) != LESS))

    directions = [(i, rs.simple_root(i)) for i in range(1, rs.rank + 1)]
    if rs.irreducible:
        directions.append((0, rs.theta()))

    def string_gaps():
        for lam in box:
            strict = lower(lam) - {lam}
            for i, step in directions:
                # nu = base + c step, with base the same for the whole line through nu
                k = next(k for k, b in enumerate(step) if b)
                lines: dict[tuple[int, ...], list[int]] = {}
                for nu in strict:
                    c = nu[k] // step[k]
                    lines.setdefault(tuple(a - c * b for a, b in zip(nu, step)), []).append(c)
                for base, cs in lines.items():
                    top, present = max(cs), set(cs)
                    # walk down from the top end mu of the line to its far end
                    gap = next((c for c in range(top - 1, min(cs), -1) if c not in present), None)
                    if gap is not None:
                        mu = tuple(a + top * b for a, b in zip(base, step))
                        yield f"string gap at lam={lam}, mu={mu}, i={i}, c={top - gap}"

    report.first_failure("root-string convexity of strict lower sets", string_gaps())

    affine_set = (0,) if rs.rank == 1 and rs.irreducible else ()

    def reflection_failures():
        for lam in box:
            ls = lower(lam)
            e = None
            for i in tuple(range(1, rs.rank + 1)) + affine_set:
                si_lam = rs.reflect_affine(i, lam)
                if i and si_lam == lam and rs.irreducible:
                    if e is None:
                        e = {w: _pack(c.num.terms) for w, c in nonsym_e(rs, lam).cleared.terms.items()}
                    if _t(rs, i, e) != _comb((e, 0, 1, 1, 0)):
                        yield f"T_{i} E_lam = t E_lam fails at lam={lam}, i={i}"
                    continue
                reflected = {rs.reflect_affine(i, mu) for mu in ls}
                if rs.cherednik_cmp(lam, si_lam) in (LESS, EQUAL):
                    target = lower(si_lam)
                    if not (reflected <= target and ls <= target):
                        yield f"raising reflection fails at lam={lam}, i={i}"
                elif not reflected <= ls:
                    yield f"lowering reflection fails at lam={lam}, i={i}"

    scope = "finite + affine" if affine_set else "finite"
    report.first_failure(f"reflection compatibility of lower sets ({scope} indices)", reflection_failures())

    if rs.irreducible:
        mstar = rs.strictly_dominant_coroot()
        report.first_failure(f"Y-operator closure of lower sets ({len(box)} weights)", (
            f"Y-image of e^{lam} escapes its lower set" for lam in box
            if not _y(rs, mstar, _mono(lam)).keys() <= lower(lam)))
    return report

"""Exhaustive property suites for the Cherednik order on weight boxes.

Checks, over the box |lam_i| <= bound:

  * partial-order axioms (antisymmetry, transitivity);
  * root-string convexity of strict lower sets, for the simple directions
    and the highest-root direction (the affine string);
  * compatibility of lower sets with the simple reflections: the literal
    raising/lowering inclusions for the finite indices, and in rank one for
    the affine index as well;
  * closure of lower sets under the Y-operators (the affine convexity that
    the triangular eigensolver depends on).

The weight-projected raising/lowering transcription for the affine index is
false in rank two: reflecting a lower set as a plain set of weights loses the
loop degree that rides along with the affine reflection.  Rank-one keeps it
because every orbit there is a single string.  The Y-closure check is the
rank-independent replacement carrying the same content.
"""

from __future__ import annotations

from .hecke import RelationReport, y_op
from .macdonald import mu_star
from .polyring import QTLaurent
from .roots import EQUAL, GREATER, LESS, RootSystem, weight_box


def verify_order(rs: RootSystem, bound: int, max_lower: int = 60) -> RelationReport:
    report = RelationReport(f"Cherednik order properties for {rs.name}, box {bound}")
    box = weight_box([bound] * rs.rank)
    cmp = {(a, b): rs.cherednik_cmp(a, b) for a in box for b in box}

    def antisymmetry():
        for a in box:
            if cmp[a, a] != EQUAL:
                yield f"reflexivity fails at {a}"
            for b in box:
                if a != b and cmp[a, b] == EQUAL:
                    yield f"antisymmetry fails at {a}, {b}"
                if cmp[a, b] == LESS and cmp[b, a] != GREATER:
                    yield f"asymmetry fails at {a}, {b}"

    report.first_failure(f"antisymmetry on {len(box)} weights", antisymmetry())

    lesses = {a: [b for b in box if cmp[a, b] == LESS] for a in box}
    report.first_failure("transitivity", (
        f"transitivity fails at {a} < {b} < {c}"
        for a in box for b in lesses[a] for c in lesses[b] if cmp[a, c] != LESS))

    directions = [(i, rs.simple_root(i)) for i in range(1, rs.rank + 1)]
    if rs.irreducible:
        directions.append((0, rs.theta()))

    def string_gaps():
        for lam in box:
            strict = set(rs.lower_set(lam)) - {lam}
            for mu in strict:
                for i, step in directions:
                    m = 1
                    while tuple(a - m * b for a, b in zip(mu, step)) in strict:
                        m += 1
                    for c in range(1, m):
                        if tuple(a - c * b for a, b in zip(mu, step)) not in strict:
                            yield f"string gap at lam={lam}, mu={mu}, i={i}, c={c}"

    report.first_failure("root-string convexity of strict lower sets", string_gaps())

    affine_set = (0,) if rs.rank == 1 and rs.irreducible else ()

    def reflection_failures():
        for lam in box:
            ls = set(rs.lower_set(lam))
            for i in tuple(range(1, rs.rank + 1)) + affine_set:
                si_lam = rs.reflect_affine(i, lam)
                reflected = {rs.reflect_affine(i, mu) for mu in ls}
                if rs.cherednik_cmp(lam, si_lam) in (LESS, EQUAL):
                    target = set(rs.lower_set(si_lam))
                    if not (reflected <= target and ls <= target):
                        yield f"raising reflection fails at lam={lam}, i={i}"
                elif not reflected <= ls:
                    yield f"lowering reflection fails at lam={lam}, i={i}"

    scope = "finite + affine" if affine_set else "finite"
    report.first_failure(f"reflection compatibility of lower sets ({scope} indices)", reflection_failures())

    if rs.irreducible:
        mstar = mu_star(rs)
        checked = []

        def escapes():
            for lam in box:
                ls = rs.lower_set(lam)
                if len(ls) <= max_lower:
                    checked.append(lam)
                    if not set(y_op(rs, mstar, QTLaurent.mono(rs, lam)).support()) <= set(ls):
                        yield f"Y-image of e^{lam} escapes its lower set"

        report.first_failure(lambda: f"Y-operator closure of lower sets ({len(checked)} weights)", escapes())
    return report

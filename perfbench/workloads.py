"""The three workloads: fixed operation lists, ordered by the seed.

Every pass of a run executes the whole list once, in the order the seed
fixes, in fresh interpreters (one per pass, or one per `daha` call).  No input repeats within a pass, so the package's
unbounded caches never turn one operation into a lookup of another.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


def _box(rank: int, bound: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(-bound, bound + 1), repeat=rank))


def _dominant(rank: int, top: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(top + 1), repeat=rank))


# E_lam for every weight of small boxes: lower sets of 1 to 38 weights.
E_TABLE = (
    [("A1", w) for w in _box(1, 4)]
    + [(t, w) for t in ("A2", "B2", "C2") for w in _box(2, 2)]
    + [("A3", w) for w in _box(3, 1)]
)

# P_lam for dominant weights that stay under about 2 s each.  Left out on
# purpose, because sym_p's leading-coefficient normalization explodes there:
# A1 7 and up, A2 (3,3), B2 (3,0), C2 (0,3).
P_TABLE = (
    [("A1", (k,)) for k in range(7)]
    + [("A2", w) for w in _dominant(2, 3) if w != (3, 3)]
    + [("B2", w) for w in _dominant(2, 3) if sum(w) <= 3 and w != (3, 0)]
    + [("C2", w) for w in _dominant(2, 3) if sum(w) <= 3 and w != (0, 3)]
    + [("A3", w) for w in _dominant(3, 2) if sum(w) <= 2]
)


def _verify(subject: str, type_name: str, bound: int) -> list[str]:
    return ["verify", subject, "--type", type_name, "--bound", str(bound)]


# One `daha` invocation per entry.  `verify order --type A3 --bound 2` is left
# out: it fails its reflection-compatibility check on this code.
VERIFY_CLI = (
    [_verify(s, t, 2) for s in ("hecke", "braid", "xcommute") for t in ("A2", "B2", "C2")]
    + [_verify(s, "A3", 1) for s in ("hecke", "braid", "xcommute", "demazure", "order")]
    + [_verify("symmetrizer", "A2", 2), _verify("symmetrizer", "B2", 1), _verify("symmetrizer", "C2", 1)]
    + [_verify("demazure", t, 3) for t in ("A2", "B2", "C2")]
    + [_verify("order", "A2", 3), _verify("order", "B2", 2), _verify("order", "C2", 2)]
    + [["sl2", "validate", "-k", "1"]]
)


# The root systems a run builds during set-up.
TYPES = ("A1", "A2", "B2", "C2", "A3")


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str   # daha.nonsym_e or daha.sym_p (one process per pass), or "cli" (one per op)
    ops: tuple

    def ordered(self, seed: int) -> list:
        ops = list(self.ops)
        random.Random(seed).shuffle(ops)
        return ops

    @staticmethod
    def label(op) -> str:
        if isinstance(op[0], str) and isinstance(op[1], tuple):
            return f"{op[0]} {','.join(map(str, op[1]))}"
        return "daha " + " ".join(op)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("e-table", "nonsym_e", tuple(E_TABLE)),
        Workload("p-table", "sym_p", tuple(P_TABLE)),
        Workload("verify-cli", "cli", tuple(tuple(a) for a in VERIFY_CLI)),
    )
}

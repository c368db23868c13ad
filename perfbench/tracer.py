"""Span timers around the public functions of the daha layers.

`install()` wraps each function in TARGETS and rebinds the wrapper at every
module-level name (and class attribute) of the daha package through which the
package calls it, so `src/` itself is never edited.  A span is entered on each
call; on exit its duration is added to the function's inclusive time, and its
self time is that duration minus the wrapped child spans it covered.  The
per-(parent, child) inclusive times are kept too, because some layer metrics
are defined by which caller a span ran under.

Spans of the benchmark's operations are recorded whole (name, start, end) so a
trace file can place every operation on the timeline; the spans of the wrapped
functions, up to hundreds of thousands a pass, are aggregated as they close.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute path, short metric prefix)
TARGETS = [
    ("daha.qt", "poly_gcd", "qt.poly_gcd"),
    ("daha.qt", "div_exact", "qt.div_exact"),
    ("daha.qt", "QTPoly.__mul__", "qt.QTPoly.mul"),
    ("daha.qt", "RatQT.__add__", "qt.RatQT.add"),
    ("daha.qt", "RatQT.__mul__", "qt.RatQT.mul"),
    ("daha.roots", "RootSystem.cherednik_cmp", "roots.cherednik_cmp"),
    ("daha.roots", "RootSystem.lower_set", "roots.lower_set"),
    ("daha.roots", "RootSystem.translation_word", "roots.translation_word"),
    ("daha.roots", "root_system", "roots.root_system"),
    ("daha.hecke", "dl_op", "hecke.dl_op"),
    ("daha.hecke", "y_op", "hecke.y_op"),
    ("daha.hecke", "symmetrizer", "hecke.symmetrizer"),
    ("daha.hecke", "verify_relations", "hecke.verify_relations"),
    ("daha.hecke", "verify_symmetrizer", "hecke.verify_symmetrizer"),
    ("daha.hecke", "verify_demazure", "hecke.verify_demazure"),
    ("daha.macdonald", "nonsym_e", "macdonald.nonsym_e"),
    ("daha.macdonald", "y_matrix", "macdonald.y_matrix"),
    ("daha.macdonald", "sym_p", "macdonald.sym_p"),
    ("daha.orders", "verify_order", "orders.verify_order"),
    ("daha.sl2", "deformed_block", "sl2.deformed_block"),
    ("daha.sl2", "fusion", "sl2.fusion"),
    ("daha.sl2", "graded_character", "sl2.graded_character"),
    ("daha.sl2", "cross_validate", "sl2.cross_validate"),
    ("daha.cli", "run", "cli.run"),
]

# counts read off a function's result: name -> (target, function of the result)
RESULT_COUNTS = {
    "qt.poly_gcd.unit_results": ("qt.poly_gcd", lambda r: int(r.is_one())),
    "qt.div_exact.none_results": ("qt.div_exact", lambda r: int(r is None)),
    "roots.lower_set.weights": ("roots.lower_set", len),
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []              # [name, covered_ns]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.edge_ns: dict[str, int] = defaultdict(int)  # "parent>child"
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[str, float, float]] = []

    def _close(self, frame: list, dt: int):
        name = frame[0]
        self.calls[name] += 1
        self.incl_ns[name] += dt
        self.self_ns[name] += dt - frame[1]
        if self.stack:
            parent = self.stack[-1]
            parent[1] += dt
            self.edge_ns[parent[0] + ">" + name] += dt

    def wrap(self, name: str, fn, counters=()):
        stack, close, counts, clock = self.stack, self._close, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                close(frame, dt)
            for key, count in counters:
                counts[key] += count(result)
            return result

        return traced

    def op(self, label: str, fn, *args):
        """Run one benchmark operation as a top-level span."""
        frame = [label, 0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((label, start, end))

    def install(self):
        """Wrap every loaded target and rebind it wherever the package refers to it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "daha" or n.startswith("daha.")]
        for mod_name, path, name in TARGETS:
            owner = sys.modules.get(mod_name)
            if owner is None:    # e.g. daha.cli in a library-only process
                continue
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr] if cls_path else getattr(owner, attr)
            counters = [(k, f) for k, (t, f) in RESULT_COUNTS.items() if t == name]
            wrapped = self.wrap(name, orig, counters)
            if cls_path:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def dump(self) -> dict:
        return {
            "fn": {k: [self.calls[k], self.self_ns[k], self.incl_ns[k]] for k in self.calls},
            "edge": dict(self.edge_ns),
            "counts": dict(self.counts),
            "spans": self.spans,
        }


def merge(dumps: list[dict]) -> dict:
    """Sum the aggregates of several traced processes (one pass of a workload)."""
    fn: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    edge: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    for d in dumps:
        for k, v in d["fn"].items():
            acc = fn[k]
            for i in range(3):
                acc[i] += v[i]
        for k, v in d["edge"].items():
            edge[k] += v
        for k, v in d["counts"].items():
            counts[k] += v
    return {"fn": dict(fn), "edge": dict(edge), "counts": dict(counts)}


def _fn(agg, name, field):
    return agg["fn"].get(name, [0, 0, 0])[field]


def _calls(name):
    return lambda agg: _fn(agg, name, 0)


def _self_ms(*names):
    return lambda agg: sum(_fn(agg, n, 1) for n in names) / 1e6


def _incl_ms(name):
    return lambda agg: _fn(agg, name, 2) / 1e6


def _count(key):
    return lambda agg: agg["counts"].get(key, 0)


def _backsub_ms(agg):
    e = agg["edge"]
    return (
        _fn(agg, "macdonald.nonsym_e", 2)
        - e.get("macdonald.nonsym_e>macdonald.y_matrix", 0)
        - e.get("macdonald.nonsym_e>hecke.y_op", 0)
    ) / 1e6


def _residual_ms(agg):
    return agg["edge"].get("macdonald.nonsym_e>hecke.y_op", 0) / 1e6


# per-layer metric -> (unit, function of one pass's merged aggregate)
LAYER_METRICS = {
    "qt.poly_gcd.calls": ("count", _calls("qt.poly_gcd")),
    "qt.poly_gcd.self_ms": ("ms", _self_ms("qt.poly_gcd")),
    "qt.poly_gcd.unit_results": ("count", _count("qt.poly_gcd.unit_results")),
    "qt.div_exact.calls": ("count", _calls("qt.div_exact")),
    "qt.div_exact.self_ms": ("ms", _self_ms("qt.div_exact")),
    "qt.div_exact.none_results": ("count", _count("qt.div_exact.none_results")),
    "qt.QTPoly.mul.calls": ("count", _calls("qt.QTPoly.mul")),
    "qt.QTPoly.mul.self_ms": ("ms", _self_ms("qt.QTPoly.mul")),
    "qt.RatQT.add.calls": ("count", _calls("qt.RatQT.add")),
    "qt.RatQT.add.self_ms": ("ms", _self_ms("qt.RatQT.add")),
    "qt.RatQT.mul.calls": ("count", _calls("qt.RatQT.mul")),
    "qt.RatQT.mul.self_ms": ("ms", _self_ms("qt.RatQT.mul")),
    "roots.cherednik_cmp.calls": ("count", _calls("roots.cherednik_cmp")),
    "roots.cherednik_cmp.self_ms": ("ms", _self_ms("roots.cherednik_cmp")),
    "roots.lower_set.calls": ("count", _calls("roots.lower_set")),
    "roots.lower_set.self_ms": ("ms", _self_ms("roots.lower_set")),
    "roots.lower_set.weights": ("count", _count("roots.lower_set.weights")),
    "roots.translation_word.calls": ("count", _calls("roots.translation_word")),
    "roots.translation_word.self_ms": ("ms", _self_ms("roots.translation_word")),
    "roots.root_system.self_ms": ("ms", _self_ms("roots.root_system")),
    "hecke.dl_op.calls": ("count", _calls("hecke.dl_op")),
    "hecke.dl_op.self_ms": ("ms", _self_ms("hecke.dl_op")),
    "hecke.y_op.calls": ("count", _calls("hecke.y_op")),
    "hecke.y_op.self_ms": ("ms", _self_ms("hecke.y_op")),
    "hecke.symmetrizer.self_ms": ("ms", _self_ms("hecke.symmetrizer")),
    "hecke.verify.self_ms": ("ms", _self_ms(
        "hecke.verify_relations", "hecke.verify_symmetrizer", "hecke.verify_demazure")),
    "macdonald.nonsym_e.calls": ("count", _calls("macdonald.nonsym_e")),
    "macdonald.y_matrix.calls": ("count", _calls("macdonald.y_matrix")),
    "macdonald.y_matrix.ms": ("ms", _incl_ms("macdonald.y_matrix")),
    "macdonald.backsub_ms": ("ms", _backsub_ms),
    "macdonald.residual_ms": ("ms", _residual_ms),
    "macdonald.sym_p.self_ms": ("ms", _self_ms("macdonald.sym_p")),
    "orders.verify_order.self_ms": ("ms", _self_ms("orders.verify_order")),
    "sl2.deformed_block.ms": ("ms", _incl_ms("sl2.deformed_block")),
    "sl2.fusion.self_ms": ("ms", _self_ms("sl2.fusion")),
    "sl2.graded_character.self_ms": ("ms", _self_ms("sl2.graded_character")),
    "sl2.cross_validate.self_ms": ("ms", _self_ms("sl2.cross_validate")),
    "cli.run.self_ms": ("ms", _self_ms("cli.run")),
}

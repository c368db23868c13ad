"""Benchmark of the daha engine through its public entry points.

    python3 perfbench/run.py --workload e-table --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and README.md): `e-table` (daha.nonsym_e),
`p-table` (daha.sym_p), `verify-cli` (one `daha` process per call), or `all`.

A run repeats whole passes over the workload's operation list until
`--seconds` have gone by.  Each pass starts in a fresh interpreter, and only
one child process runs at a time.  Every output is checked against
oracles.py, which does not import daha.  The last line of stdout is one JSON
object: correct, attempted, failed, and the metrics -- the end-to-end ones
with `--trace 0`, the per-layer ones from a traced run with `--trace 1`.

The exit code is 0 when every operation passed, 1 when one failed or was
wrong (the other workloads of `all` still run), 2 when the program to measure
is missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import calib
import oracles
import tracer
from workloads import TYPES, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 7          # fresh-interpreter set-ups per run, reported as their median
LIBRARY_TIMEOUT_S = 150   # one library pass
CLI_TIMEOUT_S = 60        # one daha invocation
DEADLINE_S = 160          # no pass starts that is expected to end after this


@dataclass
class Child:
    t0: float
    wall: float
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int


def spawn(argv: list[str], env: dict, timeout: float) -> Child:
    """Run one child to its end; wall time and peak RSS come from wait4."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(t0, wall, proc.returncode, out.read().decode(), err.read().decode(),
                     usage.ru_maxrss)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


@dataclass
class Pass:
    wall: float                                                   # raw seconds
    op_s: list[float] = field(default_factory=list)               # calibrated, see calib.py
    raw_op_s: list[float] = field(default_factory=list)
    peak_kb: int = 0
    setup_s: list[float] = field(default_factory=list)            # calibrated
    import_ms: list[float] = field(default_factory=list)
    errors: list[tuple[str, str]] = field(default_factory=list)   # raised, crashed, timed out
    wrong: list[tuple[str, str]] = field(default_factory=list)    # returned, but failed a check
    traces: list[dict] = field(default_factory=list)


class Runner:
    def __init__(self, workload: Workload, seed: int, trace: bool, env: dict):
        self.w = workload
        self.ops = workload.ordered(seed)
        self.q0 = eval_point(seed)
        self.trace = trace
        self.env = env
        self.child = [sys.executable, str(HERE / "child.py")]

    def probe(self) -> float:
        """Calibrated seconds from spawning an interpreter until the workload could start."""
        module = "daha.cli" if self.w.entry == "cli" else "daha"
        c = spawn(self.child + ["setup", module, *TYPES], self.env, CLI_TIMEOUT_S)
        if c.returncode != 0:
            raise RuntimeError(f"set-up failed: {_last_line(c.stderr)}")
        doc = json.loads(c.stdout)
        return calib.scale(doc["ready"] - c.t0, doc["cal"], doc["cal"])

    def run_pass(self) -> Pass:
        return self._cli_pass() if self.w.entry == "cli" else self._library_pass()

    def _library_pass(self) -> Pass:
        payload = json.dumps([[t, list(w)] for t, w in self.ops])
        c = spawn(self.child + ["library", self.w.entry, str(int(self.trace)), payload],
                  self.env, LIBRARY_TIMEOUT_S)
        labels = [Workload.label(op) for op in self.ops]
        if c.returncode != 0:
            p = Pass(wall=c.wall, peak_kb=c.maxrss_kb)
            reason = f"pass process exited {c.returncode}: {_last_line(c.stderr)}"
            p.errors = [(label, reason) for label in labels]
            return p
        doc = json.loads(c.stdout)
        cals = doc["cal"]
        p = Pass(wall=doc["done"] - c.t0, peak_kb=c.maxrss_kb, import_ms=[doc["import_ms"]],
                 setup_s=[calib.scale(doc["ready"] - c.t0, cals[0], cals[0])])
        if doc["trace"]:
            p.traces.append(doc["trace"])
        check = oracles.check_e if self.w.entry == "nonsym_e" else oracles.check_p
        for k, ((type_name, weight), label, r) in enumerate(zip(self.ops, labels, doc["ops"])):
            if r["error"]:
                p.errors.append((label, r["error"]))
                continue
            problems = check(type_name, weight, r["doc"], self.q0)
            if problems:
                p.wrong.append((label, "; ".join(problems)))
            else:
                p.op_s.append(calib.scale(r["s"], cals[k], cals[k + 1]))
                p.raw_op_s.append(r["s"])
        return p

    def _cli_pass(self) -> Pass:
        p = Pass(wall=0.0)
        first = None
        for argv in self.ops:
            label = Workload.label(argv)
            c = spawn(self.child + ["cli", str(int(self.trace)), *argv], self.env, CLI_TIMEOUT_S)
            first = c.t0 if first is None else first
            p.wall = c.t0 + c.wall - first
            p.peak_kb = max(p.peak_kb, c.maxrss_kb)
            doc = json.loads(c.stdout) if c.returncode == 0 else None
            if doc is None or doc["returncode"] not in (0, 1):   # crashed, killed, or exit 2
                code = c.returncode if doc is None else doc["returncode"]
                p.errors.append((label, f"exit {code}: {_last_line(c.stderr)}"))
                continue
            p.import_ms.append(doc["import_ms"])
            if doc["trace"]:
                p.traces.append(doc["trace"])
            problems = oracles.check_report(list(argv), doc["returncode"], doc["stdout"])
            if problems:
                p.wrong.append((label, "; ".join(problems)))
            else:
                # the invocation's own time: its wall time less the two calibration loops
                seconds = c.wall - sum(doc["cal"])
                p.op_s.append(calib.scale(seconds, *doc["cal"]))
                p.raw_op_s.append(seconds)
        return p


def eval_point(seed: int) -> Fraction:
    """The rational q at which the checks specialize outputs; never 0 or +-1."""
    rng = random.Random(f"q0-{seed}")
    a, b = rng.sample(range(2, 60), 2)
    return Fraction(a, b)


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def end_to_end(passes: list[Pass], setup: list[float]) -> dict:
    op_s = [s for p in passes for s in p.op_s]
    return {
        "ops_per_s": {"value": len(op_s) / sum(op_s) if op_s else 0.0, "unit": "1/s"},
        "op_p50_ms": {"value": _median(op_s) * 1e3, "unit": "ms"},
        "setup_s": {"value": _median(setup), "unit": "s"},
        "peak_rss_mb": {"value": _median([p.peak_kb / 1024 for p in passes]), "unit": "MB"},
    }


def per_layer(passes: list[Pass]) -> tuple[dict, list[dict]]:
    merged = [tracer.merge(p.traces) for p in passes]
    metrics = {   # median_low: a count stays the integer that every pass measured
        name: {"value": statistics.median_low([fn(m) for m in merged]), "unit": unit}
        for name, (unit, fn) in tracer.LAYER_METRICS.items()
    }
    metrics["cli.import_ms"] = {"value": _median([x for p in passes for x in p.import_ms]),
                                "unit": "ms"}
    metrics["trace.pass_s"] = {"value": _median([p.wall for p in passes]), "unit": "s"}
    return metrics, merged


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    started = time.perf_counter()
    runner = Runner(w, seed, trace, env)
    runner.probe()                      # untimed: writes bytecode, warms the file cache
    setup = [runner.probe() for _ in range(SETUP_PROBES)]
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while True:
        p = runner.run_pass()
        passes.append(p)
        setup += p.setup_s
        print(f"# {w.name} pass {len(passes)}: {len(runner.ops)} ops in {p.wall:.3f} s, "
              f"{len(p.errors)} errors, {len(p.wrong)} wrong", flush=True)
        for label, reason in p.errors + p.wrong:
            print(f"FAILED {w.name}: {label}: {reason}", file=sys.stderr, flush=True)
        now = time.perf_counter()
        longest = max(q.wall for q in passes)
        if now - t0 >= seconds or now - started + 1.5 * longest > DEADLINE_S:
            break
    attempted = len(runner.ops) * len(passes)
    failed = sum(len(p.errors) + len(p.wrong) for p in passes)
    result = {"correct": not any(p.wrong for p in passes), "attempted": attempted,
              "failed": failed}
    record = {"workload": w.name, "seed": seed, "trace": trace, "passes": len(passes),
              "pass_s": [p.wall for p in passes], "setup_s": setup,
              "ops": [Workload.label(op) for op in runner.ops]}
    if trace:
        result["metrics"], record["aggregates"] = per_layer(passes)
        record["spans"] = [[s for t in p.traces for s in t["spans"]] for p in passes]
    else:
        result["metrics"] = end_to_end(passes, setup)
        record["op_s"] = [p.op_s for p in passes]
        record["raw_op_s"] = [p.raw_op_s for p in passes]
        record["peak_kb"] = [p.peak_kb for p in passes]
    record["result"] = result
    path = OUT / f"result-{w.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record) + "\n")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "daha" / "__init__.py").is_file():
        print(f"error: no daha package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), env)
        ok = ok and result["failed"] == 0 and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

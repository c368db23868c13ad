"""Code that runs in a fresh interpreter, started by run.py.

    child.py setup <module> <type>...          import, build root systems, stop
    child.py library <entry> <trace> <ops>     one pass of nonsym_e / sym_p calls
    child.py cli <trace> <argv>...             one `daha <argv>` invocation

Every mode prints one JSON object on stdout; the cli mode captures what the
`daha` command prints and returns it in that object.  The calibration loop of
calib.py runs in the process that does the work: once when set-up is ready,
before the first and after each library operation, and at the start and end
of a cli invocation.  Times are `time.perf_counter()`
readings, which on Linux come from CLOCK_MONOTONIC and so compare across
processes: the parent subtracts its own reading taken before the spawn.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time

import calib


def _setup(module: str, types: list[str]) -> None:
    importlib.import_module(module)
    import daha

    for t in types:
        daha.root_system(t)
    ready = time.perf_counter()
    print(json.dumps({"ready": ready, "cal": calib.sample()}))


def _library(entry: str, trace: bool, ops: list) -> None:
    start = time.perf_counter()
    import daha

    import_ms = (time.perf_counter() - start) * 1e3
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    fn = getattr(daha, entry)
    systems = {t: daha.root_system(t) for t, _ in ops}
    ready = time.perf_counter()
    cals = [calib.sample()]
    results = []
    for type_name, weight in ops:
        rs, lam = systems[type_name], tuple(weight)
        s = time.perf_counter()
        try:
            value = tracer.op(f"{type_name} {lam}", fn, rs, lam) if tracer else fn(rs, lam)
            error = None
        except Exception as exc:  # an operation that raises is counted as failed
            value, error = None, f"{type(exc).__name__}: {exc}"
        results.append((time.perf_counter() - s, value, error))
        cals.append(calib.sample())
    done = time.perf_counter()
    out = []
    for seconds, value, error in results:
        poly = value.e_poly if entry == "nonsym_e" and value is not None else value
        out.append({
            "s": seconds,
            "error": error,
            "doc": None if poly is None else daha.laurent_to_json(poly),
        })
    print(json.dumps({
        "ready": ready,
        "done": done,
        "import_ms": import_ms,
        "cal": cals,
        "ops": out,
        "trace": tracer.dump() if tracer else None,
    }))


def _cli(trace: bool, argv: list[str]) -> None:
    cal_start = calib.sample()
    start = time.perf_counter()
    import daha.cli

    import_ms = (time.perf_counter() - start) * 1e3
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    buf = io.StringIO()
    sys.argv = ["daha"] + argv
    with contextlib.redirect_stdout(buf):
        try:
            if tracer:
                tracer.op("daha " + " ".join(argv), daha.cli.main)
            else:
                daha.cli.main()
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    print(json.dumps({
        "cal": [cal_start, calib.sample()],
        "import_ms": import_ms,
        "returncode": code,
        "stdout": buf.getvalue(),
        "trace": tracer.dump() if tracer else None,
    }))


def main() -> None:
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        _setup(args[0], args[1:])
    elif mode == "library":
        _library(args[0], args[1] == "1", json.loads(args[2]))
    elif mode == "cli":
        _cli(args[0] == "1", args[1:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main()

"""One measured pass, run in a fresh interpreter.

    python3 worker.py <plan.json> <result.json>

The plan names the operations: ``cli`` operations are argument lists for
``popmatch.cli.run``, ``sweep`` operations are instance files that go
through the acceptance loop of the library (the exhaustive oracle, every
predicate on every matching, and the unstable-popular decision).  The
worker first times its own set-up: importing ``popmatch.cli`` and loading
the compiled probe.  Then it times each operation alone and captures its
output.  Times are the process's CPU time, which leaves out the time the
hypervisor steals and the time other processes hold the CPU.  Before the
first operation, then after every ``CHECKPOINT_S`` of operation time and
after the last one, it times a fixed reference routine (``reference_s``):
the machine's speed at that moment, which ``run.py`` divides out.  The
result file gets one JSON line with the set-up time, one per operation
(time, wall time, exit code, output, or the traceback if it raised), one
per checkpoint (``{"ref": seconds}``), and a last one with the worker's
peak resident memory.  With ``trace`` set it also records spans (see
``tracing.py``) and writes them to ``spans``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

CHECKPOINT_S = 0.05  # operation CPU time between two reference timings
REFERENCE_REPEATS = 3


def reference() -> int:
    """Fixed interpreter work of about 0.2 ms: string keys, dicts, sorting, sets.

    It stands for the kind of work popmatch does, so that a phase in which
    the machine runs slower slows it by about as much as the operations.
    """
    table: dict[str, list[int]] = {}
    for i in range(600):
        key = f"v{i % 61}"
        table.setdefault(key, []).append((i * 7919) % 101)
    total = 0
    for key in sorted(table):
        row = sorted(table[key])
        total += row[len(row) // 2] + len(key)
    pairs = {(a, b) for a in range(24) for b in range(a, 24) if (a ^ b) & 1}
    return total + len(pairs)


def reference_s() -> float:
    """CPU time of the reference routine now: the best of a few repeats."""
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        t0 = time.process_time()
        reference()
        best = min(best, time.process_time() - t0)
    return best


def _load_probe() -> None:
    """Load the compiled probe through the public decision on a one-edge chain."""
    from popmatch.classify import exists_unstable_popular
    from popmatch.model import parse_instance

    exists_unstable_popular(
        parse_instance("marriage\nA x0\nB x1\nx0: x1\nx1: x0\n"), backend="compiled"
    )


def _peak_rss_kb() -> int:
    """This process's own peak resident memory, in KiB.

    ``ru_maxrss`` does not do here: Linux carries the parent's peak across
    the exec that starts the worker.  ``VmHWM`` belongs to this process alone.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cli_op(argv: list[str]):
    import popmatch.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.process_time()
        code = popmatch.cli.run(argv)
        elapsed = time.process_time() - t0
    return elapsed, code, {"stdout": out.getvalue(), "stderr": err.getvalue()}


def _sweep_op(path: str):
    """Criteria 2-3 on one instance: oracle, four predicates per matching, decision."""
    from popmatch import classify, model, oracle, popularity

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    t0 = time.process_time()
    inst = model.parse_instance(text)
    report = oracle.classify_exhaustive(inst)
    rows = [
        (
            m,
            popularity.is_stable(inst, m)[0],
            popularity.is_popular_weight(inst, m),
            popularity.is_popular_structure(inst, m),
            popularity.is_dominant(inst, m),
        )
        for m in report.matchings
    ]
    decision = classify.exists_unstable_popular(inst)
    elapsed = time.process_time() - t0

    def edges(m):
        return [list(e) for e in m.edges]

    out = {
        "oracle": {
            name: [edges(m) for m in getattr(report, name)]
            for name in ("matchings", "stable", "popular", "dominant")
        },
        "predicates": [
            {
                "matching": edges(m),
                "stable": stable,
                "popular_weight": weight,
                "popular_structure": structure[0],
                "certificate": (
                    [structure[1].kind, list(structure[1].vertices)] if structure[1] else None
                ),
                "dominant": dominant,
            }
            for m, stable, weight, structure, dominant in rows
        ],
        "decision": None if decision is None else edges(decision),
    }
    return elapsed, 0, out


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    t0 = time.process_time()
    import popmatch.cli  # noqa: F401  (the set-up every CLI call pays)

    _load_probe()
    setup_s = time.process_time() - t0

    tracer = None
    if plan.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    # one JSON line per operation, written as it ends, so that outputs do not
    # pile up in this process and count towards its peak memory
    run_op = _cli_op if plan["kind"] == "cli" else _sweep_op
    with open(result_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"setup_s": setup_s}) + "\n")
        for _ in range(REFERENCE_REPEATS):  # warm-up: a fresh interpreter's first runs are slower
            reference()
        fh.write(json.dumps({"ref": reference_s()}) + "\n")
        since = 0.0
        for op in plan["ops"]:
            w0 = time.perf_counter()
            try:
                elapsed, code, out = run_op(op)
                row = {"time": elapsed, "code": code, "output": out, "error": None}
            except Exception:  # an operation that raises counts as failed
                elapsed = 0.0
                row = {"time": None, "code": None, "output": None, "error": traceback.format_exc(limit=4)}
            row["wall"] = time.perf_counter() - w0
            fh.write(json.dumps(row) + "\n")
            since += elapsed
            if since >= CHECKPOINT_S:
                fh.write(json.dumps({"ref": reference_s()}) + "\n")
                since = 0.0
        if since > 0.0:
            fh.write(json.dumps({"ref": reference_s()}) + "\n")
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(plan["spans"])
        fh.write(json.dumps({"maxrss_kb": _peak_rss_kb()}) + "\n")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

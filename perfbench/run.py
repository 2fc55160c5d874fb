"""popmatch benchmark: one workload, timed from outside, every output checked.

    python3 perfbench/run.py --workload decide|certify|sweep|reduce \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark writes its seeded inputs under
``.perfbench/``, points ``XDG_CACHE_HOME`` there so that the compiled probe
is built once in a cache of its own, then runs whole passes over the
workload's operation list, each pass in a fresh interpreter
(``worker.py``), until ``--seconds`` are used (at least three passes).  An
operation's time is its CPU time, rescaled to the machine's nominal speed
(``REF_NOMINAL_S``), and its best over the passes.  Outputs are checked in
this process, outside the measured one (``workloads.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of ``tracing.py`` with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PASSES = WORK / "passes"
SETUP_SAMPLES = 5  # set-up-only interpreters; every pass adds one more sample
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
# CPU time of worker.reference_s() on the 2-core x86-64 VM this benchmark was
# built on, when nothing else ran.  A measured time t, taken while the
# reference routine took r, is reported as t * REF_NOMINAL_S / r: the time
# the operation would take on that machine at its usual speed.  CPU time
# leaves out steal; the rescaling cancels the host's slow phases, which last
# seconds and slow the reference routine as well as popmatch.
REF_NOMINAL_S = 180e-6


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "POPMATCH_CAP")}
    env.update(
        PYTHONPATH=str(SRC),
        XDG_CACHE_HOME=str(WORK / "cache"),
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        PYTHONHASHSEED="0",
    )
    return env


def _warm_probe() -> None:
    """Build the compiled probe into the benchmark's cache; note a cold build's time."""
    from popmatch import _gs

    record = WORK / "probe_build.json"
    cache = WORK / "cache" / "popmatch"
    fresh = not any(cache.glob("probe-*.so")) if cache.is_dir() else True
    t0 = time.perf_counter()
    try:
        _gs.build_probe(cache)
    except _gs.ProbeUnavailable as exc:
        _fail(f"the compiled probe cannot be built: {exc}")
    if fresh:
        record.write_text(json.dumps({"cold_build_s": time.perf_counter() - t0}))
    if record.is_file():
        print(f"perfbench: cold probe build {json.loads(record.read_text())['cold_build_s']:.3f} s", file=sys.stderr)


class Verdicts:
    """Checks each operation's outputs as passes come in; counts failures.

    An execution fails when it raised, exited 2, or gave an output its
    check rejects (a wrong output).  Identical outputs are checked once.
    """

    def __init__(self, ops):
        self.ops = ops
        self.seen: list[dict[str, str | None]] = [{} for _ in ops]
        self.failed = self.wrong = 0

    def add(self, rows) -> None:
        for i, (op, row) in enumerate(zip(self.ops, rows)):
            if row["error"] is not None:
                problem = f"raised:\n{row['error']}"
            elif row["code"] == 2:
                problem = f"exit 2: {row['output'].get('stderr', '').strip()}"
            else:
                key = json.dumps([row["code"], row["output"]], sort_keys=True)
                if key not in self.seen[i]:
                    try:
                        self.seen[i][key] = op.check(row["code"], row["output"])
                    except Exception as exc:  # a malformed output fails its check
                        self.seen[i][key] = f"unreadable output ({exc!r})"
                problem = self.seen[i][key]
                self.wrong += problem is not None
            if problem is not None:
                self.failed += 1
                print(f"perfbench: operation {i} {op.arg}: {problem}", file=sys.stderr)


def _run_worker(ops, kind: str, env, tag: str, verdicts: Verdicts | None = None, trace: bool = False) -> dict:
    """One pass in a fresh interpreter; hands its outputs to ``verdicts``."""
    plan = PASSES / f"plan-{tag}.json"
    result = PASSES / f"result-{tag}.json"
    spans = PASSES / f"spans-{tag}.json"
    plan.write_text(json.dumps({"kind": kind, "ops": ops, "trace": trace, "spans": str(spans)}))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan), str(result)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        _fail(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    with open(result, encoding="utf-8") as fh:
        head, *lines, tail = map(json.loads, fh)
    rows = [obj for obj in lines if "ref" not in obj]
    refs = [obj["ref"] for obj in lines if "ref" in obj]
    # a pass lasts about a second, shorter than the host's speed phases; the
    # median ignores a reference timing that a garbage collection stretched
    scale = REF_NOMINAL_S / statistics.median(refs)
    if verdicts is not None:
        verdicts.add(rows)
    return {
        "setup_s": head["setup_s"] * scale,
        "times": [None if r["time"] is None else r["time"] * scale for r in rows],
        "cpu": [r["time"] for r in rows],
        "wall": sum(r["wall"] for r in rows),
        "refs": refs,
        "maxrss_kb": tail["maxrss_kb"],
        "spans": str(spans),
    }


def _steal_s() -> float | None:
    """Seconds of CPU time the hypervisor took from this machine so far (Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _p95(values: list[float]) -> float:
    """Nearest rank: with 200 values, ten lie beyond it."""
    ordered = sorted(values)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


def _best_times(passes: list[dict], key: str = "times") -> list[float]:
    best = []
    for i in range(len(passes[0][key])):
        times = [p[key][i] for p in passes if p[key][i] is not None]
        if times:
            best.append(min(times))
    return best


def main() -> None:
    # cache this process's bytecode with the workers', inside the checkout
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(WORK / "pycache")
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "popmatch" / "cli.py").is_file():
        _fail(f"no popmatch sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    inputs = WORK / "inputs" / args.workload
    for fresh in (inputs, PASSES):
        shutil.rmtree(fresh, ignore_errors=True)
        fresh.mkdir(parents=True)
    (WORK / "cache").mkdir(exist_ok=True)
    env = _worker_env()

    _warm_probe()
    workload = workloads.build(args.workload, random.Random(args.seed), inputs)
    ops = [op.arg for op in workload.ops]
    print(f"perfbench: {args.workload}: {len(ops)} operations: {workload.about}", file=sys.stderr)

    _run_worker([], workload.kind, env, "warm")  # fills the bytecode cache
    setups = [_run_worker([], workload.kind, env, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]

    verdicts = Verdicts(workload.ops)
    plain, traced = [], []
    start, steal0, cpu0 = time.perf_counter(), _steal_s(), os.times()
    while True:
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - start
        if done >= MIN_PASSES * (1 + args.trace) and elapsed * (done + 1) / done > args.seconds:
            break
        trace = bool(args.trace) and done % 2 == 1
        (traced if trace else plain).append(
            _run_worker(ops, workload.kind, env, f"pass{done}", verdicts, trace)
        )
    every = plain + traced
    cpu1, steal1 = os.times(), _steal_s()
    cpu = cpu1.children_user + cpu1.children_system - cpu0.children_user - cpu0.children_system
    steal = "unknown" if steal0 is None or steal1 is None else f"{steal1 - steal0:.2f} s"
    print(f"perfbench: {len(plain)} plain and {len(traced)} traced passes in "
          f"{time.perf_counter() - start:.1f} s, {cpu:.1f} s of CPU time in workers, "
          f"steal {steal}", file=sys.stderr)
    refs = sorted(r for p in every for r in p["refs"])
    print(f"perfbench: reference routine {1e6 * refs[0]:.0f}..{1e6 * statistics.median(refs):.0f}"
          f"..{1e6 * refs[-1]:.0f} us (min..median..max, nominal {1e6 * REF_NOMINAL_S:.0f}); "
          f"unscaled best CPU {sum(_best_times(plain, 'cpu')):.3f} s; "
          f"wall per plain pass {statistics.median(p['wall'] for p in plain):.3f} s", file=sys.stderr)

    best = _best_times(plain)
    run_s = sum(best)
    if args.trace:
        import tracing

        layers = [tracing.summarize(p["spans"]) for p in traced]
        # median_low: a measured value, and counts stay whole numbers
        values = {name: statistics.median_low(s[name] for s in layers) for name in layers[0]}
        values["trace.overhead_s"] = sum(_best_times(traced)) - run_s
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.METRICS}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [p["setup_s"] for p in every]), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(best), "unit": "ms"},
            "op_p95_ms": {"value": 1000 * _p95(best), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(p["maxrss_kb"] for p in plain) / 1024, "unit": "MB"},
        }
    result = {
        "correct": verdicts.wrong == 0,
        "attempted": len(ops) * len(every),
        "failed": verdicts.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()

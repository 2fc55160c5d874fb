"""Record a benchmark baseline: every workload, several seeds, in one file.

    python3 tools/bench.py LABEL [--seeds 11 12 13] [--seconds 30]
                                 [--checkout DIR]

Runs ``perfbench/run.py --trace 0`` of the checkout (by default the one this
script is in) for each seed and each of its four workloads, one run at a
time, and writes ``BENCH_<LABEL>.json`` at the root of the repository this
script is in.  The file holds the checkout's commit and whether its tree
had uncommitted changes, the machine facts that the figures depend on (CPU
count, the Python, numpy and networkx versions, the first line of
``cc --version``), the line count of each source file of the checkout's
``src/popmatch``, so that size is tracked next to speed, and every run's
result line as ``perfbench/run.py`` printed it.  It then runs the checkout's ``tests/test_acceptance.py`` once
under ``pytest --durations=0`` and records each test's setup and call
seconds under ``acceptance_durations``.  A run that exits non-zero stops
the recording with its standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("decide", "certify", "sweep", "reduce")
# one line of pytest's durations report: "12.34s call     tests/x.py::test_y"
DURATION = re.compile(r"(\d+(?:\.\d+)?)s (setup|call|teardown) +(\S.*)")


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _first_line(argv: list[str], cwd: Path | None = None) -> str | None:
    try:
        proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    except OSError:
        return None
    lines = proc.stdout.splitlines()
    return lines[0] if proc.returncode == 0 and lines else None


def machine() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "networkx": _version("networkx"),
        "cc": _first_line(["cc", "--version"]),
    }


def module_lines(checkout: Path) -> dict[str, int]:
    """Lines in each Python and C source file of the checkout's ``src/popmatch``."""
    pkg = checkout / "src" / "popmatch"
    files = sorted([*pkg.glob("*.py"), *pkg.glob("*.c")])
    return {f.name: len(f.read_text(encoding="utf-8").splitlines()) for f in files}


def run_one(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def acceptance_durations(checkout: Path) -> dict[str, dict[str, float]]:
    """Setup and call seconds of every test in the checkout's acceptance file."""
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--durations=0", "--durations-min=0", "tests/test_acceptance.py"]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = proc.stdout[-4000:]
        sys.exit(f"bench: tests/test_acceptance.py exited {proc.returncode}:\n{tail}")
    durations: dict[str, dict[str, float]] = {}
    for line in proc.stdout.splitlines():
        found = DURATION.fullmatch(line.strip())
        if found and found[2] != "teardown":
            durations.setdefault(found[3], {})[found[2]] = float(found[1])
    return durations


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 12, 13])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args()

    checkout = args.checkout.resolve()
    runs = []
    for seed in args.seeds:
        for workload in WORKLOADS:
            print(f"bench: {workload} seed {seed}", file=sys.stderr)
            result = run_one(checkout, workload, seed, args.seconds)
            runs.append({"workload": workload, "seed": seed, "result": result})
    print("bench: tests/test_acceptance.py", file=sys.stderr)
    durations = acceptance_durations(checkout)
    changed = _first_line(["git", "status", "--porcelain"], cwd=checkout)
    record = {
        "label": args.label,
        "commit": _first_line(["git", "rev-parse", "HEAD"], cwd=checkout),
        "uncommitted_changes": changed is not None,
        "seconds": args.seconds,
        "machine": machine(),
        "module_lines": module_lines(checkout),
        "runs": runs,
        "acceptance_durations": durations,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"bench: wrote {out.name}", file=sys.stderr)


if __name__ == "__main__":
    main()

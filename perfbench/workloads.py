"""The four workloads: their inputs, their operations, and each operation's check.

``build(name, rng, where)`` writes a workload's input files under ``where``
and returns its operations.  A ``cli`` operation is an argument list for
``popmatch.cli.run`` with ``--json``; a ``sweep`` operation is an instance
file for the library's acceptance loop (see ``worker.py``).  Each operation
carries a check that takes the exit code and the captured output and
returns None when the output is right, or what is wrong with it.  The
checks use ``checks.py`` and answers known by construction, never a stored
copy of an earlier output.  Exit code 2 and exceptions are counted as
failures before any check runs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import instances as gen
from instances import Market

Check = Callable[[int, dict], "str | None"]


@dataclass
class Op:
    arg: object  # argv list (cli) or instance path (sweep)
    check: Check


@dataclass
class Workload:
    kind: str  # "cli" or "sweep"
    ops: list[Op]
    about: str


# -- sizes --------------------------------------------------------------------

CHAIN_EDGES = tuple(range(200, 850, 50))  # the 13 slowest operations; compiled probe, YES
PLANTED = 150  # n = 6 or 7 per side, half the other pairs: 21 to 28 edges, YES
RANDOM_DECIDE = 37  # 20..24 per side, mean degree 10, at least 200 edges: NO
CERTIFY_SIZES = (6, 8, 9, 10, 11, 12, 14, 16, 18, 20, 22, 25)  # per side
CERTIFY_DENSITY = (1.0, 0.6, 0.8, 0.5, 1.0, 0.3, 0.6, 1.0, 0.2, 0.5, 0.3, 0.2)
LADDER_RUNGS = (13,) * 8 + (14,) * 4  # the 12 slowest operations
SWEEP_SHAPES = ((2, 2, 4), (2, 3, 5), (3, 2, 5), (3, 3, 6), (3, 3, 7), (3, 4, 7), (4, 3, 7))
SWEEP_INSTANCES = 609  # 87 of each shape: the median falls inside the (3, 3, 6) group, whose times vary most
SAT_FORMULAS = 39  # 2 variables, 2 or 3 clauses
TARGETS = ("g4", "g4max", "g5", "hmin", "hroom")


# -- shared helpers -----------------------------------------------------------


def _json_lines(out: dict) -> list[dict]:
    return [json.loads(line) for line in out["stdout"].splitlines() if line.strip()]


def _pairs(edges) -> list[tuple[str, str]]:
    return [tuple(e) for e in edges]


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _expect(code: int, want: int, obj: dict, what: str) -> str | None:
    return None if code == want else f"{what}: exit {code}, expected {want}: {obj}"


# -- decide -------------------------------------------------------------------


def _decide_yes(code: int, out: dict) -> str | None:
    lines = _json_lines(out)
    want = {"question": "all-popular-stable", "verdict": True, "counterexample": None}
    if code != 0 or lines != [want]:
        return f"expected YES (exit 0), got exit {code}: {lines}"
    return None


def _decide_no(market: Market) -> Check:
    def check(code: int, out: dict) -> str | None:
        lines = _json_lines(out)
        if code != 1 or len(lines) != 1 or lines[0].get("verdict") is not False:
            return f"expected NO with a counterexample (exit 1), got exit {code}: {lines}"
        pairs = _pairs(lines[0]["counterexample"])
        if not checks.is_matching(market, pairs):
            return f"counterexample is not a matching: {pairs}"
        if not checks.blocking_edges(market, checks.partner_map(pairs)):
            return "counterexample has no blocking edge"
        if not checks.is_popular(market, pairs):
            return "counterexample is not popular"
        return None

    return check


def _larger_dominant(rng: random.Random, n: int, degree: int, min_edges: int = 0) -> Market:
    """A random instance whose dominant matching is larger than its stable one.

    Stable matchings are the smallest popular matchings, so that dominant
    matching is popular and unstable: the decision must answer NO.  Sparse
    instances mostly qualify; the rest, and those under ``min_edges``
    edges, are drawn again.
    """
    while True:
        market = gen.random_market(rng, n, n, degree / n)
        if len(market.edges()) < min_edges:
            continue
        if len(checks.dominant_matching(market)[0]) > len(checks.gale_shapley(market)):
            return market


def _decide(rng: random.Random, where: Path) -> Workload:
    ops = []

    def add(name: str, market: Market, check: Check) -> None:
        path = _write(where / f"{name}.inst", market.text())
        ops.append(Op(["classify", "--all-popular-stable", path, "--json"], check))

    for m in CHAIN_EDGES:
        add(f"chain{m}", gen.chain(m), _decide_yes)
    for i in range(PLANTED):
        add(f"planted{i:03d}", gen.planted(rng, 6 + i % 2), _decide_yes)
    for i in range(RANDOM_DECIDE):
        # at least 200 edges: the compiled probe runs, and the time does not
        # hinge on how far the sweep goes before it finds an edge
        market = _larger_dominant(rng, 20 + i % 5, 10, min_edges=200)
        add(f"random{i:03d}", market, _decide_no(market))
    return Workload(
        "cli",
        ops,
        f"{len(CHAIN_EDGES)} chains ({CHAIN_EDGES[0]}..{CHAIN_EDGES[-1]} edges), "
        f"{PLANTED} planted (6 or 7 per side), {RANDOM_DECIDE} random (20..24 per side)",
    )


# -- certify ------------------------------------------------------------------


def _solve_stable(market: Market) -> Check:
    want = checks.gale_shapley(market)

    def check(code: int, out: dict) -> str | None:
        lines = _json_lines(out)
        if code != 0 or len(lines) != 1 or sorted(_pairs(lines[0]["matching"])) != want:
            return f"solve --stable differs from the proposer-optimal stable matching: {lines}"
        return None

    return check


def _solve_dominant(market: Market) -> Check:
    def check(code: int, out: dict) -> str | None:
        lines = _json_lines(out)
        if code != 0 or len(lines) != 1:
            return f"solve --dominant: exit {code}, {lines}"
        pairs = _pairs(lines[0]["matching"])
        if not checks.is_matching(market, pairs) or not checks.is_dominant(market, pairs):
            return "solve --dominant returned a matching that is not dominant"
        if checks.witness_violations(market, pairs, lines[0]["witness"]):
            return "solve --dominant returned an invalid witness"
        return None

    return check


def _verify_stable(market: Market, pairs) -> Check:
    truth = not checks.blocking_edges(market, checks.partner_map(pairs))

    def check(code: int, out: dict) -> str | None:
        [obj] = _json_lines(out)
        if obj["stable"] != truth:
            return f"verify --stable says {obj['stable']}, the definition says {truth}"
        if not truth:
            u, v = obj["blocking"]
            p = checks.partner_map(pairs)
            if checks.vote(market, u, v, p) <= 0 or checks.vote(market, v, u, p) <= 0:
                return f"reported edge ({u}, {v}) does not block"
        return _expect(code, 0 if truth else 1, obj, "verify --stable")

    return check


def _verify_popular(market: Market, pairs) -> Check:
    truth = checks.is_popular(market, pairs)
    small = len(market.vertices) <= 24

    def check(code: int, out: dict) -> str | None:
        [obj] = _json_lines(out)
        if obj["popular"] != truth:
            return f"verify --popular says {obj['popular']}, the weight test says {truth}"
        if truth and small:
            if obj["witness"] is None or checks.witness_violations(market, pairs, obj["witness"]):
                return "verify --popular gave no valid witness"
        if not truth:
            cert = obj["counterexample"]
            if not checks.structure_ok(market, pairs, cert["kind"], cert["vertices"]):
                return f"counterexample {cert} does not refute popularity"
        return _expect(code, 0 if truth else 1, obj, "verify --popular")

    return check


def _verify_dominant(market: Market, pairs) -> Check:
    truth = checks.is_dominant(market, pairs)
    popular = checks.is_popular(market, pairs)

    def check(code: int, out: dict) -> str | None:
        [obj] = _json_lines(out)
        if obj["dominant"] != truth:
            return f"verify --dominant says {obj['dominant']}, the weight test says {truth}"
        cert = obj["counterexample"]
        if not truth and not popular:
            if not checks.structure_ok(market, pairs, cert["kind"], cert["vertices"]):
                return f"counterexample {cert} does not refute popularity"
        if not truth and popular and cert != {"kind": "augmenting", "vertices": []}:
            return f"popular but not dominant, yet the reason given is {cert}"
        return _expect(code, 0 if truth else 1, obj, "verify --dominant")

    return check


def _verify_witness(market: Market, pairs, w) -> Check:
    bad = checks.witness_violations(market, pairs, w)

    def check(code: int, out: dict) -> str | None:
        [obj] = _json_lines(out)
        if obj["valid"] != (not bad) or sorted(obj["violations"]) != sorted(bad):
            return f"verify --witness reports {obj}, the constraints give {bad}"
        return _expect(code, 1 if bad else 0, obj, "verify --witness")

    return check


def _unstable_popular(market: Market, fallback):
    """The decision's popular matching with a blocking edge, if it finds one."""
    from popmatch.classify import exists_unstable_popular
    from popmatch.model import parse_instance

    found = exists_unstable_popular(parse_instance(market.text()))
    return fallback if found is None else list(found.edges)


def _certify(rng: random.Random, where: Path) -> Workload:
    ops = []
    for i, (n, density) in enumerate(zip(CERTIFY_SIZES, CERTIFY_DENSITY)):
        market = gen.random_market(rng, n, n, density)
        inst = _write(where / f"m{i:02d}.inst", market.text())
        ops.append(Op(["solve", "--stable", inst, "--json"], _solve_stable(market)))
        ops.append(Op(["solve", "--dominant", inst, "--json"], _solve_dominant(market)))
        stable = checks.gale_shapley(market)
        dominant, witness = checks.dominant_matching(market)
        matchings = {
            "stable": stable,
            "dominant": dominant,
            "unstable": _unstable_popular(market, dominant),
            "maximal": gen.random_maximal(rng, market),
        }
        for name, pairs in matchings.items():
            mpath = _write(where / f"m{i:02d}.{name}.match", gen.matching_text(pairs))
            for mode, make in (
                ("--stable", _verify_stable),
                ("--popular", _verify_popular),
                ("--dominant", _verify_dominant),
            ):
                ops.append(Op(["verify", mode, inst, mpath, "--json"], make(market, pairs)))
        for name, w in (
            ("stable", dict.fromkeys(market.vertices, 0)),
            ("dominant", witness),
            ("maximal", gen.random_witness(rng, market)),
        ):
            pairs = matchings[name]
            wpath = _write(where / f"m{i:02d}.{name}.wit", gen.witness_text(w))
            mpath = str(where / f"m{i:02d}.{name}.match")
            ops.append(
                Op(["verify", "--witness", inst, mpath, wpath, "--json"], _verify_witness(market, pairs, w))
            )
    for j, k in enumerate(LADDER_RUNGS):
        market, pairs = gen.diamond_ladder(k)
        inst = _write(where / f"ladder{j:02d}.inst", market.text())
        mpath = _write(where / f"ladder{j:02d}.match", gen.matching_text(pairs))
        ops.append(Op(["verify", "--popular", inst, mpath, "--json"], _verify_popular(market, pairs)))
    return Workload(
        "cli",
        ops,
        f"{len(CERTIFY_SIZES)} random instances ({CERTIFY_SIZES[0]}..{CERTIFY_SIZES[-1]} per side) "
        f"x 17 operations, {len(LADDER_RUNGS)} diamond ladders (k = {LADDER_RUNGS[0]}..{LADDER_RUNGS[-1]})",
    )


# -- sweep --------------------------------------------------------------------


def _sweep_check(market: Market) -> Check:
    def key(edges):
        return frozenset(tuple(e) for e in edges)

    def check(code: int, out: dict) -> str | None:
        truth = checks.classify_all(market)
        oracle = out["oracle"]
        if len(oracle["matchings"]) != len(truth) or {key(m) for m in oracle["matchings"]} != set(truth):
            return "the oracle's matchings differ from a full enumeration"
        for cls in ("stable", "popular", "dominant"):
            if {key(m) for m in oracle[cls]} != {m for m, t in truth.items() if t[cls]}:
                return f"the oracle's {cls} set is wrong"
        if sorted((key(row["matching"]) for row in out["predicates"]), key=sorted) != sorted(truth, key=sorted):
            return "the predicates were not run on every matching exactly once"
        for row in out["predicates"]:
            m = key(row["matching"])
            t = truth[m]
            got = (row["stable"], row["popular_weight"], row["popular_structure"], row["dominant"])
            if got != (t["stable"], t["popular"], t["popular"], t["dominant"]):
                return f"predicates {got} on {sorted(m)}, expected {t}"
            if not t["popular"]:
                kind, verts = row["certificate"]
                if not checks.structure_ok(market, sorted(m), kind, verts):
                    return f"certificate {row['certificate']} does not refute popularity"
        exists = any(t["popular"] and not t["stable"] for t in truth.values())
        if out["decision"] is None:
            return "decision missed an unstable popular matching" if exists else None
        t = truth.get(key(out["decision"]))
        if t is None or not t["popular"] or t["stable"]:
            return "decision returned a matching that is not unstable and popular"
        return None

    return check


def _sweep(rng: random.Random, where: Path) -> Workload:
    ops = []
    for i in range(SWEEP_INSTANCES):
        na, nb, m = SWEEP_SHAPES[i % len(SWEEP_SHAPES)]
        market = gen.random_market_edges(rng, na, nb, m)
        path = _write(where / f"tiny{i:03d}.inst", market.text())
        ops.append(Op(path, _sweep_check(market)))
    shapes = ", ".join(f"{a}x{b}/{m}" for a, b, m in SWEEP_SHAPES)
    return Workload("sweep", ops, f"{SWEEP_INSTANCES} tiny instances cycling through sides/edges {shapes}")


# -- reduce -------------------------------------------------------------------


def _instance_size(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split("#", 1)[0].split() for ln in fh]
    return sum(len(t) - 1 for t in lines if t and t[0] in ("A", "B", "V"))


def _reduce_check(satisfiable: bool) -> Check:
    branch = "SAT ⇒" if satisfiable else "UNSAT ⇒"

    def check(code: int, out: dict) -> str | None:
        lines = _json_lines(out)
        if code != 0 or len(lines) != 2:
            return f"reduce --verify: exit {code}, {lines}"
        wrote, verdict = lines
        if verdict["verdict"] != "CONFIRMED" or not verdict["claim"].startswith(branch):
            return f"expected a CONFIRMED {branch} claim, got {verdict}"
        if _instance_size(wrote["instance"]) != wrote["vertices"]:
            return "the written instance has another vertex count than reported"
        return None

    return check


def _reduce(rng: random.Random, where: Path) -> Workload:
    out_dir = where / "out"
    out_dir.mkdir()
    formulas = []
    for i in range(SAT_FORMULAS):
        nvars, nclauses = 2, 2 + i % 2
        while True:
            clauses = gen.random_cnf(rng, nvars, nclauses)
            if checks.brute_sat(nvars, clauses):
                break
        formulas.append((f"sat{i:02d}", nvars, clauses))
    formulas.append(("contradiction", 1, gen.contradiction()))
    ops = []
    for name, nvars, clauses in formulas:
        path = _write(where / f"{name}.cnf", gen.dimacs_text(nvars, clauses))
        check = _reduce_check(checks.brute_sat(nvars, clauses))
        for target in TARGETS:
            argv = ["reduce", path, "--target", target, "--verify", "--json", "--out-dir", str(out_dir)]
            ops.append(Op(argv, check))
    return Workload(
        "cli",
        ops,
        f"{SAT_FORMULAS} satisfiable formulas (2 variables, 2 or 3 clauses) and the "
        f"one-variable contradiction, each on all {len(TARGETS)} targets",
    )


BUILDERS = {"decide": _decide, "certify": _certify, "sweep": _sweep, "reduce": _reduce}


def build(name: str, rng: random.Random, where: Path) -> Workload:
    return BUILDERS[name](rng, where)

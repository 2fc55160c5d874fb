"""Command-line front end.

One executable, seven subcommands::

    popmatch solve    --stable|--dominant <instance>
    popmatch verify   --stable|--popular|--dominant <instance> <matching>
    popmatch verify   --witness <instance> <matching> <witness-file>
    popmatch election <instance> <matchingA> <matchingB>
    popmatch classify <instance> --all-popular-stable
    popmatch classify <instance> --all-popular-dominant --exhaustive [--cap N]
    popmatch reduce   <cnf.dimacs> --target g4|g4max|g5|hmin|hroom [--verify]
    popmatch oracle   <instance> [--json]
    popmatch corpus   --random n=<k> [count=<c>] [seed=<s>] [kind=...] [density=...]

Exit codes: 0 for "yes"/success, 1 for a "no" decision, 2 for usage or
validation errors.  ``--json`` switches any subcommand to line-delimited
JSON objects.  The POPMATCH_CAP environment variable overrides the default
vertex cap (20) of ``oracle`` only; ``classify --exhaustive`` ignores it and
takes ``--cap`` (default 16).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .classify import exists_unstable_popular
from .election import delta
from .engine import gale_shapley, solve_dominant
from .gen import random_marriage, random_roommates
from .model import (
    Instance,
    Matching,
    ParseError,
    parse_instance,
    parse_matching,
    parse_witness,
    serialize_instance,
    serialize_matching,
)
from .oracle import brute_sat, classify_exhaustive, enumerate_stable_matchings
from .popularity import (
    find_witness_small,
    is_dominant,
    is_dominant_structure,
    is_popular_structure,
    is_stable,
    verify_witness,
)
from .reductions import (
    GadgetMap,
    NormalizedFormula,
    assignment_to_matching,
    augment_max_size,
    augment_min_size,
    augment_roommates,
    build_nondominant_gadget,
    build_stable_dominant_gadget,
    normalize_3sat,
    parse_dimacs,
)

EXHAUSTIVE_CAP = 16


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_instance(path: str) -> Instance:
    return parse_instance(_read(path))


def _load_matching(path: str, inst: Instance) -> Matching:
    return parse_matching(_read(path), inst)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _edge_list(m: Matching) -> list[list[str]]:
    return [[u, v] for u, v in m.edges]


def _print_matching(m: Matching) -> None:
    text = serialize_matching(m)
    if text:
        sys.stdout.write(text)
    else:
        print("# empty matching")


# ---------------------------------------------------------------------------
# solve


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    if args.dominant:
        m, witness = solve_dominant(inst)
        if args.json:
            _emit({"matching": _edge_list(m), "witness": witness})
        else:
            _print_matching(m)
            print("# witness")
            for u in inst.vertices:
                print(f"{u} {witness[u]}")
    else:
        m = gale_shapley(inst)
        if args.json:
            _emit({"matching": _edge_list(m)})
        else:
            _print_matching(m)
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    inst = _load_instance(args.files[0])
    m = _load_matching(args.files[1], inst)

    if args.mode == "stable":
        ok, edge = is_stable(inst, m)
        if args.json:
            _emit({"stable": ok, "blocking": list(edge) if edge else None})
        elif ok:
            print("STABLE")
        else:
            print("UNSTABLE")
            print(f"blocking {edge[0]} {edge[1]}")
        return 0 if ok else 1

    if args.mode == "popular":
        ok, cert = is_popular_structure(inst, m)
        witness = None
        if ok and inst.kind == "marriage" and len(inst.vertices) <= 24:
            witness = find_witness_small(inst, m)
        if args.json:
            _emit(
                {
                    "popular": ok,
                    "witness": witness,
                    "counterexample": (
                        {"kind": cert.kind, "vertices": list(cert.vertices)}
                        if cert
                        else None
                    ),
                }
            )
        elif ok:
            print("POPULAR")
            if witness:
                print("# witness")
                for u in inst.vertices:
                    print(f"{u} {witness[u]}")
        else:
            print("NOT POPULAR")
            print(f"{cert.kind}: {' '.join(cert.vertices)}")
        return 0 if ok else 1

    if args.mode == "dominant":
        ok, cert = is_dominant_structure(inst, m)
        popular = cert is None
        if args.json:
            reason = None
            if not popular:
                reason = {"kind": cert.kind, "vertices": list(cert.vertices)}
            elif not ok:
                reason = {"kind": "augmenting", "vertices": []}
            _emit({"dominant": ok, "counterexample": reason})
        elif ok:
            print("DOMINANT")
        elif not popular:
            print("NOT DOMINANT")
            print(f"not popular; {cert.kind}: {' '.join(cert.vertices)}")
        else:
            print("NOT DOMINANT")
            print("a larger matching ties the election")
        return 0 if ok else 1

    # witness mode
    w = parse_witness(_read(args.files[2]), inst)
    ok, bad = verify_witness(inst, m, w)
    if args.json:
        _emit({"valid": ok, "violations": [list(map(str, v)) for v in bad]})
    elif ok:
        print("VALID WITNESS")
    else:
        print("INVALID WITNESS")
        for v in bad:
            print(" ".join(str(x) for x in v))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# election


def _cmd_election(args) -> int:
    inst = _load_instance(args.instance)
    ma = _load_matching(args.matching_a, inst)
    mb = _load_matching(args.matching_b, inst)
    # Strict preferences, unmatched worst: each vertex whose partner differs
    # votes for exactly one side, so the d voters split as (d + δ)/2, (d − δ)/2.
    voters = sum(ma.partner(u) != mb.partner(u) for u in inst.vertices)
    margin = delta(inst, ma, mb)
    for_a, for_b = (voters + margin) // 2, (voters - margin) // 2
    if args.json:
        _emit({"phi_ab": for_a, "phi_ba": for_b, "delta": margin})
    else:
        print(f"phi(A,B) {for_a}")
        print(f"phi(B,A) {for_b}")
        print(f"delta {margin}")
    return 0


# ---------------------------------------------------------------------------
# classify


def _cmd_classify(args) -> int:
    inst = _load_instance(args.instance)
    if args.all_popular_stable:
        question = "all-popular-stable"
        bad = exists_unstable_popular(inst)
    else:  # all-popular-dominant, exhaustive route only
        question = "all-popular-dominant"
        cap = args.cap if args.cap is not None else EXHAUSTIVE_CAP
        report = classify_exhaustive(inst, cap=cap)
        dominant = set(report.dominant)
        bad = next((m for m in report.popular if m not in dominant), None)

    if args.json:
        _emit(
            {
                "question": question,
                "verdict": bad is None,
                "counterexample": _edge_list(bad) if bad else None,
            }
        )
    elif bad is None:
        print("YES")
    else:
        print("NO")
        _print_matching(bad)
    return 0 if bad is None else 1


# ---------------------------------------------------------------------------
# oracle


def _cmd_oracle(args) -> int:
    inst = _load_instance(args.instance)
    report = classify_exhaustive(inst, cap=args.cap)
    if args.json:
        _emit({"matchings": len(report.matchings)})
        _emit({"stable": [_edge_list(m) for m in report.stable]})
        _emit({"popular": [_edge_list(m) for m in report.popular]})
        _emit({"dominant": [_edge_list(m) for m in report.dominant]})
        _emit(
            {
                "min_popular_size": report.min_popular_size,
                "max_popular_size": report.max_popular_size,
            }
        )
        return 0
    print(f"matchings {len(report.matchings)}")
    for name in ("stable", "popular", "dominant"):
        ms = getattr(report, name)
        print(f"{name} {len(ms)}")
        for m in ms:
            edges = " ".join(f"{u},{v}" for u, v in m.edges) or "(empty)"
            print(f"  {edges}")
    print(f"min_popular_size {report.min_popular_size}")
    print(f"max_popular_size {report.max_popular_size}")
    return 0


# ---------------------------------------------------------------------------
# reduce


_TARGETS = ("g4", "g4max", "g5", "hmin", "hroom")


def _role_lines(nf: NormalizedFormula, gm: GadgetMap, extras: tuple[str, ...]):
    """Sidecar rows: fixed plumbing vertices first, then chain, then gadgets."""
    rows = [(name, name) for name in sorted(gm.specials.values())]
    rows += [(name, name) for name in extras]
    chain = {u for e in gm.basic_edges for u in e}
    rows += [("chain", u) for u in gm.instance.vertices if u in chain]
    for (k, j), quad in sorted(gm.gadgets.items()):
        slots = ("a", "b", "ap", "bp") if nf.is_positive(k) else ("c", "d", "cp", "dp")
        rows += [(f"{slot}:{k}:{j}", name) for slot, name in zip(slots, quad)]
    return rows


def _build_target(nf: NormalizedFormula, target: str):
    """Returns (base instance, gadget map, final instance, extra role names)."""
    if target in ("g4", "g4max"):
        base, gm = build_nondominant_gadget(nf)
    else:
        base, gm = build_stable_dominant_gadget(nf)
    if target == "g4max":
        return base, gm, augment_max_size(base), ("p0", "q0", "p1", "q1")
    if target == "hmin":
        return base, gm, augment_min_size(base), ("w", "r", "rp", "tp")
    if target == "hroom":
        return base, gm, augment_roommates(base), ("r", "rp", "rpp")
    return base, gm, base, ()


def _assignment_flavor(target: str) -> str:
    return "g4" if target in ("g4", "g4max") else "g5"


def _verify_reduction(
    target: str,
    nf: NormalizedFormula,
    gm: GadgetMap,
    base: Instance,
    final: Instance,
) -> tuple[bool, str]:
    """Check the decision the construction encodes against brute-forced SAT.

    Satisfiable formulas are checked directly on the constructed matching.
    Unsatisfiable ones reduce to the base instance: the augmented targets
    inherit their "no" direction from it, so enumerating the base instance's
    stable matchings settles all five.
    """
    sat = brute_sat(nf)
    if sat is None:
        flags = [is_dominant(base, s) for s in enumerate_stable_matchings(base)]
        return {
            "g4": (all(flags), "UNSAT ⇒ every stable matching is dominant"),
            "g4max": (
                all(flags),
                "UNSAT ⇒ every max-size popular matching is dominant",
            ),
            "g5": (not any(flags), "UNSAT ⇒ no stable∧dominant matching"),
            "hmin": (
                not any(flags),
                "UNSAT ⇒ every min-size popular matching is stable",
            ),
            "hroom": (not any(flags), "UNSAT ⇒ no popular matching exists"),
        }[target]

    ma = assignment_to_matching(nf, gm, sat, _assignment_flavor(target))
    if target == "g4":
        ok = is_stable(base, ma)[0] and not is_dominant(base, ma)
        return ok, "SAT ⇒ stable non-dominant matching exists"
    if target == "g5":
        ok = is_stable(base, ma)[0] and is_dominant(base, ma)
        return ok, "SAT ⇒ stable∧dominant matching exists"
    if target == "g4max":
        m = Matching(final, list(ma) + [("p0", "q0"), ("p1", "q1")])
        dominant, cert = is_dominant_structure(final, m)
        ok = cert is None and not dominant and len(m) == len(solve_dominant(final)[0])
        return ok, "SAT ⇒ non-dominant max-size popular matching exists"
    if target == "hmin":
        m = Matching(final, list(ma) + [("r", "t"), ("rp", "tp")])
        ok = (
            is_popular_structure(final, m)[0]
            and not is_stable(final, m)[0]
            and len(m) == len(gale_shapley(final))
        )
        return ok, "SAT ⇒ unstable min-size popular matching exists"
    m = Matching(final, list(ma) + [("t", "r"), ("rp", "rpp")])
    ok = is_popular_structure(final, m)[0]
    return ok, "SAT ⇒ popular matching exists"


def _cmd_reduce(args) -> int:
    path = args.cnf
    nf = normalize_3sat(parse_dimacs(_read(path)))
    base, gm, final, extras = _build_target(nf, args.target)
    roles = _role_lines(nf, gm, extras)

    stem = os.path.splitext(os.path.basename(path))[0]
    out_dir = args.out_dir if args.out_dir else os.path.dirname(path) or "."
    os.makedirs(out_dir, exist_ok=True)
    inst_path = os.path.join(out_dir, f"{stem}.{args.target}.inst")
    roles_path = os.path.join(out_dir, f"{stem}.{args.target}.roles")

    header = "".join(f"# {role} {vertex}\n" for role, vertex in roles)
    with open(inst_path, "w", encoding="utf-8") as fh:
        fh.write(header + serialize_instance(final))
    with open(roles_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{role} {vertex}\n" for role, vertex in roles)

    if args.json:
        _emit({"instance": inst_path, "roles": roles_path, "vertices": len(final.vertices)})
    else:
        print(f"wrote {inst_path}")
        print(f"wrote {roles_path}")

    if not args.verify:
        return 0
    ok, claim = _verify_reduction(args.target, nf, gm, base, final)
    verdict = "CONFIRMED" if ok else "REFUTED"
    if args.json:
        _emit({"claim": claim, "verdict": verdict})
    else:
        print(f"{claim}: {verdict}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# corpus


_CORPUS_KEYS = ("n", "count", "seed", "kind", "density")


def _parse_corpus_params(tokens) -> dict:
    params = {"count": "10", "seed": "0", "kind": "marriage", "density": "1.0"}
    for tok in tokens:
        key, eq, val = tok.partition("=")
        if not eq or key not in _CORPUS_KEYS:
            raise ValueError(f"expected key=value with key in {_CORPUS_KEYS}, got {tok!r}")
        params[key] = val
    if "n" not in params:
        raise ValueError("corpus --random requires n=<k>")
    out = {
        "n": int(params["n"]),
        "count": int(params["count"]),
        "seed": int(params["seed"]),
        "kind": params["kind"],
        "density": float(params["density"]),
    }
    if out["n"] <= 0 or out["count"] <= 0:
        raise ValueError("n and count must be positive")
    if out["kind"] not in ("marriage", "roommates"):
        raise ValueError(f"kind must be marriage or roommates, got {out['kind']!r}")
    return out


def _cmd_corpus(args) -> int:
    p = _parse_corpus_params(args.params)
    n, count, seed, kind, density = p["n"], p["count"], p["seed"], p["kind"], p["density"]
    os.makedirs(args.out_dir, exist_ok=True)
    rng = random.Random(seed)
    for i in range(count):
        if kind == "marriage":
            inst = random_marriage(rng, n, n, density)
        else:
            inst = random_roommates(rng, n, density)
        name = f"{kind}_n{n}_s{seed}_{i:03d}.inst"
        out = os.path.join(args.out_dir, name)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(serialize_instance(inst))
        if args.json:
            _emit({"wrote": out})
        else:
            print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# parser plumbing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    top = argparse.ArgumentParser(
        prog="popmatch",
        description="Stable, popular, and dominant matchings under strict preferences.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="line-delimited JSON output")

    p = sub.add_parser("solve", help="run the proposal solvers")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--stable", action="store_true")
    mode.add_argument("--dominant", action="store_true")
    p.add_argument("instance")
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a matching or witness")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--stable", dest="mode", action="store_const", const="stable")
    mode.add_argument("--popular", dest="mode", action="store_const", const="popular")
    mode.add_argument("--dominant", dest="mode", action="store_const", const="dominant")
    mode.add_argument("--witness", dest="mode", action="store_const", const="witness")
    p.add_argument("files", nargs="+")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("election", help="head-to-head vote totals of two matchings")
    p.add_argument("instance")
    p.add_argument("matching_a")
    p.add_argument("matching_b")
    common(p)
    p.set_defaults(func=_cmd_election)

    p = sub.add_parser("classify", help="decide class-collapse questions")
    q = p.add_mutually_exclusive_group(required=True)
    q.add_argument("--all-popular-stable", action="store_true")
    q.add_argument("--all-popular-dominant", action="store_true")
    p.add_argument("instance")
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="required for --all-popular-dominant; enumerates every matching",
    )
    p.add_argument("--cap", type=int, default=None, help="vertex cap for --exhaustive")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("reduce", help="compile a DIMACS CNF into a hardness gadget")
    p.add_argument("cnf")
    p.add_argument("--target", choices=_TARGETS, required=True)
    p.add_argument("--verify", action="store_true", help="check the encoded decision")
    p.add_argument("--out-dir", default=None)
    common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("oracle", help="exhaustive classification of a small instance")
    p.add_argument("instance")
    p.add_argument("--cap", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("corpus", help="generate reproducible random instances")
    p.add_argument("--random", action="store_true", required=True)
    p.add_argument("params", nargs="*", metavar="key=value")
    p.add_argument("--out-dir", default="corpus")
    common(p)
    p.set_defaults(func=_cmd_corpus)

    return top


def run(argv=None) -> int:
    """Parse argv, dispatch, and map failures onto the exit-code convention."""
    try:
        sys.stdout.reconfigure(encoding="utf-8", errors="replace")
    except (AttributeError, ValueError, OSError):
        pass
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)

    try:
        if args.subcommand == "verify":
            want = 3 if args.mode == "witness" else 2
            if len(args.files) != want:
                raise ValueError(
                    f"verify --{args.mode} takes {want} file arguments, got {len(args.files)}"
                )
        if args.subcommand == "classify" and args.all_popular_dominant and not args.exhaustive:
            raise ValueError("--all-popular-dominant requires --exhaustive")
        if getattr(args, "cap", None) is not None and args.cap <= 0:
            raise ValueError("size cap must be positive")
        return args.func(args)
    except (ParseError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

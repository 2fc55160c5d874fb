"""Definition-level ground truth by exhaustive enumeration.

Everything in this module is deliberately naive: matchings are enumerated by
a recursive include/exclude walk over the edge list, popularity and dominance
come straight from their definitions by comparing every pair of matchings
head to head, and satisfiability is decided by trying every assignment.  The
decision procedures in the rest of the package are tested against this
module; it must stay free of any code from ``popularity``, and it imports
none.  The blocking edges of each matching come from ``election``'s lister,
which ``popularity.is_stable`` shares.

The stable-matching enumerator is the one non-naive resident, so that it
can cope with the large gadget instances.  On a marriage instance it starts
from ``engine.gale_shapley``'s A-optimal matching, finds the rotations and
their precedence, and lists the closed sets of that poset, each of which is
one stable matching (Irving & Leather, "The complexity of counting stable
marriages", SIAM J. Comput. 1986).  On a roommates instance it is a search
that prunes on definitely-blocking edges; its state is the partner-rank
table of ``election`` restricted to the vertices fixed so far, and it reads
every vote off that table by the same rule.  All enumerators build their
matchings through the trusted ``Matching._checked``: their pairs are
canonical instance edges and disjoint by construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .election import _blocking_edges, _partner_ranks, delta
from .engine import gale_shapley
from .model import Instance, Matching

__all__ = [
    "ExhaustiveReport",
    "default_cap",
    "enumerate_matchings",
    "classify_exhaustive",
    "enumerate_stable_matchings",
    "brute_sat",
]

DEFAULT_VERTEX_CAP = 20


def default_cap() -> int:
    """Enumeration vertex cap; the POPMATCH_CAP environment variable overrides."""
    raw = os.environ.get("POPMATCH_CAP")
    if raw is None:
        return DEFAULT_VERTEX_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"POPMATCH_CAP must be an integer, got {raw!r}") from None
    if cap <= 0:
        raise ValueError("POPMATCH_CAP must be positive")
    return cap


@dataclass(frozen=True)
class ExhaustiveReport:
    """Every matching of an instance, classified from the definitions.

    ``blocking`` maps each matching to the tuple of its blocking edges, so
    ``blocking[m] == ()`` exactly for the stable matchings.  ``min_popular_size``
    and ``max_popular_size`` are None when no matching is popular (possible
    for roommates instances).
    """

    matchings: tuple[Matching, ...]
    stable: tuple[Matching, ...]
    popular: tuple[Matching, ...]
    dominant: tuple[Matching, ...]
    min_popular_size: int | None
    max_popular_size: int | None
    blocking: dict[Matching, tuple[tuple[str, str], ...]]


def enumerate_matchings(inst: Instance, cap: int | None = None) -> Iterator[Matching]:
    """Every matching of ``inst`` exactly once, include/exclude over the edge list."""
    cap = default_cap() if cap is None else cap
    if len(inst.vertices) > cap:
        raise ValueError(
            f"instance has {len(inst.vertices)} vertices, enumeration cap is {cap}"
        )
    return _extensions(inst, 0, set(), [])


def _extensions(inst, i, used, chosen) -> Iterator[Matching]:
    """Every matching adding edges of ``inst.edges[i:]`` to ``chosen``; the
    state is passed, not closed over, so no reference cycle is left behind."""
    if i == len(inst.edges):
        yield Matching._checked(inst, chosen)
        return
    u, v = inst.edges[i]
    yield from _extensions(inst, i + 1, used, chosen)
    if u not in used and v not in used:
        used.add(u)
        used.add(v)
        chosen.append((u, v))
        yield from _extensions(inst, i + 1, used, chosen)
        chosen.pop()
        used.discard(u)
        used.discard(v)


def classify_exhaustive(inst: Instance, cap: int | None = None) -> ExhaustiveReport:
    """Stable, popular, and dominant sets straight from the definitions."""
    matchings = tuple(enumerate_matchings(inst, cap))
    index = inst.index
    blocking = {}
    for m in matchings:
        found = _blocking_edges(inst, _partner_ranks(inst, m))
        blocking[m] = tuple(sorted(found, key=lambda e: (index[e[0]], index[e[1]])))
    stable = tuple(m for m in matchings if not blocking[m])

    # larger matchings are the likely beaters, so screening them first lets
    # the all() calls below bail out quickly on the many unpopular matchings
    by_size = sorted(matchings, key=len, reverse=True)

    popular = tuple(
        m for m in matchings if all(delta(inst, m, n) >= 0 for n in by_size)
    )

    dominant = tuple(
        m
        for m in popular
        if all(delta(inst, m, n) > 0 for n in by_size if len(n) > len(m))
    )

    sizes = sorted(len(m) for m in popular)
    return ExhaustiveReport(
        matchings=matchings,
        stable=stable,
        popular=popular,
        dominant=dominant,
        min_popular_size=sizes[0] if sizes else None,
        max_popular_size=sizes[-1] if sizes else None,
        blocking=blocking,
    )


def enumerate_stable_matchings(
    inst: Instance, node_budget: int = 10_000_000
) -> list[Matching]:
    """Exactly the stable matchings.

    On a marriage instance they are the closed sets of the rotation poset
    (``_rotation_poset``), listed by ``_closed_sets``: the A-optimal matching
    first, then each closed set before those that add later rotations.  On a
    roommates instance they come from a pruned search over vertices
    (``_stable_search``), in the order it fixes vertices.  Either way each
    matching is listed once.  The marriage order changed when the rotation
    enumerator replaced the pruned search there, so callers must not rely
    on the order.

    ``node_budget`` bounds the work as a safety valve, and past it a
    ValueError is raised.  A roommates search charges one unit per node.  A
    marriage enumeration charges each call, which lists one closed set, one
    unit plus one per pair of its matching, so the budget also bounds the
    memory the listed matchings take.
    """
    out: list[Matching] = []
    if inst.kind == "marriage":
        start, rots, preds = _rotation_poset(inst)
        _closed_sets(inst, rots, preds, 0, [False] * len(rots), start, out, 0, node_budget)
    else:
        _stable_search(inst, 0, {}, [], out, 0, node_budget)
    return out


def _rotation_poset(inst: Instance):
    """The A-optimal matching, every rotation, and each rotation's predecessors.

    Rotations are found along one maximal chain from ``gale_shapley``'s
    matching, eliminating every exposed rotation of each matching in turn
    (Gusfield & Irving, *The Stable Marriage Problem*, 1989, section 3.2).
    Man a's next woman is the first one below his partner who prefers him to
    her own; if a woman unmatched in every stable matching comes first, a
    has none.  A rotation is a cycle of the successor map a -> her partner,
    and eliminating it moves each of its men to his next woman.  Women only
    gain along the chain, so a woman who refuses a man refuses him for good
    and each man's scan resumes where it stopped.

    Returns the start as a dict from each matched A vertex to its partner,
    the rotations in chain order as tuples of (man, old partner, new
    partner), and for each rotation the indices of the earlier rotations
    that must precede it: type 1, the rotation that last moved one of its
    men; type 2, for each woman strictly between a man's old and new
    partner, the rotation that lifted her from below that man to above him.
    """
    rank, prefs = inst.rank, inst.prefs
    start = gale_shapley(inst)
    partner = dict(start._partner)
    scan = {a: rank[a][b] for a, b in start.edges}  # index of a's next candidate
    last: dict[str, int] = {}  # man -> the rotation that last moved him
    lifts: dict[str, list[tuple[int, int]]] = {}  # woman -> (rotation, her new rank)
    rots: list[tuple[tuple[str, str, str], ...]] = []
    preds: list[tuple[int, ...]] = []
    while True:
        succ = {a: _next_man(inst, partner, scan, a) for a in scan}
        cycles = []
        walked: dict[str, str] = {}
        for a0 in succ:
            path = []
            a = a0
            while a is not None and a not in walked:
                walked[a] = a0
                path.append(a)
                a = succ[a]
            if a is not None and walked[a] == a0:
                cycles.append(path[path.index(a) :])
        if not cycles:
            return dict(start.edges), rots, preds
        for cycle in cycles:
            k = len(rots)
            moves = tuple(
                (a, partner[a], partner[cycle[(i + 1) % len(cycle)]])
                for i, a in enumerate(cycle)
            )
            before = set()
            for a, old, new in moves:
                if a in last:
                    before.add(last[a])
                for b in prefs[a][rank[a][old] : rank[a][new] - 1]:
                    ra = rank[b][a]
                    if rank[b][start._partner[b]] < ra:
                        continue  # b starts above a
                    before.add(next(j for j, r in lifts[b] if r < ra))
            for a, _, new in moves:
                partner[a], partner[new] = new, a
                scan[a] = rank[a][new]
                last[a] = k
                lifts.setdefault(new, []).append((k, rank[new][a]))
            rots.append(moves)
            preds.append(tuple(sorted(before)))


def _next_man(inst: Instance, partner: dict[str, str], scan: dict[str, int], a: str):
    """The partner of a's next woman, or None; advances a's scan past refusals."""
    rank, lst = inst.rank, inst.prefs[a]
    i = scan[a]
    while i < len(lst):
        b = lst[i]
        mb = partner.get(b)
        if mb is None or rank[b][a] < rank[b][mb]:
            scan[a] = i
            return mb
        i += 1
    scan[a] = i
    return None


def _closed_sets(inst, rots, preds, k, chosen, partner, out, nodes, node_budget) -> int:
    """One closed set and its extensions; returns the budget units spent so far.

    ``chosen`` flags the rotations in the closed set, all of them before
    ``k``, and ``partner`` maps each matched A vertex to its partner in the
    set's stable matching.  The set's matching is appended to ``out``, then
    each later rotation whose predecessors are all chosen is added in turn.
    Every closed set is reached once, by adding its rotations in chain order.
    """
    nodes += 1 + len(partner)
    if nodes > node_budget:
        raise ValueError("stable-matching search exceeded its node budget")
    out.append(Matching._checked(inst, list(partner.items())))
    for j in range(k, len(rots)):
        if all(chosen[i] for i in preds[j]):
            chosen[j] = True
            for a, _, new in rots[j]:
                partner[a] = new
            nodes = _closed_sets(inst, rots, preds, j + 1, chosen, partner, out, nodes, node_budget)
            for a, old, _ in rots[j]:
                partner[a] = old
            chosen[j] = False
    return nodes


def _stable_search(inst, lo, c, pairs, out, nodes, node_budget) -> int:
    """One search node; returns the number of nodes visited so far.

    Vertices are fixed in id order: the lowest open vertex either pairs with
    an open neighbor or stays unmatched for good.  A branch dies as soon as
    two fixed vertices form a blocking edge, which keeps the search narrow.

    ``c`` maps each fixed vertex to its partner's rank, or deg + 1 when it
    stays unmatched (open vertices are absent), and ``pairs`` lists the
    fixed pairs in canonical form.  Completed stable matchings are appended
    to ``out``.
    """
    nodes += 1
    if nodes > node_budget:
        raise ValueError("stable-matching search exceeded its node budget")
    verts = inst.vertices
    while lo < len(verts) and verts[lo] in c:
        lo += 1
    if lo == len(verts):
        out.append(Matching._checked(inst, pairs))
        return nodes
    u = verts[lo]
    lst = inst.prefs[u]
    for i, v in enumerate(lst, 1):
        if v in c:
            continue
        c[u] = i
        c[v] = inst.rank[v][u]
        if not _fixed_blocks(inst, c, u) and not _fixed_blocks(inst, c, v):
            pairs.append(inst.canonical_edge(u, v))
            nodes = _stable_search(inst, lo + 1, c, pairs, out, nodes, node_budget)
            pairs.pop()
        del c[u], c[v]
    c[u] = len(lst) + 1
    if not _fixed_blocks(inst, c, u):
        nodes = _stable_search(inst, lo + 1, c, pairs, out, nodes, node_budget)
    del c[u]
    return nodes


def _fixed_blocks(inst: Instance, c: dict[str, int], w: str) -> bool:
    """Whether fixed ``w`` forms a blocking edge with another fixed vertex:
    some fixed z that w ranks above its state has rank[z][w] < c(z)."""
    rank = inst.rank
    return any(z in c and rank[z][w] < c[z] for z in inst.prefs[w][: c[w] - 1])


def brute_sat(f) -> dict[int, bool] | None:
    """A satisfying assignment of a small formula, or None.

    Accepts either a raw CNF (``num_vars``, ``clauses`` of signed literals)
    or a normalized formula (``num_original``, ``positive_clauses``,
    ``negative_clauses``), in which case only the originals are free and
    variable n+i is forced to the complement of variable i.
    """
    if hasattr(f, "positive_clauses"):
        n = f.num_original
        if n > 24:
            raise ValueError(f"{n} variables exceed the brute-force bound of 24")
        for bits in product((False, True), repeat=n):
            assign = {i + 1: bits[i] for i in range(n)}
            assign.update({n + i + 1: not bits[i] for i in range(n)})
            if all(any(assign[v] for v in cl) for cl in f.positive_clauses):
                return assign
        return None

    n = f.num_vars
    if n > 24:
        raise ValueError(f"{n} variables exceed the brute-force bound of 24")
    for bits in product((False, True), repeat=n):
        assign = {i + 1: bits[i] for i in range(n)}
        ok = True
        for cl in f.clauses:
            if not any(assign[abs(lit)] == (lit > 0) for lit in cl):
                ok = False
                break
        if ok:
            return assign
    return None

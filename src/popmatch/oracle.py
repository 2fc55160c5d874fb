"""Definition-level ground truth by exhaustive enumeration.

Everything in this module is deliberately naive: matchings are enumerated by
a recursive include/exclude walk over the edge list, popularity and dominance
come straight from their definitions by comparing every pair of matchings
head to head, and satisfiability is decided by trying every assignment.  The
decision procedures in the rest of the package are tested against this
module; it must stay free of any code from ``popularity``.

The stable-matching enumerator is the one non-naive resident: it prunes on
definitely-blocking edges so that it can cope with the large gadget
instances, but it still enumerates exactly the stable set.  Its state is the
partner-rank table of ``election`` restricted to the vertices fixed so far,
and it reads every vote off that table by the same rule.  Both enumerators
build their matchings through the trusted ``Matching._checked``: their pairs
are canonical instance edges and disjoint by construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .election import delta, label_edges
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
    blocking = {
        m: tuple(sorted(label_edges(inst, m).blocking, key=lambda e: (index[e[0]], index[e[1]])))
        for m in matchings
    }
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
    """Exactly the stable matchings, by pruned search.

    Vertices are fixed in id order: the lowest open vertex either pairs with
    an open neighbor or stays unmatched for good.  A branch dies as soon as
    two fixed vertices form a blocking edge, which keeps the search narrow
    even on instances far too large for full enumeration.  ``node_budget``
    bounds the number of search nodes as a safety valve.
    """
    out: list[Matching] = []
    _stable_search(inst, 0, {}, [], out, 0, node_budget)
    return out


def _stable_search(inst, lo, c, pairs, out, nodes, node_budget) -> int:
    """One search node; returns the number of nodes visited so far.

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

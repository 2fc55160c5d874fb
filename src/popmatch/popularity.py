"""Popularity and dominance tests plus witness utilities.

Both popularity tests read one restricted graph G_M.  The witness test
(marriage instances only) finds the LP dual of the rival-weight
maximization: m is popular iff some witness in {0, +-1} covers every edge
weight, and such a witness is forced from the blocking edges outward, one
linear pass over G_M.  The structure test searches G_M for one of the three
forbidden patterns: an alternating cycle through a blocking edge, an
alternating path through two blocking edges, and an alternating path from
an unmatched vertex through a blocking edge.  Linear breadth-first
searches of the anchor digraph look for them on both instance kinds.  On
marriage instances they are exact, and their hit is the certificate.  On
roommates instances a hit is only an alternating walk, but every forbidden
pattern is a walk they follow, so no hit proves popularity; after a hit a
depth-first simple-path search under a node budget settles the answer and
produces the certificate.

Every test reads the votes from the matching's cached vote table (see
``election``).  The restricted graph of the last matching tested is kept in
a one-entry cache keyed by a weak reference to that matching, so that a
structure test followed by a dominance test builds one graph, and on
marriage instances runs one structure test; a witness search before or
after either of them reads that graph too.  A roommates verdict is never
cached: each one gets the whole node budget.

Dominance on a marriage instance is popularity plus the absence of an
augmenting path in the restricted graph, and the augmenting-path search
reads the edges of that graph straight off the vote table.  A matching
without blocking edges is stable, hence popular, so when no graph is cached
for it and the table shows no blocking edge, its dominance is that one
search and no graph is built.  The enumerated stable matchings of a gadget
take this path.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

from .election import _blocking_edges, _partner_ranks, label_edges, weighting
from .model import Instance, Matching

__all__ = [
    "ForbiddenStructure",
    "is_stable",
    "is_popular_weight",
    "is_popular_structure",
    "is_dominant",
    "is_dominant_structure",
    "verify_witness",
    "find_witness_small",
    "check_structure",
]

Witness = dict[str, int]

# Most depth-first certificate search calls one roommates verdict may make.
_DFS_NODE_BUDGET = 1_000_000


class ForbiddenStructure(NamedTuple):
    """A popularity-refuting pattern: kind is "cycle" or "path".

    ``vertices`` lists the pattern in order; a cycle closes back to its
    first vertex with a matching edge.
    """

    kind: str
    vertices: tuple[str, ...]


def is_stable(inst: Instance, m: Matching) -> tuple[bool, tuple[str, str] | None]:
    """Whether m has no blocking edge; returns the first one otherwise."""
    e = next(_blocking_edges(inst, _partner_ranks(inst, m)), None)
    return e is None, e


# ---------------------------------------------------------------------------
# witness test


def is_popular_weight(inst: Instance, m: Matching) -> bool:
    """Marriage-only popularity test: whether m has an LP-dual witness.

    The witness LP is the dual of maximizing a rival matching's weight
    under wt_M, so a witness exists iff no rival outvotes m.  Linear in the
    size of G_M, which is built only when m has a blocking edge.
    """
    inst.require_marriage("the weight test")
    return _witness(inst, m) is not None


def _witness(inst: Instance, m: Matching) -> Witness | None:
    """A witness for m on a marriage instance, or None when m is unpopular.

    A witness takes values in {0, +-1}, is tight on matching edges and is 0
    on unmatched vertices, so every nonzero value is forced from the
    blocking edges outward: both ends of a blocking edge are +1, a +1
    vertex's partner is -1, and a -1 vertex makes +1 of each neighbor it
    shares an edge of weight 0 with, its non-blocking neighbors in G_M.  m
    is unpopular iff this meets a +1 vertex whose partner is missing or +1
    already.  That one test covers the other conflicts: a blocking end is
    +1 before any vertex is -1, and a vertex turns -1 only from 0 and then
    lifts its neighbors, so no -1 vertex ends up on a blocking edge or next
    to another -1.  Every vertex nothing forces is 0, so the witness has
    minimal support.  A matching without blocking edges gets the zero
    witness and builds no graph; otherwise the pass is linear in the size
    of G_M, which stays cached for a structure test that follows.
    """
    w: Witness = dict.fromkeys(inst.vertices, 0)
    if next(_blocking_edges(inst, _partner_ranks(inst, m)), None) is None:
        return w
    rg = _restricted_graph(inst, m)
    plus = [u for e in rg.pp_edges for u in e]
    w.update(dict.fromkeys(plus, 1))
    for u in plus:  # grows as -1 vertices lift their neighbors
        v = rg.partner[u]
        if v is None or w[v] == 1:
            return None
        if w[v] == 0:  # else u is listed twice
            w[v] = -1
            for x, _ in rg.adj[v]:
                if w[x] == 0:
                    w[x] = 1
                    plus.append(x)
    return w


# ---------------------------------------------------------------------------
# structure test


class _RestrictedGraph:
    """The restricted graph G_M: the non-matching edges that are not (-,-).

    u votes for a neighbor v other than M(u) iff rank[u][v] < c(u), the
    partner rank of ``election``.  ``adj[u]`` lists, in u's order, each v
    other than M(u) for which either end votes for the other, flagged when
    both do (a blocking edge, also listed in ``pp_edges``).  The graph keeps
    the matching's edges but not the matching, and ``verdict`` holds the
    structure test's result once it is known on a marriage instance.
    """

    def __init__(self, inst: Instance, m: Matching):
        self.inst = inst
        self.edges = m.edges
        c = _partner_ranks(inst, m)
        rank = inst.rank
        self.partner: dict[str, str | None] = dict.fromkeys(inst.vertices)
        self.partner.update(m._partner)
        self.free = [u for u, p in self.partner.items() if p is None]
        self.adj: dict[str, list[tuple[str, bool]]] = {}
        for u, lst in inst.prefs.items():
            cu = c[u]
            row = self.adj[u] = []
            for i, v in enumerate(lst, 1):  # the partner, at i == cu, fails both tests
                back = rank[v][u] < c[v]
                if i < cu or back:
                    row.append((v, i < cu and back))
        self.pp_edges = list(_blocking_edges(inst, c))
        self.nodes = 0  # depth-first search calls of one verdict, against the budget
        self.verdict: tuple[bool, ForbiddenStructure | None] | None = None


# The restricted graph of the last matching tested: (weak reference to the
# matching, its graph).  One entry, so no matching keeps its graph alive, and
# the entry goes when its matching does.
_last: tuple[weakref.ref, _RestrictedGraph] | None = None


def _restricted_graph(inst: Instance, m: Matching) -> _RestrictedGraph:
    """G_M of ``m`` under ``inst``, reused when the last call had the same pair."""
    global _last
    rg = _cached_graph(inst, m)
    if rg is None:
        rg = _RestrictedGraph(inst, m)
        _last = (weakref.ref(m, _forget), rg)
    return rg


def _cached_graph(inst: Instance, m: Matching) -> _RestrictedGraph | None:
    """The cached G_M when the last graph built was for ``m`` under ``inst``."""
    last = _last  # one read, so the check and the graph come from one entry
    if last is not None and last[0]() is m and last[1].inst is inst:
        return last[1]
    return None


def _forget(ref: weakref.ref) -> None:
    """Drop the cached graph once its matching has been collected."""
    global _last
    if _last is not None and _last[0] is ref:
        _last = None


def is_popular_structure(
    inst: Instance, m: Matching
) -> tuple[bool, ForbiddenStructure | None]:
    """Popularity by absence of forbidden alternating structures.

    When the matching is unpopular, returns the first structure found by
    three searches in turn: from the unmatched vertices, from each blocking
    edge towards a second one, and from each blocking edge back to its own
    start.  On marriage instances each search is breadth-first, so it
    returns a structure of fewest steps from its starts, and the first two
    may return a cycle where a blocking edge leads back into the path.  On
    roommates instances the first two return paths and the third a cycle;
    their depth-first search raises ValueError past its node budget.
    """
    return _structure_test(_restricted_graph(inst, m))


def _structure_test(rg: _RestrictedGraph) -> tuple[bool, ForbiddenStructure | None]:
    """The verdict on ``rg``, run once per graph on marriage instances.

    A roommates verdict is recomputed on every call, with a fresh node
    budget, because its search may have failed on an earlier call.
    """
    if rg.verdict is not None:
        return rg.verdict
    rg.nodes = 0
    found = None
    if rg.pp_edges:
        found = _first_found(rg, _bfs)
        if found is not None and rg.inst.kind == "roommates":
            found = _first_found(rg, _dfs)
    verdict = (found is None, found)
    if rg.inst.kind == "marriage":
        rg.verdict = verdict
    return verdict


def _first_found(rg, search):
    """The first structure ``search`` finds from ``_search_starts``, or None."""
    for head, roots, want_pp, closing in _search_starts(rg):
        found = search(rg, head, roots, want_pp, closing)
        if found is not None:
            return found
    return None


def _search_starts(rg):
    """The three searches' starts, in order.

    Each is (head, roots, want_pp, closing) and extends ``head + (root,)``:
    from all unmatched vertices to a blocking edge; from each blocking edge
    (a, b) with b matched, via M(b), to a second blocking edge; then from
    each blocking edge (x, y) with both ends matched, via M(y), back to M(x).
    """
    yield (), rg.free, True, None
    for x, y in rg.pp_edges:
        for a, b in ((x, y), (y, x)):
            if rg.partner[b] is not None:
                yield (a, b), (rg.partner[b],), True, None
    for x, y in rg.pp_edges:
        mx, my = rg.partner[x], rg.partner[y]
        if mx is not None and my is not None:
            yield (x, y), (my,), False, mx


def _bfs(rg, head, roots, want_pp, closing):
    """Breadth-first search of the anchor digraph.

    Anchor u steps to w = M(v) over a restricted edge (u, v), and each
    anchor is entered at most once; the head's first vertex never is.  Stops
    at the first anchor with a blocking edge when ``want_pp`` (an edge back
    into the path closes a cycle there), or with an edge to ``closing`` when
    given.  On a marriage instance all anchors of one search lie on one
    side, so a tree path is a simple alternating path and the hit is a
    certificate.  On a roommates instance the tree path may repeat a vertex,
    so a hit is only a walk; but whenever ``_dfs`` finds a structure from
    the same start, this search hits too.
    """
    parent = dict.fromkeys(roots)
    if head:
        parent[head[0]] = None
    queue = list(roots)
    for u in queue:
        for v, pp in rg.adj[u]:
            if v == closing or (pp and want_pp):
                back = [u]
                while parent[u] is not None:
                    u = parent[u]
                    back += (rg.partner[back[-1]], u)
                path = (*head, *reversed(back))
                if v == closing:
                    return ForbiddenStructure("cycle", (*path, v))
                if v in path:
                    return ForbiddenStructure("cycle", path[path.index(v) :])
                return ForbiddenStructure("path", (*path, v))
            w = rg.partner[v]
            if w is not None and w not in parent:
                parent[w] = u
                queue.append(w)
    return None


def _dfs(rg, head, roots, want_pp, closing):
    """Simple-path search from each root in turn (roommates instances).

    Without sides, a simple anchor path may revisit a vertex as a non-anchor,
    so the search tracks whole paths and is exponential in the worst case.
    """
    kind = "path" if closing is None else "cycle"
    for root in roots:
        path = [*head, root]
        hit = _extend(rg, path, set(path), want_pp, closing)
        if hit is not None:
            return ForbiddenStructure(kind, hit)
    return None


def _extend(rg, path, in_path, want_pp, closing=None):
    """Depth-first extension over non-blocking steps from the last anchor.

    Fires on the first blocking edge to a fresh vertex when ``want_pp``,
    or on an edge back to ``closing`` when given.  Returns the completed
    vertex tuple or None.  Raises ValueError past ``_DFS_NODE_BUDGET``
    calls on one restricted graph.
    """
    rg.nodes += 1
    if rg.nodes > _DFS_NODE_BUDGET:
        raise ValueError("popularity certificate search exceeded its node budget")
    u = path[-1]
    if closing is not None:
        for v, _ in rg.adj[u]:
            if v == closing:
                return tuple(path) + (v,)
    if want_pp:
        for v, pp in rg.adj[u]:
            if pp and v not in in_path:
                return tuple(path) + (v,)
    for v, pp in rg.adj[u]:
        if closing is None and pp:
            continue
        if v in in_path:
            continue
        w = rg.partner[v]
        if w is None or w in in_path:
            continue
        path += [v, w]
        in_path.update((v, w))
        hit = _extend(rg, path, in_path, want_pp, closing)
        if hit is not None:
            return hit
        del path[-2:]
        in_path.difference_update((v, w))
    return None


def check_structure(inst: Instance, m: Matching, s: ForbiddenStructure) -> bool:
    """Validate a claimed forbidden structure against the definitions."""
    verts = s.vertices
    if len(set(verts)) != len(verts) or len(verts) < 2:
        return False
    lab = label_edges(inst, m)
    pairs = list(zip(verts, verts[1:]))
    if s.kind == "cycle":
        if len(verts) % 2:  # its closing step could not alternate with its first
            return False
        pairs.append((verts[-1], verts[0]))
    elif s.kind != "path":
        return False
    statuses = []
    blocked = 0
    for u, v in pairs:
        if not inst.has_edge(u, v):
            return False
        e = inst.canonical_edge(u, v)
        if e in m:
            statuses.append(True)
        elif lab.labels[e] != (-1, -1):
            statuses.append(False)
            blocked += e in lab.blocking
        else:
            return False
    if any(a == b for a, b in zip(statuses, statuses[1:])):
        return False
    if s.kind == "cycle":
        return blocked >= 1
    free_end = m.partner(verts[0]) is None or m.partner(verts[-1]) is None
    return blocked >= 2 or (blocked >= 1 and free_end)


# ---------------------------------------------------------------------------
# dominance


def is_dominant(inst: Instance, m: Matching) -> bool:
    """Popular and not extendable by an augmenting path in G_M."""
    return is_dominant_structure(inst, m)[0]


def is_dominant_structure(
    inst: Instance, m: Matching
) -> tuple[bool, ForbiddenStructure | None]:
    """Dominance plus, when m is not even popular, the structure showing it.

    One restricted graph serves the structure test and the augmenting-path
    (marriage) or maximum-matching (roommates) test; after a structure test
    on the same matching it is that test's graph.  On a marriage instance
    with no graph cached for m, a matching without blocking edges is
    popular, so its verdict is the augmenting-path search alone and no graph
    is built.  The structure is None when m is popular, whether or not it
    is dominant.
    """
    if inst.kind == "marriage":
        rg = _cached_graph(inst, m)
        if rg is None and next(_blocking_edges(inst, _partner_ranks(inst, m)), None):
            rg = _restricted_graph(inst, m)
        if rg is not None:
            popular, cert = _structure_test(rg)
            if not popular:
                return False, cert
        return not _has_augmenting_path(inst, m), None
    rg = _restricted_graph(inst, m)
    popular, cert = _structure_test(rg)
    if not popular:
        return False, cert
    return _max_matching_size(rg) <= len(m), None


def _has_augmenting_path(inst: Instance, m: Matching) -> bool:
    """Whether G_M has an augmenting path, on a marriage instance.

    Such a path has an end among the unmatched A vertices, so one
    depth-first search of the anchor digraph from all of them decides it.
    Anchor u steps over each edge of G_M, read off m's vote table c by the
    rule of ``_RestrictedGraph``: u votes for v or v votes for u.
    """
    c = _partner_ranks(inst, m)
    rank, prefs, partner = inst.rank, inst.prefs, m._partner
    side = inst.side
    stack = [u for u in inst.vertices if side[u] == "A" and u not in partner]
    seen = set(stack)
    while stack:
        u = stack.pop()
        cu = c[u]
        for i, v in enumerate(prefs[u], 1):
            if i < cu or rank[v][u] < c[v]:
                w = partner.get(v)
                if w is None:
                    return True
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return False


def _max_matching_size(rg):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(rg.inst.vertices)
    for u, nbrs in rg.adj.items():
        for v, _ in nbrs:
            g.add_edge(u, v)
    for u, v in rg.edges:
        g.add_edge(u, v)
    return len(nx.max_weight_matching(g, maxcardinality=True, weight=None))


# ---------------------------------------------------------------------------
# witnesses


def verify_witness(
    inst: Instance, m: Matching, w: Witness
) -> tuple[bool, list[tuple]]:
    """Check a claimed witness; returns the violated constraints."""
    inst.require_marriage("witness verification")
    missing = [u for u in inst.vertices if u not in w]
    if missing:
        raise ValueError(f"witness is missing vertices: {missing}")
    wt = weighting(inst, m)
    bad: list[tuple] = []
    for u in inst.vertices:
        if w[u] not in (-1, 0, 1):
            bad.append(("value", u))
    total = sum(w[u] for u in inst.vertices)
    if total != 0:
        bad.append(("sum", total))
    for u in inst.vertices:
        if w[u] < wt.loop[u]:
            bad.append(("vertex", u))
    for u, v in inst.edges:
        if w[u] + w[v] < wt.edge[(u, v)]:
            bad.append(("edge", u, v))
    return not bad, bad


def find_witness_small(inst: Instance, m: Matching) -> Witness | None:
    """A witness for m, or None when m is unpopular (marriage instances).

    The witness of ``_witness``, found in time linear in the size of G_M.
    """
    inst.require_marriage("the witness search")
    return _witness(inst, m)

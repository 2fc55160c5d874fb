"""Independent answers the benchmark checks popmatch's outputs against.

Nothing here imports popmatch.  Stability and votes come straight from the
definitions.  Popularity is the max-weight-matching test: a rival matching
N gains ``base + sum(profit(e) for e in N)`` votes over M, where ``base`` is
minus the number of vertices M matches and ``profit(a, b)`` is the two
endpoint votes for the edge plus one per endpoint M matches; M is popular
exactly when the best rival gains nothing.  Dominance is the same test with
the weights ``(n + 1) * profit + 1``, which also rewards size: M is
dominant exactly when M itself attains the maximum.  ``networkx`` finds the
maximum-weight matchings.
"""

from __future__ import annotations

import itertools
from collections import deque

import networkx as nx

from instances import Market

Pairs = list[tuple[str, str]]


def partner_map(pairs) -> dict[str, str]:
    out: dict[str, str] = {}
    for u, v in pairs:
        if u in out or v in out:
            raise ValueError(f"pairs overlap at ({u}, {v})")
        out[u] = v
        out[v] = u
    return out


def is_matching(market: Market, pairs) -> bool:
    try:
        partner_map(pairs)
    except ValueError:
        return False
    return all(u in market.rank and v in market.rank[u] for u, v in pairs)


def vote(market: Market, u: str, v: str, partner: dict[str, str]) -> int:
    """+1 if u prefers v to its partner (being single is worst), -1 if not, 0 if equal."""
    p = partner.get(u)
    if p == v:
        return 0
    if p is None:
        return 1
    return 1 if market.rank[u][v] < market.rank[u][p] else -1


def blocking_edges(market: Market, partner: dict[str, str]) -> list[tuple[str, str]]:
    return [
        (a, b)
        for a, b in market.edges()
        if vote(market, a, b, partner) > 0 and vote(market, b, a, partner) > 0
    ]


def gale_shapley(market: Market) -> Pairs:
    """The A-proposing stable matching, which is unique (proposer-optimal)."""
    nxt = {a: 0 for a in market.A}
    held: dict[str, str] = {}
    free = deque(market.A)
    while free:
        a = free.popleft()
        lst = market.prefs[a]
        while nxt[a] < len(lst):
            b = lst[nxt[a]]
            nxt[a] += 1
            cur = held.get(b)
            if cur is None or market.rank[b][a] < market.rank[b][cur]:
                held[b] = a
                if cur is not None:
                    free.append(cur)
                break
    return sorted((a, b) for b, a in held.items())


def dominant_matching(market: Market) -> tuple[Pairs, dict[str, int]]:
    """A dominant matching and its witness, from the three-copy expansion.

    Each vertex u becomes u+ (ranks the neighbours' minus copies, then its
    dummy), u- (ranks its dummy first, then the neighbours' plus copies) and
    the dummy d(u) (ranks u+ over u-).  The A side of the expansion holds a+,
    a- and d(b); its proposer-optimal stable matching projects to a dominant
    matching, and the matched copy of u gives u's witness value.
    """
    prefs = {}
    for u in market.vertices:
        nb = market.prefs[u]
        prefs[(u, "+")] = [(v, "-") for v in nb] + [(u, "d")]
        prefs[(u, "-")] = [(u, "d")] + [(v, "+") for v in nb]
        prefs[(u, "d")] = [(u, "+"), (u, "-")]
    A = [(a, s) for a in market.A for s in "+-"] + [(b, "d") for b in market.B]
    B = [(b, s) for b in market.B for s in "+-"] + [(a, "d") for a in market.A]
    expanded = gale_shapley(Market(A, B, prefs))
    pairs = sorted((x[0], y[0]) for x, y in expanded if x[0] != y[0])
    witness = dict.fromkeys(market.vertices, 0)
    for x, y in expanded:
        if x[0] != y[0]:
            witness[x[0]] = 1 if x[1] == "+" else -1
            witness[y[0]] = 1 if y[1] == "+" else -1
    return pairs, witness


# -- popularity and dominance by max-weight matching ------------------------


def _profits(market: Market, partner: dict[str, str]) -> dict[tuple[str, str], int]:
    return {
        (a, b): vote(market, a, b, partner)
        + vote(market, b, a, partner)
        + (a in partner)
        + (b in partner)
        for a, b in market.edges()
    }


def _max_weight(weights: dict[tuple[str, str], int]) -> int:
    g = nx.Graph()
    g.add_weighted_edges_from((a, b, w) for (a, b), w in weights.items() if w > 0)
    best = nx.max_weight_matching(g)
    return sum(g[u][v]["weight"] for u, v in best)


def is_popular(market: Market, pairs) -> bool:
    partner = partner_map(pairs)
    base = -len(partner)
    gain = base + _max_weight(_profits(market, partner))
    if gain < 0:
        raise AssertionError("the matching itself gains 0; the optimum cannot be below")
    return gain == 0


def is_dominant(market: Market, pairs) -> bool:
    partner = partner_map(pairs)
    n = len(market.vertices)
    profits = _profits(market, partner)
    weights = {e: (n + 1) * p + 1 for e, p in profits.items()}
    # every matching edge has profit 2
    return _max_weight(weights) == len(pairs) * (2 * (n + 1) + 1)


# -- certificates -------------------------------------------------------------


def witness_violations(market: Market, pairs, w: dict[str, int]) -> list[list[str]]:
    """Every violated witness constraint, in the form ``verify --witness`` prints.

    A witness takes values in {-1, 0, 1}, sums to 0, is at least -1 on
    matched and 0 on unmatched vertices, and covers every edge: w(a) + w(b)
    is at least the edge's vote sum (0 on matching edges).
    """
    partner = partner_map(pairs)
    bad: list[list[str]] = []
    bad += [["value", u] for u in market.vertices if w[u] not in (-1, 0, 1)]
    total = sum(w[u] for u in market.vertices)
    if total != 0:
        bad.append(["sum", str(total)])
    bad += [["vertex", u] for u in market.vertices if w[u] < (-1 if u in partner else 0)]
    for a, b in market.edges():
        need = vote(market, a, b, partner) + vote(market, b, a, partner)
        if w[a] + w[b] < need:
            bad.append(["edge", a, b])
    return bad


def structure_ok(market: Market, pairs, kind: str, verts) -> bool:
    """Whether ``verts`` is an alternating cycle or path that refutes popularity.

    Steps alternate between matching edges and kept edges (not both
    endpoints voting against).  A cycle needs a blocking edge; a path needs
    two blocking edges, or one blocking edge and an unmatched end vertex.
    """
    partner = partner_map(pairs)
    verts = list(verts)
    if len(set(verts)) != len(verts) or len(verts) < 2:
        return False
    steps = list(zip(verts, verts[1:]))
    if kind == "cycle":
        if len(verts) < 4 or len(verts) % 2:
            return False
        steps.append((verts[-1], verts[0]))
    elif kind != "path":
        return False
    matched, blocking = [], 0
    for u, v in steps:
        if u not in market.rank or v not in market.rank[u]:
            return False
        if partner.get(u) == v:
            matched.append(True)
            continue
        votes = (vote(market, u, v, partner), vote(market, v, u, partner))
        if votes == (-1, -1):
            return False
        matched.append(False)
        blocking += votes == (1, 1)
    if any(x == y for x, y in zip(matched, matched[1:])):
        return False
    if kind == "cycle":
        return matched[0] != matched[-1] and blocking >= 1
    free_end = verts[0] not in partner or verts[-1] not in partner
    return blocking >= 2 or (blocking >= 1 and free_end)


# -- exhaustive classification of tiny instances ------------------------------


def all_matchings(market: Market) -> list[frozenset]:
    edges = market.edges()
    out: list[frozenset] = []

    def walk(i: int, used: frozenset, chosen: tuple) -> None:
        if i == len(edges):
            out.append(frozenset(chosen))
            return
        walk(i + 1, used, chosen)
        a, b = edges[i]
        if a not in used and b not in used:
            walk(i + 1, used | {a, b}, chosen + ((a, b),))

    walk(0, frozenset(), ())
    return out


def classify_all(market: Market) -> dict[frozenset, dict[str, bool]]:
    """stable / popular / dominant for every matching, by head-to-head count."""
    ms = all_matchings(market)
    partners = [partner_map(m) for m in ms]
    verts = market.vertices

    def margin(i: int, j: int) -> int:
        """Vertices preferring ms[i] minus vertices preferring ms[j]."""
        total = 0
        pi, pj = partners[i], partners[j]
        for u in verts:
            x, y = pi.get(u), pj.get(u)
            if x == y:
                continue
            if y is None or (x is not None and market.rank[u][x] < market.rank[u][y]):
                total += 1
            else:
                total -= 1
        return total

    out = {}
    for i, m in enumerate(ms):
        margins = [margin(i, j) for j in range(len(ms))]
        popular = all(d >= 0 for d in margins)
        out[m] = {
            "stable": not blocking_edges(market, partners[i]),
            "popular": popular,
            "dominant": popular
            and all(d > 0 for j, d in enumerate(margins) if len(ms[j]) > len(m)),
        }
    return out


def brute_sat(nvars: int, clauses) -> bool:
    return any(
        all(any(bits[abs(lit) - 1] == (lit > 0) for lit in cl) for cl in clauses)
        for bits in itertools.product((False, True), repeat=nvars)
    )

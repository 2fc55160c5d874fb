"""Votes, edge labels, edge weights, and head-to-head election outcomes
between two matchings.

Votes are integers: +1 means the vertex prefers the candidate to its current
assignment, -1 the opposite.  One rule gives them all, read off the rank
table ``inst.rank``: with c(u) = ``rank[u][M(u)]``, or deg(u) + 1 when u is
unmatched (``_partner_ranks``), u votes +1 for a neighbor v other than M(u)
exactly when ``rank[u][v]`` < c(u), so an unmatched vertex prefers any
neighbor.  ``delta(inst, m, n)`` is the number of vertices preferring ``m``
minus the number preferring ``n``: u prefers m exactly when its c under m is
below its c under n.

The table c is computed once per matching and cached on it, so every reader
of votes (the labels, the weights, the elections here, and the stability,
witness and restricted-graph code of ``popularity``) shares it.  The cache
is served only for the matching's own instance; asked for the votes of a
matching under another instance, ``_partner_ranks`` computes that
instance's table and keeps nothing.
"""

from __future__ import annotations

from operator import gt, lt
from typing import NamedTuple

from .model import Instance, Matching

__all__ = [
    "EdgeLabeling",
    "EdgeWeighting",
    "vote",
    "label_edges",
    "weighting",
    "delta",
]


class EdgeLabeling(NamedTuple):
    """Per non-matching edge, the ordered vote pair of its two endpoints.

    ``labels[(u, v)] == (vote_u, vote_v)`` for every canonical instance edge
    outside the matching; ``blocking`` is the set of (+,+) edges.
    """

    labels: dict[tuple[str, str], tuple[int, int]]
    blocking: frozenset[tuple[str, str]]


class EdgeWeighting(NamedTuple):
    """Edge weights in {-2, 0, +2} plus self-loop weights in {-1, 0}.

    A matching edge weighs 0; any other edge weighs the sum of its endpoint
    votes.  A vertex's self-loop weighs 0 when it is unmatched and -1 when
    matched.
    """

    edge: dict[tuple[str, str], int]
    loop: dict[str, int]


def vote(inst: Instance, u: str, candidate: str, m: Matching) -> int:
    """+1 iff ``u`` prefers ``candidate`` to its partner in ``m``.

    Raises if the pair is not adjacent or if ``candidate`` is exactly
    ``u``'s partner (matching edges carry no vote).
    """
    if not inst.has_edge(u, candidate):
        raise ValueError(f"({u!r}, {candidate!r}) is not an instance edge")
    partner = m.partner(u)
    if partner == candidate:
        raise ValueError(f"{candidate!r} is the current partner of {u!r}")
    rank = inst.rank[u]
    c = len(rank) + 1 if partner is None else rank[partner]
    return 1 if rank[candidate] < c else -1


def _partner_ranks(inst: Instance, m: Matching) -> dict[str, int]:
    """c(u) = rank[u][M(u)], or deg(u) + 1 for a vertex unmatched in ``m``.

    Cached on ``m`` when ``m`` is a matching of ``inst`` itself; callers
    must not change the table.  Its keys are in ``inst.vertices`` order.
    """
    if m.instance is not inst:
        return _rank_table(inst, m)
    c = m._ranks
    if c is None:
        c = m._ranks = _rank_table(inst, m)
    return c


def _rank_table(inst: Instance, m: Matching) -> dict[str, int]:
    rank = inst.rank
    c = {u: len(row) + 1 for u, row in rank.items()}
    for a, b in m.edges:
        c[a], c[b] = rank[a][b], rank[b][a]
    return c


def _blocking_edges(inst: Instance, c: dict[str, int]):
    """The blocking edges under partner ranks ``c``, in ``inst.edges`` order."""
    rank = inst.rank
    return ((u, v) for u, v in inst.edges if rank[u][v] < c[u] and rank[v][u] < c[v])


def label_edges(inst: Instance, m: Matching) -> EdgeLabeling:
    """Vote pairs for every edge outside ``m``; (+,+) edges block ``m``."""
    c = _partner_ranks(inst, m)
    rank = inst.rank
    labels: dict[tuple[str, str], tuple[int, int]] = {}
    for u, v in inst.edges:
        ru = rank[u][v]
        if ru != c[u]:
            labels[(u, v)] = (1 if ru < c[u] else -1, 1 if rank[v][u] < c[v] else -1)
    return EdgeLabeling(labels, frozenset(e for e, pair in labels.items() if pair == (1, 1)))


def weighting(inst: Instance, m: Matching) -> EdgeWeighting:
    c = _partner_ranks(inst, m)
    rank = inst.rank
    edge: dict[tuple[str, str], int] = {}
    for u, v in inst.edges:
        ru = rank[u][v]
        if ru == c[u]:
            edge[(u, v)] = 0
        else:
            edge[(u, v)] = (1 if ru < c[u] else -1) + (1 if rank[v][u] < c[v] else -1)
    loop = {v: (-1 if m.partner(v) is not None else 0) for v in inst.vertices}
    return EdgeWeighting(edge, loop)


def delta(inst: Instance, m: Matching, n: Matching) -> int:
    """Vertices preferring ``m`` minus vertices preferring ``n``.

    Both tables list the vertices in the same order, and a vertex prefers
    the matching that gives it the lower partner rank.
    """
    cm = _partner_ranks(inst, m).values()
    cn = _partner_ranks(inst, n).values()
    return sum(map(lt, cm, cn)) - sum(map(gt, cm, cn))

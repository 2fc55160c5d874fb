"""Votes, edge labels, edge weights, and head-to-head election outcomes
between two matchings.

Votes are integers: +1 means the vertex prefers the candidate to its current
assignment, -1 the opposite.  An unmatched vertex prefers any neighbor
(being unmatched is strictly worst).  ``delta(inst, m, n)`` is the number of
vertices preferring ``m`` minus the number preferring ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Instance, Matching

__all__ = [
    "EdgeLabeling",
    "EdgeWeighting",
    "vote",
    "label_edges",
    "weighting",
    "delta",
]


@dataclass(frozen=True)
class EdgeLabeling:
    """Per non-matching edge, the ordered vote pair of its two endpoints.

    ``labels[(u, v)] == (vote_u, vote_v)`` for every canonical instance edge
    outside the matching; ``blocking`` is the set of (+,+) edges.
    """

    labels: dict[tuple[str, str], tuple[int, int]]
    blocking: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class EdgeWeighting:
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
    if m.partner(u) == candidate:
        raise ValueError(f"{candidate!r} is the current partner of {u!r}")
    return _vote(inst, u, candidate, m)


def _vote(inst: Instance, u: str, candidate: str, m: Matching) -> int:
    """``vote`` for an instance edge outside ``m``, unchecked."""
    p = m.partner(u)
    if p is None:
        return 1
    return 1 if inst.ranks.prefers(u, candidate, p) else -1


def label_edges(inst: Instance, m: Matching) -> EdgeLabeling:
    """Vote pairs for every edge outside ``m``; (+,+) edges block ``m``."""
    labels: dict[tuple[str, str], tuple[int, int]] = {}
    blocking: set[tuple[str, str]] = set()
    for u, v in inst.edges:
        if (u, v) in m:
            continue
        pair = (_vote(inst, u, v, m), _vote(inst, v, u, m))
        labels[(u, v)] = pair
        if pair == (1, 1):
            blocking.add((u, v))
    return EdgeLabeling(labels, frozenset(blocking))


def weighting(inst: Instance, m: Matching) -> EdgeWeighting:
    edge: dict[tuple[str, str], int] = {}
    for u, v in inst.edges:
        if (u, v) in m:
            edge[(u, v)] = 0
        else:
            edge[(u, v)] = _vote(inst, u, v, m) + _vote(inst, v, u, m)
    loop = {v: (-1 if m.partner(v) is not None else 0) for v in inst.vertices}
    return EdgeWeighting(edge, loop)


def delta(inst: Instance, m: Matching, n: Matching) -> int:
    """Vertices preferring ``m`` minus vertices preferring ``n`` (one pass)."""
    total = 0
    for u in inst.vertices:
        pm = m.partner(u)
        pn = n.partner(u)
        if pm == pn:
            continue
        if pm is None:
            total -= 1
        elif pn is None:
            total += 1
        elif inst.ranks.prefers(u, pm, pn):
            total += 1
        else:
            total -= 1
    return total

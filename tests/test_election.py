"""Vote semantics, edge labels, the pruning rule, weights, and elections.

The fixed expected values come from exhaustively checking the six-vertex
reference instance by hand; the property tests cross-check the closed-form
election helpers against literal per-vertex counting on random instances.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popmatch.election import delta, label_edges, vote, weighting
from popmatch.gen import random_marriage, random_maximal_matching, random_roommates
from popmatch.model import Matching
from popmatch.popularity import _RestrictedGraph


def test_vote_prefers_candidate(fig1, m1):
    # a1 is matched to b1, its first choice: any other candidate loses
    assert vote(fig1, "a1", "b2", m1) == -1
    # b1 is matched to a1 under m1 but a2 is worse, a3 worse still
    assert vote(fig1, "b1", "a2", m1) == -1
    # a3 is unmatched, so any neighbor is an improvement
    assert vote(fig1, "a3", "b1", m1) == 1


def test_vote_rejects_non_neighbor(fig1, m1):
    with pytest.raises(ValueError):
        vote(fig1, "a3", "b2", m1)


def test_vote_rejects_current_partner(fig1, m1):
    with pytest.raises(ValueError):
        vote(fig1, "a1", "b1", m1)


def test_labels_under_m1(fig1, m1):
    lab = label_edges(fig1, m1)
    assert lab.labels[("a1", "b2")] == (-1, 1)
    assert lab.labels[("a1", "b3")] == (-1, 1)
    assert lab.labels[("a2", "b1")] == (1, -1)
    assert lab.labels[("a3", "b1")] == (1, -1)
    assert ("a1", "b1") not in lab.labels
    assert lab.blocking == frozenset()


def test_labels_under_m2_blocking(fig1, m2):
    lab = label_edges(fig1, m2)
    assert lab.labels[("a1", "b1")] == (1, 1)
    assert lab.blocking == frozenset({("a1", "b1")})


def _assert_restricted_graph_matches_labels(inst, m):
    """Each row lists, in the owner's order, the non-partner neighbors whose
    edge label is not (-1, -1), flagged iff the edge blocks."""
    rg = _RestrictedGraph(inst, m)
    lab = label_edges(inst, m)
    for u in inst.vertices:
        row = []
        for v in inst.prefs[u]:
            e = inst.canonical_edge(u, v)
            if v != m.partner(u) and lab.labels[e] != (-1, -1):
                row.append((v, e in lab.blocking))
        assert rg.adj[u] == row
    assert rg.pp_edges == [e for e in inst.edges if e in lab.blocking]
    assert rg.free == [u for u in inst.vertices if m.partner(u) is None]


def test_restricted_graph_drops_minus_minus(fig1, m2):
    rg = _RestrictedGraph(fig1, m2)
    keep = {fig1.canonical_edge(u, v) for u, nbrs in rg.adj.items() for v, _ in nbrs}
    # matching edges are carried as partners, not as restricted edges
    assert rg.partner["a1"] == "b2" and rg.partner["a2"] == "b1"
    assert ("a1", "b2") not in keep and ("a2", "b1") not in keep
    # (a1, b3): a1 prefers b2 (its partner) to b3, b3 prefers a1 to nothing
    assert ("a1", "b3") in keep
    # (a2, b2): each prefers its partner
    assert ("a2", "b2") not in keep
    _assert_restricted_graph_matches_labels(fig1, m2)
    rng = random.Random(17)
    for k in range(80):
        if k % 2 == 0:
            inst = random_marriage(rng, rng.randint(1, 6), rng.randint(1, 6), rng.uniform(0.3, 1.0))
        else:
            inst = random_roommates(rng, rng.randint(2, 9), rng.uniform(0.3, 1.0))
        for m in (Matching(inst, []), random_maximal_matching(rng, inst)):
            _assert_restricted_graph_matches_labels(inst, m)


def test_weighting_values(fig1, m1):
    wt = weighting(fig1, m1)
    assert wt.edge[("a1", "b1")] == 0 and wt.edge[("a2", "b2")] == 0
    assert wt.edge[("a2", "b1")] == 0  # one +, one -
    assert wt.edge[("a3", "b1")] == 0
    assert wt.loop["a3"] == 0 and wt.loop["b3"] == 0
    assert wt.loop["a1"] == -1 and wt.loop["b2"] == -1


def test_delta_fig1(fig1, m1, m2, m3):
    assert delta(fig1, m1, m3) == 0
    assert delta(fig1, m2, m3) == 2
    assert delta(fig1, m2, m1) == 0
    assert delta(fig1, m3, m2) == -2


def _brute_delta(inst, m, n):
    total = 0
    for u in inst.vertices:
        pm, pn = m.partner(u), n.partner(u)
        if pm == pn:
            continue
        if pn is None:
            total += 1
        elif pm is None:
            total -= 1
        else:
            total += 1 if inst.rank[u][pm] < inst.rank[u][pn] else -1
    return total


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 5), st.integers(1, 5))
def test_delta_matches_vertexwise_count(seed, na, nb):
    rng = random.Random(seed)
    inst = random_marriage(rng, na, nb, rng.uniform(0.4, 1.0))
    m = random_maximal_matching(rng, inst)
    n = random_maximal_matching(rng, inst)
    assert delta(inst, m, n) == _brute_delta(inst, m, n)
    assert delta(inst, m, n) == -delta(inst, n, m)
    assert delta(inst, m, m) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 7))
def test_matching_weight_equals_margin_roommates(seed, n):
    """The weight of N under wt_M plus M's self-loops equals delta(N, M)."""
    rng = random.Random(seed)
    inst = random_roommates(rng, n, rng.uniform(0.5, 1.0))
    m = random_maximal_matching(rng, inst)
    n_ = random_maximal_matching(rng, inst)
    wt = weighting(inst, m)
    covered = n_.matched_vertices()
    total = sum(wt.edge[e] for e in n_.edges)
    total += sum(wt.loop[u] for u in inst.vertices if u not in covered)
    assert total == delta(inst, n_, m)


def test_empty_matching_labels(fig1):
    empty = Matching(fig1, [])
    lab = label_edges(fig1, empty)
    assert set(lab.labels) == set(fig1.edges)
    assert lab.blocking == frozenset(fig1.edges)

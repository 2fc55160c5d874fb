"""Popularity tests, certificates, and the dominance check.

Differential style throughout: the two polynomial popularity tests must
agree with each other and with exhaustive election counting, on marriage
and (for the structural test) roommates instances.
"""

import gc
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popmatch import popularity
from popmatch.cli import run
from popmatch.election import delta, label_edges, weighting
from popmatch.engine import gale_shapley, solve_dominant
from popmatch.gen import random_marriage, random_maximal_matching, random_roommates
from popmatch.model import Instance, Matching, parse_instance, parse_matching
from popmatch.oracle import classify_exhaustive, enumerate_matchings
from popmatch.popularity import (
    ForbiddenStructure,
    check_structure,
    find_witness_small,
    is_dominant,
    is_dominant_structure,
    is_popular_structure,
    is_popular_weight,
    is_stable,
    verify_witness,
)


def test_is_stable_fig1(fig1, m1, m2):
    assert is_stable(fig1, m1) == (True, None)
    ok, edge = is_stable(fig1, m2)
    assert not ok and edge == ("a1", "b1")


def test_fig1_popular_set(fig1, m1, m2, m3):
    for m, expect in ((m1, True), (m2, True), (m3, False)):
        assert is_popular_weight(fig1, m) is expect
        assert is_popular_structure(fig1, m)[0] is expect


def test_fig1_dominant(fig1, m1, m2):
    assert not is_dominant(fig1, m1)
    assert is_dominant(fig1, m2)


def test_structure_certificate_is_checkable(fig1, m3):
    ok, cert = is_popular_structure(fig1, m3)
    assert not ok
    assert check_structure(fig1, m3, cert)


def test_witness_for_stable_matching(fig1, m1):
    w = find_witness_small(fig1, m1)
    assert w is not None
    ok, bad = verify_witness(fig1, m1, w)
    assert ok, bad


def test_no_witness_for_unpopular(fig1, m3):
    assert find_witness_small(fig1, m3) is None


def test_verify_witness_requires_all_vertices(fig1, m1):
    with pytest.raises(ValueError):
        verify_witness(fig1, m1, {"a1": 0})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4), st.integers(1, 4))
def test_marriage_tests_agree_with_elections(seed, na, nb):
    rng = random.Random(seed)
    inst = random_marriage(rng, na, nb, rng.uniform(0.3, 1.0))
    matchings = list(enumerate_matchings(inst, cap=16))
    for m in matchings:
        truth = all(delta(inst, m, n) >= 0 for n in matchings)
        assert is_popular_weight(inst, m) is truth
        got, cert = is_popular_structure(inst, m)
        assert got is truth
        if not got:
            assert check_structure(inst, m, cert)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 6))
def test_roommates_structure_test_agrees_with_elections(seed, n):
    rng = random.Random(seed)
    inst = random_roommates(rng, n, rng.uniform(0.4, 1.0))
    matchings = list(enumerate_matchings(inst, cap=16))
    for m in matchings:
        truth = all(delta(inst, m, n_) >= 0 for n_ in matchings)
        got, cert = is_popular_structure(inst, m)
        assert got is truth
        if not got:
            assert check_structure(inst, m, cert)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4), st.integers(1, 4))
def test_stable_implies_popular_implies_witness(seed, na, nb):
    rng = random.Random(seed)
    inst = random_marriage(rng, na, nb, rng.uniform(0.3, 1.0))
    rep = classify_exhaustive(inst, cap=16)
    for s in rep.stable:
        assert s in rep.popular
    for p in rep.popular:
        w = find_witness_small(inst, p)
        assert w is not None
        assert verify_witness(inst, p, w)[0]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 6))
def test_dominance_matches_definition_roommates(seed, n):
    rng = random.Random(seed)
    inst = random_roommates(rng, n, rng.uniform(0.4, 1.0))
    rep = classify_exhaustive(inst, cap=16)
    dominant = set(rep.dominant)
    for m in rep.matchings:
        assert is_dominant(inst, m) == (m in dominant)


def test_sizes_nest(fig1):
    """Stable matchings are smallest among popular, dominant are largest."""
    rep = classify_exhaustive(fig1, cap=16)
    smallest = min(len(p) for p in rep.popular)
    largest = max(len(p) for p in rep.popular)
    for s in rep.stable:
        assert len(s) == smallest
    for d in rep.dominant:
        assert len(d) == largest


def test_bad_structure_rejected(fig1, m1):
    from popmatch.popularity import ForbiddenStructure

    fake = ForbiddenStructure(kind="path", vertices=("a3", "b1", "a2", "b2"))
    assert not check_structure(fig1, m1, fake)


def _diamond_ladder(k, kind="marriage"):
    """An unpopular matching whose certificate a simple-path search finds late.

    The free vertex f feeds layer 1; layer i holds the matched pairs
    (ai_x, bi_x) for x = 1, 2, and both a's of layer i are joined to both
    b's of layer i+1.  Each b prefers the previous layer's a's to its
    partner, so no ladder edge blocks or is pruned and there are 2**k simple
    paths from f.  A separate 4-cycle p-s-q-r carries the one blocking edge
    (p, s).  Returns the instance text and the matching text.
    """
    aa, bb, lines, pairs = ["f"], [], ["f: b1_1 b1_2"], []
    for i in range(1, k + 1):
        for x in (1, 2):
            a, b = f"a{i}_{x}", f"b{i}_{x}"
            aa.append(a)
            bb.append(b)
            pairs.append(f"{a} {b}")
            nxt = f" b{i + 1}_1 b{i + 1}_2" if i < k else ""
            prev = f"a{i - 1}_1 a{i - 1}_2 " if i > 1 else ""
            lines += [f"{a}: {b}{nxt}", f"{b}: {prev}{a}" + (" f" if i == 1 else "")]
    aa += ["p", "q"]
    bb += ["r", "s"]
    lines += ["p: s r", "q: s r", "r: q p", "s: p q"]
    pairs += ["p r", "q s"]
    if kind == "marriage":
        head = f"marriage\nA {' '.join(aa)}\nB {' '.join(bb)}\n"
    else:
        head = f"roommates\nV {' '.join(aa + bb)}\n"
    return head + "\n".join(lines) + "\n", "\n".join(pairs) + "\n"


def test_ladder_certificate_is_polynomial():
    """125 vertices; an exhaustive simple-path search would visit 2**30 paths."""
    start = time.perf_counter()
    text, match = _diamond_ladder(30)
    inst = parse_instance(text)
    m = parse_matching(match, inst)
    ok, cert = is_popular_structure(inst, m)
    assert not ok
    assert check_structure(inst, m, cert)
    assert not is_dominant(inst, m)
    assert time.perf_counter() - start < 2.0


def test_roommates_search_budget(tmp_path, monkeypatch, capsys):
    text, match = _diamond_ladder(4, kind="roommates")
    inst = parse_instance(text)
    m = parse_matching(match, inst)
    ok, cert = is_popular_structure(inst, m)
    assert not ok and cert == ForbiddenStructure("cycle", ("p", "s", "q", "r"))

    monkeypatch.setattr(popularity, "_DFS_NODE_BUDGET", 10)
    with pytest.raises(ValueError, match="popularity certificate search exceeded its node budget"):
        is_popular_structure(inst, m)
    (tmp_path / "ladder.inst").write_text(text)
    (tmp_path / "ladder.match").write_text(match)
    argv = ["verify", "--popular", str(tmp_path / "ladder.inst"), str(tmp_path / "ladder.match")]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: popularity certificate search exceeded its node budget\n"


def test_roommates_budget_bounds_each_verdict(monkeypatch):
    """A failed search leaves nothing behind, and each verdict gets the whole budget."""
    text, match = _diamond_ladder(4, kind="roommates")
    inst = parse_instance(text)
    m = parse_matching(match, inst)
    cycle = (False, ForbiddenStructure("cycle", ("p", "s", "q", "r")))
    budget = popularity._DFS_NODE_BUDGET

    monkeypatch.setattr(popularity, "_DFS_NODE_BUDGET", 10)
    with pytest.raises(ValueError, match="node budget"):
        is_popular_structure(inst, m)
    monkeypatch.setattr(popularity, "_DFS_NODE_BUDGET", budget)
    assert is_popular_structure(inst, m) == cycle

    needed = popularity._restricted_graph(inst, m).nodes
    monkeypatch.setattr(popularity, "_DFS_NODE_BUDGET", needed)
    for _ in range(3):
        assert is_popular_structure(inst, m) == cycle
        assert is_dominant_structure(inst, m) == cycle
    monkeypatch.setattr(popularity, "_DFS_NODE_BUDGET", needed - 1)
    with pytest.raises(ValueError, match="node budget"):
        is_popular_structure(inst, m)


def _counting(monkeypatch):
    """Count restricted-graph builds and structure searches from now on."""
    counts = {"graphs": 0, "searches": 0}
    graph, first_found = popularity._RestrictedGraph, popularity._first_found

    def build(inst, m):
        counts["graphs"] += 1
        return graph(inst, m)

    def search(rg, how):
        counts["searches"] += 1
        return first_found(rg, how)

    monkeypatch.setattr(popularity, "_last", None)
    monkeypatch.setattr(popularity, "_RestrictedGraph", build)
    monkeypatch.setattr(popularity, "_first_found", search)
    return counts


def test_structure_then_dominance_builds_one_graph(monkeypatch, fig1, m3):
    counts = _counting(monkeypatch)
    ok, cert = is_popular_structure(fig1, m3)
    assert not ok and counts == {"graphs": 1, "searches": 1}
    assert is_dominant_structure(fig1, m3) == (False, cert)
    assert not is_dominant(fig1, m3)
    assert is_popular_structure(fig1, m3) == (False, cert)
    assert counts == {"graphs": 1, "searches": 1}

    # an equal matching is another object, and gets a graph of its own,
    # which goes with it
    assert is_popular_structure(fig1, Matching(fig1, m3.edges)) == (False, cert)
    assert counts == {"graphs": 2, "searches": 2}
    assert popularity._last is None


def test_roommates_structure_verdict_is_never_cached(monkeypatch):
    text, match = _diamond_ladder(2, kind="roommates")
    inst = parse_instance(text)
    m = parse_matching(match, inst)
    counts = _counting(monkeypatch)
    first = is_popular_structure(inst, m)
    searches = counts["searches"]
    assert is_dominant_structure(inst, m) == first
    assert counts == {"graphs": 1, "searches": 2 * searches}


def _permuted(rng, inst):
    """An instance with the edges of ``inst`` and every preference list shuffled."""
    prefs = {u: rng.sample(lst, len(lst)) for u, lst in inst.prefs.items()}
    return Instance(inst.kind, inst.vertices, prefs, inst.side)


def _answers(inst, m, n, names, cert):
    """Each named call on ``m`` under ``inst``, in the order of ``names``."""
    calls = {
        "is_stable": lambda: is_stable(inst, m),
        "is_popular_weight": lambda: is_popular_weight(inst, m),
        "is_popular_structure": lambda: is_popular_structure(inst, m),
        "is_dominant": lambda: is_dominant(inst, m),
        "is_dominant_structure": lambda: is_dominant_structure(inst, m),
        "label_edges": lambda: label_edges(inst, m),
        "weighting": lambda: weighting(inst, m),
        "delta": lambda: (delta(inst, m, n), delta(inst, n, m)),
        "check_structure": lambda: check_structure(inst, m, cert),
        "find_witness_small": lambda: find_witness_small(inst, m),
    }
    return {name: calls[name]() for name in names}


def _cached_against_fresh(rng, inst, targets):
    """Every call on every matching of ``inst``, reused under each of
    ``targets`` in shuffled orders, against fresh matchings of the target."""
    names = ["is_stable", "is_popular_structure", "is_dominant", "is_dominant_structure",
             "label_edges", "weighting", "delta", "check_structure"]
    if inst.kind == "marriage":
        names += ["is_popular_weight", "find_witness_small"]
    matchings = list(enumerate_matchings(inst, cap=16))
    for m in matchings:
        n = rng.choice(matchings)
        certs, want = [], []
        for target in targets:
            fresh = Matching(target, m.edges)
            cert = is_popular_structure(target, fresh)[1]
            certs.append(cert or ForbiddenStructure("path", target.vertices[:4]))
            want.append(_answers(target, fresh, Matching(target, n.edges), names, certs[-1]))
        # all calls on m itself come after, back to back across the targets
        for target, cert, expected in zip(targets, certs, want):
            rng.shuffle(names)
            assert _answers(target, m, n, names, cert) == expected, (target, m)


def test_cached_votes_agree_with_fresh_matchings():
    rng = random.Random(14)
    for trial in range(24):
        if trial % 2:
            inst = random_roommates(rng, rng.randint(2, 6), rng.uniform(0.4, 1.0))
        else:
            na, nb = rng.randint(1, 4), rng.randint(1, 4)
            inst = random_marriage(rng, na, nb, rng.uniform(0.3, 1.0))
        # the same objects go back and forth between the two instances
        _cached_against_fresh(rng, inst, (inst, _permuted(rng, inst), inst))

    # Marriage only: roommates dominance calls networkx, whose matching code
    # leaves reference cycles of its own.
    gc.collect()
    gc.disable()
    try:
        for inst in (parse_instance(_diamond_ladder(2)[0]), random_marriage(rng, 3, 3, 0.8)):
            _cached_against_fresh(rng, inst, (inst, _permuted(rng, inst)))
        assert gc.collect() == 0
    finally:
        gc.enable()


def _swap_two_pairs(rng, inst, m):
    """m with the partners of two matched pairs exchanged, when both new edges exist."""
    pairs = list(m.edges)
    rng.shuffle(pairs)
    for (a1, b1), (a2, b2) in zip(pairs[::2], pairs[1::2]):
        if inst.has_edge(a1, b2) and inst.has_edge(a2, b1):
            rest = [e for e in pairs if e not in ((a1, b1), (a2, b2))]
            return Matching(inst, rest + [(a1, b2), (a2, b1)])
    return m


def test_structure_test_agrees_with_weight_test_past_enumeration():
    rng = random.Random(5)
    kinds = set()
    for _ in range(60):
        na = rng.randint(6, 15)
        nb = rng.randint(max(6, na - 2), min(15, na + 2))
        inst = random_marriage(rng, na, nb, rng.uniform(0.3, 1.0))
        stable, dominant = gale_shapley(inst), solve_dominant(inst)[0]
        candidates = [stable, dominant]
        candidates += [_swap_two_pairs(rng, inst, stable), _swap_two_pairs(rng, inst, dominant)]
        candidates += [random_maximal_matching(rng, inst) for _ in range(4)]
        for m in candidates:
            ok, cert = is_popular_structure(inst, m)
            assert ok is is_popular_weight(inst, m)
            if not ok:
                kinds.add(cert.kind)
                assert check_structure(inst, m, cert), (inst, m, cert)
    assert kinds == {"path", "cycle"}


def test_free_search_closes_a_cycle():
    """The path from the free f reaches a2, whose blocking edge returns to b1."""
    inst = parse_instance(
        "marriage\nA f a1 a2\nB b1 b2\n"
        "f: b1\na1: b1 b2\na2: b1 b2\nb1: a2 a1 f\nb2: a1 a2\n"
    )
    m = parse_matching("a1 b1\na2 b2\n", inst)
    ok, cert = is_popular_structure(inst, m)
    assert not ok
    assert cert == ForbiddenStructure("cycle", ("b1", "a1", "b2", "a2"))
    assert check_structure(inst, m, cert)


def test_two_blocking_search_closes_on_its_start():
    """From blocking edge (a0, b1) the search reaches a2, whose blocking edge is back to b1."""
    inst = parse_instance(
        "marriage\nA a0 a1 a2\nB b0 b1 b2\n"
        "a0: b1 b0\na1: b1 b2\na2: b1 b2\nb0: a0\nb1: a2 a0 a1\nb2: a1 a2\n"
    )
    m = parse_matching("a0 b0\na1 b1\na2 b2\n", inst)
    ok, cert = is_popular_structure(inst, m)
    assert not ok
    assert cert == ForbiddenStructure("cycle", ("b1", "a1", "b2", "a2"))
    assert check_structure(inst, m, cert)


def test_roommates_walk_hit_on_a_popular_matching():
    """The breadth-first walk search hits, yet no simple structure exists."""
    inst = parse_instance(
        "roommates\nV v1 v2 v3 v4\n"
        "v1: v4 v3 v2\nv2: v1 v3\nv3: v1 v4 v2\nv4: v1 v3\n"
    )
    m = parse_matching("v1 v2\nv3 v4\n", inst)
    rg = popularity._RestrictedGraph(inst, m)
    assert sorted(rg.pp_edges) == [("v1", "v3"), ("v1", "v4")]
    assert popularity._first_found(rg, popularity._bfs) is not None
    assert is_popular_structure(inst, m) == (True, None)
    assert m in classify_exhaustive(inst).popular

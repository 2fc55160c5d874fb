import gc
import random

import pytest

from popmatch.gen import random_marriage, random_roommates
from popmatch.model import Instance, Matching, parse_instance
from popmatch.oracle import (
    _stable_search,
    brute_sat,
    classify_exhaustive,
    enumerate_matchings,
    enumerate_stable_matchings,
)
from popmatch.popularity import is_stable
from popmatch.reductions import (
    CnfFormula,
    build_nondominant_gadget,
    build_stable_dominant_gadget,
    normalize_3sat,
)


def test_fig1_matching_count(fig1):
    assert len(list(enumerate_matchings(fig1))) == 15


def test_fig1_classification(fig1, m1, m2, m3):
    rep = classify_exhaustive(fig1)
    assert set(rep.stable) == {m1}
    assert set(rep.popular) == {m1, m2}
    assert set(rep.dominant) == {m2}
    assert rep.min_popular_size == 2 and rep.max_popular_size == 2
    assert m3 in rep.matchings
    assert rep.blocking[m1] == ()
    assert rep.blocking[m2] == (("a1", "b1"),)
    # sorted by both endpoints, so two blocking edges at one vertex keep
    # their order whatever the string hash seed
    assert rep.blocking[Matching(fig1, [])] == (
        ("a1", "b1"),
        ("a1", "b2"),
        ("a1", "b3"),
        ("a2", "b1"),
        ("a2", "b2"),
        ("a3", "b1"),
    )
    # the order follows the vertex order, not the order edges were listed in
    flipped = Instance("marriage", fig1.vertices[::-1], fig1.prefs, fig1.side)
    assert classify_exhaustive(flipped).blocking[Matching(flipped, [])] == (
        ("a3", "b1"),
        ("a2", "b2"),
        ("a2", "b1"),
        ("a1", "b3"),
        ("a1", "b2"),
        ("a1", "b1"),
    )


def test_cap_enforced(fig1, monkeypatch):
    with pytest.raises(ValueError):
        list(enumerate_matchings(fig1, cap=5))
    monkeypatch.setenv("POPMATCH_CAP", "5")
    with pytest.raises(ValueError):
        list(enumerate_matchings(fig1))
    monkeypatch.setenv("POPMATCH_CAP", "6")
    assert len(list(enumerate_matchings(fig1))) == 15
    monkeypatch.setenv("POPMATCH_CAP", "zero")
    with pytest.raises(ValueError):
        list(enumerate_matchings(fig1))


def test_stable_enumeration_matches_exhaustive():
    rng = random.Random(5)
    for _ in range(40):
        if rng.random() < 0.5:
            inst = random_marriage(rng, rng.randint(1, 5), rng.randint(1, 5), rng.uniform(0.3, 1.0))
        else:
            inst = random_roommates(rng, rng.randint(2, 6), rng.uniform(0.4, 1.0))
        rep = classify_exhaustive(inst, cap=16)
        fast = enumerate_stable_matchings(inst)
        assert set(fast) == set(rep.stable)
        assert len(fast) == len(set(fast))


THREE_CYCLE = "roommates\nV x y z\nx: y z\ny: z x\nz: x y\n"


def test_roommates_can_lack_stable_matchings():
    # the classic three-cycle of envy
    inst = parse_instance(THREE_CYCLE)
    assert enumerate_stable_matchings(inst) == []
    rep = classify_exhaustive(inst)
    assert rep.stable == ()


# a1 and a2 each get their first choice in one stable matching and their
# second in the other: two closed sets, the empty one and {the one rotation}
TWO_STABLE = "marriage\nA a1 a2\nB b1 b2\na1: b1 b2\na2: b2 b1\nb1: a2 a1\nb2: a1 a2\n"


def test_stable_search_node_budget():
    budget_error = "stable-matching search exceeded its node budget"
    # each closed set costs one unit plus one per pair: 2 * (1 + 2)
    two = parse_instance(TWO_STABLE)
    assert len(enumerate_stable_matchings(two, node_budget=6)) == 2
    with pytest.raises(ValueError, match=budget_error):
        enumerate_stable_matchings(two, node_budget=5)
    cycle = parse_instance(THREE_CYCLE)
    assert enumerate_stable_matchings(cycle, node_budget=4) == []
    with pytest.raises(ValueError, match=budget_error):
        enumerate_stable_matchings(cycle, node_budget=3)


def test_rotation_enumerator_matches_pruned_search_and_oracle():
    """Marriage instances list the closed sets of the rotation poset; the
    pruned search, run directly, and the definitions must give the same set."""
    rng = random.Random(16)
    instances = [
        random_marriage(rng, rng.randint(2, 8), rng.randint(2, 8), rng.uniform(0.3, 1.0))
        for _ in range(400)
    ]
    contradiction = normalize_3sat(CnfFormula(1, [(1, 1), (-1, -1)]))
    instances += [build_nondominant_gadget(contradiction)[0],
                  build_stable_dominant_gadget(contradiction)[0]]
    several = unmatched = 0
    counts = []
    for inst in instances:
        fast = enumerate_stable_matchings(inst)
        counts.append(len(fast))
        pruned: list = []
        _stable_search(inst, 0, {}, [], pruned, 0, 10**7)
        assert len(fast) == len(set(fast))
        assert set(fast) == set(pruned)
        if len(inst.vertices) <= 8:
            assert set(fast) == set(classify_exhaustive(inst, cap=8).stable)
        several += len(fast) > 1
        unmatched += 2 * len(fast[0]) < len(inst.vertices)
    assert several > 30 and unmatched > 300
    assert counts[-2:] == [81, 81]


def test_rotation_enumerator_on_sixty_per_side():
    rng = random.Random(60)
    inst = random_marriage(rng, 60, 60, 0.4)
    found = enumerate_stable_matchings(inst, node_budget=5_000)
    assert len(found) > 1 and len(found) == len(set(found))
    for m in found:
        assert is_stable(inst, m)[0]


def test_enumerators_leave_no_reference_cycles(fig1):
    gc.collect()
    gc.disable()
    try:
        enumerate_stable_matchings(fig1)
        assert gc.collect() == 0
        list(enumerate_matchings(fig1))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_brute_sat_positive_form():
    nf = normalize_3sat(CnfFormula(2, [(1, 2)]))
    model = brute_sat(nf)
    assert model is not None
    assert model[1] or model[2]
    # complements are forced opposite
    assert model[3] == (not model[1]) and model[4] == (not model[2])


def test_brute_sat_contradiction():
    f = CnfFormula(2, [(1, 2), (1, -2), (-1, 2), (-1, -2)])
    assert brute_sat(normalize_3sat(f)) is None


def test_brute_sat_signed_form():
    f = CnfFormula(3, [(1, -2), (2, 3), (-1, -3)])
    model = brute_sat(f)
    assert model is not None
    for clause in f.clauses:
        assert any(model[abs(l)] == (l > 0) for l in clause)

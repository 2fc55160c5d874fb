import gc
import random

import pytest

from popmatch.gen import random_marriage, random_roommates
from popmatch.model import Matching, parse_instance
from popmatch.oracle import (
    brute_sat,
    classify_exhaustive,
    enumerate_matchings,
    enumerate_stable_matchings,
)
from popmatch.reductions import CnfFormula, normalize_3sat


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


def test_stable_search_node_budget(fig1):
    budget_error = "stable-matching search exceeded its node budget"
    assert len(enumerate_stable_matchings(fig1, node_budget=16)) == 1
    with pytest.raises(ValueError, match=budget_error):
        enumerate_stable_matchings(fig1, node_budget=15)
    cycle = parse_instance(THREE_CYCLE)
    assert enumerate_stable_matchings(cycle, node_budget=4) == []
    with pytest.raises(ValueError, match=budget_error):
        enumerate_stable_matchings(cycle, node_budget=3)


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

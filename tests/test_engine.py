"""Proposal solvers: the stable run, the expansion, and the dominant run."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popmatch import _gs
from popmatch.engine import GPrime, build_gprime, gale_shapley, solve_dominant
from popmatch.gen import random_marriage
from popmatch.model import Instance
from popmatch.oracle import classify_exhaustive
from popmatch.popularity import is_dominant, is_stable, verify_witness


def test_stable_solver_fig1(fig1, m1):
    assert gale_shapley(fig1) == m1


def test_dominant_solver_fig1(fig1, m2):
    m, w = solve_dominant(fig1)
    assert m == m2
    assert w == {"a1": 1, "b1": 1, "a2": -1, "b2": -1, "a3": 0, "b3": 0}


def test_dominant_witness_checks_out(fig1):
    m, w = solve_dominant(fig1)
    ok, bad = verify_witness(fig1, m, w)
    assert ok, bad


def test_solvers_reject_roommates():
    from popmatch.model import parse_instance

    inst = parse_instance("roommates\nV x y z\nx: y z\ny: z x\nz: x y\n")
    with pytest.raises(ValueError):
        gale_shapley(inst)
    with pytest.raises(ValueError):
        solve_dominant(inst)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 6), st.integers(1, 6))
def test_proposal_output_is_stable(seed, na, nb):
    rng = random.Random(seed)
    inst = random_marriage(rng, na, nb, rng.uniform(0.3, 1.0))
    m = gale_shapley(inst)
    ok, blocking = is_stable(inst, m)
    assert ok, blocking


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4), st.integers(1, 4))
def test_proposal_output_is_proposer_optimal(seed, na, nb):
    """Every proposer does at least as well as in any other stable matching."""
    rng = random.Random(seed)
    inst = random_marriage(rng, na, nb, rng.uniform(0.4, 1.0))
    m = gale_shapley(inst)
    rep = classify_exhaustive(inst, cap=16)
    for s in rep.stable:
        for a in inst.side_a():
            mine, other = m.partner(a), s.partner(a)
            if other is None:
                continue
            assert mine is not None
            if mine != other:
                assert inst.rank[a][mine] < inst.rank[a][other]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 5), st.integers(1, 5))
def test_dominant_solver_output_is_dominant(seed, na, nb):
    rng = random.Random(seed)
    inst = random_marriage(rng, na, nb, rng.uniform(0.3, 1.0))
    m, w = solve_dominant(inst)
    assert is_dominant(inst, m)
    ok, bad = verify_witness(inst, m, w)
    assert ok, bad


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 5), st.integers(1, 5))
def test_same_vertices_matched_in_every_stable_matching(seed, na, nb):
    rng = random.Random(seed)
    inst = random_marriage(rng, na, nb, rng.uniform(0.3, 1.0))
    core = gale_shapley(inst).matched_vertices()
    rep = classify_exhaustive(inst, cap=16)
    for s in rep.stable:
        assert s.matched_vertices() == core


def test_expansion_shape(fig1):
    gp = build_gprime(fig1)
    assert len(gp.instance.vertices) == 3 * len(fig1.vertices)
    # every original vertex contributes exactly one plus, one minus, one dummy
    for u in fig1.vertices:
        assert gp.plus[u] in gp.instance.index
        assert gp.minus[u] in gp.instance.index
    stable = gale_shapley(gp.instance)
    projected = gp.project(stable)
    assert is_dominant(fig1, projected)


def test_expansion_projection_matches_solver(fig1, m2):
    gp = build_gprime(fig1)
    assert gp.project(gale_shapley(gp.instance)) == m2


def test_stable_vertex_set_fig1(fig1):
    assert gale_shapley(fig1).matched_vertices() == frozenset({"a1", "a2", "b1", "b2"})


def _reference_gprime(inst):
    """The expansion built by name, straight from its definition."""
    plus = {u: f"{u}+" for u in inst.vertices}
    minus = {u: f"{u}-" for u in inst.vertices}
    dummy = {u: f"d({u})" for u in inst.vertices}

    a_orig = inst.side_a()
    b_orig = inst.side_b()
    vertices: list[str] = []
    side: dict[str, str] = {}
    for a in a_orig:
        vertices += [plus[a], minus[a]]
        side[plus[a]] = side[minus[a]] = "A"
    for b in b_orig:
        vertices.append(dummy[b])
        side[dummy[b]] = "A"
    for b in b_orig:
        vertices += [plus[b], minus[b]]
        side[plus[b]] = side[minus[b]] = "B"
    for a in a_orig:
        vertices.append(dummy[a])
        side[dummy[a]] = "B"

    prefs: dict[str, list[str]] = {}
    for u in inst.vertices:
        nbrs = inst.prefs[u]
        prefs[plus[u]] = [minus[v] for v in nbrs] + [dummy[u]]
        prefs[minus[u]] = [dummy[u]] + [plus[v] for v in nbrs]
        prefs[dummy[u]] = [plus[u], minus[u]]

    edge_origin = {}
    for a, b in inst.edges:
        edge_origin[(plus[a], minus[b])] = ((a, b), "+")
        edge_origin[(minus[a], plus[b])] = ((a, b), "-")
    gpi = Instance("marriage", vertices, prefs, side)
    return GPrime(inst, gpi, plus, minus, dummy, edge_origin)


def _reference_probes(inst, ref):
    """The probe's per-edge arrays, looked up by copy name."""
    slot = _gs.side_index(ref.instance)
    rank = inst.rank
    return (
        [slot[ref.plus[a]] for a, _ in inst.edges],
        [slot[ref.minus[a]] for a, _ in inst.edges],
        [slot[ref.dummy[a]] for a, _ in inst.edges],
        [slot[ref.plus[b]] for _, b in inst.edges],
        [slot[ref.minus[b]] for _, b in inst.edges],
        [rank[a][b] for a, b in inst.edges],
        [rank[b][a] - 1 for a, b in inst.edges],
        [inst.degree(b) for _, b in inst.edges],
    )


def test_expansion_matches_named_reference():
    """The arithmetic expansion, its names, probes and projection, on 2,000 instances.

    Sides of 0 to 6 vertices, any density (so empty sides, isolated
    vertices and incomplete lists), and the two sides interleaved in the
    vertex order, which the copy ids must not depend on.
    """
    rng = random.Random(31)
    seen = dict.fromkeys(("empty side", "isolated", "incomplete", "hit"), 0)
    for _ in range(2000):
        base = random_marriage(rng, rng.randint(0, 6), rng.randint(0, 6), rng.random())
        order = list(base.vertices)
        rng.shuffle(order)
        inst = Instance("marriage", order, base.prefs, base.side)
        ref = _reference_gprime(inst)

        assert _gs.expansion_view(inst) == _gs.compile_view(ref.instance)
        assert _gs.expansion_probes(inst) == _reference_probes(inst, ref)
        gp = build_gprime(inst)
        assert gp.instance == ref.instance and gp.instance.edges == ref.instance.edges
        assert (gp.plus, gp.minus, gp.dummy, gp.edge_origin) == (
            ref.plus, ref.minus, ref.dummy, ref.edge_origin
        )
        m_exp = gale_shapley(ref.instance)
        m, w = solve_dominant(inst)
        assert m == ref.project(m_exp)
        assert list(w.items()) == list(ref.witness(m_exp).items())

        other = {"A": len(inst.side_b()), "B": len(inst.side_a())}
        seen["empty side"] += 0 in other.values()
        seen["isolated"] += any(not lst for lst in inst.prefs.values())
        seen["incomplete"] += any(
            0 < len(inst.prefs[u]) < other[inst.side[u]] for u in inst.vertices
        )
        seen["hit"] += len(m) > 0
    assert min(seen.values()) > 0, seen

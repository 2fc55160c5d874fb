"""Proposal solvers: the stable run, the expansion, and the dominant run."""

import ctypes
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popmatch import _gs
from popmatch.classify import exists_unstable_popular
from popmatch.engine import gale_shapley, solve_dominant
from popmatch.gen import random_marriage
from popmatch.model import Instance, Matching
from popmatch.oracle import classify_exhaustive
from popmatch.popularity import is_dominant, is_stable, verify_witness


def test_stable_solver_fig1(fig1, m1):
    assert gale_shapley(fig1) == m1


def test_seeds_must_be_adjacencies_of_the_instance(fig1):
    other = Instance("marriage", ["a1", "b1"], {"a1": ["b1"], "b1": ["a1"]},
                     {"a1": "A", "b1": "B"})
    with pytest.raises(ValueError, match="seed matching belongs to a different instance"):
        gale_shapley(fig1, Matching(other, [("a1", "b1")]))
    view = _gs.compile_view(fig1)
    with pytest.raises(ValueError, match="seed pair is not an adjacency"):
        _gs.run_proposals(view, seeds=[(2, 1)])  # a3 lists b1 only


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
    gp = _reference_gprime(fig1)
    assert len(gp.instance.vertices) == 3 * len(fig1.vertices)
    # every original vertex contributes exactly one plus, one minus, one dummy
    for u in fig1.vertices:
        assert gp.plus[u] in gp.instance.index
        assert gp.minus[u] in gp.instance.index
    stable = gale_shapley(gp.instance)
    projected = gp.project(stable)
    assert is_dominant(fig1, projected)


def test_expansion_projection_matches_solver(fig1, m2):
    gp = _reference_gprime(fig1)
    assert gp.project(gale_shapley(gp.instance)) == m2


def test_stable_vertex_set_fig1(fig1):
    assert gale_shapley(fig1).matched_vertices() == frozenset({"a1", "a2", "b1", "b2"})


@dataclass(frozen=True)
class _NamedExpansion:
    """The expansion as a named instance plus maps back to the original.

    ``edge_origin`` sends each expansion edge between copies of two distinct
    original vertices to ``(original_edge, sign)`` where sign "+" means the
    edge uses the first endpoint's outgoing copy.  Dummy edges do not appear
    in the map.
    """

    original: Instance
    instance: Instance
    plus: dict
    minus: dict
    dummy: dict
    edge_origin: dict

    def project(self, m_exp):
        """The original-graph matching encoded by an expansion matching."""
        pairs = [self.edge_origin[e][0] for e in m_exp.edges if e in self.edge_origin]
        return Matching(self.original, pairs)

    def witness(self, m_exp):
        """+1 / -1 / 0 per original vertex by which copy is matched."""
        w = {}
        for u in self.original.vertices:
            if m_exp.partner(self.plus[u]) not in (None, self.dummy[u]):
                w[u] = 1
            elif m_exp.partner(self.minus[u]) not in (None, self.dummy[u]):
                w[u] = -1
            else:
                w[u] = 0
        return w

    def matching(self, prop_partner):
        """The expansion matching of a run on ``compile_view(self.instance)``."""
        side_a, side_b = self.instance.side_a(), self.instance.side_b()
        return Matching(
            self.instance, [(side_a[p], side_b[r]) for p, r in enumerate(prop_partner) if r >= 0]
        )


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
    return _NamedExpansion(inst, gpi, plus, minus, dummy, edge_origin)


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


def _reference_probe(view, probes):
    """The probe on the arrays of ``_reference_probes``: the first accepting
    edge index and its run on ``view``, or (-1, None)."""
    aplus, aminus, dbresp, bplus, bminus, start, posb, degb = probes
    for e, ap in enumerate(aplus):
        res = _gs.run_proposals(view, start_rel={ap: start[e]}, cutoff={bminus[e]: 1})
        am_match = res.prop_partner[aminus[e]]
        if am_match >= 0 and am_match != dbresp[e]:
            continue
        if not posb[e] < res.cur_rank[bplus[e]] < degb[e]:
            continue
        if res.prop_partner[ap] >= 0 and res.accept_pos[ap] - view.off[ap] <= start[e] - 1:
            continue
        if _gs.output_is_stable(view, res):
            return e, res
    return -1, None


def _cases(rng, n):
    """``n`` random instances, then one whose names look like each other's copies."""
    for _ in range(n):
        base = random_marriage(rng, rng.randint(0, 6), rng.randint(0, 6), rng.random())
        order = list(base.vertices)
        rng.shuffle(order)
        yield Instance("marriage", order, base.prefs, base.side)
    side = {"x": "A", "x+": "A", "x-": "B", "d(x)": "B"}
    prefs = {"x": ["x-", "d(x)"], "x+": ["d(x)", "x-"], "x-": ["x+", "x"], "d(x)": ["x", "x+"]}
    yield Instance("marriage", ["x-", "x", "d(x)", "x+"], prefs, side)


def _kernel_expansion(kernel, inst):
    """The expansion the C kernel builds in its scratch for ``inst``, or
    None when its scan skips every edge and so builds none."""
    view, order = _gs.compile_view(inst), _gs.edge_slots(inst)
    run, expansion, rest = _gs._scratch_sizes(view)
    work = array("q", [-7] * (run + expansion + rest))
    scratch = (ctypes.c_int64 * len(work)).from_buffer(work)
    csr = map(_gs._buffer, (view.off, view.adj, view.crossrank))
    n_a, n_b, m = view.n_prop, view.n_resp, len(view.adj)
    assert kernel(n_a, n_b, m, *csr, len(order), _gs._buffer(order), scratch) >= -1
    built = work[run : run + expansion].tolist()
    if set(built) == {-7}:
        return None
    P, X = 2 * n_a + n_b, 2 * (m + n_a + n_b)
    return _gs.BipartiteView(
        built[: P + 1], built[P + 1 : P + 1 + X], built[P + 1 + X :], P, 2 * n_b + n_a
    )


def test_expansion_matches_named_reference():
    """The arithmetic expansion, its probes, projection and decision, on 2,001 instances.

    Sides of 0 to 6 vertices, any density (so empty sides, isolated
    vertices and incomplete lists), and the two sides interleaved in the
    vertex order, which the copy ids must not depend on; last, vertices
    named ``x``, ``x+``, ``x-`` and ``d(x)``.  The probe, which works out
    each edge's copy ids from its ``compile_view`` slot, is checked against
    the array probe on the named expansion with its values looked up by
    copy name: same accepting edge, same run.  Both forms of the expansion
    are pinned: ``expansion_view`` and, where the compiled probe loads, the
    one the C kernel builds from ``compile_view``, whose edge slots are
    checked too.
    """
    rng = random.Random(31)
    kernel = _gs._load_probe()[0]
    keys = ("empty side", "isolated", "incomplete", "hit", "probe hit")
    seen = dict.fromkeys(keys + ("kernel expansion",) * (kernel is not None), 0)
    for inst in _cases(rng, 2000):
        ref = _reference_gprime(inst)
        assert len(ref.instance.vertices) == 3 * len(inst.vertices)
        ref_view = _gs.compile_view(ref.instance)
        probes = _reference_probes(inst, ref)
        assert _gs.expansion_view(inst) == ref_view
        view, side_a, side_b = _gs.compile_view(inst), inst.side_a(), inst.side_b()
        slots = _gs.edge_slots(inst)
        owners = [side_a[bisect_right(view.off, s) - 1] for s in slots]
        assert list(zip(owners, (side_b[view.adj[s]] for s in slots))) == list(inst.edges)
        if kernel is not None:
            built = _kernel_expansion(kernel, inst)
            assert built in (None, ref_view)
            seen["kernel expansion"] += built is not None

        m_exp = gale_shapley(ref.instance)
        m, w = solve_dominant(inst)
        assert m == ref.project(m_exp)
        assert list(w.items()) == list(ref.witness(m_exp).items())

        hit, res = _reference_probe(ref_view, probes)
        got, partners = _gs.probe_edges_python(view, slots)
        assert got == hit
        found = exists_unstable_popular(inst)
        if hit < 0:
            assert partners is None and found is None
        else:
            assert partners == res.prop_partner
            assert found == ref.project(ref.matching(res.prop_partner))

        other = {"A": len(inst.side_b()), "B": len(inst.side_a())}
        seen["empty side"] += 0 in other.values()
        seen["isolated"] += any(not lst for lst in inst.prefs.values())
        seen["incomplete"] += any(
            0 < len(inst.prefs[u]) < other[inst.side[u]] for u in inst.vertices
        )
        seen["hit"] += len(m) > 0
        seen["probe hit"] += hit >= 0
    assert min(seen.values()) > 0, seen

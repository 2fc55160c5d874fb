"""The class-collapse decision and the two matching transformations."""

import ctypes
import random
import stat
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popmatch import _gs, classify
from popmatch.classify import (
    exists_unstable_popular,
    exists_unstable_popular_pairwise,
    to_nondominant_stable,
    to_unstable_dominant,
)
from popmatch.engine import gale_shapley, solve_dominant
from popmatch.gen import chain_instance, random_marriage, random_maximal_matching
from popmatch.model import Instance
from popmatch.oracle import classify_exhaustive
from popmatch.popularity import (
    find_witness_small,
    is_dominant,
    is_popular_structure,
    is_stable,
    verify_witness,
)


def test_fig1_has_unstable_popular(fig1, m2):
    found = exists_unstable_popular(fig1)
    assert found is not None
    assert is_popular_structure(fig1, found)[0]
    assert not is_stable(fig1, found)[0]
    # on this instance the answer is unique
    assert found == m2
    assert exists_unstable_popular_pairwise(fig1) == m2


def test_chain_has_none():
    inst = chain_instance(30)
    stats = {}
    assert exists_unstable_popular(inst, stats=stats, backend="python") is None
    # a none verdict must have probed every edge
    assert stats["runs"] == len(inst.edges)
    assert exists_unstable_popular_pairwise(inst) is None


def _oracle_verdict(inst):
    rep = classify_exhaustive(inst, cap=16)
    for p in rep.popular:
        if not is_stable(inst, p)[0]:
            return True
    return False


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 5), st.integers(1, 5))
def test_decision_agrees_with_oracle(seed, na, nb):
    rng = random.Random(seed)
    inst = random_marriage(rng, na, nb, rng.uniform(0.3, 1.0))
    truth = _oracle_verdict(inst)
    found = exists_unstable_popular(inst, backend="python")
    assert (found is not None) is truth
    if found is not None:
        assert is_popular_structure(inst, found)[0]
        assert not is_stable(inst, found)[0]
        # the probe promises a dominant matching, not just a popular one
        assert is_dominant(inst, found)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 5), st.integers(1, 5))
def test_pairwise_variant_same_verdict(seed, na, nb):
    rng = random.Random(seed)
    inst = random_marriage(rng, na, nb, rng.uniform(0.3, 1.0))
    a = exists_unstable_popular(inst, backend="python")
    b = exists_unstable_popular_pairwise(inst)
    assert (a is None) == (b is None)
    if b is not None:
        assert is_popular_structure(inst, b)[0]
        assert not is_stable(inst, b)[0]


@pytest.mark.skipif(_gs.find_compiler() is None, reason="no C compiler (cc) on PATH")
def test_compiled_backend_agrees_when_available():
    rng = random.Random(11)
    for _ in range(25):
        inst = random_marriage(rng, rng.randint(1, 5), rng.randint(1, 5), rng.uniform(0.4, 1.0))
        a = exists_unstable_popular(inst, backend="python")
        b = exists_unstable_popular(inst, backend="compiled")
        assert (a is None) == (b is None)
        if a is not None:
            assert a == b


@pytest.mark.skipif(_gs.find_compiler() is None, reason="no C compiler (cc) on PATH")
def test_compiled_probe_hit_index_matches_reference():
    """Stack-ordered C kernel and heap-ordered reference pick the same edge
    and give the same run on it.

    Both take the instance's compiled view and edge slots; the kernel
    rejects "a is last on b's list" edges without a run and checks its O(1)
    conditions first, while the reference runs every edge in full.  The
    proposer-optimal output does not depend on the order in which free
    proposers propose, so the accepting runs must be equal.  The sample
    covers chains and accepting edges whose a is second to last on b's
    list, where a skip one place too wide would show.
    """
    rng = random.Random(17)
    insts = [chain_instance(m) for m in range(1, 61)]
    insts += [
        random_marriage(rng, rng.randint(1, 9), rng.randint(1, 9), rng.uniform(0.2, 1.0))
        for _ in range(2000)
    ]
    hits = second_to_last = 0
    for inst in insts:
        view, order = _gs.compile_view(inst), _gs.edge_slots(inst)
        hit, partners = _gs.probe_edges_python(view, order)
        assert _gs.probe_edges_compiled(view, order) == (hit, partners), inst
        if hit >= 0:
            hits += 1
            second_to_last += view.crossrank[order[hit]] == inst.degree(inst.edges[hit][1]) - 2
    assert hits > 0 and second_to_last > 0  # the accepting path runs too


@pytest.mark.skipif(_gs.find_compiler() is None, reason="no C compiler (cc) on PATH")
@pytest.mark.parametrize("fault", ["adj", "off", "order", "crossrank"])
def test_kernel_rejects_views_that_do_not_fit(fig1, fault):
    """The kernel checks its own input and refuses it before any run: an
    adj entry past |B|, an off that falls, an order entry past |E|, and a
    crossrank past deg(b)."""
    view, order = _gs.compile_view(fig1), _gs.edge_slots(fig1)
    assert _gs.probe_edges_compiled(view, order)[0] >= 0  # the well-formed view runs
    adj, off, crossrank = list(view.adj), list(view.off), list(view.crossrank)
    if fault == "adj":
        adj[-1] = view.n_resp
    elif fault == "off":
        off[1], off[2] = off[2], off[1]
        assert off[1] > off[2]
    elif fault == "order":
        order = order[:-1] + [len(fig1.edges)]
    else:
        b = view.adj[0]
        crossrank[0] = sum(r == b for r in view.adj)
    bad = _gs.BipartiteView(off, adj, crossrank, view.n_prop, view.n_resp)
    with pytest.raises(ValueError, match="probe arrays do not fit the compiled view"):
        _gs.probe_edges_compiled(bad, order)


@pytest.mark.skipif(_gs.find_compiler() is None, reason="no C compiler (cc) on PATH")
def test_compiled_skip_makes_no_run():
    """Where every edge has a last on b's list, the kernel decides -1
    without building the expansion, resetting or running: those two regions
    of its scratch come back untouched."""
    kernel, reason = _gs._load_probe()
    assert kernel is not None, reason
    inst = Instance(
        "marriage",
        ["a1", "a2", "b1", "b2", "b3"],
        {"a1": ["b2", "b1"], "a2": ["b3"], "b1": ["a1"], "b2": ["a1"], "b3": ["a2"]},
        {"a1": "A", "a2": "A", "b1": "B", "b2": "B", "b3": "B"},
    )
    view, order = _gs.compile_view(inst), _gs.edge_slots(inst)
    assert all(view.crossrank[s] + 1 == view.adj.count(view.adj[s]) for s in order)
    run, expansion, rest = _gs._scratch_sizes(view)
    work = array("q", [7] * (run + expansion + rest))
    scratch = (ctypes.c_int64 * len(work)).from_buffer(work)
    views = map(_gs._buffer, (view.off, view.adj, view.crossrank))
    hit = kernel(view.n_prop, view.n_resp, len(view.adj), *views, len(order), _gs._buffer(order), scratch)
    assert hit == -1
    assert set(work[: run + expansion]) == {7}
    assert set(work[run + expansion :]) != {7}  # the input check did run


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 6), st.integers(1, 6))
def test_reference_never_accepts_a_last_on_b(seed, na, nb):
    """The b+ check needs a rank strictly between posb and degb, so an edge
    whose a is last on b's list fails on its own, whatever its run gives."""
    rng = random.Random(seed)
    inst = random_marriage(rng, na, nb, rng.uniform(0.3, 1.0))
    view = _gs.compile_view(inst)
    for s in _gs.edge_slots(inst):
        if view.crossrank[s] == view.adj.count(view.adj[s]) - 1:
            assert _gs.probe_edges_python(view, [s]) == (-1, None)


@pytest.mark.skipif(_gs.find_compiler() is None, reason="no C compiler (cc) on PATH")
def test_compiled_stats_count_skipped_edges():
    """For the compiled backend ``runs`` counts the edges decided, with or
    without a run: every edge of a chain, half of them skipped."""
    stats = {}
    assert exists_unstable_popular(chain_instance(200), stats=stats, backend="compiled") is None
    assert stats == {"backend": "compiled", "runs": 200}


@pytest.mark.skipif(_gs.find_compiler() is None, reason="no C compiler (cc) on PATH")
def test_probe_build_is_private_and_reused(tmp_path):
    cache = tmp_path / "popmatch"
    lib = _gs.build_probe(cache)
    assert lib.parent == cache and lib.name.startswith("probe-")
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    assert not lib.stat().st_mode & 0o022
    assert list(cache.iterdir()) == [lib]  # no temporary left behind
    mtime = lib.stat().st_mtime_ns
    assert _gs.build_probe(cache) == lib
    assert lib.stat().st_mtime_ns == mtime


def test_probe_refuses_shared_cache_dir(tmp_path):
    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o777)
    with pytest.raises(_gs.ProbeUnavailable, match="writable by another user"):
        _gs.build_probe(shared)
    assert list(shared.iterdir()) == []


def test_probe_build_names_missing_compiler(tmp_path, monkeypatch):
    monkeypatch.setattr(_gs, "find_compiler", lambda: None)
    with pytest.raises(_gs.ProbeUnavailable, match="C compiler"):
        _gs.build_probe(tmp_path / "popmatch")


def test_auto_backend_tries_compiled_then_falls_back(fig1, monkeypatch):
    """"auto" hands every input to the compiled probe, small or large."""
    chain = chain_instance(200)
    want = {}
    for inst in (fig1, chain):
        want[inst] = {}
        exists_unstable_popular(inst, stats=want[inst], backend="python")
    assert want[chain]["runs"] == 200 and want[fig1]["runs"] < len(fig1.edges)

    monkeypatch.setattr(_gs, "probe_edges_compiled", _gs.probe_edges_python)
    for inst in (fig1, chain):
        stats = {}
        found = exists_unstable_popular(inst, stats=stats)
        assert stats == {"backend": "compiled", "runs": want[inst]["runs"]}
        assert found == exists_unstable_popular(inst, backend="python")

    calls = []

    def unavailable(view, order):
        calls.append(len(order))
        raise _gs.ProbeUnavailable("no compiler here")

    monkeypatch.setattr(_gs, "probe_edges_compiled", unavailable)
    for inst in (fig1, chain):
        stats = {}
        exists_unstable_popular(inst, stats=stats)
        assert stats == want[inst] and stats["backend"] == "python"
    assert calls == [len(fig1.edges), 200]
    with pytest.raises(RuntimeError, match="no compiler here"):
        exists_unstable_popular(fig1, backend="compiled")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 5), st.integers(2, 5))
def test_transformations(seed, na, nb):
    """Both directions of the popular-matching repair kit, oracle-driven."""
    rng = random.Random(seed)
    inst = random_marriage(rng, na, nb, rng.uniform(0.3, 1.0))
    rep = classify_exhaustive(inst, cap=16)
    for p in rep.popular:
        w = find_witness_small(inst, p)
        assert w is not None
        if not is_stable(inst, p)[0]:
            mstar, beta = to_unstable_dominant(inst, p, w)
            assert is_dominant(inst, mstar)
            assert not is_stable(inst, mstar)[0]
            assert verify_witness(inst, mstar, beta)[0]
        if not is_dominant(inst, p):
            s = to_nondominant_stable(inst, p, w)
            assert is_stable(inst, s)[0]
            assert not is_dominant(inst, s)


def test_witnesses_and_transformations_past_enumeration():
    """Witnesses and transformations on 12 to 30 vertices, past the oracle's reach.

    On the stable, dominant, unstable-popular and random maximal matchings
    of seeded instances, a witness exists exactly when the structure test
    says popular, every witness verifies, and both transformations succeed
    wherever they apply.
    """
    rng = random.Random(7)
    counts = dict.fromkeys(("popular", "unpopular", "to_dominant", "to_stable"), 0)
    for _ in range(150):
        na = rng.randint(6, 15)
        nb = rng.randint(max(6, na - 2), min(15, na + 2))
        inst = random_marriage(rng, na, nb, rng.uniform(0.3, 1.0))
        candidates = [gale_shapley(inst), solve_dominant(inst)[0], exists_unstable_popular(inst)]
        candidates += [random_maximal_matching(rng, inst) for _ in range(4)]
        for m in candidates:
            if m is None:  # no unstable popular matching
                continue
            w = find_witness_small(inst, m)
            assert (w is not None) is is_popular_structure(inst, m)[0], (inst, m)
            if w is None:
                counts["unpopular"] += 1
                continue
            counts["popular"] += 1
            assert verify_witness(inst, m, w)[0], (inst, m, w)
            if not is_stable(inst, m)[0]:
                mstar, beta = to_unstable_dominant(inst, m, w)
                assert is_dominant(inst, mstar) and not is_stable(inst, mstar)[0]
                assert verify_witness(inst, mstar, beta)[0]
                counts["to_dominant"] += 1
            if not is_dominant(inst, m):
                s = to_nondominant_stable(inst, m, w)
                assert is_stable(inst, s)[0] and not is_dominant(inst, s)
                counts["to_stable"] += 1
    assert min(counts.values()) > 0, counts


def test_transformations_reject_wrong_inputs(fig1, m1, m2):
    w1 = find_witness_small(fig1, m1)
    w2 = find_witness_small(fig1, m2)
    with pytest.raises(ValueError):
        to_unstable_dominant(fig1, m1, w1)  # m1 is stable
    with pytest.raises(ValueError):
        to_nondominant_stable(fig1, m2, w2)  # m2 is dominant


def test_transformations_check_the_witness_first(fig1, m1, m2):
    """A witness that does not verify is refused before the matching is
    looked at, even where the matching itself would be refused too."""
    zeros = dict.fromkeys(fig1.vertices, 0)  # (a1, b1) blocks m2, so it fails there
    ones = dict.fromkeys(fig1.vertices, 1)  # sums to 6, not 0
    with pytest.raises(ValueError, match="witness does not verify"):
        to_unstable_dominant(fig1, m1, ones)
    with pytest.raises(ValueError, match="witness does not verify"):
        to_nondominant_stable(fig1, m2, zeros)
    with pytest.raises(ValueError, match="matching is stable"):
        to_unstable_dominant(fig1, m1, zeros)
    with pytest.raises(ValueError, match="matching is dominant"):
        to_nondominant_stable(fig1, m2, find_witness_small(fig1, m2))


def test_split_refuses_a_witness_that_is_not_tight(fig1, m1, monkeypatch):
    """A witness that verifies is tight on every matching edge; the split
    still refuses one that is not, should the checker ever let it through."""
    loose = dict.fromkeys(fig1.vertices, 0)
    loose["a1"] = 1  # a1 b1 sums to 1
    monkeypatch.setattr(classify, "verify_witness", lambda inst, m, w: (True, []))
    with pytest.raises(ValueError, match=r"witness is not tight on matching edge \(a1, b1\)"):
        to_nondominant_stable(fig1, m1, loose)

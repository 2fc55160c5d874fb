"""The class-collapse decision and the two matching transformations."""

import random
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popmatch import _gs
from popmatch.classify import (
    exists_unstable_popular,
    exists_unstable_popular_pairwise,
    to_nondominant_stable,
    to_unstable_dominant,
)
from popmatch.engine import gale_shapley, solve_dominant
from popmatch.gen import chain_instance, random_marriage, random_maximal_matching
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
    """Stack-ordered C kernel and heap-ordered reference pick the same edge."""
    rng = random.Random(23)
    hits = 0
    for _ in range(200):
        inst = random_marriage(rng, rng.randint(1, 8), rng.randint(1, 8), rng.uniform(0.3, 1.0))
        view = _gs.expansion_view(inst)
        arrays = _gs.expansion_probes(inst)
        hit = _gs.probe_edges_python(view, *arrays)
        assert _gs.probe_edges_compiled(view, *arrays) == hit
        hits += hit >= 0
    assert hits > 0  # the sample exercises the accepting path too


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

    calls = []

    def kernel(view, *arrays):  # the reference stands in for the C kernel
        calls.append(len(arrays[0]))
        return _gs.probe_edges_python(view, *arrays)

    monkeypatch.setattr(_gs, "probe_edges_compiled", kernel)
    for inst in (fig1, chain):
        stats = {}
        exists_unstable_popular(inst, stats=stats)
        assert stats == {"backend": "compiled", "runs": want[inst]["runs"]}
    assert calls == [len(fig1.edges), 200]

    def unavailable(view, *arrays):
        calls.append(len(arrays[0]))
        raise _gs.ProbeUnavailable("no compiler here")

    calls.clear()
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

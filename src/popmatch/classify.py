"""Witness-driven decomposition, transformations, and the quadratic decision.

A valid witness splits the vertices into the zero part and the plus/minus
part, and splits the matching with them.  The two transformations re-solve
one part while keeping the other fixed: ``to_unstable_dominant`` reruns the
expansion of the zero part seeded with its matched pairs, and
``to_nondominant_stable`` reruns the plus/minus part directly, seeded with
the matched pairs that point from minus side A to plus side B.

``exists_unstable_popular`` decides whether some popular matching has a
blocking edge.  For each original edge (a, b) it runs one constrained
proposal round in the expansion where b's receiving copy accepts only its
dummy and a's proposing copy starts just below b, then applies the
acceptance checks on the output.  The first accepted edge yields the
projected matching, which that edge blocks.  The edge-pair variant is the
cubic cross-check over pairs of strictly-worse neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _gs
from .engine import gale_shapley
from .model import Instance, Matching
from .popularity import Witness, is_dominant, is_stable, verify_witness

__all__ = [
    "WitnessDecomposition",
    "decompose",
    "to_unstable_dominant",
    "to_nondominant_stable",
    "exists_unstable_popular",
    "exists_unstable_popular_pairwise",
]


@dataclass(frozen=True)
class WitnessDecomposition:
    a0: frozenset[str]
    b0: frozenset[str]
    a1: frozenset[str]
    a_minus1: frozenset[str]
    b1: frozenset[str]
    b_minus1: frozenset[str]
    m0: tuple[tuple[str, str], ...]
    m1: tuple[tuple[str, str], ...]


def decompose(inst: Instance, m: Matching, w: Witness) -> WitnessDecomposition:
    """Split vertices and matching edges by witness value.

    The witness must verify; a valid witness is automatically tight on
    matching edges, so each matching edge lands in the zero part or joins
    opposite signs.
    """
    ok, bad = verify_witness(inst, m, w)
    if not ok:
        raise ValueError(f"witness does not verify: {bad[:4]}")
    sides = {"A": {-1: set(), 0: set(), 1: set()}, "B": {-1: set(), 0: set(), 1: set()}}
    for u in inst.vertices:
        sides[inst.side[u]][w[u]].add(u)
    m0 = []
    m1 = []
    for a, b in m.edges:
        if w[a] + w[b] != 0:
            raise ValueError(f"witness is not tight on matching edge ({a}, {b})")
        (m0 if w[a] == 0 else m1).append((a, b))
    return WitnessDecomposition(
        a0=frozenset(sides["A"][0]),
        b0=frozenset(sides["B"][0]),
        a1=frozenset(sides["A"][1]),
        a_minus1=frozenset(sides["A"][-1]),
        b1=frozenset(sides["B"][1]),
        b_minus1=frozenset(sides["B"][-1]),
        m0=tuple(m0),
        m1=tuple(m1),
    )


def to_unstable_dominant(
    inst: Instance, m: Matching, w: Witness
) -> tuple[Matching, Witness]:
    """Turn an unstable popular matching into a dominant one.

    The zero part is re-solved through its expansion, seeded with the
    existing zero-part pairs on their plus/minus copies; the plus/minus part
    is kept.  The blocking edge of the input still blocks the output.
    """
    dec = decompose(inst, m, w)
    stable, _ = is_stable(inst, m)
    if stable:
        raise ValueError("matching is stable; nothing to transform")
    zero = dec.a0 | dec.b0
    g0 = inst.restrict(zero)
    slot = _gs.side_index(g0)
    seeds = [(2 * slot[a], 2 * slot[b] + 1) for a, b in dec.m0]  # (a+, b-)
    res = _gs.run_proposals(_gs.expansion_view(g0), seeds=seeds)
    d, beta0 = _gs.project_expansion(g0, res.prop_partner)
    mstar = Matching(inst, list(dec.m1) + list(d.edges))
    beta = {u: w[u] for u in inst.vertices if u not in zero}
    beta.update(beta0)
    return mstar, beta


def to_nondominant_stable(inst: Instance, m: Matching, w: Witness) -> Matching:
    """Turn a non-dominant popular matching into a stable one.

    The plus/minus part is re-solved by a plain proposal run seeded with the
    pairs from minus-A to plus-B vertices; the zero-part pairs are kept.
    """
    dec = decompose(inst, m, w)
    if is_dominant(inst, m):
        raise ValueError("matching is dominant; nothing to transform")
    pm = dec.a1 | dec.a_minus1 | dec.b1 | dec.b_minus1
    g1 = inst.restrict(pm)
    seed = Matching(
        g1, [(a, b) for a, b in dec.m1 if a in dec.a_minus1]
    )
    s = gale_shapley(g1, seed)
    return Matching(inst, list(dec.m0) + list(s.edges))


# ---------------------------------------------------------------------------
# the quadratic decision


def exists_unstable_popular(
    inst: Instance, stats: dict | None = None, backend: str = "auto"
) -> Matching | None:
    """A popular (in fact dominant) matching with a blocking edge, or None.

    Scans edges in file order and returns the projection for the first edge
    whose constrained run passes the acceptance checks; None certifies that
    every popular matching of the instance is stable.  The probe runs on the
    compiled expansion.  ``backend`` may force "python" (the reference
    probe) or "compiled" (the C kernel, built on first use with the system C
    compiler; raises RuntimeError naming the missing compiler or the build
    error).  "auto" uses the compiled probe on every input and falls back to
    Python only when the kernel cannot be built or loaded here, which is
    decided once per process.  ``stats`` receives the run count and the
    backend that ran.
    """
    inst.require_marriage("the unstable-popular decision")
    if backend not in ("auto", "python", "compiled"):
        raise ValueError(f"unknown backend {backend!r}")
    view = _gs.expansion_view(inst)
    arrays = _gs.expansion_probes(inst)
    m_edges = len(inst.edges)

    hit = None
    if backend != "python":
        try:
            hit = _gs.probe_edges_compiled(view, *arrays)
        except _gs.ProbeUnavailable:
            if backend == "compiled":
                raise
    if hit is not None:
        if stats is not None:
            stats["backend"] = "compiled"
            stats["runs"] = m_edges if hit < 0 else hit + 1
    else:
        counter = [0]
        hit = _gs.probe_edges_python(view, *arrays, counter=counter)
        if stats is not None:
            stats["backend"] = "python"
            stats["runs"] = counter[0]

    if hit < 0:
        return None
    res = _gs.run_proposals(
        view,
        start_rel={arrays[0][hit]: arrays[5][hit]},
        cutoff={arrays[4][hit]: 1},
    )
    return _gs.project_expansion(inst, res.prop_partner)[0]


def exists_unstable_popular_pairwise(inst: Instance) -> Matching | None:
    """Cubic cross-check: try every (worse, worse) neighbor pair per edge.

    For edge (a, b) and neighbors v, u strictly worse than b, a in the
    respective lists, one run asks for a stable expansion matching holding
    both (a+, v-) and (u-, b+); cutoffs keep the receiving copies at least
    that good.  Verdicts always agree with the quadratic scan.
    """
    inst.require_marriage("the unstable-popular decision")
    view = _gs.expansion_view(inst)
    slot = _gs.side_index(inst)
    rank = inst.rank
    for a, b in inst.edges:
        pb = inst.prefs[b]
        a_plus = 2 * slot[a]
        b_plus = 2 * slot[b]
        for v in inst.prefs[a][rank[a][b] :]:
            v_minus = 2 * slot[v] + 1
            cut_v = rank[v][a] + 1
            for u in pb[rank[b][a] :]:
                u_minus = 2 * slot[u] + 1
                cut_b = rank[b][u]
                res = _gs.run_proposals(
                    view, cutoff={v_minus: cut_v, b_plus: cut_b}
                )
                if res.prop_partner[a_plus] != v_minus:
                    continue
                if res.prop_partner[u_minus] != b_plus:
                    continue
                if not _gs.output_is_stable(view, res):
                    continue
                return _gs.project_expansion(inst, res.prop_partner)[0]
    return None

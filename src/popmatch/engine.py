"""Seeded proposals, the three-copy expansion, and dominant matchings.

``gale_shapley`` runs the deferred-acceptance loop with side A proposing.
Free proposers are processed lowest id first and each walks down its list,
so runs are fully deterministic.  Unseeded, the output is the
proposer-optimal stable matching.  A run may start from a seed matching; a
seeded pair dissolves only when the responder receives an offer it
prefers, and the dumped proposer then starts proposing from the top of its
list.  With a seed the stability guarantee is the seeded protocol itself,
not stability in general; the two seeded runs used by the transformation
algorithms are stable by construction and the tests check exactly those.

The three-copy expansion G' of a marriage instance has three copies of
each original vertex u: the outgoing copy ``u+`` ranks the incoming copies
of u's neighbors in u's order and its own dummy ``d(u)`` last; the incoming
copy ``u-`` ranks the dummy first and then the outgoing copies; the dummy
prefers ``u+`` to ``u-``.  Each original edge (a,b) appears as (a+,b-) and
(a-,b+).  Stable matchings of the expansion project to dominant matchings
of the original, and which copy of a vertex is matched encodes its witness
value.

G' is compiled once, by index arithmetic, in ``_gs.expansion_view``.  The
i-th vertex of side A and the j-th of side B get the proposer ids a+ = 2i,
a- = 2i+1 and responder id d(a) = 2|B|+i, and the responder ids b+ = 2j,
b- = 2j+1 and proposer id d(b) = 2|A|+j.  ``solve_dominant`` and the
classifier run on these ids and map a matching back by the same arithmetic,
never naming a copy.  ``build_gprime`` is the naming layer over the
compiled form: it names the ids in that order (a+, a- per a, then d(b) per
b, then b+, b- per b, then d(a) per a) and reads each list off the view.

The expansion of a valid instance is valid by construction, so it is built
without re-running the instance checks.  Copy names cannot collide: a valid
identifier has no whitespace, ``:`` or ``#``, so neither do its copies, and
``u+``, ``u-`` and ``d(u)`` end in three distinct characters, each copy
kind being one-to-one in ``u``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _gs
from .model import Instance, Matching

__all__ = [
    "GPrime",
    "gale_shapley",
    "build_gprime",
    "solve_dominant",
]


def gale_shapley(inst: Instance, seed: Matching | None = None) -> Matching:
    """Deferred acceptance with side A proposing, starting from ``seed``.

    Unseeded, the result is the proposer-optimal stable matching.
    """
    view = _gs.compile_view(inst)
    seeds = None
    if seed is not None:
        if seed.instance is not inst and seed.instance != inst:
            raise ValueError("seed matching belongs to a different instance")
        slot = _gs.side_index(inst)
        seeds = [(slot[a], slot[b]) for a, b in seed.edges]
    res = _gs.run_proposals(view, seeds=seeds)
    side_a, side_b = inst.side_a(), inst.side_b()
    pairs = [(side_a[p], side_b[r]) for p, r in enumerate(res.prop_partner) if r >= 0]
    return Matching(inst, pairs)


@dataclass(frozen=True)
class GPrime:
    """The expansion instance plus maps back to the original.

    ``edge_origin`` sends each expansion edge between copies of two distinct
    original vertices to ``(original_edge, sign)`` where sign "+" means the
    edge uses the first endpoint's outgoing copy.  Dummy edges do not appear
    in the map.
    """

    original: Instance
    instance: Instance
    plus: dict[str, str]
    minus: dict[str, str]
    dummy: dict[str, str]
    edge_origin: dict[tuple[str, str], tuple[tuple[str, str], str]]

    def project(self, m_exp: Matching) -> Matching:
        """The original-graph matching encoded by an expansion matching."""
        pairs = [self.edge_origin[e][0] for e in m_exp.edges if e in self.edge_origin]
        return Matching(self.original, pairs)

    def witness(self, m_exp: Matching) -> dict[str, int]:
        """+1 / -1 / 0 per original vertex by which copy is matched."""
        w: dict[str, int] = {}
        for u in self.original.vertices:
            if self._copy_matched(m_exp, self.plus[u], u):
                w[u] = 1
            elif self._copy_matched(m_exp, self.minus[u], u):
                w[u] = -1
            else:
                w[u] = 0
        return w

    def _copy_matched(self, m_exp: Matching, copy: str, u: str) -> bool:
        p = m_exp.partner(copy)
        return p is not None and p != self.dummy[u]


def build_gprime(inst: Instance) -> GPrime:
    """The expansion as a named instance (cached on the instance)."""
    view = _gs.expansion_view(inst)
    cached = getattr(inst, "_gprime", None)
    if cached is not None:
        return GPrime(inst, *cached)

    plus = {u: f"{u}+" for u in inst.vertices}
    minus = {u: f"{u}-" for u in inst.vertices}
    dummy = {u: f"d({u})" for u in inst.vertices}
    side_a, side_b = inst.side_a(), inst.side_b()
    props = [copy[a] for a in side_a for copy in (plus, minus)] + [dummy[b] for b in side_b]
    resps = [copy[b] for b in side_b for copy in (plus, minus)] + [dummy[a] for a in side_a]

    off, adj, crossrank = view.off, view.adj, view.crossrank
    prefs: dict[str, list[str]] = {}
    ranked: list[list[tuple[int, str]]] = [[] for _ in resps]
    for p, name in enumerate(props):
        slots = range(off[p], off[p + 1])
        prefs[name] = [resps[adj[k]] for k in slots]
        for k in slots:
            ranked[adj[k]].append((crossrank[k], name))
    for r, name in enumerate(resps):
        prefs[name] = [q for _, q in sorted(ranked[r])]
    side = dict.fromkeys(props, "A") | dict.fromkeys(resps, "B")
    gpi = Instance._checked("marriage", props + resps, prefs, side)

    edge_origin: dict[tuple[str, str], tuple[tuple[str, str], str]] = {}
    for a, b in inst.edges:  # a is on side A, and so are its copies
        edge_origin[(plus[a], minus[b])] = ((a, b), "+")
        edge_origin[(minus[a], plus[b])] = ((a, b), "-")

    # The cache holds no reference back to ``inst``: a cycle would keep
    # every expanded instance alive until the cyclic garbage collector ran.
    inst._gprime = (gpi, plus, minus, dummy, edge_origin)
    return GPrime(inst, gpi, plus, minus, dummy, edge_origin)


def solve_dominant(inst: Instance) -> tuple[Matching, dict[str, int]]:
    """A dominant matching and its witness, via the expansion.

    The proposal run on the expansion yields its proposer-optimal stable
    matching; projecting gives a dominant matching of the original
    instance, and the matched copies give the witness values.
    """
    res = _gs.run_proposals(_gs.expansion_view(inst))
    return _gs.project_expansion(inst, res.prop_partner)

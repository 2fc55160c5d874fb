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

G' exists only in compiled form, built from ``_gs.compile_view`` by index
arithmetic: in Python by ``_gs.expansion_view``, in C by the decision's
probe kernel (``_probe.c``).  The i-th vertex of side A and the j-th
of side B get the proposer ids a+ = 2i, a- = 2i+1 and responder id
d(a) = 2|B|+i, and the responder ids b+ = 2j, b- = 2j+1 and proposer id
d(b) = 2|A|+j.
``solve_dominant``, the classifier and the transformations run on these
ids and map a matching back by the same arithmetic
(``_gs.project_expansion``), never naming a copy.
"""

from __future__ import annotations

from . import _gs
from .model import Instance, Matching

__all__ = [
    "gale_shapley",
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
    return Matching._checked(inst, pairs)


def solve_dominant(inst: Instance) -> tuple[Matching, dict[str, int]]:
    """A dominant matching and its witness, via the expansion.

    The proposal run on the expansion yields its proposer-optimal stable
    matching; projecting gives a dominant matching of the original
    instance, and the matched copies give the witness values.
    """
    res = _gs.run_proposals(_gs.expansion_view(inst))
    return _gs.project_expansion(inst, res.prop_partner)

"""Compile 3SAT formulas into matching instances.

Two builders and three post-hoc augmentations turn a normalized formula
into instances whose stable, dominant, and popular matchings encode truth
assignments:

* :func:`build_nondominant_gadget` -- one long chain threading every clause;
  satisfiable formulas correspond to stable matchings that are not dominant.
* :func:`build_stable_dominant_gadget` -- one chain per clause between shared
  end vertices; satisfiable formulas correspond to stable matchings that are
  dominant.
* :func:`augment_max_size` / :func:`augment_min_size` /
  :func:`augment_roommates` -- small attachments that shift the question to
  max-size popular, min-size popular, and roommates popular matchings.

Every literal occurrence owns a private four-vertex gadget which any stable
matching pairs up internally in one of two ways; that binary state is the
truth value. A single consistency edge per positive occurrence links it to
the gadget of the variable's negation and is never used by a stable matching.
:func:`assignment_to_matching` and :func:`matching_to_assignment` convert
between the two representations.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .model import Instance, Matching

__all__ = [
    "CnfFormula",
    "NormalizedFormula",
    "GadgetMap",
    "parse_dimacs",
    "normalize_3sat",
    "build_nondominant_gadget",
    "build_stable_dominant_gadget",
    "augment_max_size",
    "augment_min_size",
    "augment_roommates",
    "assignment_to_matching",
    "matching_to_assignment",
]


class CnfFormula:
    """A CNF formula over variables ``1..num_vars``.

    Clauses are tuples of signed 1-based literals (``-3`` is the negation of
    variable 3). Empty clauses and out-of-range literals are rejected.
    """

    def __init__(self, num_vars: int, clauses: Iterable[Sequence[int]]):
        if num_vars < 1:
            raise ValueError("a formula needs at least one variable")
        out: list[tuple[int, ...]] = []
        for i, cl in enumerate(clauses, start=1):
            lits = tuple(cl)
            if not lits:
                raise ValueError(f"clause {i} is empty")
            for lit in lits:
                if lit == 0 or abs(lit) > num_vars:
                    raise ValueError(f"clause {i} uses undeclared literal {lit}")
            out.append(lits)
        self.num_vars = num_vars
        self.clauses: tuple[tuple[int, ...], ...] = tuple(out)

    def __repr__(self) -> str:
        return f"CnfFormula({self.num_vars}, {[list(c) for c in self.clauses]})"


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text.

    Expects a ``p cnf <vars> <clauses>`` header; clause data is a stream of
    integers where 0 terminates a clause (clauses may span lines). Lines
    starting with ``c`` are comments.
    """
    header: tuple[int, int] | None = None
    tokens: list[tuple[str, int]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ValueError(f"line {ln}: duplicate 'p cnf' header")
            parts = line.split()
            try:
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ValueError
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise ValueError(f"line {ln}: malformed header {line!r}") from None
            continue
        if header is None:
            raise ValueError(f"line {ln}: clause data before the 'p cnf' header")
        tokens.extend((tok, ln) for tok in line.split())
    if header is None:
        raise ValueError("missing 'p cnf' header")

    clauses: list[list[int]] = []
    cur: list[int] = []
    for tok, ln in tokens:
        try:
            lit = int(tok)
        except ValueError:
            raise ValueError(f"line {ln}: non-integer token {tok!r}") from None
        if lit == 0:
            clauses.append(cur)
            cur = []
        else:
            cur.append(lit)
    if cur:
        raise ValueError("last clause is not zero-terminated")
    if len(clauses) != header[1]:
        raise ValueError(
            f"header declares {header[1]} clauses, found {len(clauses)}"
        )
    return CnfFormula(header[0], clauses)


class NormalizedFormula:
    """A positive-form 3SAT formula over ``2n`` variables.

    Variables ``1..n`` are the originals; variable ``n+i`` stands for the
    complement of ``i``. The explicit clauses (``positive_clauses``) hold
    2 or 3 positive literals each. For every ``i`` the formula additionally
    carries the implicit negative clause "not i or not (n+i)", so each
    negated variable occurs exactly once overall. Clauses are numbered
    globally from 1: positives first, then the ``n`` negative clauses.
    """

    def __init__(self, num_original: int, positive_clauses: Iterable[Sequence[int]]):
        if num_original < 1:
            raise ValueError("a formula needs at least one variable")
        self.num_original = num_original
        limit = 2 * num_original
        out: list[tuple[int, ...]] = []
        for i, cl in enumerate(positive_clauses, start=1):
            lits = tuple(cl)
            if not 2 <= len(lits) <= 3:
                raise ValueError(
                    f"positive clause {i} has {len(lits)} literals, want 2 or 3"
                )
            for lit in lits:
                if not 1 <= lit <= limit:
                    raise ValueError(f"positive clause {i} uses bad literal {lit}")
            out.append(lits)
        self.positive_clauses: tuple[tuple[int, ...], ...] = tuple(out)

    @property
    def num_variables(self) -> int:
        return 2 * self.num_original

    @property
    def num_positive(self) -> int:
        return len(self.positive_clauses)

    @property
    def num_clauses(self) -> int:
        return self.num_positive + self.num_original

    @property
    def negative_clauses(self) -> tuple[tuple[int, int], ...]:
        """Variable pairs (i, n+i); clause num_positive+i negates both."""
        n = self.num_original
        return tuple((i, n + i) for i in range(1, n + 1))

    def is_positive(self, clause: int) -> bool:
        return 1 <= clause <= self.num_positive

    def clause_vars(self, clause: int) -> tuple[int, ...]:
        """The variables under the 1-based global clause index.

        For a negative clause these are the two variables whose negations
        the clause contains.
        """
        if self.is_positive(clause):
            return self.positive_clauses[clause - 1]
        i = clause - self.num_positive
        if not 1 <= i <= self.num_original:
            raise ValueError(f"no clause {clause}")
        return (i, self.num_original + i)

    def occurrences(self, x: int) -> list[tuple[int, int]]:
        """(clause, position) of every positive occurrence of ``x``, ascending."""
        hits: list[tuple[int, int]] = []
        for k, cl in enumerate(self.positive_clauses, start=1):
            for j, lit in enumerate(cl, start=1):
                if lit == x:
                    hits.append((k, j))
        return hits

    def neg_gadget(self, x: int) -> tuple[int, int]:
        """(clause, position) of the unique occurrence of ``x``'s negation."""
        n = self.num_original
        if not 1 <= x <= 2 * n:
            raise ValueError(f"no variable {x}")
        i = x if x <= n else x - n
        return (self.num_positive + i, 1 if x <= n else 2)

    def __repr__(self) -> str:
        return (
            f"NormalizedFormula(n={self.num_original}, "
            f"positive={[list(c) for c in self.positive_clauses]})"
        )


def normalize_3sat(f: CnfFormula) -> NormalizedFormula:
    """Rewrite ``f`` so that every negation occurs exactly once.

    Each occurrence of ``-i`` becomes the fresh variable ``n+i`` and the
    clause ``(i or n+i)`` is appended for every variable; together with the
    implicit "not both" clauses of the result, exactly one of ``i`` and
    ``n+i`` is true in any model, so satisfiability is preserved. Clauses
    must have 2 or 3 literals; single-literal clauses are rejected because
    the gadget chain has no slot for them.
    """
    n = f.num_vars
    pos: list[tuple[int, ...]] = []
    for idx, cl in enumerate(f.clauses, start=1):
        if not 2 <= len(cl) <= 3:
            raise ValueError(
                f"clause {idx} has {len(cl)} literals; only 2 or 3 are supported"
            )
        pos.append(tuple(lit if lit > 0 else n - lit for lit in cl))
    pos.extend((i, n + i) for i in range(1, n + 1))
    return NormalizedFormula(n, pos)


class GadgetMap(NamedTuple):
    """Where each piece of a compiled formula lives in the instance.

    ``gadgets`` maps the 1-based (clause, literal position) to the four
    gadget vertices in order (a, b, a', b') for positive clauses and
    (c, d, c', d') for negative ones. ``basic_edges`` is the chain spine
    every stable matching contains; ``consistency_edges`` link each positive
    occurrence to its variable's negation gadget and are never matched.
    ``specials`` names distinguished vertices by role.
    """

    instance: Instance
    gadgets: Mapping[tuple[int, int], tuple[str, str, str, str]]
    basic_edges: tuple[tuple[str, str], ...]
    consistency_edges: tuple[tuple[str, str], ...]
    specials: Mapping[str, str]


def _gadget_names(clause: int, pos: int, negative: bool) -> tuple[str, str, str, str]:
    stem = "cd" if negative else "ab"
    return (
        f"{stem[0]}{clause}_{pos}",
        f"{stem[1]}{clause}_{pos}",
        f"{stem[0]}p{clause}_{pos}",
        f"{stem[1]}p{clause}_{pos}",
    )


def build_nondominant_gadget(nf: NormalizedFormula) -> tuple[Instance, GadgetMap]:
    """Compile ``nf`` into the single-chain instance.

    A chain u0-v0-u1-v1-...-uK-vK threads the clauses in order, with the
    gadgets of clause k sitting between v(k-1) and uk. The pendant vertices
    s and t are unmatched in every stable matching, and the instance has a
    stable matching admitting an augmenting path (stable but not dominant)
    exactly when ``nf`` is satisfiable.
    """
    K = nf.num_clauses
    order: list[str] = []
    side: dict[str, str] = {}
    prefs: dict[str, list[str]] = {}
    gadgets: dict[tuple[int, int], tuple[str, str, str, str]] = {}

    def add(name: str, s: str) -> None:
        order.append(name)
        side[name] = s

    add("s", "B")
    add("u0", "A")
    add("v0", "B")
    for k in range(1, K + 1):
        negative = not nf.is_positive(k)
        for j in range(1, len(nf.clause_vars(k)) + 1):
            names = _gadget_names(k, j, negative)
            for nm, sd in zip(names, "ABAB"):
                add(nm, sd)
            gadgets[(k, j)] = names
        add(f"u{k}", "A")
        add(f"v{k}", "B")
    add("t", "A")

    prefs["s"] = ["u0"]
    prefs["u0"] = ["v0", "s"]
    for k in range(1, K + 1):
        members = nf.clause_vars(k)
        quads = [gadgets[(k, j)] for j in range(1, len(members) + 1)]
        if nf.is_positive(k):
            prefs[f"u{k}"] = [q[1] for q in quads] + [f"v{k}"]
            prefs[f"v{k - 1}"] = [f"u{k - 1}"] + [q[0] for q in quads]
            for x, (a, b, ap, bp) in zip(members, quads):
                d_neg = gadgets[nf.neg_gadget(x)][1]
                prefs[a] = [b, d_neg, f"v{k - 1}", bp]
                prefs[ap] = [bp, b]
                prefs[b] = [ap, a, f"u{k}"]
                prefs[bp] = [a, ap]
        else:
            prefs[f"u{k}"] = [f"v{k}"] + [q[1] for q in quads]
            prefs[f"v{k - 1}"] = [q[0] for q in quads] + [f"u{k - 1}"]
            for x, (c, d, cp, dp) in zip(members, quads):
                a_occs = [gadgets[occ][0] for occ in nf.occurrences(x)]
                prefs[c] = [d, dp, f"v{k - 1}"]
                prefs[cp] = [dp, d]
                prefs[d] = [cp] + a_occs + [f"u{k}", c]
                prefs[dp] = [c, cp]
    prefs[f"v{K}"] = [f"u{K}", "t"]
    prefs["t"] = [f"v{K}"]

    inst = Instance("marriage", order, prefs, side)
    basic = tuple((f"u{i}", f"v{i}") for i in range(K + 1))
    consistency = tuple(
        (gadgets[(k, j)][0], gadgets[nf.neg_gadget(x)][1])
        for k in range(1, nf.num_positive + 1)
        for j, x in enumerate(nf.clause_vars(k), start=1)
    )
    gm = GadgetMap(inst, gadgets, basic, consistency, {"s": "s", "t": "t"})
    return inst, gm


def build_stable_dominant_gadget(nf: NormalizedFormula) -> tuple[Instance, GadgetMap]:
    """Compile ``nf`` into the per-clause-chain instance.

    Every clause k gets its own chain uk_0-vk_0-...-uk_r-vk_r between the
    shared pendant vertices s and t, with the clause's gadgets interleaved.
    The instance has a stable matching with no augmenting path (stable and
    dominant) exactly when ``nf`` is satisfiable.
    """
    K = nf.num_clauses
    order: list[str] = []
    side: dict[str, str] = {}
    prefs: dict[str, list[str]] = {}
    gadgets: dict[tuple[int, int], tuple[str, str, str, str]] = {}

    def add(name: str, s: str) -> None:
        order.append(name)
        side[name] = s

    add("s", "B")
    for k in range(1, K + 1):
        negative = not nf.is_positive(k)
        add(f"u{k}_0", "A")
        add(f"v{k}_0", "B")
        for j in range(1, len(nf.clause_vars(k)) + 1):
            names = _gadget_names(k, j, negative)
            for nm, sd in zip(names, "ABAB"):
                add(nm, sd)
            gadgets[(k, j)] = names
            add(f"u{k}_{j}", "A")
            add(f"v{k}_{j}", "B")
    add("t", "A")

    prefs["s"] = [f"u{k}_0" for k in range(1, K + 1)]
    prefs["t"] = [f"v{k}_{len(nf.clause_vars(k))}" for k in range(1, K + 1)]
    for k in range(1, K + 1):
        members = nf.clause_vars(k)
        r = len(members)
        prefs[f"u{k}_0"] = [f"v{k}_0", "s"]
        prefs[f"v{k}_{r}"] = [f"u{k}_{r}", "t"]
        for j, x in enumerate(members, start=1):
            quad = gadgets[(k, j)]
            if nf.is_positive(k):
                a, b, ap, bp = quad
                c_neg = gadgets[nf.neg_gadget(x)][0]
                prefs[a] = [b, f"v{k}_{j - 1}", bp]
                prefs[ap] = [bp, b]
                prefs[b] = [ap, c_neg, a, f"u{k}_{j}"]
                prefs[bp] = [a, ap]
                prefs[f"u{k}_{j}"] = [b, f"v{k}_{j}"]
                prefs[f"v{k}_{j - 1}"] = [f"u{k}_{j - 1}", a]
            else:
                c, d, cp, dp = quad
                b_occs = [gadgets[occ][1] for occ in nf.occurrences(x)]
                prefs[c] = [d] + b_occs + [dp, f"v{k}_{j - 1}"]
                prefs[cp] = [dp, d]
                prefs[d] = [cp, f"u{k}_{j}", c]
                prefs[dp] = [c, cp]
                prefs[f"u{k}_{j}"] = [f"v{k}_{j}", d]
                prefs[f"v{k}_{j - 1}"] = [c, f"u{k}_{j - 1}"]

    inst = Instance("marriage", order, prefs, side)
    basic = tuple(
        (f"u{k}_{i}", f"v{k}_{i}")
        for k in range(1, K + 1)
        for i in range(len(nf.clause_vars(k)) + 1)
    )
    consistency = tuple(
        (gadgets[(k, j)][1], gadgets[nf.neg_gadget(x)][0])
        for k in range(1, nf.num_positive + 1)
        for j, x in enumerate(nf.clause_vars(k), start=1)
    )
    gm = GadgetMap(inst, gadgets, basic, consistency, {"s": "s", "t": "t"})
    return inst, gm


def _extended(inst: Instance, fresh: Sequence[str]) -> tuple[list[str], dict[str, list[str]]]:
    for name in fresh:
        if name in inst.index:
            raise ValueError(f"instance already has a vertex named {name!r}")
    vertices = list(inst.vertices) + list(fresh)
    prefs = {u: list(inst.prefs[u]) for u in inst.vertices}
    return vertices, prefs


def augment_max_size(g4: Instance) -> Instance:
    """Attach a disjoint 4-vertex path p0-q0-p1-q1.

    p1 and q0 are each other's top choices, so the component has a stable
    matching of size 1 and a popular matching of size 2. The result has a
    non-dominant max-size popular matching exactly when the base instance
    has a non-dominant popular matching.
    """
    g4.require_marriage("augment_max_size")
    vertices, prefs = _extended(g4, ("p0", "q0", "p1", "q1"))
    prefs["p0"] = ["q0"]
    prefs["q0"] = ["p1", "p0"]
    prefs["p1"] = ["q0", "q1"]
    prefs["q1"] = ["p1"]
    side = dict(g4.side)
    side.update({"p0": "A", "p1": "A", "q0": "B", "q1": "B"})
    return Instance("marriage", vertices, prefs, side)


def augment_min_size(g5: Instance) -> Instance:
    """Add the vertex w and the square t-r-r'-t' to a per-clause-chain instance.

    w is adjacent to every d'-vertex and is everyone's last choice; the
    square hangs off t with r': r > t' and t': r' > t, r: r' > t. Stable
    matchings of the result contain (r,r') and (t,t') and leave exactly s
    and w unmatched; an unstable min-size popular matching exists exactly
    when the base instance has a stable matching that is dominant.
    """
    g5.require_marriage("augment_min_size")
    d_primes = [u for u in g5.vertices if u.startswith("dp")]
    vertices, prefs = _extended(g5, ("w", "r", "rp", "tp"))
    for dp in d_primes:
        prefs[dp].append("w")
    prefs["w"] = list(d_primes)
    prefs["t"] = prefs["t"] + ["r", "tp"]
    prefs["r"] = ["rp", "t"]
    prefs["rp"] = ["r", "tp"]
    prefs["tp"] = ["rp", "t"]
    side = dict(g5.side)
    side.update({"w": "A", "r": "B", "rp": "A", "tp": "B"})
    return Instance("marriage", vertices, prefs, side)


def augment_roommates(g5: Instance) -> Instance:
    """Wire s to every d'-vertex and hang the triangle r-r'-r'' off t.

    The result is a roommates instance with no stable matching at all (the
    triangle's cyclic preferences see to that); it admits a popular matching,
    necessarily containing (t,r) and (r',r''), exactly when the base instance
    has a stable matching that is dominant.
    """
    g5.require_marriage("augment_roommates")
    d_primes = [u for u in g5.vertices if u.startswith("dp")]
    vertices, prefs = _extended(g5, ("r", "rp", "rpp"))
    for dp in d_primes:
        prefs[dp].append("s")
    prefs["s"] = prefs["s"] + list(d_primes)
    prefs["t"] = prefs["t"] + ["r"]
    prefs["r"] = ["rp", "rpp", "t"]
    prefs["rp"] = ["rpp", "r"]
    prefs["rpp"] = ["r", "rp"]
    return Instance("roommates", vertices, prefs)


def _require_flavor(which: str) -> None:
    if which not in ("g4", "g5"):
        raise ValueError(f"unknown construction flavor {which!r}, want 'g4' or 'g5'")


def assignment_to_matching(
    nf: NormalizedFormula,
    gm: GadgetMap,
    assignment: Mapping[int, bool],
    which: str,
) -> Matching:
    """The canonical stable matching encoding ``assignment``.

    ``assignment`` must cover all ``2n`` variables with complementary pairs
    taking opposite values. ``which`` ("g4" or "g5") selects the builder
    family, because the two encode truth through opposite gadget states.
    The result contains every basic edge plus one canonical pair of edges
    per gadget and is stable in ``gm.instance``.
    """
    _require_flavor(which)
    n = nf.num_original
    for x in range(1, 2 * n + 1):
        if x not in assignment:
            raise ValueError(f"assignment is missing variable {x}")
    for i in range(1, n + 1):
        if assignment[i] == assignment[n + i]:
            raise ValueError(
                f"variables {i} and {n + i} are complements and must differ"
            )

    pairs: list[tuple[str, str]] = list(gm.basic_edges)
    for x in range(1, 2 * n + 1):
        val = assignment[x]
        for occ in nf.occurrences(x):
            a, b, ap, bp = gm.gadgets[occ]
            if (val and which == "g4") or (not val and which == "g5"):
                pairs += [(a, bp), (ap, b)]
            else:
                pairs += [(a, b), (ap, bp)]
        c, d, cp, dp = gm.gadgets[nf.neg_gadget(x)]
        if (val and which == "g4") or (not val and which == "g5"):
            pairs += [(c, dp), (cp, d)]
        else:
            pairs += [(c, d), (cp, dp)]
    return Matching(gm.instance, pairs)


def matching_to_assignment(
    nf: NormalizedFormula,
    gm: GadgetMap,
    s: Matching,
    which: str,
) -> dict[int, bool]:
    """Read the assignment encoded by a stable matching's gadget states.

    Raises if ``s`` is not stable or some gadget is matched in neither of
    its two canonical ways. The variable's value comes from its negation
    gadget, so the result always round-trips through
    :func:`assignment_to_matching`; complementary variables disagree in it
    whenever the matching witnesses satisfiability, though an arbitrary
    stable matching may value a variable and its complement identically.
    """
    from .popularity import is_stable

    _require_flavor(which)
    ok, blocking = is_stable(gm.instance, s)
    if not ok:
        raise ValueError(f"matching is not stable; {blocking} blocks it")
    for (k, j), (g0, g1, g2, g3) in sorted(gm.gadgets.items()):
        straight = s.partner(g0) == g1 and s.partner(g2) == g3
        crossed = s.partner(g0) == g3 and s.partner(g2) == g1
        if not straight and not crossed:
            raise ValueError(
                f"gadget at clause {k} position {j} is in neither canonical state"
            )
    out: dict[int, bool] = {}
    for x in range(1, 2 * nf.num_original + 1):
        c, d, cp, dp = gm.gadgets[nf.neg_gadget(x)]
        straight = s.partner(c) == d
        # g4 reads the straight pair as "x is false", g5 as "x is true"
        out[x] = not straight if which == "g4" else straight
    return out

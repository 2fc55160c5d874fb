"""Seeded benchmark inputs, generated without any popmatch code.

A :class:`Market` is a marriage instance as plain lists: side A, side B and
one strict preference list per vertex.  Every generator takes a
``random.Random`` (or nothing, when the input is fixed by construction), so
one seed always gives the same files.  The text forms written here are the
instance, matching, witness and DIMACS formats the ``popmatch`` command
reads.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field


@dataclass
class Market:
    """A marriage instance; ``prefs[u]`` lists u's neighbours, best first."""

    A: list[str]
    B: list[str]
    prefs: dict[str, list[str]]
    rank: dict[str, dict[str, int]] = field(init=False, repr=False)

    def __post_init__(self):
        self.rank = {u: {v: i for i, v in enumerate(lst)} for u, lst in self.prefs.items()}

    @property
    def vertices(self) -> list[str]:
        return self.A + self.B

    def edges(self) -> list[tuple[str, str]]:
        """Every edge once, side-A endpoint first."""
        return [(a, b) for a in self.A for b in self.prefs[a]]

    def text(self) -> str:
        lines = ["marriage", " ".join(["A"] + self.A), " ".join(["B"] + self.B)]
        lines += [f"{u}: {' '.join(self.prefs[u])}".rstrip() for u in self.vertices]
        return "\n".join(lines) + "\n"


def _market(A, B, nbrs, rng: random.Random | None) -> Market:
    """Market from neighbour sets; lists are shuffled by ``rng`` when given."""
    prefs = {}
    for u in A + B:
        lst = list(nbrs[u])
        if rng is not None:
            rng.shuffle(lst)
        prefs[u] = lst
    return Market(list(A), list(B), prefs)


def random_market(rng: random.Random, na: int, nb: int, density: float) -> Market:
    """Each of the na*nb pairs is an edge with probability ``density``."""
    A = [f"a{i}" for i in range(1, na + 1)]
    B = [f"b{j}" for j in range(1, nb + 1)]
    nbrs = {u: [] for u in A + B}
    for a in A:
        for b in B:
            if rng.random() < density:
                nbrs[a].append(b)
                nbrs[b].append(a)
    return _market(A, B, nbrs, rng)


def random_market_edges(rng: random.Random, na: int, nb: int, m: int) -> Market:
    """Exactly ``m`` edges, drawn uniformly from the na*nb pairs."""
    A = [f"a{i}" for i in range(1, na + 1)]
    B = [f"b{j}" for j in range(1, nb + 1)]
    nbrs = {u: [] for u in A + B}
    for a, b in rng.sample(list(itertools.product(A, B)), m):
        nbrs[a].append(b)
        nbrs[b].append(a)
    return _market(A, B, nbrs, rng)


def chain(m: int) -> Market:
    """The path x0-x1-...-xm; each vertex ranks its lower neighbour first.

    Every popular matching of a chain is stable, so the decision answers YES
    after probing every edge.
    """
    xs = [f"x{i}" for i in range(m + 1)]
    nbrs = {v: [xs[j] for j in (i - 1, i + 1) if 0 <= j <= m] for i, v in enumerate(xs)}
    return _market(xs[0::2], xs[1::2], nbrs, None)


def planted(rng: random.Random, n: int) -> Market:
    """a_i and b_i rank each other first; half the other pairs are edges too.

    The perfect matching {a_i b_i} gives every vertex its first choice, so it
    beats every other matching: it is the unique popular matching, and it is
    stable.  The decision answers YES.
    """
    A = [f"a{i}" for i in range(1, n + 1)]
    B = [f"b{i}" for i in range(1, n + 1)]
    rest = {u: [] for u in A + B}
    others = [(a, b) for i, a in enumerate(A) for j, b in enumerate(B) if i != j]
    for a, b in rng.sample(others, len(others) // 2):
        rest[a].append(b)
        rest[b].append(a)
    prefs = {}
    for i in range(n):
        for u, mate in ((A[i], B[i]), (B[i], A[i])):
            rng.shuffle(rest[u])
            prefs[u] = [mate] + rest[u]
    return Market(A, B, prefs)


def diamond_ladder(k: int) -> tuple[Market, list[tuple[str, str]]]:
    """An unpopular matching whose free-path search visits 2**k paths.

    The free vertex f feeds layer 1; layer i holds the matched pairs
    (ai_1, bi_1) and (ai_2, bi_2), and every a of layer i is joined to both
    b's of layer i+1.  Each b prefers the previous layer's a's to its partner
    and each a prefers its partner, so no ladder edge blocks and none is
    pruned.  A separate 4-cycle p-s-q-r carries the one blocking edge (p, s),
    which makes the matching unpopular; the certificate is that cycle.
    """
    A, B = ["f"], []
    prefs: dict[str, list[str]] = {"f": ["b1_1", "b1_2"]}
    pairs = []
    for i in range(1, k + 1):
        for x in (1, 2):
            a, b = f"a{i}_{x}", f"b{i}_{x}"
            A.append(a)
            B.append(b)
            pairs.append((a, b))
            prefs[a] = [b] + ([f"b{i + 1}_1", f"b{i + 1}_2"] if i < k else [])
            prefs[b] = ([f"a{i - 1}_1", f"a{i - 1}_2"] if i > 1 else []) + [a]
            if i == 1:
                prefs[b].append("f")
    A += ["p", "q"]
    B += ["r", "s"]
    prefs.update(p=["s", "r"], q=["s", "r"], r=["q", "p"], s=["p", "q"])
    pairs += [("p", "r"), ("q", "s")]
    return Market(A, B, prefs), pairs


def random_maximal(rng: random.Random, market: Market) -> list[tuple[str, str]]:
    """Greedy maximal matching over a shuffled edge order."""
    edges = market.edges()
    rng.shuffle(edges)
    used: set[str] = set()
    out = []
    for a, b in edges:
        if a not in used and b not in used:
            used.update((a, b))
            out.append((a, b))
    return out


def random_witness(rng: random.Random, market: Market) -> dict[str, int]:
    return {u: rng.choice((-1, 0, 1)) for u in market.vertices}


def matching_text(pairs) -> str:
    return "".join(f"{a} {b}\n" for a, b in pairs)


def witness_text(w: dict[str, int]) -> str:
    return "".join(f"{u} {v}\n" for u, v in w.items())


# -- formulas ---------------------------------------------------------------


def random_cnf(rng: random.Random, nvars: int, nclauses: int) -> list[tuple[int, ...]]:
    """Clauses of distinct variables with random signs, alternately 3 and 2 wide.

    The widths are fixed (3 is capped at ``nvars``), so the gadget built from
    the formula has the same size for every seed.
    """
    out = []
    for k in range(nclauses):
        vs = rng.sample(range(1, nvars + 1), min(nvars, 3 - k % 2))
        out.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return out


def contradiction() -> list[tuple[int, ...]]:
    """(x1 v x1) and (-x1 v -x1): the smallest unsatisfiable input the reductions take.

    Clauses need two or three literals, so the one literal is repeated.
    """
    return [(1, 1), (-1, -1)]


def dimacs_text(nvars: int, clauses) -> str:
    body = "".join(" ".join(map(str, cl)) + " 0\n" for cl in clauses)
    return f"p cnf {nvars} {len(clauses)}\n{body}"

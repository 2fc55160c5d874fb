"""Instance and matching data model, parsing, validation, serialization.

Instance file format (UTF-8 text, ``#`` starts a comment anywhere on a line):

    line 1:   ``marriage`` or ``roommates``
    line 2:   ``A <ids...>``            (marriage)   or   ``V <ids...>`` (roommates)
    line 3:   ``B <ids...>``            (marriage only)
    then one line per vertex:  ``<id>: <neighbor ids in strict preference order>``

A vertex whose preference line is omitted has an empty list.  Vertex
identifiers are opaque tokens without whitespace and without ``:`` or ``#``.

Matching file format: one ``<u> <v>`` pair per line, ``#`` comments allowed.

Identifiers are kept as strings; dense integer ids are assigned in file order
and exposed through :attr:`Instance.index` for algorithmic code.  Instances
and matchings are immutable after construction and all functions here are
pure.

Each instance is validated once.  The public ``Instance(...)`` runs every
check; ``parse_instance`` makes the same checks with line and column and
then builds through the private ``Instance._checked``, which runs only the
derivation.  That constructor is for callers whose input is valid already:
the parser, the three-copy expansion and :meth:`Instance.restrict`.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Sequence

__all__ = [
    "ParseError",
    "RankIndex",
    "Instance",
    "Matching",
    "parse_instance",
    "serialize_instance",
    "parse_matching",
    "serialize_matching",
    "matched_vertices",
]

_TOKEN = re.compile(r"\S+")

_ID_BAD = re.compile(r"[\s:#]")


class ParseError(ValueError):
    """Syntax or validation error in an instance or matching file.

    Carries the 1-based ``line`` and ``column`` of the offending token so
    callers can point at the exact spot.
    """

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _check_id(name: str) -> None:
    if not name or _ID_BAD.search(name):
        raise ValueError(f"invalid vertex identifier {name!r}")


class RankIndex:
    """Constant-time preference comparison.

    ``rank(u, v)`` is the 1-based position of ``v`` in ``u``'s list (1 is the
    best choice); ranks form a bijection onto ``1..deg(u)``.
    """

    def __init__(self, prefs: Mapping[str, Sequence[str]]):
        self._rank: dict[str, dict[str, int]] = {
            u: {v: i + 1 for i, v in enumerate(lst)} for u, lst in prefs.items()
        }

    def rank(self, u: str, v: str) -> int:
        try:
            return self._rank[u][v]
        except KeyError:
            raise ValueError(f"{v!r} is not on the preference list of {u!r}") from None

    def prefers(self, u: str, v: str, w: str) -> bool:
        """True iff ``u`` ranks ``v`` strictly better than ``w``."""
        return self.rank(u, v) < self.rank(u, w)


class Instance:
    """A strict-preference matching instance, marriage or roommates kind.

    Attributes
    ----------
    kind:      ``"marriage"`` or ``"roommates"``.
    vertices:  tuple of identifiers in file order.
    prefs:     dict vertex -> tuple of neighbors in strict preference order.
    side:      dict vertex -> ``"A"`` | ``"B"`` for marriage, else ``None``.
    index:     dict vertex -> dense integer id (file order).
    edges:     tuple of canonical edges, ordered by first appearance when
               scanning preference lists in vertex order.
    ranks:     a :class:`RankIndex` over ``prefs``.

    The constructor validates symmetry of adjacency, absence of duplicates
    and self-loops, and (for marriage) that every edge crosses sides, then
    derives the attributes in ``_derive``.  The private classmethod
    ``_checked`` runs only that derivation; it is for callers that have
    already checked their input, and an invalid input gives an invalid
    instance rather than an error.
    """

    def __init__(
        self,
        kind: str,
        vertices: Sequence[str],
        prefs: Mapping[str, Sequence[str]],
        side: Mapping[str, str] | None = None,
    ):
        if kind not in ("marriage", "roommates"):
            raise ValueError(f"unknown instance kind {kind!r}")
        if kind == "marriage":
            if side is None:
                raise ValueError("marriage instance requires side tags")
        elif side is not None:
            raise ValueError("roommates instance takes no side tags")

        verts = tuple(vertices)
        seen: set[str] = set()
        for v in verts:
            _check_id(v)
            if v in seen:
                raise ValueError(f"duplicate vertex {v!r}")
            seen.add(v)

        if side is not None:
            if set(side) != seen or any(s not in ("A", "B") for s in side.values()):
                raise ValueError("side tags must cover exactly the vertex set with A/B")

        for u in prefs:
            if u not in seen:
                raise ValueError(f"preference list for unknown vertex {u!r}")
        lists = {v: tuple(prefs.get(v, ())) for v in verts}

        for u, lst in lists.items():
            listed: set[str] = set()
            for v in lst:
                if v not in seen:
                    raise ValueError(f"{u!r} lists unknown vertex {v!r}")
                if v == u:
                    raise ValueError(f"{u!r} lists itself")
                if v in listed:
                    raise ValueError(f"{u!r} lists {v!r} twice")
                listed.add(v)
                if side is not None and side[u] == side[v]:
                    raise ValueError(f"edge ({u!r}, {v!r}) does not cross sides")

        self._derive(kind, verts, lists, side)

        adj = self.adj
        for u, lst in lists.items():
            for v in lst:
                if u not in adj[v]:
                    raise ValueError(f"asymmetric adjacency: {u!r} lists {v!r} but not back")

    @classmethod
    def _checked(
        cls,
        kind: str,
        vertices: Sequence[str],
        prefs: Mapping[str, Sequence[str]],
        side: Mapping[str, str] | None = None,
    ) -> "Instance":
        """An instance from input the caller has already validated.

        Private.  Runs the derivation of :meth:`__init__` without its
        checks, so the input must pass every one of them: callers are the
        parser (which makes the same checks with positions), the three-copy
        expansion and :meth:`restrict` (valid by construction).
        """
        inst = cls.__new__(cls)
        inst._derive(kind, vertices, prefs, side)
        return inst

    def _derive(
        self,
        kind: str,
        vertices: Sequence[str],
        prefs: Mapping[str, Sequence[str]],
        side: Mapping[str, str] | None,
    ) -> None:
        """Set every attribute from valid input; the one derivation path."""
        self.kind = kind
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.side: dict[str, str] | None = dict(side) if side is not None else None
        self.prefs: dict[str, tuple[str, ...]] = {
            v: tuple(prefs.get(v, ())) for v in self.vertices
        }
        self.index: dict[str, int] = {v: i for i, v in enumerate(self.vertices)}
        self.ranks = RankIndex(self.prefs)
        self.adj: dict[str, frozenset[str]] = {
            u: frozenset(lst) for u, lst in self.prefs.items()
        }

        # Adjacency is symmetric, so each edge is first seen while scanning
        # its lower-index endpoint.
        index = self.index
        sides = self.side
        order: list[tuple[str, str]] = []
        for u, lst in self.prefs.items():
            iu = index[u]
            for v in lst:
                if iu < index[v]:
                    order.append((u, v) if sides is None or sides[u] == "A" else (v, u))
        self.edges: tuple[tuple[str, str], ...] = tuple(order)

    # -- convenience -------------------------------------------------------

    def require_marriage(self, what: str = "this operation") -> None:
        if self.kind != "marriage":
            raise ValueError(f"{what} requires a marriage instance")

    def side_a(self) -> tuple[str, ...]:
        assert self.side is not None
        return tuple(v for v in self.vertices if self.side[v] == "A")

    def side_b(self) -> tuple[str, ...]:
        assert self.side is not None
        return tuple(v for v in self.vertices if self.side[v] == "B")

    def neighbors(self, u: str) -> tuple[str, ...]:
        return self.prefs[u]

    def degree(self, u: str) -> int:
        return len(self.prefs[u])

    def has_edge(self, u: str, v: str) -> bool:
        return v in self.adj.get(u, frozenset())

    def canonical_edge(self, u: str, v: str) -> tuple[str, str]:
        """Orient an edge: A-vertex first for marriage, lower id first otherwise."""
        if self.side is not None:
            return (u, v) if self.side[u] == "A" else (v, u)
        return (u, v) if self.index[u] < self.index[v] else (v, u)

    def restrict(self, keep: Iterable[str]) -> "Instance":
        """Induced sub-instance on ``keep``, preserving order and side tags."""
        keepset = set(keep)
        unknown = keepset - set(self.vertices)
        if unknown:
            raise ValueError(f"cannot restrict to unknown vertices {sorted(unknown)}")
        verts = [v for v in self.vertices if v in keepset]
        prefs = {u: [v for v in self.prefs[u] if v in keepset] for u in verts}
        side = {v: self.side[v] for v in verts} if self.side is not None else None
        return Instance._checked(self.kind, verts, prefs, side)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.vertices == other.vertices
            and self.prefs == other.prefs
            and self.side == other.side
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.vertices, tuple(sorted(self.prefs.items()))))

    def __repr__(self) -> str:
        return f"Instance({self.kind}, {len(self.vertices)} vertices, {len(self.edges)} edges)"


class Matching:
    """A set of pairwise disjoint instance edges plus the derived partner map."""

    def __init__(self, inst: Instance, pairs: Iterable[tuple[str, str]]):
        self.instance = inst
        edges: list[tuple[str, str]] = []
        partner: dict[str, str] = {}
        for u, v in pairs:
            if not inst.has_edge(u, v):
                raise ValueError(f"({u!r}, {v!r}) is not an edge of the instance")
            e = inst.canonical_edge(u, v)
            if e[0] in partner or e[1] in partner:
                if partner.get(e[0]) == e[1]:
                    continue  # exact duplicate pair, harmless
                raise ValueError(f"edges overlap at ({u!r}, {v!r})")
            partner[e[0]] = e[1]
            partner[e[1]] = e[0]
            edges.append(e)
        edges.sort(key=lambda e: (inst.index[e[0]], inst.index[e[1]]))
        self.edges: tuple[tuple[str, str], ...] = tuple(edges)
        self.edge_set: frozenset[tuple[str, str]] = frozenset(edges)
        self._partner = partner

    def partner(self, u: str) -> str | None:
        """The vertex matched to ``u``, or None if ``u`` is unmatched."""
        return self._partner.get(u)

    def matched_vertices(self) -> frozenset[str]:
        return frozenset(self._partner)

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def __contains__(self, edge: tuple[str, str]) -> bool:
        u, v = edge
        return self._partner.get(u) == v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self.edge_set == other.edge_set

    def __hash__(self) -> int:
        return hash(self.edge_set)

    def __repr__(self) -> str:
        inside = ", ".join(f"({u},{v})" for u, v in self.edges)
        return f"Matching{{{inside}}}"


def matched_vertices(m: Matching) -> frozenset[str]:
    """Exactly the endpoints of edges in ``m``."""
    return m.matched_vertices()


# -- parsing ---------------------------------------------------------------


def _meaningful_lines(text: str):
    """Yield (line_number, stripped_content, token_list) skipping blanks.

    Tokens are (value, column) pairs, columns 1-based, comments removed.
    """
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        toks = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(body)]
        if toks:
            yield ln, body, toks


def parse_instance(text: str) -> Instance:
    """Parse instance-file content; raises :class:`ParseError` on bad input."""
    lines = list(_meaningful_lines(text))
    if not lines:
        raise ParseError("missing kind line ('marriage' or 'roommates')", 1)
    pos = 0

    ln, _, toks = lines[pos]
    kind_tok, kind_col = toks[0]
    if kind_tok not in ("marriage", "roommates") or len(toks) > 1:
        raise ParseError("expected 'marriage' or 'roommates'", ln, kind_col)
    kind = kind_tok
    pos += 1

    def take_id_line(tag: str) -> list[tuple[str, int, int]]:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(f"missing '{tag}' line", lines[-1][0] + 1)
        ln, _, toks = lines[pos]
        head, col = toks[0]
        if head != tag:
            raise ParseError(f"expected '{tag}' line", ln, col)
        pos += 1
        out = []
        for tok, c in toks[1:]:
            if _ID_BAD.search(tok):
                raise ParseError(f"invalid identifier {tok!r}", ln, c)
            out.append((tok, ln, c))
        return out

    if kind == "marriage":
        a_ids = take_id_line("A")
        b_ids = take_id_line("B")
        declared = a_ids + b_ids
        side = {}
        for tok, _, _ in a_ids:
            side[tok] = "A"
        for tok, _, _ in b_ids:
            side[tok] = "B"
    else:
        declared = take_id_line("V")
        side = None

    vertices: list[str] = []
    seen_at: dict[str, tuple[int, int]] = {}
    for tok, ln, col in declared:
        if tok in seen_at:
            raise ParseError(f"duplicate vertex {tok!r}", ln, col)
        seen_at[tok] = (ln, col)
        vertices.append(tok)
    vset = set(vertices)

    prefs: dict[str, list[str]] = {}
    nbr_sets: dict[str, set[str]] = {}
    owner_line: dict[str, int] = {}
    for ln, body, toks in lines[pos:]:
        cut = body.find(":")
        if cut < 0:
            raise ParseError("expected '<id>: <neighbors>'", ln, toks[0][1])
        head_toks = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(body[:cut])]
        if len(head_toks) != 1:
            raise ParseError("expected a single vertex id before ':'", ln, cut + 1)
        u, ucol = head_toks[0]
        if u not in vset:
            raise ParseError(f"preference line for undeclared vertex {u!r}", ln, ucol)
        if u in prefs:
            raise ParseError(f"second preference line for {u!r}", ln, ucol)
        tail = body[cut + 1 :]
        lst: list[str] = []
        listed: set[str] = set()
        for m in _TOKEN.finditer(tail):
            v, vcol = m.group(), cut + 1 + m.start() + 1
            if v not in vset:
                raise ParseError(f"{u!r} lists undeclared vertex {v!r}", ln, vcol)
            if v == u:
                raise ParseError(f"{u!r} lists itself", ln, vcol)
            if v in listed:
                raise ParseError(f"duplicate {v!r} in the list of {u!r}", ln, vcol)
            if side is not None and side[v] == side[u]:
                raise ParseError(
                    f"edge ({u!r}, {v!r}) does not cross sides", ln, vcol
                )
            listed.add(v)
            lst.append(v)
        prefs[u] = lst
        nbr_sets[u] = listed
        owner_line[u] = ln

    for u, lst in prefs.items():
        for v in lst:
            if u not in nbr_sets.get(v, ()):
                raise ParseError(
                    f"asymmetric adjacency: {u!r} lists {v!r} but not back",
                    owner_line[u],
                )

    # The checks above cover every check of Instance.__init__.
    return Instance._checked(kind, vertices, prefs, side)


def serialize_instance(inst: Instance) -> str:
    """Canonical text form; ``parse_instance`` of the result reproduces ``inst``."""
    out: list[str] = [inst.kind]
    if inst.kind == "marriage":
        out.append(" ".join(("A",) + inst.side_a()))
        out.append(" ".join(("B",) + inst.side_b()))
    else:
        out.append(" ".join(("V",) + inst.vertices))
    for u in inst.vertices:
        out.append(f"{u}: {' '.join(inst.prefs[u])}".rstrip())
    return "\n".join(out) + "\n"


def parse_matching(text: str, inst: Instance) -> Matching:
    """Parse matching-file content against ``inst``."""
    pairs: list[tuple[str, str]] = []
    for ln, _, toks in _meaningful_lines(text):
        if len(toks) != 2:
            raise ParseError("expected '<u> <v>'", ln, toks[0][1])
        (u, ucol), (v, vcol) = toks
        if u not in inst.index:
            raise ParseError(f"unknown vertex {u!r}", ln, ucol)
        if v not in inst.index:
            raise ParseError(f"unknown vertex {v!r}", ln, vcol)
        if not inst.has_edge(u, v):
            raise ParseError(f"({u!r}, {v!r}) is not an instance edge", ln, ucol)
        pairs.append((u, v))
    try:
        return Matching(inst, pairs)
    except ValueError as exc:
        raise ParseError(str(exc), 1) from exc


def serialize_matching(m: Matching) -> str:
    return "".join(f"{u} {v}\n" for u, v in m.edges)

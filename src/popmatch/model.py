"""Instance and matching data model, parsing, validation, serialization.

Instance file format (UTF-8 text, ``#`` starts a comment anywhere on a line):

    line 1:   ``marriage`` or ``roommates``
    line 2:   ``A <ids...>``            (marriage)   or   ``V <ids...>`` (roommates)
    line 3:   ``B <ids...>``            (marriage only)
    then one line per vertex:  ``<id>: <neighbor ids in strict preference order>``

A vertex whose preference line is omitted has an empty list.  Vertex
identifiers are opaque tokens without whitespace and without ``:`` or ``#``.

Matching file format: one ``<u> <v>`` pair per line, ``#`` comments allowed.
Witness file format: one ``<vertex> <integer value>`` pair per line, likewise.

Identifiers are kept as strings; dense integer ids are assigned in file order
and exposed through :attr:`Instance.index` for algorithmic code.  Each
instance keeps its preferences in one rank table, :attr:`Instance.rank`,
which every layer reads for edges and comparisons.  Instances and matchings
are immutable after construction and all functions here are pure.  A
matching lazily caches one derived object, its vote table (the partner
ranks c(u) of ``election``), which is valid for its own instance only:
``election`` serves it when asked for the votes of that very instance and
computes the table afresh for any other.

Each model type has one rule set, ``_validate`` for instances and
``Matching._pair_up`` for matchings, which reports the first fault through a
``fail(message, where)`` callback.  The constructors raise ``ValueError``
with the message.  The parsers check the syntax first, then raise
:class:`ParseError` with the same message at the line and column of
``where``, so a syntax fault is reported before any rule fault.
``parse_instance`` then builds through the private ``Instance._checked``,
which runs only the derivation, as do the three-copy expansion and
:meth:`Instance.restrict`.  A witness is no model type: ``parse_witness``
checks its rules (known vertices, each once, integer values) line by line.
Matchings have the same split: ``Matching._checked`` sets the fields of
``_pair_up`` from pairs that its caller has built canonical and disjoint.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Collection, Iterable, Mapping, Sequence

__all__ = [
    "ParseError",
    "Instance",
    "Matching",
    "parse_instance",
    "serialize_instance",
    "parse_matching",
    "serialize_matching",
    "parse_witness",
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


def _raise(message: str, where: object) -> None:
    raise ValueError(message)


def _validate(
    kind: str,
    vertices: Sequence[str],
    prefs: Mapping[str, Sequence[str]],
    side: Mapping[str, str] | None,
    fail,
) -> None:
    """Check every instance rule; call ``fail(message, where)`` at the first fault.

    ``fail`` must raise.  ``where`` names what is at fault: an int is a
    position in ``vertices``, a string is the owner named at the head of its
    list, and ``(u, j)`` is entry ``j`` of u's list, or the whole list when
    ``j`` is None.  The rules run in this order: kind and side tags, the
    vertices in order, each list in the order of ``prefs`` (its owner, then
    its entries in order), and symmetry last.
    """
    if kind not in ("marriage", "roommates"):
        fail(f"unknown instance kind {kind!r}", None)
    if kind == "marriage":
        if side is None:
            fail("marriage instance requires side tags", None)
    elif side is not None:
        fail("roommates instance takes no side tags", None)

    # Each check runs in bulk first; a fault is then located item by item.
    seen = set(vertices)
    if len(seen) != len(vertices) or "" in seen or _ID_BAD.search("".join(vertices)):
        seen = set()
        for i, v in enumerate(vertices):
            if not v or _ID_BAD.search(v):
                fail(f"invalid vertex identifier {v!r}", i)
            if v in seen:
                fail(f"duplicate vertex {v!r}", i)
            seen.add(v)

    if side is not None:
        if side.keys() != seen or not {"A", "B"}.issuperset(side.values()):
            fail("side tags must cover exactly the vertex set with A/B", None)
        across = {"A": {v for v, s in side.items() if s == "B"}}
        across["B"] = seen - across["A"]

    listed: dict[str, Collection[str]] = dict.fromkeys(seen, ())
    for u, lst in prefs.items():
        if u not in seen:
            fail(f"preference list for unknown vertex {u!r}", u)
        got = listed[u] = set(lst)
        allowed = seen if side is None else across[side[u]]
        if len(got) == len(lst) and u not in got and got <= allowed:
            continue
        got = set()
        for j, v in enumerate(lst):
            if v not in seen:
                fail(f"{u!r} lists unknown vertex {v!r}", (u, j))
            if v == u:
                fail(f"{u!r} lists itself", (u, j))
            if v in got:
                fail(f"{u!r} lists {v!r} twice", (u, j))
            got.add(v)
            if side is not None and side[u] == side[v]:
                fail(f"edge ({u!r}, {v!r}) does not cross sides", (u, j))

    for u, lst in prefs.items():
        for v in lst:
            if u not in listed[v]:
                fail(f"asymmetric adjacency: {u!r} lists {v!r} but not back", (u, None))


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
    rank:      dict vertex u -> dict neighbor v -> v's 1-based position in
               u's list (1 is the best choice).  Its key sets are the
               adjacency, so ``v in rank[u]`` tests an edge.

    The constructor checks every rule of ``_validate`` (identifiers, side
    tags, known neighbours, no self-loops or repeats, edges that cross
    sides for marriage, symmetric adjacency), then derives the attributes
    in ``_derive``.  The private classmethod ``_checked`` runs only that
    derivation; it is for callers that have already checked their input,
    and an invalid input gives an invalid instance rather than an error.
    """

    def __init__(
        self,
        kind: str,
        vertices: Sequence[str],
        prefs: Mapping[str, Sequence[str]],
        side: Mapping[str, str] | None = None,
    ):
        verts = tuple(vertices)
        _validate(kind, verts, prefs, side, _raise)
        self._derive(kind, verts, prefs, side)

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
        checks, so the input must pass ``_validate``: callers are the
        parser (which runs ``_validate`` itself, to report positions), the
        three-copy expansion and :meth:`restrict` (valid by construction).
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
        self.rank: dict[str, dict[str, int]] = {
            u: {v: i for i, v in enumerate(lst, 1)} for u, lst in self.prefs.items()
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
        return v in self.rank.get(u, ())

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
    """A set of pairwise disjoint instance edges plus the derived partner map.

    ``_ranks`` caches the vote table of ``election._partner_ranks`` for
    ``instance``; it is None until a vote of this matching is first read.
    """

    _ranks: dict[str, int] | None = None

    def __init__(self, inst: Instance, pairs: Iterable[tuple[str, str]]):
        self._pair_up(inst, pairs, _raise)

    @classmethod
    def _checked(cls, inst: Instance, pairs: Sequence[tuple[str, str]]) -> "Matching":
        """A matching from canonical, pairwise disjoint edges of ``inst``.

        Private.  Sets the fields of :meth:`_pair_up` without its checks, so
        an invalid input gives an invalid matching rather than an error; the
        callers are the oracle's enumerators, whose pairs are valid by
        construction.
        """
        partner = dict(pairs)
        partner.update((b, a) for a, b in pairs)
        m = cls.__new__(cls)
        m._derive(inst, pairs, partner)
        return m

    def _pair_up(self, inst: Instance, pairs: Iterable[tuple[str, str]], fail) -> None:
        """Check every pair and set every attribute; the one matching rule set.

        ``fail(message, (k, end))`` must raise.  It names endpoint ``end`` of
        pair ``k``: the second when only it is unknown, else the first.
        """
        edges: list[tuple[str, str]] = []
        partner: dict[str, str] = {}
        rank = inst.rank
        for k, (u, v) in enumerate(pairs):
            if v not in rank.get(u, ()):
                end = int(u in rank and v not in rank)
                fail(f"({u!r}, {v!r}) is not an edge of the instance", (k, end))
            e = inst.canonical_edge(u, v)
            if e[0] in partner or e[1] in partner:
                if partner.get(e[0]) == e[1]:
                    continue  # exact duplicate pair, harmless
                fail(f"edges overlap at ({u!r}, {v!r})", (k, 0))
            partner[e[0]] = e[1]
            partner[e[1]] = e[0]
            edges.append(e)
        self._derive(inst, edges, partner)

    def _derive(self, inst: Instance, edges, partner: dict[str, str]) -> None:
        """Set every attribute from disjoint canonical edges and their partner map."""
        index = inst.index
        self.instance = inst
        self.edges: tuple[tuple[str, str], ...] = tuple(sorted(edges, key=lambda e: index[e[0]]))
        self.edge_set: frozenset[tuple[str, str]] = frozenset(self.edges)
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


# -- parsing ---------------------------------------------------------------


def _lines(text: str):
    """Yield (line number, text before any ``#``) for each line with a token."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body and not body.isspace():
            yield ln, body


def _column(body: str, k: int, start: int = 0) -> int:
    """1-based column of token ``k`` of ``body[start:]``."""
    return next(islice(_TOKEN.finditer(body, start), k, None)).start() + 1


def parse_instance(text: str) -> Instance:
    """Parse instance-file content; raises :class:`ParseError` on bad input."""
    lines = list(_lines(text))
    if not lines:
        raise ParseError("missing kind line ('marriage' or 'roommates')", 1)
    ln, body = lines[0]
    toks = body.split()
    if toks[0] not in ("marriage", "roommates") or len(toks) > 1:
        raise ParseError("expected 'marriage' or 'roommates'", ln, _column(body, 0))
    kind = toks[0]

    tags = ("A", "B") if kind == "marriage" else ("V",)
    vertices: list[str] = []
    side: dict[str, str] | None = {} if kind == "marriage" else None
    for pos, tag in enumerate(tags, start=1):
        if pos >= len(lines):
            raise ParseError(f"missing '{tag}' line", lines[-1][0] + 1)
        ln, body = lines[pos]
        head, *ids = body.split()
        if head != tag:
            raise ParseError(f"expected '{tag}' line", ln, _column(body, 0))
        vertices += ids
        if side is not None:
            side.update(dict.fromkeys(ids, tag))

    prefs: dict[str, list[str]] = {}
    owner: dict[str, tuple[int, str]] = {}
    for ln, body in lines[len(tags) + 1 :]:
        head, colon, tail = body.partition(":")
        if not colon:
            raise ParseError("expected '<id>: <neighbors>'", ln, _column(body, 0))
        names = head.split()
        if len(names) != 1:
            raise ParseError("expected a single vertex id before ':'", ln, len(head) + 1)
        u = names[0]
        if u in prefs:
            raise ParseError(f"second preference line for {u!r}", ln, _column(body, 0))
        prefs[u] = tail.split()
        owner[u] = (ln, body)

    def fail(message: str, where) -> None:
        if isinstance(where, int):  # a declared vertex, counted across the tag lines
            for ln, body in lines[1 : len(tags) + 1]:
                n = len(body.split()) - 1
                if where < n:
                    break
                where -= n
            col = _column(body, where + 1)
        elif isinstance(where, str):  # the owner at the head of its line
            ln, body = owner[where]
            col = _column(body, 0)
        else:
            u, j = where
            ln, body = owner[u]
            col = 1 if j is None else _column(body, j, body.index(":") + 1)
        raise ParseError(message, ln, col)

    _validate(kind, vertices, prefs, side, fail)
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
    lines = list(_lines(text))
    pairs: list[tuple[str, str]] = []
    for ln, body in lines:
        toks = body.split()
        if len(toks) != 2:
            raise ParseError("expected '<u> <v>'", ln, _column(body, 0))
        pairs.append((toks[0], toks[1]))

    def fail(message: str, where: tuple[int, int]) -> None:
        ln, body = lines[where[0]]
        raise ParseError(message, ln, _column(body, where[1]))

    m = Matching.__new__(Matching)
    m._pair_up(inst, pairs, fail)
    return m


def serialize_matching(m: Matching) -> str:
    return "".join(f"{u} {v}\n" for u, v in m.edges)


def parse_witness(text: str, inst: Instance) -> dict[str, int]:
    """Parse witness-file content against ``inst``; one line at a time."""
    w: dict[str, int] = {}
    for ln, body in _lines(text):
        toks = body.split()
        if len(toks) != 2:
            raise ParseError("expected '<vertex> <value>'", ln, _column(body, 0))
        u, val = toks
        if u not in inst.index:
            raise ParseError(f"unknown vertex {u!r}", ln, _column(body, 0))
        if u in w:
            raise ParseError(f"duplicate vertex {u!r}", ln, _column(body, 0))
        try:
            w[u] = int(val)
        except ValueError:
            message = f"witness value must be an integer, got {val!r}"
            raise ParseError(message, ln, _column(body, 1)) from None
    return w

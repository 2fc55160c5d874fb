import random

import pytest

from popmatch.cli import run
from popmatch.engine import build_gprime
from popmatch.gen import random_marriage, random_maximal_matching, random_roommates
from popmatch.model import (
    Instance,
    Matching,
    ParseError,
    parse_instance,
    parse_matching,
    parse_witness,
    serialize_instance,
    serialize_matching,
)
from popmatch.oracle import enumerate_matchings, enumerate_stable_matchings

from conftest import FIG1_TEXT


def test_parse_serialize_round_trip(fig1):
    assert parse_instance(serialize_instance(fig1)) == fig1


def test_comments_and_blank_lines_ignored(fig1):
    noisy = "# header\n\n" + FIG1_TEXT.replace("a2: b1 b2", "a2: b1 b2  # tail")
    assert parse_instance(noisy) == fig1


def test_roommates_parse():
    inst = parse_instance("roommates\nV x y z\nx: y z\ny: x\nz: x\n")
    assert inst.kind == "roommates"
    assert inst.edges == (("x", "y"), ("x", "z"))


def test_missing_kind_line():
    with pytest.raises(ParseError):
        parse_instance("")


def test_unknown_kind():
    with pytest.raises(ParseError):
        parse_instance("triangle\nV x\n")


def _parse_error_at(text):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    return err.value.line, err.value.column


def test_asymmetric_lists_rejected():
    # a lists c but c does not list a; reported at a's line
    bad = "marriage\nA a\nB b c\na: b c\nb: a\nc:\n"
    assert _parse_error_at(bad) == (4, 1)


def test_duplicate_neighbor_rejected():
    bad = "marriage\nA a\nB b\na: b b\nb: a\n"
    assert _parse_error_at(bad) == (4, 6)


def test_self_loop_rejected():
    assert _parse_error_at("roommates\nV x y\nx: x y\ny: x\n") == (3, 4)


def test_same_side_edge_rejected():
    bad = "marriage\nA a c\nB b\na: b c\nb: a\nc: a\n"
    assert _parse_error_at(bad) == (4, 6)


@pytest.mark.parametrize(
    "args, message",
    [
        (("triangle", ["x"], {}), "unknown instance kind 'triangle'"),
        (("marriage", ["a"], {}), "marriage instance requires side tags"),
        (("roommates", ["x"], {}, {"x": "A"}), "roommates instance takes no side tags"),
        (("roommates", ["x", "y z"], {}), "invalid vertex identifier 'y z'"),
        (("roommates", ["x", "x"], {}), "duplicate vertex 'x'"),
        (
            ("marriage", ["a", "b"], {}, {"a": "A"}),
            "side tags must cover exactly the vertex set with A/B",
        ),
        (("roommates", ["x"], {"q": []}), "preference list for unknown vertex 'q'"),
        (("roommates", ["x"], {"x": ["q"]}), "'x' lists unknown vertex 'q'"),
        (
            ("marriage", ["a", "b", "c"], {"a": ["b", "c"], "b": ["a"]},
             {"a": "A", "b": "B", "c": "B"}),
            "asymmetric adjacency: 'a' lists 'c' but not back",
        ),
        (
            ("marriage", ["a", "b"], {"a": ["b", "b"], "b": ["a"]}, {"a": "A", "b": "B"}),
            "'a' lists 'b' twice",
        ),
        (("roommates", ["x", "y"], {"x": ["x", "y"], "y": ["x"]}), "'x' lists itself"),
        (
            ("marriage", ["a", "b", "c"], {"a": ["b", "c"], "b": ["a"], "c": ["a"]},
             {"a": "A", "b": "B", "c": "A"}),
            "edge ('a', 'c') does not cross sides",
        ),
    ],
    ids=[
        "kind", "missing-sides", "extra-sides", "identifier", "duplicate", "side-cover",
        "unknown-owner", "unknown-neighbour", "asymmetric", "repeated-neighbour",
        "self-loop", "same-side",
    ],
)
def test_constructor_rejects_with_message(args, message):
    with pytest.raises(ValueError) as err:
        Instance(*args)
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_first_error_wins_when_two_faults():
    # x-y is asymmetric (x comes first) and z lists itself: every list
    # check runs before the symmetry check, in both entry points.
    with pytest.raises(ValueError) as err:
        Instance("roommates", ["x", "y", "z"], {"x": ["y"], "z": ["z"]})
    assert str(err.value) == "'z' lists itself"
    with pytest.raises(ParseError) as err:
        parse_instance("roommates\nV x y z\nx: y\ny:\nz: z\n")
    assert (err.value.line, err.value.column) == (5, 4)
    assert "'z' lists itself" in str(err.value)
    # Within one list, the first offending neighbour decides.
    with pytest.raises(ValueError) as err:
        Instance("roommates", ["x", "y"], {"x": ["y", "y", "x"], "y": ["x"]})
    assert str(err.value) == "'x' lists 'y' twice"


def test_parse_error_carries_position():
    try:
        parse_instance("marriage\nA a\nB b\na: q\nb: a\n")
    except ParseError as e:
        assert e.line == 4
    else:
        pytest.fail("expected a parse error")


def test_matching_partner_and_contains(fig1, m1):
    assert m1.partner("a1") == "b1"
    assert m1.partner("b2") == "a2"
    assert m1.partner("a3") is None
    assert ("a1", "b1") in m1
    assert ("b1", "a1") in m1
    assert ("a1", "b2") not in m1
    assert len(m1) == 2


def test_matching_duplicate_pair_tolerated(fig1):
    m = Matching(fig1, [("a1", "b1"), ("b1", "a1")])
    assert len(m) == 1


def test_matching_vertex_used_twice_rejected(fig1):
    with pytest.raises(ValueError):
        Matching(fig1, [("a1", "b1"), ("a1", "b2")])


def test_matching_non_edge_rejected(fig1):
    with pytest.raises(ValueError):
        Matching(fig1, [("a3", "b3")])


def test_parse_matching_unknown_vertex(fig1):
    with pytest.raises(ParseError):
        parse_matching("a1 zz\n", fig1)


def _matching_fields(m):
    return m.edges, m.edge_set, {u: m.partner(u) for u in m.instance.vertices}


def test_trusted_matching_build_equals_checked_build():
    """``Matching._checked`` and the constructor give the same fields, on
    canonical pairs in any order and on the oracle's own matchings."""
    rng = random.Random(14)
    for trial in range(60):
        if trial % 2:
            inst = random_roommates(rng, rng.randint(2, 7), rng.uniform(0.3, 1.0))
        else:
            na, nb = rng.randint(1, 4), rng.randint(1, 4)
            inst = random_marriage(rng, na, nb, rng.uniform(0.3, 1.0))
            # B vertices first on some instances, so that canonical is not index order
            verts = list(inst.vertices)
            rng.shuffle(verts)
            inst = Instance(inst.kind, verts, inst.prefs, inst.side)
        for m in enumerate_matchings(inst, cap=16):
            pairs = list(m.edges)
            rng.shuffle(pairs)
            want = _matching_fields(Matching(inst, pairs))
            assert _matching_fields(Matching._checked(inst, pairs)) == want
            assert _matching_fields(m) == want
        for s in enumerate_stable_matchings(inst):
            assert _matching_fields(s) == _matching_fields(Matching(inst, list(reversed(s.edges))))


def test_matching_round_trip(fig1, m2):
    assert parse_matching(serialize_matching(m2), fig1) == m2


def test_instance_equality_ignores_list_identity():
    a = parse_instance(FIG1_TEXT)
    b = parse_instance(FIG1_TEXT)
    assert a == b and hash(a) == hash(b)


def test_restrict_keeps_induced_lists(fig1):
    sub = fig1.restrict({"a1", "a2", "b1", "b2"})
    assert sub.vertices == ("a1", "a2", "b1", "b2")
    assert sub.neighbors("a1") == ("b1", "b2")
    assert sub.neighbors("b1") == ("a1", "a2")


# -- the trusted constructor -------------------------------------------------


def _reference_fields(kind, vertices, prefs, side):
    """Every derived field, computed straight from its documented definition."""
    vertices = tuple(vertices)
    lists = {v: tuple(prefs.get(v, ())) for v in vertices}
    index = {v: i for i, v in enumerate(vertices)}
    edges, seen = [], set()
    for u in vertices:
        for v in lists[u]:
            if frozenset((u, v)) not in seen:
                seen.add(frozenset((u, v)))
                if side is not None:
                    edges.append((u, v) if side[u] == "A" else (v, u))
                else:
                    edges.append((u, v) if index[u] < index[v] else (v, u))
    return {
        "kind": kind,
        "vertices": vertices,
        "prefs": lists,
        "side": None if side is None else dict(side),
        "index": index,
        "edges": tuple(edges),
        "rank": {u: {v: i + 1 for i, v in enumerate(lst)} for u, lst in lists.items()},
    }


def _fields(inst):
    return {
        "kind": inst.kind,
        "vertices": inst.vertices,
        "prefs": inst.prefs,
        "side": inst.side,
        "index": inst.index,
        "edges": inst.edges,
        "rank": inst.rank,
    }


def _args(inst):
    return inst.kind, inst.vertices, inst.prefs, inst.side


def _shuffled_instances(n):
    """Seeded marriage and roommates instances whose vertex order is shuffled,
    so that the two sides interleave and edges start at either endpoint."""
    rng = random.Random(20181)
    for i in range(n):
        if i % 2:
            base = random_marriage(rng, rng.randint(1, 6), rng.randint(1, 6), rng.random())
        else:
            base = random_roommates(rng, rng.randint(1, 9), rng.random())
        order = list(base.vertices)
        rng.shuffle(order)
        yield Instance(base.kind, order, base.prefs, base.side)


def test_trusted_constructor_matches_validating_one():
    for inst in _shuffled_instances(300):
        want = _reference_fields(*_args(inst))
        assert _fields(inst) == want
        assert _fields(Instance._checked(*_args(inst))) == want
        text = serialize_instance(inst)
        order = inst.side_a() + inst.side_b() if inst.side else inst.vertices
        parsed = parse_instance(text)
        assert _fields(parsed) == _fields(Instance(inst.kind, order, inst.prefs, inst.side))
        assert _fields(parsed) == _reference_fields(inst.kind, order, inst.prefs, inst.side)


def _check_expansion(inst):
    gp = build_gprime(inst)
    exp = gp.instance
    assert _fields(exp) == _fields(Instance(*_args(exp)))
    assert _fields(exp) == _reference_fields(*_args(exp))
    dummy_edges = {
        exp.canonical_edge(copy[u], d) for u, d in gp.dummy.items() for copy in (gp.plus, gp.minus)
    }
    assert set(gp.edge_origin) | dummy_edges == set(exp.edges)
    assert len(gp.edge_origin) + len(dummy_edges) == len(exp.edges)


def test_expansion_matches_validating_constructor():
    for inst in _shuffled_instances(200):
        if inst.kind == "marriage":
            _check_expansion(inst)


def test_expansion_names_cannot_collide():
    # Original names that look like copy names of one another.
    side = {"x": "A", "x+": "A", "x-": "B", "d(x)": "B"}
    prefs = {"x": ["x-", "d(x)"], "x+": ["d(x)", "x-"], "x-": ["x+", "x"], "d(x)": ["x", "x+"]}
    inst = Instance("marriage", ["x-", "x", "d(x)", "x+"], prefs, side)
    _check_expansion(inst)
    assert len(build_gprime(inst).instance.vertices) == 12


def test_restrict_matches_validating_constructor():
    rng = random.Random(7)
    for inst in _shuffled_instances(200):
        keep = {v for v in inst.vertices if rng.random() < 0.7}
        sub = inst.restrict(keep)
        verts = [v for v in inst.vertices if v in keep]
        prefs = {u: [v for v in inst.prefs[u] if v in keep] for u in verts}
        side = {v: inst.side[v] for v in verts} if inst.side is not None else None
        assert _fields(sub) == _fields(Instance(inst.kind, verts, prefs, side))
        assert _fields(sub) == _reference_fields(inst.kind, verts, prefs, side)


# -- one rule set, two entry points -------------------------------------------
#
# Every row holds one fault.  The positions were pinned before the parsers
# handed their rule checks to the constructors, and stayed; the overlap rows
# used to report line 1, column 1 wherever the pair was.

_INSTANCE_FAULTS = [
    ("kind", "triangle\nV x\n", 1, 1),
    ("kind-extra-token", "marriage extra\nA a\nB b\n", 1, 1),
    ("missing-A", "marriage\n", 2, 1),
    ("missing-B", "marriage\nA a\n", 3, 1),
    ("missing-V", "roommates\n", 2, 1),
    ("wrong-tag", "marriage\nB b\nA a\n", 2, 1),
    ("missing-colon", "marriage\nA a\nB b\na b\nb: a\n", 4, 1),
    ("two-ids", "marriage\nA a\nB b\na b: a\nb: a\n", 4, 4),
    ("no-id", "marriage\nA a\nB b\n: b\nb: a\n", 4, 1),
    ("second-line", "marriage\nA a\nB b\na: b\nb: a\na: b\n", 6, 1),
    ("undeclared-head", "marriage\nA a\nB b\na: b\nb: a\nq: a\n", 6, 1),
    ("unknown-neighbour", "marriage\nA a\nB b\na: b q\nb: a\n", 4, 6),
    ("self-loop", "roommates\nV x y\nx: x y\ny: x\n", 3, 4),
    ("repeated", "marriage\nA a\nB b\na: b b\nb: a\n", 4, 6),
    (
        "repeated-indented",
        "marriage\nA a1 a2\nB b1\n a1 :  b1 # x\nb1: a1 a2\n a2:   b1  b1\n",
        6,
        12,
    ),
    ("same-side", "marriage\nA a c\nB b\na: b c\nb: a\nc: a\n", 4, 6),
    ("same-side-B", "marriage\nA a\nB b c\na: b\nb: a c\nc: b\n", 5, 6),
    ("asymmetric", "marriage\nA a\nB b c\na: b c\nb: a\nc:\n", 4, 1),
    ("asymmetric-indented", "marriage\nA a\nB b c\n   a: b c\nb: a\nc:\n", 4, 1),
    ("bad-identifier", "marriage\nA a x:y\nB b\na: b\nb: a\n", 2, 5),
    ("bad-identifier-B", "marriage\nA a\nB b x:y\na: b\nb: a\n", 3, 5),
    ("duplicate-vertex", "marriage\nA a\nB b a\na: b\nb: a\n", 3, 5),
    ("duplicate-vertex-V", "roommates\nV x y x\nx: y\ny: x\n", 2, 7),
]

_MATCHING_FAULTS = [
    ("non-edge", "a1 b1\na3 b3\n", 2, 1),
    ("unknown-first", "a1 b1\nzz b2\n", 2, 1),
    ("unknown-second", "a1 b1\n\n  a2   zz\n", 3, 8),
    ("overlap", "a1 b1\n# gap\n\n\na1 b2\n", 5, 1),
    ("overlap-second", "a2 b2\na1 b2\n", 2, 1),
    ("three-tokens", "a1 b1 b2\n", 1, 1),
]


@pytest.mark.parametrize(
    "text, line, column",
    [row[1:] for row in _INSTANCE_FAULTS],
    ids=[row[0] for row in _INSTANCE_FAULTS],
)
def test_instance_fault_position(text, line, column, tmp_path, capsys):
    assert _parse_error_at(text) == (line, column)
    path = tmp_path / "bad.inst"
    path.write_text(text)
    assert run(["solve", "--stable", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}, column {column}: ")


@pytest.mark.parametrize(
    "text, line, column",
    [row[1:] for row in _MATCHING_FAULTS],
    ids=[row[0] for row in _MATCHING_FAULTS],
)
def test_matching_fault_position(text, line, column, fig1, tmp_path, capsys):
    with pytest.raises(ParseError) as err:
        parse_matching(text, fig1)
    assert (err.value.line, err.value.column) == (line, column)
    (tmp_path / "fig1.inst").write_text(FIG1_TEXT)
    (tmp_path / "bad.match").write_text(text)
    argv = ["verify", "--stable", str(tmp_path / "fig1.inst"), str(tmp_path / "bad.match")]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}, column {column}: ")


# Each witness row pins the whole message as well as its position.
_WITNESS_FAULTS = [
    ("two-tokens-short", "a1 0\n  b1\n", 2, 3, "expected '<vertex> <value>'"),
    ("three-tokens", "a1 0 1\n", 1, 1, "expected '<vertex> <value>'"),
    ("non-integer", "a1 x\n", 1, 4, "witness value must be an integer, got 'x'"),
    (
        "non-integer-indented",
        "a1 0\n\tb1   1.5 # c\n",
        2,
        7,
        "witness value must be an integer, got '1.5'",
    ),
    ("unknown-indented", "   zz 1\n", 1, 4, "unknown vertex 'zz'"),
    ("duplicate-indented", "a1 0\n# gap\n   a1 1\n", 3, 4, "duplicate vertex 'a1'"),
]


@pytest.mark.parametrize(
    "text, line, column, message",
    [row[1:] for row in _WITNESS_FAULTS],
    ids=[row[0] for row in _WITNESS_FAULTS],
)
def test_witness_fault_position(text, line, column, message, fig1, tmp_path, capsys):
    with pytest.raises(ParseError) as err:
        parse_witness(text, fig1)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    (tmp_path / "fig1.inst").write_text(FIG1_TEXT)
    (tmp_path / "m1.match").write_text("a1 b1\na2 b2\n")
    (tmp_path / "bad.witness").write_text(text)
    files = [str(tmp_path / name) for name in ("fig1.inst", "m1.match", "bad.witness")]
    assert run(["verify", "--witness", *files]) == 2
    assert capsys.readouterr().err == f"error: line {line}, column {column}: {message}\n"


def test_parse_witness_reads_values(fig1):
    text = "# header\na1 1\n\n  b1 -1  # tail\na2 +0\n"
    assert parse_witness(text, fig1) == {"a1": 1, "b1": -1, "a2": 0}
    assert parse_witness("", fig1) == {}


def _read_lists(text):
    """The lists a file with valid syntax spells out, read with plain splits.

    Returns None when the syntax is invalid, so only the instance rules can
    still fail.
    """
    lines = [raw.split("#", 1)[0] for raw in text.splitlines()]
    lines = [line for line in lines if line.split()]
    if not lines or lines[0].split() not in (["marriage"], ["roommates"]):
        return None
    kind = lines[0].split()[0]
    tags = ["A", "B"] if kind == "marriage" else ["V"]
    if len(lines) <= len(tags):
        return None
    vertices, side = [], ({} if kind == "marriage" else None)
    for tag, line in zip(tags, lines[1:]):
        head, *ids = line.split()
        if head != tag:
            return None
        vertices += ids
        if side is not None:
            side.update((v, tag) for v in ids)
    prefs = {}
    for line in lines[len(tags) + 1 :]:
        head, colon, tail = line.partition(":")
        if not colon or len(head.split()) != 1 or head.split()[0] in prefs:
            return None
        prefs[head.split()[0]] = tail.split()
    return kind, vertices, prefs, side


def _message(err):
    return str(err).split(": ", 1)[1]


def _rule_message(text):
    """str() of the error ``Instance(...)`` raises on the file's lists."""
    with pytest.raises(ValueError) as err:
        Instance(*_read_lists(text))
    assert type(err.value) is ValueError
    return str(err.value)


def test_parser_reports_the_constructors_message():
    rule_rows = [row for row in _INSTANCE_FAULTS if _read_lists(row[1]) is not None]
    assert {row[0] for row in rule_rows} == {
        "undeclared-head", "unknown-neighbour", "self-loop", "repeated", "repeated-indented",
        "same-side", "same-side-B", "asymmetric", "asymmetric-indented", "bad-identifier",
        "bad-identifier-B", "duplicate-vertex", "duplicate-vertex-V",
    }
    for _, text, _, _ in rule_rows:
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert _message(err.value) == _rule_message(text)


def test_matching_parser_reports_the_constructors_message(fig1):
    for _, text, _, _ in _MATCHING_FAULTS[:-1]:
        pairs = [tuple(line.split("#")[0].split()) for line in text.splitlines()]
        pairs = [p for p in pairs if p]
        with pytest.raises(ValueError) as want:
            Matching(fig1, pairs)
        with pytest.raises(ParseError) as got:
            parse_matching(text, fig1)
        assert _message(got.value) == str(want.value)


def _mutate(rng, text, names):
    """One random edit of one line: drop, repeat, replace, insert or move a
    token, drop or repeat the line, add or remove a ':', or indent it."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    toks = lines[i].split(" ")
    edit = rng.randrange(9)
    if edit == 0 and len(toks) > 1:
        del toks[rng.randrange(len(toks))]
    elif edit == 1:
        j = rng.randrange(len(toks))
        toks.insert(j, toks[j])
    elif edit == 2:
        toks[rng.randrange(len(toks))] = rng.choice(names + ["zz"])
    elif edit == 3:
        toks.insert(rng.randrange(len(toks) + 1), rng.choice(names + ["q", "x:y"]))
    elif edit == 4:
        del lines[i]
        toks = None
    elif edit == 5:
        lines.insert(i, lines[i])
        toks = None
    elif edit == 6:
        j = rng.randrange(len(toks))
        toks[j] = toks[j].replace(":", "") if ":" in toks[j] else toks[j] + ":"
    elif edit == 7 and len(toks) > 1:
        j, k = rng.sample(range(len(toks)), 2)
        toks[j], toks[k] = toks[k], toks[j]
    else:
        toks = ["  " + toks[0]] + toks[1:] + ["# note"]
    if toks is not None:
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def test_mutated_files_parse_or_raise_parse_error():
    rng = random.Random(6000)
    outcomes = {"ok": 0, "syntax": 0, "rule": 0, "matching": 0}
    for t in range(1500):
        if t % 2:
            base = random_marriage(rng, rng.randint(1, 5), rng.randint(1, 5), rng.random())
        else:
            base = random_roommates(rng, rng.randint(1, 7), rng.random())
        text = _mutate(rng, serialize_instance(base), list(base.vertices))
        lists = _read_lists(text)
        try:
            inst = parse_instance(text)
        except ParseError as err:
            if lists is None:
                outcomes["syntax"] += 1
            else:
                outcomes["rule"] += 1
                assert _message(err) == _rule_message(text), text
        else:
            outcomes["ok"] += 1
            assert lists is not None, text
            assert _fields(inst) == _fields(Instance(*lists)), text

        if not base.edges:
            continue
        both = random_maximal_matching(rng, base).edges + random_maximal_matching(rng, base).edges
        mtext = _mutate(rng, "".join(f"{u} {v}\n" for u, v in both), list(base.vertices))
        pairs = [tuple(line.split("#")[0].split()) for line in mtext.splitlines()]
        pairs = [p for p in pairs if p]
        try:
            m = parse_matching(mtext, base)
        except ParseError as err:
            outcomes["matching"] += 1
            if all(len(p) == 2 for p in pairs):
                with pytest.raises(ValueError) as want:
                    Matching(base, pairs)
                assert _message(err) == str(want.value), mtext
        else:
            assert m == Matching(base, pairs)
    # The battery reaches every outcome.
    assert min(outcomes.values()) > 100, outcomes

import random

import pytest

from popmatch.engine import build_gprime
from popmatch.gen import random_marriage, random_roommates
from popmatch.model import (
    Instance,
    Matching,
    ParseError,
    parse_instance,
    parse_matching,
    serialize_instance,
    serialize_matching,
)

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
        "adj": {u: frozenset(lst) for u, lst in lists.items()},
        "ranks": {u: {v: i + 1 for i, v in enumerate(lst)} for u, lst in lists.items()},
    }


def _fields(inst):
    return {
        "kind": inst.kind,
        "vertices": inst.vertices,
        "prefs": inst.prefs,
        "side": inst.side,
        "index": inst.index,
        "edges": inst.edges,
        "adj": inst.adj,
        "ranks": {u: {v: inst.ranks.rank(u, v) for v in lst} for u, lst in inst.prefs.items()},
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

import json
import random
import weakref

import pytest

from popmatch import cli, oracle
from popmatch.cli import run
from popmatch.engine import solve_dominant
from popmatch.gen import random_marriage, random_maximal_matching, random_roommates
from popmatch.model import parse_witness, serialize_instance, serialize_matching
from popmatch.popularity import is_stable, verify_witness

from conftest import FIG1_TEXT

CONTRADICTION_DIMACS = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"


@pytest.fixture
def files(tmp_path):
    inst = tmp_path / "fig1.inst"
    inst.write_text(FIG1_TEXT)
    m1 = tmp_path / "m1.match"
    m1.write_text("a1 b1\na2 b2\n")
    m2 = tmp_path / "m2.match"
    m2.write_text("a1 b2\na2 b1\n")
    m3 = tmp_path / "m3.match"
    m3.write_text("a1 b3\na2 b2\na3 b1\n")
    return tmp_path


def test_cap_must_be_positive(files, capsys):
    inst = str(files / "fig1.inst")
    for argv in (
        ["oracle", inst, "--cap", "0"],
        ["classify", inst, "--all-popular-dominant", "--exhaustive", "--cap", "0"],
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: size cap must be positive\n"


def test_runs_in_one_process_carry_nothing_over(files, capsys):
    """The parser is built once per process; no call may see another's arguments."""
    inst = str(files / "fig1.inst")
    m2 = str(files / "m2.match")
    calls = [
        (["verify", "--dominant", inst, m2, "--json"], 0,
         '{"counterexample": null, "dominant": true}\n'),
        (["verify", "--stable", inst, m2], 1, "UNSTABLE\nblocking a1 b1\n"),
        (["classify", inst, "--all-popular-dominant"], 2, ""),
        (["oracle", inst, "--cap", "0"], 2, ""),
        (["solve", "--stable", inst], 0, "a1 b1\na2 b2\n"),
        (["classify", inst, "--all-popular-stable", "--json"], 1,
         '{"counterexample": [["a1", "b2"], ["a2", "b1"]], '
         '"question": "all-popular-stable", "verdict": false}\n'),
        (["oracle", inst, "--json"], 0, None),
        (["verify", "--dominant", inst, str(files / "m1.match")], 1,
         "NOT DOMINANT\na larger matching ties the election\n"),
    ]
    for argv, code, out in calls:
        assert run(argv) == code, argv
        captured = capsys.readouterr()
        if out is not None:
            assert captured.out == out, argv
        assert bool(captured.err) == (code == 2), argv


def test_solve_stable(files, capsys):
    assert run(["solve", "--stable", str(files / "fig1.inst")]) == 0
    assert capsys.readouterr().out == "a1 b1\na2 b2\n"


def test_solve_dominant_prints_witness(files, capsys):
    assert run(["solve", "--dominant", str(files / "fig1.inst")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["a1 b2", "a2 b1"]
    assert "# witness" in out
    assert "a1 1" in out and "a2 -1" in out and "b3 0" in out


def test_verify_popular_yes(files, capsys):
    assert run(["verify", "--popular", str(files / "fig1.inst"), str(files / "m2.match")]) == 0
    assert capsys.readouterr().out.startswith("POPULAR")


def test_verify_popular_prints_witness_past_24_vertices(tmp_path, capsys):
    """30 vertices: the witness of an unstable popular matching is printed."""
    inst = random_marriage(random.Random(18), 15, 15, 0.3)
    m, _ = solve_dominant(inst)
    assert not is_stable(inst, m)[0]
    (tmp_path / "big.inst").write_text(serialize_instance(inst))
    (tmp_path / "big.match").write_text(serialize_matching(m))
    assert run(["verify", "--popular", str(tmp_path / "big.inst"), str(tmp_path / "big.match")]) == 0
    out = capsys.readouterr().out
    head, wtext = out.split("# witness\n", 1)
    assert head == "POPULAR\n"
    w = parse_witness(wtext, inst)
    assert verify_witness(inst, m, w) == (True, [])
    assert list(w) == list(inst.vertices) and any(w.values())


def test_verify_popular_no(files, capsys):
    assert run(["verify", "--popular", str(files / "fig1.inst"), str(files / "m3.match")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("NOT POPULAR")
    assert "path:" in out or "cycle:" in out


def test_verify_stable_counterexample(files, capsys):
    assert run(["verify", "--stable", str(files / "fig1.inst"), str(files / "m2.match")]) == 1
    assert "blocking a1 b1" in capsys.readouterr().out


def test_verify_dominant(files, capsys):
    assert run(["verify", "--dominant", str(files / "fig1.inst"), str(files / "m2.match")]) == 0
    assert run(["verify", "--dominant", str(files / "fig1.inst"), str(files / "m1.match")]) == 1


def test_verify_witness_round_trip(files, capsys, tmp_path):
    run(["solve", "--dominant", str(files / "fig1.inst")])
    out = capsys.readouterr().out
    wtext = out.split("# witness\n", 1)[1]
    wfile = tmp_path / "w.txt"
    wfile.write_text(wtext)
    code = run(
        ["verify", "--witness", str(files / "fig1.inst"), str(files / "m2.match"), str(wfile)]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "VALID WITNESS"


def test_verify_wrong_arity(files, capsys):
    assert run(["verify", "--stable", str(files / "fig1.inst")]) == 2


def test_election(files, capsys):
    code = run(
        ["election", str(files / "fig1.inst"), str(files / "m2.match"), str(files / "m3.match")]
    )
    assert code == 0
    assert capsys.readouterr().out == "phi(A,B) 4\nphi(B,A) 2\ndelta 2\n"

    # seeded random instances against a vertex-by-vertex count of the votes
    rng = random.Random(2018)
    for trial in range(8):
        if trial % 2:
            inst = random_roommates(rng, rng.randint(3, 7), rng.uniform(0.5, 1.0))
        else:
            inst = random_marriage(rng, rng.randint(2, 5), rng.randint(2, 5), rng.uniform(0.5, 1.0))
        ma = random_maximal_matching(rng, inst)
        mb = random_maximal_matching(rng, inst)
        paths = [files / f"r{trial}.inst", files / f"r{trial}a.match", files / f"r{trial}b.match"]
        for path, text in zip(paths, (serialize_instance(inst), serialize_matching(ma),
                                      serialize_matching(mb))):
            path.write_text(text)

        def rank(u, m):
            p = m.partner(u)
            return len(inst.prefs[u]) if p is None else inst.prefs[u].index(p)

        for_a = sum(rank(u, ma) < rank(u, mb) for u in inst.vertices)
        for_b = sum(rank(u, mb) < rank(u, ma) for u in inst.vertices)
        assert run(["election", *map(str, paths), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "phi_ab": for_a, "phi_ba": for_b, "delta": for_a - for_b,
        }


def test_election_json(files, capsys):
    run(
        ["election", str(files / "fig1.inst"), str(files / "m1.match"),
         str(files / "m3.match"), "--json"]
    )
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"phi_ab": 2, "phi_ba": 2, "delta": 0}


def test_classify_popular_stable(files, capsys):
    code = run(["classify", str(files / "fig1.inst"), "--all-popular-stable"])
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "NO"
    assert set(out[1:]) == {"a1 b2", "a2 b1"}


def test_classify_popular_dominant_requires_exhaustive(files, capsys):
    assert run(["classify", str(files / "fig1.inst"), "--all-popular-dominant"]) == 2
    code = run(
        ["classify", str(files / "fig1.inst"), "--all-popular-dominant", "--exhaustive"]
    )
    assert code == 1  # m1 is popular yet not dominant


def test_classify_yes_case(tmp_path, capsys):
    # one couple, one edge: the only popular matching is the stable one
    inst = tmp_path / "tiny.inst"
    inst.write_text("marriage\nA a\nB b\na: b\nb: a\n")
    assert run(["classify", str(inst), "--all-popular-stable"]) == 0
    assert capsys.readouterr().out.strip() == "YES"


def test_oracle_text(files, capsys):
    assert run(["oracle", str(files / "fig1.inst")]) == 0
    out = capsys.readouterr().out
    assert "matchings 15" in out
    assert "stable 1" in out and "popular 2" in out and "dominant 1" in out


def test_oracle_json(files, capsys):
    assert run(["oracle", str(files / "fig1.inst"), "--json"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert lines[0] == {"matchings": 15}
    assert len(lines[2]["popular"]) == 2


def test_oracle_cap_env(files, capsys, monkeypatch):
    monkeypatch.setenv("POPMATCH_CAP", "4")
    assert run(["oracle", str(files / "fig1.inst")]) == 2
    assert "cap" in capsys.readouterr().err


def test_reduce_writes_instance_and_roles(tmp_path, capsys):
    cnf = tmp_path / "sat.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    assert run(["reduce", str(cnf), "--target", "g4"]) == 0
    capsys.readouterr()
    inst = tmp_path / "sat.g4.inst"
    roles = tmp_path / "sat.g4.roles"
    assert inst.exists() and roles.exists()
    from popmatch.model import parse_instance

    parsed = parse_instance(inst.read_text())
    assert len(parsed.vertices) == 54
    role_lines = roles.read_text().splitlines()
    assert all(len(l.split()) == 2 for l in role_lines)
    named = {l.split()[1] for l in role_lines}
    assert named == set(parsed.vertices)


def test_reduce_verify_unsat_exact_line(tmp_path, capsys):
    cnf = tmp_path / "contradiction.cnf"
    cnf.write_text(CONTRADICTION_DIMACS)
    code = run(["reduce", str(cnf), "--target", "g5", "--verify"])
    assert code == 0
    out = capsys.readouterr().out
    assert "UNSAT ⇒ no stable∧dominant matching: CONFIRMED" in out


def test_reduce_verify_judges_stable_matchings_one_at_a_time(tmp_path, capsys, monkeypatch):
    """On an unsatisfiable formula the base instance's stable matchings are
    streamed: when one is listed, only the one judged last is still alive."""
    seen, most_alive = [], 0

    def stream(inst, node_budget=10_000_000):
        nonlocal most_alive
        for m in oracle.iter_stable_matchings(inst, node_budget):
            most_alive = max(most_alive, sum(r() is not None for r in seen))
            seen.append(weakref.ref(m))
            yield m

    monkeypatch.setattr(cli, "iter_stable_matchings", stream)
    cnf = tmp_path / "x1_and_not_x1.cnf"
    cnf.write_text("p cnf 1 2\n1 1 0\n-1 -1 0\n")
    assert run(["reduce", str(cnf), "--target", "g4", "--verify"]) == 0
    assert "UNSAT ⇒ every stable matching is dominant: CONFIRMED" in capsys.readouterr().out
    assert len(seen) == 81 and most_alive == 1


def test_reduce_verify_sat_targets(tmp_path, capsys):
    cnf = tmp_path / "sat.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    for target in ("g4", "g5", "g4max", "hmin", "hroom"):
        assert run(["reduce", str(cnf), "--target", target, "--verify"]) == 0
        assert "CONFIRMED" in capsys.readouterr().out


def test_reduce_rejects_bad_target(tmp_path):
    cnf = tmp_path / "sat.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    assert run(["reduce", str(cnf), "--target", "g9"]) == 2


def test_corpus_deterministic(tmp_path, capsys):
    out1 = tmp_path / "c1"
    out2 = tmp_path / "c2"
    for out in (out1, out2):
        code = run(
            ["corpus", "--random", "n=4", "count=3", "seed=9", "--out-dir", str(out)]
        )
        assert code == 0
    capsys.readouterr()
    names = sorted(p.name for p in out1.iterdir())
    assert len(names) == 3
    for name in names:
        assert (out1 / name).read_text() == (out2 / name).read_text()


def test_corpus_bad_params(tmp_path):
    assert run(["corpus", "--random", "count=3", "--out-dir", str(tmp_path)]) == 2
    assert run(["corpus", "--random", "n=4", "kind=pets", "--out-dir", str(tmp_path)]) == 2


def test_missing_file_is_usage_error(capsys):
    assert run(["solve", "--stable", "absent.inst"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand():
    assert run(["conquer"]) == 2

"""The benchmark's checks accept right outputs and catch wrong ones.

Right outputs come from popmatch itself on small inputs (under 200 edges,
so the compiled probe is never built).  Each check must accept them and
must catch the same output with its verdict flipped or with one matching
edge moved.  Run with ``PYTHONPATH=src python -m pytest perfbench``; the
whole file takes about a second.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import instances as gen  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402


def _run(tmp_path: Path, name: str, text: str, argv_head, extra=()):
    path = tmp_path / name
    path.write_text(text)
    _, code, out = worker._cli_op([*argv_head, str(path), *extra, "--json"])
    return str(path), code, out


def _lines(*objs) -> dict:
    return {"stdout": "".join(json.dumps(o) + "\n" for o in objs), "stderr": ""}


def _moved(market, pairs):
    """``pairs`` with one edge moved to a neighbour that is free, or else taken."""
    matched = {v for e in pairs for v in e}
    for i, (a, b) in enumerate(pairs):
        others = [v for v in market.prefs[a] if v != b]
        if others:
            free = [v for v in others if v not in matched]
            return pairs[:i] + [(a, (free or others)[0])] + pairs[i + 1 :]
    raise ValueError("no matching edge can move")


def _market(seed: int = 3, n: int = 6):
    return gen.random_market(random.Random(seed), n, n, 0.6)


def test_popularity_and_dominance_agree_with_head_to_head_counts():
    rng = random.Random(7)
    for _ in range(25):
        market = gen.random_market_edges(rng, 3, 3, rng.randint(3, 9))
        for m, truth in checks.classify_all(market).items():
            assert checks.is_popular(market, sorted(m)) == truth["popular"]
            assert checks.is_dominant(market, sorted(m)) == truth["dominant"]


def test_own_dominant_matching_is_dominant_and_witnessed():
    rng = random.Random(8)
    for _ in range(10):
        market = gen.random_market(rng, 8, 8, 0.4)
        pairs, witness = checks.dominant_matching(market)
        assert checks.is_dominant(market, pairs)
        assert not checks.witness_violations(market, pairs, witness)


def test_decide_checks(tmp_path):
    market = wl._larger_dominant(random.Random(1), 12, 3)
    _, code, out = _run(tmp_path, "r.inst", market.text(), ["classify", "--all-popular-stable"])
    check = wl._decide_no(market)
    assert check(code, out) is None
    [obj] = wl._json_lines(out)
    assert check(0, _lines(dict(obj, verdict=True, counterexample=None))) is not None
    moved = _moved(market, wl._pairs(obj["counterexample"]))
    assert check(code, _lines(dict(obj, counterexample=moved))) is not None

    _, code, out = _run(tmp_path, "c.inst", gen.chain(40).text(), ["classify", "--all-popular-stable"])
    assert wl._decide_yes(code, out) is None
    assert wl._decide_yes(1, _lines(dict(wl._json_lines(out)[0], verdict=False))) is not None


def test_solve_checks(tmp_path):
    market = _market()
    inst, code, out = _run(tmp_path, "m.inst", market.text(), ["solve", "--stable"])
    assert wl._solve_stable(market)(code, out) is None
    moved = _moved(market, wl._pairs(wl._json_lines(out)[0]["matching"]))
    assert wl._solve_stable(market)(code, _lines({"matching": moved})) is not None

    _, code, out = worker._cli_op(["solve", "--dominant", inst, "--json"])
    check = wl._solve_dominant(market)
    assert check(code, out) is None
    [obj] = wl._json_lines(out)
    moved = _moved(market, wl._pairs(obj["matching"]))
    assert check(code, _lines(dict(obj, matching=moved))) is not None


@pytest.mark.parametrize("mode", ["--stable", "--popular", "--dominant"])
def test_verify_checks_catch_flipped_verdicts(tmp_path, mode):
    market = _market()
    make = {"--stable": wl._verify_stable, "--popular": wl._verify_popular, "--dominant": wl._verify_dominant}[mode]
    field = mode[2:]
    rng = random.Random(5)
    for i, pairs in enumerate(
        [checks.gale_shapley(market), checks.dominant_matching(market)[0], gen.random_maximal(rng, market)]
    ):
        inst = tmp_path / "m.inst"
        inst.write_text(market.text())
        mpath = tmp_path / f"{i}.match"
        mpath.write_text(gen.matching_text(pairs))
        _, code, out = worker._cli_op(["verify", mode, str(inst), str(mpath), "--json"])
        check = make(market, pairs)
        assert check(code, out) is None
        [obj] = wl._json_lines(out)
        assert check(1 - code, _lines(dict(obj, **{field: not obj[field]}))) is not None


def test_witness_check(tmp_path):
    market = _market()
    pairs, witness = checks.dominant_matching(market)
    inst = tmp_path / "m.inst"
    inst.write_text(market.text())
    (tmp_path / "d.match").write_text(gen.matching_text(pairs))
    (tmp_path / "d.wit").write_text(gen.witness_text(witness))
    _, code, out = worker._cli_op(
        ["verify", "--witness", str(inst), str(tmp_path / "d.match"), str(tmp_path / "d.wit"), "--json"]
    )
    check = wl._verify_witness(market, pairs, witness)
    assert check(code, out) is None
    assert check(1, _lines({"valid": False, "violations": [["sum", "1"]]})) is not None


def test_ladder_certificate():
    market, pairs = gen.diamond_ladder(3)
    assert not checks.is_popular(market, pairs)
    assert checks.structure_ok(market, pairs, "cycle", ["p", "s", "q", "r"])
    assert not checks.structure_ok(market, pairs, "path", ["f", "b1_1", "a1_1"])


def test_reduce_check_catches_the_wrong_branch(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(gen.dimacs_text(1, gen.contradiction()))
    _, code, out = worker._cli_op(["reduce", str(cnf), "--target", "g5", "--verify", "--json", "--out-dir", str(tmp_path)])
    assert wl._reduce_check(False)(code, out) is None
    assert wl._reduce_check(True)(code, out) is not None


def test_sweep_check(tmp_path):
    market = gen.random_market_edges(random.Random(4), 3, 3, 7)
    path = tmp_path / "t.inst"
    path.write_text(market.text())
    _, code, out = worker._sweep_op(str(path))
    check = wl._sweep_check(market)
    assert check(code, out) is None

    row = out["predicates"][0]
    flipped = dict(out, predicates=[dict(row, popular_weight=not row["popular_weight"])] + out["predicates"][1:])
    assert check(code, flipped) is not None

    popular = out["oracle"]["popular"]
    moved = [_moved(market, wl._pairs(popular[0]))] + popular[1:]
    assert check(code, dict(out, oracle=dict(out["oracle"], popular=moved))) is not None


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    import tracing

    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.METRICS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "op_p50_ms", "op_p95_ms", "peak_rss_mb"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.BUILDERS)

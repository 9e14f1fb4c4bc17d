"""The verification harness: suites, reports, determinism, parallel mode."""

import json

import pytest

import entrank.harness as harness
from entrank.digraph import Digraph
from entrank.harness import (
    VerificationReport,
    run_equivalence_suite,
    run_theorem_suite,
)

from conftest import dg, ucycle_edges

SMALL = "random:n=4,p=0.35,seed=3,count=12"


def test_theorem_suite_small_corpus():
    rep = run_theorem_suite(SMALL)
    assert rep.ok
    assert rep.checked == 12
    assert rep.violations == 0
    assert rep.corpus == SMALL
    for rec in rep.records:
        assert rec.entanglement <= rec.rank
        assert rec.theorem_ok is True


def test_theorem_suite_with_translation():
    rep = run_theorem_suite("random:n=4,p=0.4,seed=9,count=8", translate=True)
    assert rep.ok
    assert all(rec.certificate_ok for rec in rep.records)


def test_equivalence_suite_small_corpus():
    rep = run_equivalence_suite("random:n=4,p=0.35,seed=5,count=10")
    assert rep.ok
    for rec in rep.records:
        assert rec.rank == rec.shrink_game_k == rec.comeback_game_k
        assert rec.entanglement == rec.et_k == rec.entv_k
        assert rec.skips == []


def test_explicit_graph_list_corpus():
    graphs = [("a", dg(4, ucycle_edges(4))), ("b", Digraph(2, [(0, 1)]))]
    rep = run_theorem_suite(graphs)
    assert rep.ok and rep.checked == 2
    assert rep.corpus == "explicit:2 graphs"
    assert rep.records[0].graph_id == "a"


def test_family_corpus():
    rep = run_equivalence_suite("family:name=ucycle,size=5")
    assert rep.ok and rep.checked == 1
    rec = rep.records[0]
    assert rec.rank == rec.entanglement == 3


def test_tiny_ceiling_reports_skips_not_failures():
    rep = run_theorem_suite("family:name=clique,size=5", ceiling=10)
    assert rep.ok  # a skip is not a violation
    assert rep.skips >= 1
    assert rep.records[0].skips


def test_ceiling_caps_rank_memo_and_pursuit_arena():
    # clique-5's rank memo holds 28 entries, its pursuit arena more
    rec = run_theorem_suite("family:name=clique,size=5", ceiling=27).records[0]
    assert rec.rank is None and rec.skips == ["rank memo exceeded 27 entries"]
    rec = run_theorem_suite("family:name=clique,size=5", ceiling=28).records[0]
    assert rec.rank == 4 and rec.skips == ["pursuit arena exceeded 28 positions"]
    rec = run_equivalence_suite("family:name=clique,size=5", ceiling=27).records[0]
    assert rec.rank is None and rec.skips == ["rank memo exceeded 27 entries"]


def test_big_graphs_skip_game_cross_checks():
    big = [("big", dg(7, ucycle_edges(7)))]
    rep = run_equivalence_suite(big)
    rec = rep.records[0]
    # n=7 exceeds both game sweep guards; the skips say which checks stayed off
    assert rec.shrink_game_k is None and rec.comeback_game_k is None
    assert any("shrink" in s for s in rec.skips)
    assert any("comeback" in s for s in rec.skips)
    assert rep.ok


def test_json_report_is_deterministic_and_excludes_timing():
    rep1 = run_theorem_suite(SMALL)
    rep2 = run_theorem_suite(SMALL)
    assert rep1.to_json() == rep2.to_json()
    obj = json.loads(rep1.to_json())
    assert obj["summary"] == {"checked": 12, "violations": 0, "skips": 0}
    assert "wall_time" not in json.dumps(obj)
    # wall_time still shows up for humans
    assert rep1.wall_time > 0
    assert "OK" in rep1.summary_line()


def test_parallel_equals_serial():
    rep1 = run_theorem_suite(SMALL, translate=True, jobs=1)
    rep2 = run_theorem_suite(SMALL, translate=True, jobs=2)
    assert rep1.to_json() == rep2.to_json()


def test_planted_violation_is_reported(monkeypatch):
    # force the rank engine to lie so the theorem check must fire
    monkeypatch.setattr(harness, "rank", lambda g, ceiling=None: -1)
    rep = run_theorem_suite([("seeded", dg(3, ucycle_edges(3)))], jobs=1)
    assert not rep.ok
    assert rep.violations == 1
    assert "exceeds rank" in rep.records[0].failures[0]
    assert "FAIL" in rep.summary_line()

"""The verification harness: suites, reports, determinism, parallel mode."""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

import entrank.harness as harness
from entrank.digraph import Digraph
from entrank.entgames import solve_pursuit
from entrank.gamecore import COPS, ReplayReport
from entrank.harness import (
    ReportRecord,
    VerificationReport,
    run_equivalence_suite,
    run_theorem_suite,
)

from conftest import dg, ucycle_edges

VARIANTS = ("ent", "et", "entv")

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


# -------------------------------------------- lifted certificates in the sweep


def _reference_sweep(g):
    """The variant sweep solved at every ``k``, and each solved winner."""
    rec = ReportRecord("g", g.n, [])
    solved = {}
    first_win = dict.fromkeys(VARIANTS)
    for k in range(g.n + 1):
        winners = {v: solve_pursuit(g, k, v).winner for v in VARIANTS}
        solved.update(((v, k), w) for v, w in winners.items())
        for variant, w in winners.items():
            if w == COPS and first_win[variant] is None:
                first_win[variant] = k
        if len(set(winners.values())) > 1:
            rec.failures.append(f"variant winners disagree at k={k}: {winners}")
    rec.ent_k, rec.et_k, rec.entv_k = (first_win[v] for v in VARIANTS)
    rec.entanglement = rec.ent_k
    if len({v for v in first_win.values() if v is not None}) > 1:
        rec.failures.append(f"variant min-k values disagree: {first_win}")
    return rec, solved


def _sweep(g):
    rec = ReportRecord("g", g.n, [])
    harness._sweep_variants(g, rec, None)
    return rec


@st.composite
def sweep_graphs(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return dg(n, sorted(set(draw(st.lists(pairs, max_size=2 * n)))))


@given(sweep_graphs())
@settings(max_examples=40, deadline=None)
def test_lifted_verdicts_match_solving_every_k(g):
    lifted = []
    real_verify = harness.verify_certificate

    def spy(g_, variant, k, cert, ceiling=None):
        rep = real_verify(g_, variant, k, cert, ceiling=ceiling)
        if rep.ok:
            lifted.append((variant, k))
        return rep

    harness.verify_certificate = spy
    try:
        rec = _sweep(g)
    finally:
        harness.verify_certificate = real_verify
    want, solved = _reference_sweep(g)
    for variant, k in lifted:
        assert solved[variant, k] == COPS, (variant, k, g.edges)
    assert rec.to_obj() == want.to_obj()
    # every variant lifts at each k above its least winning k
    least = {v: getattr(rec, f"{v}_k") for v in VARIANTS}
    assert sorted(lifted) == sorted(
        (v, k) for v in VARIANTS for k in range(least[v] + 1, g.n + 1)
    )


def test_rejected_lift_falls_back_to_solving(monkeypatch):
    g = dg(5, ucycle_edges(5))
    lifted = _sweep(g)
    asked, solved = [], []
    real_solve = harness.solve_pursuit

    def reject(g_, variant, k, cert, ceiling=None):
        asked.append((variant, k))
        return ReplayReport(False, "rejected for the test")

    def count(g_, k, variant, ceiling=None):
        solved.append((variant, k))
        return real_solve(g_, k, variant, ceiling=ceiling)

    monkeypatch.setattr(harness, "verify_certificate", reject)
    monkeypatch.setattr(harness, "solve_pursuit", count)
    rec = _sweep(g)
    assert json.dumps(rec.to_obj()) == json.dumps(lifted.to_obj())
    assert sorted(solved) == sorted((v, k) for v in VARIANTS for k in range(g.n + 1))
    # every variant's least k on ucycle-5 is 3; each k above it was offered as a lift
    assert (rec.ent_k, rec.et_k, rec.entv_k) == (3, 3, 3)
    assert sorted(asked) == sorted((v, k) for v in VARIANTS for k in (4, 5))


CEILING_CORPUS = "random:n=5,p=0.3,seed=7,count=20"


def test_small_ceiling_skips_only_up_to_the_least_k():
    # a lifted win builds no arena, so it cannot trip the ceiling: only
    # levels up to a variant's least winning k can be skipped
    full = run_equivalence_suite(CEILING_CORPUS)
    assert full.skips == 0
    bounded = run_equivalence_suite(CEILING_CORPUS, ceiling=400)
    assert bounded.ok and bounded.skips > 0
    for rec, want in zip(bounded.records, full.records):
        for variant in VARIANTS:
            got = getattr(rec, f"{variant}_k")
            assert got in (None, getattr(want, f"{variant}_k"))
        for skip in rec.skips:
            variant, k = re.fullmatch(
                r"(\w+) arena exceeded 400 positions at k=(\d+)", skip
            ).groups()
            least = getattr(rec, f"{variant}_k")
            assert least is None or int(k) <= least, (rec.graph_id, skip)
    # solving every k skips 16 levels at this ceiling; the lift none
    assert run_equivalence_suite(CEILING_CORPUS, ceiling=1000).to_json() == full.to_json()

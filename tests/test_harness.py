"""The verification harness: suites, reports, determinism, parallel mode."""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

import entrank.gamecore as gamecore
import entrank.harness as harness
from entrank.digraph import Digraph
from entrank.entgames import PursuitGame, solve_pursuit
from entrank.gamecore import COPS, THIEF, ArenaCeilingError, GameResult, ReplayReport
from entrank.harness import (
    ReportRecord,
    VerificationReport,
    run_equivalence_suite,
    run_theorem_suite,
)
from entrank.translate import TranslationError

from conftest import dg, dicycle_edges, ucycle_edges

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
    # clique-5's rank memo holds 4 entries (one deletion per level, as
    # its vertices are twins), its pursuit arena more
    rec = run_theorem_suite("family:name=clique,size=5", ceiling=3).records[0]
    assert rec.rank is None and rec.skips == ["rank memo exceeded 3 entries"]
    rec = run_theorem_suite("family:name=clique,size=5", ceiling=4).records[0]
    assert rec.rank == 4 and rec.skips == ["pursuit arena exceeded 4 positions"]
    rec = run_equivalence_suite("family:name=clique,size=5", ceiling=3).records[0]
    assert rec.rank is None and rec.skips == ["rank memo exceeded 3 entries"]


def test_shrink_ceiling_is_a_skip():
    # clique-6's rank memo holds 5 entries; its shrink game stores 99
    # positions at k = 4, so a ceiling of 80 stops the shrink check only
    rep = run_equivalence_suite("family:name=clique,size=6", ceiling=80)
    rec = rep.records[0]
    assert rep.ok and rec.rank == 5 and rec.shrink_game_k is None
    assert "shrink-game arena exceeded 80 positions" in rec.skips
    rec = run_equivalence_suite("family:name=clique,size=6", ceiling=99).records[0]
    assert rec.shrink_game_k == 5
    assert not [s for s in rec.skips if s.startswith("shrink")]


def test_tripped_translation_or_replay_is_a_skip():
    # on dicycle-3 at k = rank = 1 the comeback game stores 3 positions,
    # the translation 12 and the replay of its certificate 13
    g = dg(3, dicycle_edges(3))
    for ceiling, skips in ((2, ["comeback arena exceeded 2 positions at k=1"]),
                           (5, ["translation exceeded 5 positions at k=1"]),
                           (12, ["entv replay exceeded 12 positions at k=1"]),
                           (13, [])):
        rec = ReportRecord("g", 3, [], rank=1)
        harness.translate_and_verify(g, 1, rec, ceiling)
        assert rec.skips == skips and rec.failures == []
        assert rec.certificate_ok is (None if skips else True)


def _fail_translation(*args, **kwargs):
    raise TranslationError("x")


@pytest.mark.parametrize("target, stub, failure", [
    pytest.param("solve_comeback_game", lambda *args, **kwargs: GameResult(THIEF),
                 "comeback game lost at k=1", id="comeback-lost"),
    pytest.param("translate_rank_strategy", _fail_translation,
                 "strategy translation failed at k=1: x", id="translation-failed"),
])
def test_lost_comeback_or_failed_translation_is_a_failure(monkeypatch, target, stub, failure):
    monkeypatch.setattr(harness, target, stub)
    rec = ReportRecord("g", 3, [], rank=1)
    harness.translate_and_verify(dg(3, dicycle_edges(3)), 1, rec, None)
    assert rec.failures == [failure] and rec.skips == []
    assert rec.certificate_ok is False


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
    # workers get each graph pickled, in both suites
    for suite, kwargs in ((run_theorem_suite, {"translate": True}), (run_equivalence_suite, {})):
        rep1 = suite(SMALL, jobs=1, **kwargs)
        rep2 = suite(SMALL, jobs=2, **kwargs)
        assert rep1.to_json() == rep2.to_json(), suite.__name__


def test_pool_is_never_larger_than_the_task_count(monkeypatch):
    # a fork-started pool forks every worker at once: record the size asked
    # for instead of starting any process
    asked = []

    class Recorder:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Recorder)
    g = dg(3, ucycle_edges(3))
    for suite in (run_theorem_suite, run_equivalence_suite):
        assert suite([("a", g), ("b", g)], jobs=10**6).checked == 2
        assert suite([("a", g)], jobs=10**6).checked == 1
    assert asked == [2, 2]


def test_planted_violation_is_reported(monkeypatch):
    # force the rank engine to lie so the theorem check must fire
    monkeypatch.setattr(harness, "rank", lambda g, ceiling=None: -1)
    rep = run_theorem_suite([("seeded", dg(3, ucycle_edges(3)))], jobs=1)
    assert not rep.ok
    assert rep.violations == 1
    assert "exceeds rank" in rep.records[0].failures[0]
    assert "FAIL" in rep.summary_line()


# ------------------------------------------ the sweep: two solves and replays


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
    replayed, solves = [], []
    real_verify, real_solve = harness.verify_certificate, harness.solve_pursuit

    def verify(g_, variant, k, cert, ceiling=None):
        rep = real_verify(g_, variant, k, cert, ceiling=ceiling)
        replayed.append((variant, k, cert.winner, rep.ok))
        return rep

    def solve(g_, k, variant, ceiling=None):
        solves.append((variant, k))
        return real_solve(g_, k, variant, ceiling=ceiling)

    harness.verify_certificate, harness.solve_pursuit = verify, solve
    try:
        rec = _sweep(g)
    finally:
        harness.verify_certificate, harness.solve_pursuit = real_verify, real_solve
    want, solved = _reference_sweep(g)
    assert rec.to_obj() == want.to_obj()
    # ent is solved up to its least k, e, and entv at e - 1: at most e + 2
    # solves.  Per certificate and variant, the replays are the unsolved
    # levels from e outward up to the first accepted one; every replay
    # here is accepted, so that is the first unsolved level alone, and it
    # decides every farther level with the solved winner
    e = rec.ent_k
    assert solves == [("ent", k) for k in range(e + 1)] + [("entv", e - 1)] * (e > 0)
    assert len(solves) <= e + 2
    first = []
    for winner, levels in ((COPS, range(e, g.n + 1)), (THIEF, range(e - 1, -1, -1))):
        for v in VARIANTS:
            first += [(v, k, winner, True) for k in levels if (v, k) not in solves][:1]
    assert replayed == first
    for variant, k, winner, _ in replayed:
        assert winner == solved[variant, k], (variant, k, g.edges)


def _least_ceiling(g, k, variant):
    """The smallest ceiling that the solve of ``variant`` at ``k`` fits."""
    lo, hi = 1, gamecore.DEFAULT_POSITION_CEILING
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            solve_pursuit(g, k, variant, ceiling=mid)
        except ArenaCeilingError:
            lo = mid + 1
        else:
            hi = mid
    return lo


@given(sweep_graphs())
@settings(max_examples=40, deadline=None)
def test_both_certificates_replay_at_every_level_within_their_solves_ceilings(g):
    # the ent cops certificate at e holds in every variant at every k >= e,
    # the entv thief certificate at e - 1 in every variant at every k < e;
    # a pursuit position depends on neither k nor the variant, so each
    # replay meets only positions that its certificate's solve stored and
    # fits the smallest ceiling that solve fits
    e = gamecore.least_winning_k(g, "ent")
    solves = [("ent", e, range(e, g.n + 1))] + [("entv", e - 1, range(e))] * (e > 0)
    for solved, k0, levels in solves:
        ceiling = _least_ceiling(g, k0, solved)
        cert = solve_pursuit(g, k0, solved, ceiling=ceiling).certificate
        for k in levels:
            for variant in VARIANTS:
                moved = gamecore.StrategyCertificate(variant, k, cert.winner, cert.moves)
                assert gamecore.verify_certificate(g, variant, k, moved, ceiling=ceiling).ok, (
                    solved, variant, k, g.edges)


@given(sweep_graphs())
@settings(max_examples=30, deadline=None)
def test_one_more_cop_keeps_every_cops_move_and_changes_nothing_else(g):
    # the lemma behind one accepted replay per variant and side: at every
    # position reachable with k cops, k + 1 cops keep every cops move and
    # change neither the thief's moves nor who has won
    masks = range(1 << g.n)
    for variant in VARIANTS:
        for k in range(g.n):
            game, more = PursuitGame(g, k, variant), PursuitGame(g, k + 1, variant)
            seen = {game.initial_position()}
            todo = list(seen)
            while todo:
                pos = todo.pop()
                assert game.winner_if_terminal(pos) == more.winner_if_terminal(pos)
                nxt = game.successors(pos)
                if game.owner(pos) == THIEF:
                    assert nxt == more.successors(pos), (variant, k, pos, g.edges)
                else:
                    v, cmask, vmask, _ = pos
                    assert (set(game.cop_configs(v, cmask, vmask))
                            <= set(more.cop_configs(v, cmask, vmask))), (variant, k, pos)
                    for c2 in masks:
                        for t2 in masks if variant == "entv" else (0,):
                            assert (not game._cops_move_legal(v, cmask, vmask, c2, t2)
                                    or more._cops_move_legal(v, cmask, vmask, c2, t2)), (
                                variant, k, pos, c2, t2, g.edges)
                for q in nxt:
                    if q not in seen:
                        seen.add(q)
                        todo.append(q)


UCYCLE5 = dg(5, ucycle_edges(5))  # every variant's least k is 3


def _sweep_with(monkeypatch, change):
    """Sweep ucycle-5 with each solve's result passed through
    ``change(variant, k, result)``; the record and the solves made."""
    solves = []

    def solve(g_, k, variant, ceiling=None):
        solves.append((variant, k))
        return change(variant, k, solve_pursuit(g_, k, variant, ceiling=ceiling))

    monkeypatch.setattr(harness, "solve_pursuit", solve)
    return _sweep(UCYCLE5), solves


def test_changed_thief_move_is_a_failure(monkeypatch):
    # the thief's answer to the first cops move, which puts a cop on its
    # start vertex, becomes a step onto that cop
    def change(variant, k, res):
        if variant != "entv":
            return res
        cert = res.certificate
        start = cert.moves[("init",)][1]
        key = (start, (start,), (), THIEF)
        assert key in cert.moves
        moves = {**cert.moves, key: ("to", start)}
        return GameResult(THIEF, gamecore.StrategyCertificate("entv", k, THIEF, moves))

    rec, solves = _sweep_with(monkeypatch, change)
    assert solves == [("ent", k) for k in range(4)] + [("entv", 2)]
    # the cops can place that cop at k >= 1: et at 1 and 2, entv at 1
    rejected = [re.fullmatch(r"entv thief certificate from k=2 rejected as (\w+) at "
                             r"k=(\d): recorded move \('to', \d\) is illegal at .*", f)
                for f in rec.failures]
    assert all(rejected), rec.failures
    assert sorted(m.groups() for m in rejected) == [("entv", "1"), ("et", "1"), ("et", "2")]
    assert (rec.ent_k, rec.et_k, rec.entv_k) == (3, None, None)
    assert rec.skips == []


def test_cops_certificate_offered_below_its_budget_is_a_failure(monkeypatch):
    # ent's cops certificate from k = 3 passed off as a cops win at k = 2
    def change(variant, k, res):
        if variant != "ent" or k != 2:
            return res
        cert = solve_pursuit(UCYCLE5, 3, "ent").certificate
        return GameResult(COPS, gamecore.StrategyCertificate("ent", 2, COPS, cert.moves))

    rec, solves = _sweep_with(monkeypatch, change)
    assert solves == [("ent", 0), ("ent", 1), ("ent", 2), ("entv", 1)]
    assert [f.split(": ")[0] for f in rec.failures] == [
        "ent cops certificate from k=2 rejected as et at k=2",
        "ent cops certificate from k=2 rejected as entv at k=2",
    ]
    assert (rec.et_k, rec.entv_k) == (None, None)


def test_entv_cops_win_below_the_least_k_is_a_failure(monkeypatch):
    def change(variant, k, res):
        return GameResult(COPS) if variant == "entv" else res

    rec, solves = _sweep_with(monkeypatch, change)
    assert solves == [("ent", k) for k in range(4)] + [("entv", 2)]
    assert rec.failures == ["entv won by the cops at k=2, below ent's first cops win at k=3"]
    assert (rec.ent_k, rec.et_k, rec.entv_k) == (3, None, None)


def test_tripped_least_level_is_a_skip_not_a_failure(monkeypatch):
    # ent trips at its least k, 3, and wins at 4; entv wins at 3, which is
    # no contradiction, and no least k is known
    def change(variant, k, res):
        if (variant, k) == ("ent", 3):
            raise ArenaCeilingError("ent", 7)
        return res

    rec, solves = _sweep_with(monkeypatch, change)
    assert solves == [("ent", k) for k in range(5)] + [("entv", 3)]
    assert rec.skips == ["ent arena exceeded 7 positions at k=3"]
    assert rec.failures == []
    assert (rec.ent_k, rec.et_k, rec.entv_k) == (None, None, None)


def test_tripped_level_below_the_least_k_is_decided_by_the_thief(monkeypatch):
    def change(variant, k, res):
        if (variant, k) == ("ent", 1):
            raise ArenaCeilingError("ent", 7)
        return res

    rec, _ = _sweep_with(monkeypatch, change)
    assert rec.skips == ["ent arena exceeded 7 positions at k=1"]
    assert rec.failures == []
    assert (rec.ent_k, rec.et_k, rec.entv_k) == (3, 3, 3)


def test_rejected_lift_is_a_failure_and_nothing_is_re_solved(monkeypatch):
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
    rec = _sweep(UCYCLE5)
    # ent is solved up to its least k, 3, and entv at 2; every other level
    # was offered as a replay, and none was solved
    assert solved == [("ent", k) for k in range(4)] + [("entv", 2)]
    assert sorted(asked) == sorted(
        (v, k) for v in VARIANTS for k in range(6) if (v, k) not in solved
    )
    # one failure per replayed level, naming the certificate's game, both
    # budgets and the reason; ent alone has its least k from its solves
    assert rec.failures == [
        f"ent cops certificate from k=3 rejected as {v} at k={k}: rejected for the test"
        for k in (3, 4, 5) for v in VARIANTS if (v, k) != ("ent", 3)
    ] + [
        f"entv thief certificate from k=2 rejected as {v} at k={k}: rejected for the test"
        for k in (0, 1, 2) for v in ("et", "entv") if (v, k) != ("entv", 2)
    ]
    assert (rec.ent_k, rec.et_k, rec.entv_k) == (3, None, None)
    assert rec.skips == []


@pytest.mark.parametrize("replays", (True, False))
def test_sweep_walks_only_the_two_solved_certificates(monkeypatch, replays):
    # the ent certificate at its first cops win and the entv one below it
    # are read to be replayed; every other solve gives its winner alone and
    # walks nothing, and a rejected replay solves nothing
    walked = []
    real_walk = gamecore._walk_strategy

    def count(game, *arrays):
        walked.append((game.game_id, game.k))
        return real_walk(game, *arrays)

    monkeypatch.setattr(gamecore, "_walk_strategy", count)
    if not replays:
        monkeypatch.setattr(harness, "verify_certificate",
                            lambda *args, **kwargs: ReplayReport(False, "rejected for the test"))
    rec = _sweep(UCYCLE5)
    assert rec.ent_k == 3
    assert walked == [("ent", 3), ("entv", 2)]


CEILING_CORPUS = "random:n=5,p=0.3,seed=7,count=20"


def test_small_ceiling_skips_only_up_to_the_least_k():
    # a replay builds no arena and meets only positions its certificate's
    # solve stored, so only the two solves can trip: ent at a k up to its
    # first cops win, entv one below it.  At 60, 7 solves trip here; the
    # solves of one variant need not grow with k, and random-7-0014 trips
    # ent at its least k, 2, but solves it at 3, which must not be taken
    # for the least k
    full = run_equivalence_suite(CEILING_CORPUS)
    assert full.skips == 0
    bounded = run_equivalence_suite(CEILING_CORPUS, ceiling=60)
    assert bounded.ok and bounded.skips == 7
    for rec, want in zip(bounded.records, full.records):
        for variant in VARIANTS:
            got = getattr(rec, f"{variant}_k")
            assert got in (None, getattr(want, f"{variant}_k"))
        for skip in rec.skips:
            k = re.fullmatch(r"(?:ent|entv) arena exceeded 60 positions at k=(\d+)", skip)[1]
            assert rec.ent_k is None or int(k) < rec.ent_k, (rec.graph_id, skip)
    tripped = {rec.graph_id: rec for rec in bounded.records}["random-7-0014"]
    assert tripped.skips == ["ent arena exceeded 60 positions at k=2",
                             "entv arena exceeded 60 positions at k=2"]
    assert tripped.ent_k is None
    # solving every level up to each variant's least k skipped 13 at 200;
    # the two solves fit 80
    assert run_equivalence_suite(CEILING_CORPUS, ceiling=80).to_json() == full.to_json()


@pytest.mark.parametrize("suite", (run_theorem_suite, run_equivalence_suite))
def test_suites_refuse_counts_below_one(suite):
    for kwargs in ({"ceiling": 0}, {"ceiling": -5}, {"jobs": 0}, {"jobs": -3}):
        with pytest.raises(ValueError, match="must be at least 1"):
            suite(SMALL, **kwargs)
    # a ceiling of 1 is taken: the rank memo holds one strongly connected
    # mask, so 8 graphs stop there and the 4 of rank <= 1 in the games:
    # once each in the theorem suite; in the other, the 3 of rank 1 in both
    # rank games, and all 4 in the ent solve at each k = 0..4, so 8 + 3 * 7
    # + 5 skips
    rep = suite(SMALL, ceiling=1, jobs=1)
    assert sum(rec.rank is None for rec in rep.records) == 8
    assert all(rec.skips for rec in rep.records)
    assert rep.skips == {run_theorem_suite: 12, run_equivalence_suite: 34}[suite]

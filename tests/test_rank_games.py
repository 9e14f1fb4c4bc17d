"""The two token games whose optimal budgets equal the recursive rank."""

import random

import pytest

from entrank.digraph import Digraph
from entrank.gamecore import ArenaCeilingError, COPS, THIEF, least_winning_k
from entrank.rank import (
    ComebackGame,
    RankShrinkGame,
    rank,
    solve_comeback_game,
    solve_rank_game,
)

from conftest import clique_edges, dg, dicycle_edges, random_edges, upath_edges
from oracles import comeback_thief_wins, rank_value, shrink_thief_wins


def test_shrink_game_matches_rank_on_families():
    for n in range(1, 7):
        assert least_winning_k(dg(n, upath_edges(n)), "rank") == rank(dg(n, upath_edges(n)))
    for n in range(1, 5):
        assert least_winning_k(dg(n, clique_edges(n)), "rank") == n - 1
    assert least_winning_k(Digraph(0, []), "rank") == 0
    assert least_winning_k(Digraph(3, [(0, 1), (1, 2)]), "rank") == 0


def test_shrink_game_matches_rank_random():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randrange(6)
        edges = random_edges(n, 0.35, rng)
        assert least_winning_k(dg(n, edges), "rank") == rank_value(n, tuple(edges))


def test_shrink_winners_match_oracle_at_each_k():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(1, 5)
        edges = random_edges(n, 0.4, rng)
        g = dg(n, edges)
        for k in range(n + 1):
            res = solve_rank_game(g, k)
            expect = THIEF if shrink_thief_wins(n, tuple(edges), k) else COPS
            assert res.winner == expect, (n, edges, k)


def test_comeback_min_k_equals_rank():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(5)
        edges = random_edges(n, 0.4, rng)
        assert least_winning_k(dg(n, edges), "comeback") == rank_value(n, tuple(edges))
    for n in range(1, 6):
        assert least_winning_k(dg(n, dicycle_edges(n)), "comeback") == 1


def test_comeback_winners_match_oracle_at_each_k():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randrange(1, 5)
        edges = random_edges(n, 0.4, rng)
        g = dg(n, edges)
        for k in range(n + 1):
            res = solve_comeback_game(g, k)
            expect = THIEF if comeback_thief_wins(n, tuple(edges), k) else COPS
            assert res.winner == expect, (n, edges, k)


def test_ceiling_raises_instead_of_guessing():
    g = dg(4, clique_edges(4))
    with pytest.raises(ArenaCeilingError):
        solve_comeback_game(g, 2, ceiling=3)


# --- unit checks of the comeback game's position mechanics ---


def test_out_of_budget_with_cycles_is_a_thief_win():
    g = Digraph(2, [(0, 1), (1, 0)])
    game = ComebackGame(g, 0)
    p = game.initial_position()
    assert game.owner(p) == THIEF
    assert game.winner_if_terminal(p) == THIEF
    assert game.moves(p) == []


def test_no_cycles_no_entries_is_a_cops_win():
    game = ComebackGame(Digraph(2, [(0, 1)]), 1)
    p = game.initial_position()
    assert game.winner_if_terminal(p) == COPS


_BRIDGE = [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]


def test_forward_move_records_downstream_siblings():
    game = ComebackGame(Digraph(4, _BRIDGE), 2)
    p0 = game.initial_position()
    by_mask = {mv[1]: np for mv, np in game.moves(p0)}
    # entering the upstream 2-cycle banks the downstream one, frozen with
    # the current list and budget
    up = by_mask[(0, 1)]
    assert len(up.entries) == 1
    banked = up.entries[0]
    assert sorted(i for i in range(4) if banked.mask >> i & 1) == [2, 3]
    assert banked.n == 2 and banked.entries == ()
    # entering the downstream one banks nothing
    assert by_mask[(2, 3)].entries == ()


def test_exhausted_component_forces_a_comeback():
    game = ComebackGame(Digraph(4, _BRIDGE), 3)
    frontier = [game.initial_position()]
    seen = set()
    forced = None
    while frontier:
        p = frontier.pop()
        if (
            game.owner(p) == THIEF
            and p.entries
            and game.winner_if_terminal(p) is None
        ):
            kinds = {mv[0] for mv, _ in game.moves(p)}
            if kinds == {"comeback"}:
                forced = p
                break
        for _, np in game.moves(p):
            key = game.pos_key(np)
            if key not in seen:
                seen.add(key)
                frontier.append(np)
    assert forced is not None
    # the comeback restores a banked position verbatim
    for mv, np in game.moves(forced):
        assert mv[0] == "comeback"
        assert game.pos_key(np) in {game.pos_key(e) for e in forced.entries}


@pytest.mark.parametrize("game_type", [ComebackGame, RankShrinkGame], ids=["comeback", "rank"])
def test_comeback_positions_are_interned(game_type):
    # The solver keys its tables by the positions themselves, and a
    # comeback position hashes by identity, so equal positions must be one
    # object: two deletion orders reach the same thief position, and the
    # reachable objects are one-to-one with (mask, turn, entry uids, n).
    # The shrink game is the comeback game that records nothing, and
    # shares its positions.
    game = game_type(Digraph(4, clique_edges(4)), 3)
    routes = []
    for first, second in ((0, 1), (1, 0)):
        pos = game.initial_position()
        for mk in (("enter", (0, 1, 2, 3)), ("remove", first),
                   ("enter", tuple(v for v in range(4) if v != first)), ("remove", second)):
            pos = game.play(pos, mk)
        routes.append(pos)
    assert routes[0] is routes[1]
    assert (routes[0].mask, routes[0].turn, routes[0].n) == (0b1100, THIEF, 1)

    rng = random.Random(61)
    for _ in range(40):
        n = rng.randrange(1, 6)
        g = dg(n, random_edges(n, 0.35, rng))
        for k in range(n + 1):
            game = game_type(g, k)
            seen = {game.initial_position()}
            todo = list(seen)
            while todo:
                for q in game.successors(todo.pop()):
                    if q not in seen:
                        seen.add(q)
                        todo.append(q)
            shapes = {(p.mask, p.turn, tuple(e.uid for e in p.entries), p.n) for p in seen}
            assert len(shapes) == len(seen), (n, k)


def test_shrink_game_records_nothing():
    # entering a component records nothing, so every reachable shrink
    # position has an empty collection and no move is a comeback
    rng = random.Random(67)
    for _ in range(40):
        n = rng.randrange(1, 6)
        g = dg(n, random_edges(n, 0.4, rng))
        for k in range(n + 1):
            game = RankShrinkGame(g, k)
            seen = {game.initial_position()}
            todo = list(seen)
            while todo:
                p = todo.pop()
                assert p.entries == (), (n, k, p)
                for mk, q in game.moves(p):
                    assert mk[0] != "comeback", (n, k, p, mk)
                    if q not in seen:
                        seen.add(q)
                        todo.append(q)


@pytest.mark.parametrize("solve", [solve_rank_game, solve_comeback_game])
def test_thief_enters_the_lowest_winning_component(solve):
    # two disjoint 3-cliques, rank 2: at k = 1 either one wins for the
    # thief, and the certificate records the lower one, as successors
    # list components by smallest member
    g = Digraph(6, [(a + s, b + s) for s in (0, 3) for a, b in clique_edges(3)])
    res = solve(g, 1)
    assert res.winner == THIEF
    first = [mk for key, mk in res.certificate.moves.items() if key[0] == tuple(range(6))]
    assert first == [("enter", (0, 1, 2))]

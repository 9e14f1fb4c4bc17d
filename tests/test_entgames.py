"""Pursuit games for entanglement and its two reformulations."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from entrank import entgames
from entrank.digraph import Digraph, iter_mask, mask_of
from entrank.entgames import (
    COPS,
    THIEF,
    PursuitGame,
    _ent_cops_win,
    entanglement,
    solve_pursuit,
)
from entrank.gamecore import ArenaCeilingError, least_winning_k, verify_certificate
from entrank.muterm import parse, term_graph

from conftest import (
    clique_edges,
    dg,
    dicycle_edges,
    random_edges,
    three_name_term,
    ucycle_edges,
    upath_edges,
)
from oracles import (
    _cop_options,
    pursuit_cops_won,
    pursuit_min_k,
    pursuit_thief_moves,
    replay_by_moves,
)


# Frozen expected values (oracle: oracles.pursuit_min_k, variant "ent").
UPATH_ENT = [0, 1, 1, 2, 2, 2, 2, 2]  # n = 1..8; stays 2 from n=4 on


def test_degenerate_graphs():
    assert entanglement(Digraph(0, [])) == 0
    assert entanglement(Digraph(1, [])) == 0
    assert entanglement(Digraph(1, [(0, 0)])) == 1
    assert entanglement(Digraph(3, [(0, 1), (1, 2)])) == 0


def test_undirected_paths():
    for n in range(1, 9):
        assert entanglement(dg(n, upath_edges(n))) == UPATH_ENT[n - 1]


def test_cliques_and_cycles():
    for n in range(1, 6):
        assert entanglement(dg(n, clique_edges(n))) == n - 1
    for n in range(1, 7):
        assert entanglement(dg(n, dicycle_edges(n))) == 1
    assert [entanglement(dg(n, ucycle_edges(n))) for n in range(3, 7)] == [
        2,
        2,
        3,
        3,
    ]


@pytest.mark.parametrize("variant", ["ent", "et", "entv"])
def test_winners_match_oracle_at_each_k(variant):
    # The winner is the oracle's, both certificates replay, and the
    # thief's is the one the oracle's winning region fixes: at each thief
    # turn, the first successor the cops do not win.
    rng = random.Random(5 + len(variant))
    for i in range(28):
        n = rng.randrange(1, 5) if i < 25 else 6
        edges = random_edges(n, 0.45 if i < 25 else 0.3, rng)
        g = dg(n, edges)
        for k in range(n + 1):
            res = solve_pursuit(g, k, variant=variant)
            won = pursuit_cops_won(n, tuple(edges), k, variant)
            expect = COPS if ("start",) in won else THIEF
            assert res.winner == expect, (variant, n, edges, k)
            cert = res.certificate
            assert verify_certificate(g, variant, k, cert).ok, (variant, n, edges, k)
            game = PursuitGame(g, k, variant)
            assert replay_by_moves(game, cert)[0], (variant, n, edges, k)
            if expect == THIEF:
                assert cert.moves == pursuit_thief_moves(game, won), (variant, n, edges, k)


def test_min_k_matches_oracle():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randrange(5)
        edges = random_edges(n, 0.4, rng)
        g = dg(n, edges)
        assert entanglement(g) == pursuit_min_k(n, tuple(edges), "ent")


def test_variants_agree_with_each_other():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randrange(6)
        g = dg(n, random_edges(n, 0.35, rng))
        e = entanglement(g)
        assert least_winning_k(g, "et") == e
        assert least_winning_k(g, "entv") == e


def test_entanglement_is_the_least_winning_k_of_ent():
    # ``entanglement`` keeps its own least-k loop beside ``least_winning_k``
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randrange(7)
        g = dg(n, random_edges(n, 0.35, rng))
        assert entanglement(g) == least_winning_k(g, "ent")


def test_more_cops_never_hurt():
    rng = random.Random(47)
    for _ in range(20):
        n = rng.randrange(1, 6)
        g = dg(n, random_edges(n, 0.4, rng))
        wins = [
            solve_pursuit(g, k, variant="ent").winner == COPS for k in range(n + 1)
        ]
        # once the cops win at k they keep winning for larger budgets
        assert wins == sorted(wins)
        assert wins[-1], "n cops always win"


def test_three_name_term_is_solved_under_the_default_ceiling():
    # At d = 16 (79 vertices) the whole ent arena at k = 2 has more than
    # 400,000 positions; the cops win there, which needs far fewer.
    assert three_name_term(3) == "mu x. f(x, mu y. f(x, f(y, mu z. f(y, f(z, a)))))"
    g = term_graph(parse(three_name_term(16)))
    assert g.n == 79
    assert entanglement(g) == 2


def test_k_bounds_are_validated():
    g = dg(3, dicycle_edges(3))
    with pytest.raises(ValueError):
        solve_pursuit(g, -1)
    with pytest.raises(ValueError):
        solve_pursuit(g, 4)
    with pytest.raises(ValueError):
        solve_pursuit(g, 1, variant="nope")


def test_ceiling_raises_instead_of_guessing():
    g = dg(5, clique_edges(5))
    with pytest.raises(ArenaCeilingError):
        solve_pursuit(g, 2, variant="entv", ceiling=10)
    with pytest.raises(ArenaCeilingError):
        entanglement(dg(4, clique_edges(4)), ceiling=5)


def test_cop_configs_match_oracle_without_duplicates():
    # Every reachable cops position of each variant: the configurations
    # come out each once, those that put a real cop on the thief's vertex
    # first and each group sorted, and as a set equal the oracle's rules.
    rng = random.Random(53)
    for _ in range(10):
        n = rng.randrange(3, 7)
        g = dg(n, random_edges(n, 0.35, rng))
        for variant in ("ent", "et", "entv"):
            for k in range(n + 1):
                game = PursuitGame(g, k, variant)
                seen = {game.initial_position()}
                todo = [game.initial_position()]
                while todo:
                    pos = todo.pop()
                    if game.owner(pos) == COPS:
                        v, cmask, vmask, _ = pos
                        got = game.cop_configs(v, cmask, vmask)
                        assert len(set(got)) == len(got), (variant, n, k, pos)
                        occupy_first = sorted(got, key=lambda ct: (not ct[0] >> v & 1, ct))
                        assert got == occupy_first, (variant, n, k, pos)
                        want = {
                            (mask_of(c), mask_of(t))
                            for c, t in _cop_options(
                                v, frozenset(iter_mask(cmask)),
                                frozenset(iter_mask(vmask)), k, n, variant,
                            )
                        }
                        assert set(got) == want, (variant, n, k, pos)
                    for q in game.successors(pos):
                        if q not in seen:
                            seen.add(q)
                            todo.append(q)


@st.composite
def graphs_with_loops(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    present = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return n, [e for e, b in zip(product(range(n), repeat=2), present) if b]


@given(graphs_with_loops())
@settings(max_examples=200, deadline=None)
def test_mask_kernel_matches_the_local_solver_at_every_k(ne):
    # ``_ent_cops_win`` restates the ``ent`` rules in mask form; it is
    # called directly, so the dispatch in ``entanglement`` cannot hide it
    n, edges = ne
    g = dg(n, edges)
    for k in range(n + 1):
        assert _ent_cops_win(g, k) == (solve_pursuit(g, k, "ent").winner == COPS), (n, edges, k)
    assert entanglement(g) == pursuit_min_k(n, tuple(edges), "ent")


@pytest.mark.parametrize("n, edges, wins", [
    (0, [], [True]),
    (1, [], [True, True]),
    (1, [(0, 0)], [False, True]),
    # vertex 2 is a sink: a thief who enters it is stuck
    (3, [(0, 1), (1, 0), (1, 2)], [False, True, True, True]),
    (4, clique_edges(4), [False, False, False, True, True]),
    # a kernel that moves the cop on x to v without checking that the set
    # lacks x (so the shift carries into another set) says the cops win at
    # k = 3; about one random graph in 5,000 with n <= 10 shows it
    (7, [(0, 0), (0, 1), (1, 0), (1, 4), (1, 5), (2, 1), (2, 2), (2, 3), (2, 4),
         (3, 0), (3, 1), (3, 3), (3, 4), (3, 6), (4, 0), (4, 2), (4, 4), (4, 6),
         (5, 0), (5, 2), (5, 6), (6, 2), (6, 3)],
     [False, False, False, False, True, True, True, True]),
], ids=["empty", "one-vertex", "one-loop", "sink", "clique-4", "carry"])
def test_mask_kernel_edge_cases(n, edges, wins):
    g = dg(n, edges)
    assert [_ent_cops_win(g, k) for k in range(n + 1)] == wins
    assert [solve_pursuit(g, k, "ent").winner == COPS for k in range(n + 1)] == wins


def _count_solves(monkeypatch) -> list[int]:
    """Patch ``entgames.solve_pursuit`` to record each k it is called at."""
    levels = []

    def counted(g, k, *args, **kwargs):
        levels.append(k)
        return solve_pursuit(g, k, *args, **kwargs)

    monkeypatch.setattr(entgames, "solve_pursuit", counted)
    return levels


def test_sparse_levels_are_solved_locally(monkeypatch):
    # 2**16 masks are more than 32 times the cop sets of k <= 2
    levels = _count_solves(monkeypatch)
    assert entanglement(dg(16, upath_edges(16))) == 2
    assert levels == [0, 1, 2]


def test_dense_top_levels_go_to_the_mask_kernel(monkeypatch):
    # from k = 2 on, the 56 cop sets of at most k cops times 32 cover 2**10 masks
    g = dg(10, random_edges(10, 0.5, random.Random(59)))
    want = least_winning_k(g, "ent")
    assert want >= 3
    levels = _count_solves(monkeypatch)
    assert entanglement(g) == want
    assert levels == [0, 1]


def test_a_ceiling_below_the_arena_bound_keeps_the_local_solve(monkeypatch):
    # clique-6's local solves store at most a few hundred positions, while
    # 1 + 2 n S is 85, 265, 505, 685 and 757 at k = 1..5: each ceiling
    # below gives the old loop's answer, or its ArenaCeilingError
    g = dg(6, clique_edges(6))
    for ceiling in (1, 5, 20, 84, 85, 265, 300, 353, 354, 400, 505, 757):
        try:
            want = least_winning_k(g, "ent", ceiling)
        except ArenaCeilingError:
            with pytest.raises(ArenaCeilingError):
                entanglement(g, ceiling)
        else:
            assert entanglement(g, ceiling) == want == 5, ceiling
    levels = _count_solves(monkeypatch)
    assert entanglement(g, 400) == 5
    assert levels == [0, 3, 4, 5]

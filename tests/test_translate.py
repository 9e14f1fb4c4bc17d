"""Turning a winning comeback strategy into a winning virtual-cop strategy.

Every translated certificate is replayed move-for-move by the independent
verifier; nothing here trusts the translator's own bookkeeping.
"""

import random

import pytest

from entrank.corpus import family_graph, generate_corpus
from entrank.digraph import Digraph
from entrank.entgames import solve_pursuit
from entrank.gamecore import COPS, THIEF, ArenaCeilingError, StrategyCertificate, verify_certificate
from entrank.rank import ComebackGame, rank, solve_comeback_game
from entrank.translate import TranslationError, translate_rank_strategy

from conftest import (
    clique_edges,
    dg,
    dicycle_edges,
    random_edges,
    ucycle_edges,
    upath_edges,
)


def _translate_and_check(g):
    k = rank(g)
    res = solve_comeback_game(g, k)
    assert res.winner == COPS
    out = translate_rank_strategy(g, res.certificate)
    assert out.game == "entv" and out.k == k and out.winner == COPS
    rep = verify_certificate(g, "entv", k, out)
    assert rep.ok, rep.reason
    return out


def test_families():
    for n in range(1, 8):
        _translate_and_check(dg(n, upath_edges(n)))
        _translate_and_check(dg(n, dicycle_edges(n)))
    for n in range(1, 6):
        _translate_and_check(dg(n, clique_edges(n)))
    for n in range(3, 7):
        _translate_and_check(dg(n, ucycle_edges(n)))
    _translate_and_check(Digraph(0, []))
    _translate_and_check(Digraph(3, [(0, 1), (1, 2)]))


# A graph where the thief can cross a deleted-and-remembered vertex and
# re-enter territory the cops had already written off.  The translation has
# to re-descend through its match chain instead of relying on banked
# comebacks; this input is kept as a regression against that exact play.
DOOR_CROSSING = [
    (0, 0),
    (0, 1),
    (1, 1),
    (1, 4),
    (2, 0),
    (2, 4),
    (3, 0),
    (3, 1),
    (3, 2),
    (3, 4),
    (4, 2),
    (4, 4),
]


def test_door_crossing_regression():
    out = _translate_and_check(Digraph(5, DOOR_CROSSING))
    assert out.k == 2


def test_random_sweep():
    rng = random.Random(71)
    for _ in range(120):
        n = rng.randrange(6)
        p = rng.choice([0.2, 0.35, 0.5])
        _translate_and_check(dg(n, random_edges(n, p, rng)))


def test_budget_is_preserved_even_above_rank():
    # translating a win at k > rank still yields a k-cop win
    g = dg(4, dicycle_edges(4))
    res = solve_comeback_game(g, 3)
    out = translate_rank_strategy(g, res.certificate)
    assert out.k == 3
    assert verify_certificate(g, "entv", 3, out).ok


def test_rejects_certificates_for_other_games():
    g = dg(3, dicycle_edges(3))
    ent_cert = solve_pursuit(g, 1, variant="ent").certificate
    with pytest.raises(TranslationError):
        translate_rank_strategy(g, ent_cert)


def test_rejects_thief_certificates():
    g = dg(3, dicycle_edges(3))
    res = solve_comeback_game(g, 0)
    assert res.winner == THIEF
    with pytest.raises(TranslationError):
        translate_rank_strategy(g, res.certificate)


def test_node_limit_is_enforced():
    g = dg(4, clique_edges(4))
    res = solve_comeback_game(g, 3)
    with pytest.raises(ArenaCeilingError):
        translate_rank_strategy(g, res.certificate, ceiling=1)


def test_node_count_is_pinned():
    # the ceiling counts (pursuit position, frame chain) nodes, not
    # comeback lookups: translating clique-5 visits exactly 188 of them
    g = family_graph("clique", 5)
    cert = solve_comeback_game(g, rank(g)).certificate
    assert verify_certificate(g, "entv", cert.k, translate_rank_strategy(g, cert, ceiling=188)).ok
    with pytest.raises(ArenaCeilingError):
        translate_rank_strategy(g, cert, ceiling=187)


@pytest.mark.parametrize("g", [
    family_graph("upath", 16),
    generate_corpus("random:n=12,p=0.3,seed=2,count=2")[1][1],
], ids=["upath-16", "random-2-0001"])
def test_each_comeback_lookup_is_played_once(monkeypatch, g):
    # the translation meets one (parent, component) pair at many pursuit
    # positions; it plays the comeback game once to enter the component
    # and once to delete there, whatever the number of meetings
    calls = []
    play = ComebackGame.play

    def counted(self, pos, mk):
        calls.append((pos, mk))
        return play(self, pos, mk)

    monkeypatch.setattr(ComebackGame, "play", counted)
    cert = solve_comeback_game(g, rank(g)).certificate
    out = translate_rank_strategy(g, cert)
    assert verify_certificate(g, "entv", cert.k, out).ok
    pairs = {(pos, mk) for pos, mk in calls if mk[0] == "enter"}
    assert pairs and len(calls) <= 2 * len(pairs)


def _remove_outside(moves, _):
    # every deletion short of the whole graph names a vertex outside it
    for key, (tag, _) in list(moves.items()):
        outside = [w for w in range(4) if w not in key[0]]
        if outside:
            moves[key] = (tag, outside[0])


@pytest.mark.parametrize("mutate, message", [
    (lambda moves, entry: moves.pop(entry), "certificate has no move at"),
    (_remove_outside, "is not a deletion in"),
    (lambda moves, entry: moves.update({entry: ("enter", entry[0])}), "is not a deletion in"),
], ids=["dropped-move", "remove-outside", "enter-for-remove"])
def test_rejects_broken_comeback_certificates(mutate, message):
    # ``mutate(moves, entry)`` breaks the comeback cops certificate of
    # ucycle-4; ``entry`` is the position after the thief enters the
    # whole graph, the first one the translation reads
    g = dg(4, ucycle_edges(4))
    cert = solve_comeback_game(g, rank(g)).certificate
    game = ComebackGame(g, cert.k)
    entry = game.play(game.initial_position(), ("enter", tuple(range(g.n))))
    moves = dict(cert.moves)
    mutate(moves, game.pos_key(entry))
    with pytest.raises(TranslationError, match=message):
        translate_rank_strategy(g, StrategyCertificate(cert.game, cert.k, cert.winner, moves))

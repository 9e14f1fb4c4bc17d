"""Strategy certificates: extraction, replay verification, JSON round-trip."""

import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from entrank.digraph import Digraph, mask_of
from entrank.entgames import solve_pursuit
from entrank.gamecore import (
    COPS,
    THIEF,
    StrategyCertificate,
    certificate_from_json,
    certificate_to_json,
    make_game,
    verify_certificate,
)
from entrank.rank import solve_comeback_game, solve_rank_game

from conftest import dg, dicycle_edges, random_edges, ucycle_edges
from oracles import replay_by_moves

ALL_GAMES = ("rank", "comeback", "ent", "et", "entv")


def _solve(g, game_id, k):
    if game_id == "rank":
        return solve_rank_game(g, k)
    if game_id == "comeback":
        return solve_comeback_game(g, k)
    return solve_pursuit(g, k, variant=game_id)


@pytest.mark.parametrize("game_id", ALL_GAMES)
def test_both_winners_produce_replayable_certificates(game_id):
    rng = random.Random(hash(game_id) & 0xFFFF)
    checked = {COPS: 0, THIEF: 0}
    for _ in range(25):
        n = rng.randrange(1, 5)
        g = dg(n, random_edges(n, 0.45, rng))
        for k in range(n + 1):
            res = _solve(g, game_id, k)
            assert res.certificate.game == game_id
            assert res.certificate.winner == res.winner
            rep = verify_certificate(g, game_id, k, res.certificate)
            assert rep.ok, (game_id, n, k, rep.reason)
            checked[res.winner] += 1
    # the sweep must have exercised wins for both sides
    assert checked[COPS] and checked[THIEF], checked


@pytest.mark.parametrize("game_id", ALL_GAMES)
def test_json_roundtrip_preserves_certificates(game_id):
    g = dg(4, ucycle_edges(4))
    for k in (1, 3):
        cert = _solve(g, game_id, k).certificate
        blob = json.dumps(certificate_to_json(cert), sort_keys=True)
        back = certificate_from_json(json.loads(blob))
        assert (back.game, back.k, back.winner) == (cert.game, cert.k, cert.winner)
        assert back.moves == cert.moves
        assert verify_certificate(g, game_id, k, back).ok


def test_missing_move_is_detected():
    g = dg(3, dicycle_edges(3))
    cert = solve_pursuit(g, 0, variant="ent").certificate
    assert cert.winner == THIEF
    moves = dict(cert.moves)
    del moves[next(iter(moves))]
    bad = StrategyCertificate(cert.game, cert.k, cert.winner, moves)
    rep = verify_certificate(g, "ent", 0, bad)
    assert not rep.ok
    assert "no move recorded" in rep.reason


def test_illegal_move_is_detected():
    g = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    cert = solve_rank_game(g, 2).certificate
    moves = dict(cert.moves)
    key = next(iter(moves))
    moves[key] = ("remove", 99)
    bad = StrategyCertificate(cert.game, cert.k, cert.winner, moves)
    rep = verify_certificate(g, "rank", 2, bad)
    assert not rep.ok
    assert "illegal" in rep.reason


def test_wrong_game_id_is_rejected():
    g = dg(3, dicycle_edges(3))
    cert = solve_pursuit(g, 1, variant="ent").certificate
    rep = verify_certificate(g, "et", 1, cert)
    assert not rep.ok
    assert "ent" in rep.reason and "et" in rep.reason


def test_wrong_budget_is_rejected():
    g = dg(3, dicycle_edges(3))
    cert = solve_pursuit(g, 1, variant="ent").certificate
    rep = verify_certificate(g, "ent", 2, cert)
    assert not rep.ok


def test_overclaiming_winner_fails_replay():
    # a single cop cannot catch the thief on an undirected 4-cycle; a
    # certificate that claims otherwise must be refuted on some play
    g = dg(4, ucycle_edges(4))
    honest = solve_pursuit(g, 1, variant="ent")
    assert honest.winner == THIEF
    lie = StrategyCertificate("ent", 1, COPS, {})
    rep = verify_certificate(g, "ent", 1, lie)
    assert not rep.ok


@pytest.mark.parametrize(
    "game_id, mutate, field",
    [
        ("ent", lambda o: o.clear(), "game"),
        ("ent", lambda o: o.pop("moves"), "moves"),
        ("ent", lambda o: o["moves"][0]["position"].pop("cops"), "cops"),
        ("ent", lambda o: o["moves"][0]["position"].update(cops=5), "cops"),
        ("comeback", lambda o: o["moves"][0]["position"].update(ref=99), "ref"),
        ("comeback", lambda o: o["table"][0]["comebacks"].append(99), "comebacks"),
    ],
    ids=["empty", "no-moves", "no-cops", "cops-not-a-list", "ref-out-of-range",
         "comebacks-out-of-range"],
)
def test_malformed_json_names_the_field(game_id, mutate, field):
    g = dg(3, dicycle_edges(3))
    obj = certificate_to_json(_solve(g, game_id, 1).certificate)
    mutate(obj)
    with pytest.raises(ValueError, match=f"'{field}'"):
        certificate_from_json(obj)


# ----------------------------------------------- mutated certificates rejected


def _position(game_id, key):
    """The game position behind a pursuit or shrink-game position key."""
    if game_id == "rank":
        verts, turn, counter = key
        return (mask_of(verts), turn, counter)
    v, cops, virtual, turn = key
    return (v, mask_of(cops), mask_of(virtual), turn)


def _cops_move_keys(game_id, n):
    """Every cops move key naming vertices ``0 .. n``, one past the graph."""
    if game_id == "rank":
        return [("remove", v) for v in range(n + 1)]
    subsets = [c for r in range(n + 2) for c in combinations(range(n + 1), r)]
    return [("occupy", c, t) for c in subsets for t in subsets if not set(c) & set(t)]


@st.composite
def small_graphs(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return Digraph(n, sorted(set(draw(st.lists(pairs, max_size=3 * n)))))


@pytest.mark.parametrize("game_id", ("rank", "ent", "et", "entv"))
@settings(max_examples=100, deadline=None)
@given(g=small_graphs(), data=st.data())
def test_mutated_cops_certificates_are_rejected(game_id, g, data):
    k = next(k for k in range(g.n + 1) if _solve(g, game_id, k).winner == COPS)
    cert = _solve(g, game_id, k).certificate
    if not cert.moves:  # acyclic: the cops win without a move
        assert k == 0
        return
    keys = sorted(cert.moves, key=repr)

    def replay(moves, budget=k):
        return verify_certificate(
            g, game_id, budget, StrategyCertificate(game_id, budget, COPS, moves)
        )

    assert replay(cert.moves).ok

    # one recorded move deleted
    gone = data.draw(st.sampled_from(keys), label="deleted")
    moves = {p: m for p, m in cert.moves.items() if p != gone}
    rep = replay(moves)
    assert not rep.ok and "no move recorded" in rep.reason

    # one move replaced by a key that is illegal at its position
    at = data.draw(st.sampled_from(keys), label="retargeted")
    game = make_game(g, game_id, k)
    legal = {mk for mk, _ in game.moves(_position(game_id, at))}
    illegal = [mk for mk in _cops_move_keys(game_id, g.n) if mk not in legal]
    rep = replay({**cert.moves, at: data.draw(st.sampled_from(illegal), label="key")})
    assert not rep.ok and "illegal" in rep.reason

    # one occupy move given k + 1 cops
    if game_id != "rank" and k < g.n:
        at = data.draw(st.sampled_from(keys), label="overbudget")
        _, cops, virtual = cert.moves[at]
        free = [v for v in range(g.n) if v not in cops and v not in virtual]
        extra = free[: k + 1 - len(cops) - len(virtual)]
        rep = replay({**cert.moves, at: ("occupy", tuple(sorted(cops + tuple(extra))), virtual)})
        assert not rep.ok and "illegal" in rep.reason

    # the least winning k's certificate replayed one cop short
    if k > 0:
        assert not replay(cert.moves, k - 1).ok


# ------------------------------------------- replay pinned to the reference


_FOREIGN = {"rank": ("to", 0), "comeback": ("occupy", (0,), ()),
            "ent": ("remove", 0), "et": ("enter", (0,)), "entv": ("start", 0)}


@pytest.mark.parametrize("game_id", ALL_GAMES)
@settings(max_examples=60, deadline=None)
@given(g=small_graphs(), data=st.data())
def test_replay_verdicts_match_the_reference(game_id, g, data):
    # ``verify_certificate`` follows recorded moves by ``play`` and names
    # a move only in a failure trace; ``oracles.replay_by_moves`` matches
    # keys against ``moves``.  Both must give the same verdict, reason
    # and trace on solved certificates and on mutated ones.
    k = data.draw(st.integers(0, g.n), label="k")
    cert = _solve(g, game_id, k).certificate
    keys = sorted(cert.moves, key=repr)
    variants = [cert.moves]
    if keys:
        gone = data.draw(st.sampled_from(keys), label="dropped")
        variants.append({p: m for p, m in cert.moves.items() if p != gone})
        at = data.draw(st.sampled_from(keys), label="foreign")
        variants.append({**cert.moves, at: _FOREIGN[game_id]})
    if len(keys) > 1:
        a, b = data.draw(st.lists(st.sampled_from(keys), min_size=2, max_size=2, unique=True),
                         label="swapped")
        variants.append({**cert.moves, a: cert.moves[b], b: cert.moves[a]})
    game = make_game(g, game_id, k)
    for winner in (cert.winner, THIEF if cert.winner == COPS else COPS):
        for moves in variants:
            mutated = StrategyCertificate(game_id, k, winner, moves)
            rep = verify_certificate(g, game_id, k, mutated)
            assert (rep.ok, rep.reason, rep.trace) == replay_by_moves(game, mutated)


@pytest.mark.parametrize("game_id", ALL_GAMES)
def test_replay_does_not_name_every_move(game_id, monkeypatch):
    # replay follows the recorded move by ``play`` and branches over
    # ``successors``; listing every named move is left to callers
    g = dg(4, ucycle_edges(4))
    certs = [_solve(g, game_id, k).certificate for k in range(g.n + 1)]
    game_type = type(make_game(g, game_id, 0))

    def refuse(self, pos):
        raise AssertionError("replay listed every named move")

    monkeypatch.setattr(game_type, "moves", refuse)
    for cert in certs:
        assert verify_certificate(g, game_id, cert.k, cert).ok

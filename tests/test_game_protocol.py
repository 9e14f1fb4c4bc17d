"""The game protocol: ``moves`` derives from ``successors`` and ``move_key``,
and ``play`` follows a move key back to its successor."""

import random

import pytest

from entrank.gamecore import make_game

from conftest import dg, random_edges


def _reachable(game):
    """Every position reachable from the initial one, each once."""
    init = game.initial_position()
    seen = {game.memo_key(init)}
    todo = [init]
    while todo:
        pos = todo.pop()
        yield pos
        for q in game.successors(pos):
            if game.memo_key(q) not in seen:
                seen.add(game.memo_key(q))
                todo.append(q)


def _key_fits(game, pos, mk, q) -> bool:
    """Whether move key ``mk`` says what the position keys show of the move."""
    src, dst = game.pos_key(pos), game.pos_key(q)
    tag = mk[0]
    if tag in ("start", "to"):
        return dst[0] == mk[1]
    if tag == "occupy":
        return dst[1:3] == mk[1:]
    if tag == "remove":
        return mk[1] in src[0] and dst[0] == tuple(v for v in src[0] if v != mk[1])
    if tag == "enter":
        return dst[0] == mk[1] and set(mk[1]) <= set(src[0])
    if tag == "comeback":
        return dst == mk[1] and dst in src[3]
    return False


@pytest.mark.parametrize("game_id", ("rank", "comeback", "ent", "et", "entv"))
def test_move_keys_name_successors_uniquely(game_id):
    # Replay finds a recorded move by its key, so the keys at one position
    # must be distinct, and certificates are keyed by ``pos_key``, so it
    # must tell positions apart.  A comeback-game key says "comeback" for
    # a return to a recorded position and "enter" for a component of the
    # current graph.
    rng = random.Random(sum(map(ord, game_id)))
    for _ in range(12):
        n = rng.randrange(1, 6)
        g = dg(n, random_edges(n, 0.35, rng))
        for k in range(n + 1):
            game = make_game(g, game_id, k)
            pos_keys = []
            for pos in _reachable(game):
                pos_keys.append(game.pos_key(pos))
                moves = game.moves(pos)
                assert [q for _, q in moves] == game.successors(pos)
                keys = [mk for mk, _ in moves]
                assert len(set(keys)) == len(keys), (n, k, game.pos_key(pos), keys)
                for mk, q in moves:
                    assert game.move_key(pos, q) == mk
                    assert _key_fits(game, pos, mk, q), (n, k, game.pos_key(pos), mk)
            assert len(set(pos_keys)) == len(pos_keys)


# Keys shaped like another game's moves, or like nothing at all.
_FOREIGN_KEYS = (
    ("remove", 0),
    ("enter", (0,)),
    ("comeback", ((0,), "cops", 1, ())),
    ("start", 0),
    ("to", 0),
    ("occupy", (0,), ()),
    ("occupy", (0,)),
    ("to",),
    (),
    "to",
    None,
    7,
)


def _malformed(mk, n):
    """Keys derived from the legal key ``mk`` that no legal move can carry."""
    out = [("bogus",) + mk[1:], mk + (0,)]
    out += [(tag,) + mk[1:] for tag in ("enter", "remove", "comeback", "start", "to", "occupy")
            if tag != mk[0]]
    if type(mk[1]) is int:
        out += [(mk[0], n), (mk[0], n + 3), (mk[0], -1), (mk[0], str(mk[1]))]
    for i, vs in enumerate(mk):
        if not (i and type(vs) is tuple and all(type(v) is int for v in vs)):
            continue  # not a vertex tuple
        for bad in (vs + (n,), vs + (-1,), vs[::-1], vs + vs[:1], vs + vs[-1:], list(vs)):
            out.append(mk[:i] + (bad,) + mk[i + 1:])
    return out


@pytest.mark.parametrize("game_id", ("rank", "comeback", "ent", "et", "entv"))
def test_play_follows_move_keys_and_refuses_bad_ones(game_id):
    # ``play`` is how replay follows a recorded move: it must return the
    # successor the key names, and ``None`` -- never an exception -- for
    # a key that names no legal move: a wrong tag, an unsorted or
    # duplicated vertex tuple, a vertex outside ``0 .. n-1``, or a key
    # of another game.
    rng = random.Random(7 + sum(map(ord, game_id)))
    for _ in range(12):
        n = rng.randrange(1, 6)
        g = dg(n, random_edges(n, 0.35, rng))
        for k in range(n + 1):
            game = make_game(g, game_id, k)
            for pos in _reachable(game):
                succ = game.successors(pos)
                legal = [game.move_key(pos, q) for q in succ]
                for mk, q in zip(legal, succ):
                    assert game.play(pos, mk) == q, (n, k, game.pos_key(pos), mk)
                # malformed keys from the first and the last successor: the
                # last pursuit cops move names the most vertices
                bad = list(_FOREIGN_KEYS)
                for mk in legal[:1] + legal[1:][-1:]:
                    bad += _malformed(mk, n)
                for mk in bad:
                    if mk not in legal:
                        assert game.play(pos, mk) is None, (n, k, game.pos_key(pos), mk)

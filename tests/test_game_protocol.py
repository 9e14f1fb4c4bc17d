"""The game protocol: ``moves`` derives from ``successors`` and ``move_key``."""

import random

import pytest

from entrank.gamecore import make_game

from conftest import dg, random_edges


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
            init = game.initial_position()
            pos_keys = {game.memo_key(init): game.pos_key(init)}
            todo = [init]
            while todo:
                pos = todo.pop()
                moves = game.moves(pos)
                assert [q for _, q in moves] == game.successors(pos)
                keys = [mk for mk, _ in moves]
                assert len(set(keys)) == len(keys), (n, k, game.pos_key(pos), keys)
                for mk, q in moves:
                    assert game.move_key(pos, q) == mk
                    assert _key_fits(game, pos, mk, q), (n, k, game.pos_key(pos), mk)
                    if game.memo_key(q) not in pos_keys:
                        pos_keys[game.memo_key(q)] = game.pos_key(q)
                        todo.append(q)
            assert len(set(pos_keys.values())) == len(pos_keys)

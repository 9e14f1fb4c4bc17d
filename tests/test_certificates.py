"""Strategy certificates: extraction, replay verification, JSON round-trip."""

import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from entrank.digraph import Digraph, iter_mask, mask_of
from entrank.entgames import PursuitGame, entanglement, solve_pursuit
from entrank.gamecore import (
    COPS,
    THIEF,
    GameResult,
    StrategyCertificate,
    certificate_from_json,
    certificate_to_json,
    least_winning_k,
    make_game,
    solve_finite_game,
    verify_certificate,
)
from entrank.rank import rank, solve_comeback_game
from entrank.translate import translate_rank_strategy

from conftest import dg, dicycle_edges, random_edges, ucycle_edges
from oracles import replay_by_moves

ALL_GAMES = ("rank", "comeback", "ent", "et", "entv")


def _solve(g, game_id, k):
    return solve_finite_game(make_game(g, game_id, k))


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
    cert = solve_finite_game(make_game(g, "rank", 2)).certificate
    moves = dict(cert.moves)
    key = next(iter(moves))
    moves[key] = ("remove", 99)
    bad = StrategyCertificate(cert.game, cert.k, cert.winner, moves)
    rep = verify_certificate(g, "rank", 2, bad)
    assert not rep.ok
    assert "illegal" in rep.reason


def _replay_both(g, cert):
    """Replay ``cert`` and check that the reference replay agrees."""
    rep = verify_certificate(g, cert.game, cert.k, cert)
    got = (rep.ok, rep.reason, rep.trace)
    assert got == replay_by_moves(make_game(g, cert.game, cert.k), cert)
    return got


def test_skipping_cops_are_rejected_for_an_infinite_play():
    # one cop on a 2-cycle that never places it: the play runs round the cycle
    g = Digraph(2, [(0, 1), (1, 0)])
    cert = StrategyCertificate(
        "ent", 1, COPS, {(v, (), (), "cops"): ("occupy", (), ()) for v in (0, 1)}
    )
    assert _replay_both(g, cert) == (
        False,
        "the play can repeat a position (infinite play)",
        [(("init",), None), ((0, (), (), "cops"), None), ((0, (), (), "thief"), None),
         ((1, (), (), "cops"), None), ((1, (), (), "thief"), None),
         ((0, (), (), "cops"), None)],
    )


def test_thief_walking_into_a_dead_end_is_rejected():
    # with no cops the thief still loses at the sink 1 of the edge 0 -> 1
    g = Digraph(2, [(0, 1)])
    cert = StrategyCertificate(
        "ent", 0, THIEF, {("init",): ("start", 0), (0, (), (), "thief"): ("to", 1)}
    )
    assert _replay_both(g, cert) == (
        False,
        "a play ends in a win for cops",
        [(("init",), ("start", 0)), ((0, (), (), "cops"), ("occupy", (), ())),
         ((0, (), (), "thief"), ("to", 1)), ((1, (), (), "cops"), ("occupy", (), ())),
         ((1, (), (), "thief"), None)],
    )


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
        ("ent", lambda o: o.update(game="nope", moves=[]), "game"),
        ("ent", lambda o: o.update(table=[]), "table"),
        ("rank", lambda o: o["moves"][0].update(position={"init": True}), "vertices"),
        # JSON ``true`` is no integer, though Python's bool is an int
        ("ent", lambda o: o.update(k=True), "k"),
        ("ent", lambda o: o["moves"][0]["position"].update(cops=[True]), "cops"),
        ("ent", lambda o: o["moves"][0]["position"].update(vertex=True), "vertex"),
        ("comeback", lambda o: o["moves"][0]["position"].update(ref=False), "ref"),
        # a second entry for one position would make the verdict depend on order
        ("ent", lambda o: o["moves"].append(
            {"position": o["moves"][0]["position"], "move": {"cops": [], "virtual": []}}),
         "position"),
        ("comeback", lambda o: o["moves"].insert(0, dict(o["moves"][-1])), "position"),
        ("ent", lambda o: o.update(winner="nobody"), "winner"),
        # the leading fields of an occupy and of a thief move at once
        ("ent", lambda o: o["moves"][0]["move"].update(to=-1), "move"),
    ],
    ids=["empty", "no-moves", "no-cops", "cops-not-a-list", "ref-out-of-range",
         "comebacks-out-of-range", "unknown-game", "table-on-ent", "init-on-rank",
         "k-is-a-bool", "cops-vertex-is-a-bool", "vertex-is-a-bool", "ref-is-a-bool",
         "position-twice", "ref-twice", "unknown-winner", "two-move-tags"],
)
def test_malformed_json_names_the_field(game_id, mutate, field):
    g = dg(3, dicycle_edges(3))
    obj = certificate_to_json(_solve(g, game_id, 1).certificate)
    mutate(obj)
    with pytest.raises(ValueError, match=f"'{field}'"):
        certificate_from_json(obj)


# ----------------------------------------------- mutated certificates rejected


def _position(game, key):
    """The position of ``game`` behind a pursuit or shrink-game position key."""
    if game.game_id != "rank":
        v, cops, virtual, turn = key
        return (v, mask_of(cops), mask_of(virtual), turn)
    # shrink positions are interned objects: find the one a walk from the
    # start reaches under ``key``
    seen, todo = set(), [game.initial_position()]
    while todo:
        pos = todo.pop()
        if game.pos_key(pos) == key:
            return pos
        if game.winner_if_terminal(pos) is None:
            fresh = [q for q in game.successors(pos) if q not in seen]
            seen.update(fresh)
            todo.extend(fresh)
    raise AssertionError(f"no position reached under {key}")


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
    legal = {mk for mk, _ in game.moves(_position(game, at))}
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


def _replayed_cops_positions(game, cert):
    """The cops positions that replay of the cops certificate ``cert``
    reaches, breadth first."""
    init = game.initial_position()
    seen, todo = {init}, [init]
    for pos in todo:  # grows while it is walked
        if game.winner_if_terminal(pos) is not None:
            continue
        if game.owner(pos) == COPS:
            yield pos
            nxt = [game.play(pos, cert.moves[game.pos_key(pos)])]
        else:
            nxt = game.successors(pos)
        for q in nxt:
            if q not in seen:
                seen.add(q)
                todo.append(q)


# Each takes a cops position ``(v, cmask, vmask)``, its recorded move
# ``(c2, t2)``, ``k`` and the graph's full mask, and returns the masks of
# a move that breaks one pursuit rule and no other, or ``None`` where it
# cannot.

def _over_budget(v, cmask, vmask, c2, t2, k, full):
    """ent: a new cop on the thief's vertex when all ``k`` are placed."""
    return (cmask | 1 << v, 0) if cmask.bit_count() == k else None


def _never_placed(v, cmask, vmask, c2, t2, k, full):
    """et: the recorded move, keeping one more cop that was never placed."""
    free = list(iter_mask(full & ~(cmask | 1 << v)))
    return (c2 | 1 << free[0], 0) if free and c2.bit_count() < k else None


def _two_fresh(v, cmask, vmask, c2, t2, k, full):
    """entv: the recorded move with two new reservations instead of at most one."""
    kept = t2 & vmask
    free = list(iter_mask(full & ~(c2 | vmask)))
    if vmask >> v & 1 or len(free) < 2 or c2.bit_count() + kept.bit_count() + 2 > k:
        return None
    return (c2, kept | 1 << free[0] | 1 << free[1])


@pytest.mark.parametrize("variant, k, mutate", [
    ("ent", 2, _over_budget),
    ("et", 4, _never_placed),
    ("entv", 4, _two_fresh),
], ids=["ent-over-budget", "et-never-placed", "entv-two-fresh"])
def test_replay_refuses_well_formed_illegal_cops_moves(variant, k, mutate):
    # a sorted, in-range ``occupy`` key of disjoint sets that breaks one
    # move rule, swapped in at the first replayed cops position that
    # admits it, is refused by the rules, not by its shape
    g = dg(4, ucycle_edges(4))
    cert = solve_pursuit(g, k, variant).certificate
    assert cert.winner == COPS
    game = make_game(g, variant, k)
    for pos in _replayed_cops_positions(game, cert):
        key = game.pos_key(pos)
        _, c2, t2 = cert.moves[key]
        bad = mutate(*pos[:3], mask_of(c2), mask_of(t2), k, g.full_mask)
        if bad is not None:
            break
    else:
        pytest.fail(f"no replayed {variant} position admits the mutation")
    mk = ("occupy", tuple(iter_mask(bad[0])), tuple(iter_mask(bad[1])))
    moves = {**cert.moves, key: mk}
    rep = verify_certificate(g, variant, k, StrategyCertificate(variant, k, COPS, moves))
    assert not rep.ok
    assert rep.reason == f"recorded move {mk!r} is illegal at {key!r}"


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


def test_cops_replay_lists_no_cops_moves(monkeypatch):
    # ``cop_configs`` enumerates every cops move; replay of a cops
    # certificate plays only the recorded ones and checks each by itself.
    # (Replay of a thief certificate branches over every cops move.)
    g = dg(4, ucycle_edges(4))
    certs = [solve_pursuit(g, k, "entv").certificate for k in range(g.n + 1)]
    certs = [cert for cert in certs if cert.winner == COPS]
    certs.append(translate_rank_strategy(g, solve_comeback_game(g, rank(g)).certificate))
    calls = []
    listing = PursuitGame.cop_configs
    monkeypatch.setattr(PursuitGame, "cop_configs",
                        lambda self, *args: calls.append(args) or listing(self, *args))
    for cert in certs:
        assert verify_certificate(g, "entv", cert.k, cert).ok
    assert calls == []


# ------------------------------------------- certificates walked on first read


@pytest.mark.parametrize("game_id", ALL_GAMES)
def test_winner_only_searches_name_no_position(game_id, monkeypatch):
    # least_winning_k reads only each level's winner, so no certificate
    # is walked and no position or move key is built
    graphs = [dg(4, ucycle_edges(4)), dg(4, dicycle_edges(4)), dg(3, [(0, 1), (1, 2)])]
    want = [least_winning_k(g, game_id) for g in graphs]
    game_type = type(make_game(graphs[0], game_id, 0))

    def refuse(self, *args):
        raise AssertionError("a winner-only search named a position or a move")

    monkeypatch.setattr(game_type, "pos_key", refuse)
    monkeypatch.setattr(game_type, "move_key", refuse)
    assert [least_winning_k(g, game_id) for g in graphs] == want
    if game_id == "ent":
        assert [entanglement(g) for g in graphs] == want
    # the refusal is live: reading a certificate names positions
    with pytest.raises(AssertionError, match="named a position"):
        _solve(graphs[0], game_id, want[0]).certificate


@pytest.mark.parametrize("game_id", ALL_GAMES)
def test_certificate_is_walked_once_and_kept(game_id):
    g = dg(4, ucycle_edges(4))
    for k in range(g.n + 1):
        res = _solve(g, game_id, k)
        cert = res.certificate
        assert res.certificate is cert
        assert verify_certificate(g, game_id, k, cert).ok


@pytest.mark.parametrize("game_id", ALL_GAMES)
@settings(max_examples=30, deadline=None)
@given(g=small_graphs(), h=small_graphs(), data=st.data())
def test_late_reads_give_the_certificates_of_prompt_ones(game_id, g, h, data):
    # two searches held open and read in reverse order give the same
    # certificates, byte for byte, as searches read at once
    k = data.draw(st.integers(0, g.n), label="k")
    j = data.draw(st.integers(0, h.n), label="j")
    first, second = _solve(g, game_id, k), _solve(h, game_id, j)
    late = [certificate_to_json(second.certificate), certificate_to_json(first.certificate)]
    prompt = [certificate_to_json(_solve(h, game_id, j).certificate),
              certificate_to_json(_solve(g, game_id, k).certificate)]
    assert json.dumps(late) == json.dumps(prompt)


def test_a_built_result_returns_its_certificate():
    cert = StrategyCertificate("ent", 1, COPS, {("init",): ("start", 0)})
    res = GameResult(COPS, cert)
    assert res.winner == COPS and res.certificate is cert

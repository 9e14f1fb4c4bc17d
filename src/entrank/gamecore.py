"""Shared game machinery: solving, certificates, replay verification.

Every game object in this package exposes the same small protocol:

* ``game_id`` (str) and ``k`` (int)
* ``initial_position()``
* ``owner(pos)`` -> ``"thief"`` or ``"cops"``
* ``winner_if_terminal(pos)`` -> winner string or ``None``
* ``successors(pos)`` -> list of successor positions in canonical order
* ``move_key(src, dst)`` -> canonical key of the move from ``src`` to
  its successor ``dst``
* ``play(pos, move_key)`` -> the successor of ``pos`` that the key
  names, or ``None`` for a key that names no legal move (never raises
  on a malformed or foreign key)
* ``moves(pos)`` -> list of ``(move_key, successor)``, derived from
  ``successors`` and ``move_key``; solvers walk ``successors`` and name
  only the moves they record, replay follows recorded moves by ``play``
* ``pos_key(pos)`` -> hashable, instance-independent position encoding
* ``memo_key(pos)`` -> cheap per-instance hashable key
* ``finite_plays`` -- True when no infinite play exists

Canonical position keys:

* rank games: ``(vertices, turn, counter)``
* comeback rank games: ``(vertices, turn, counter, sorted child keys)``
  where each child key has the same shape (recursively)
* pursuit games: ``("init",)`` or ``(vertex, cop vertices, virtual cop
  vertices, turn)``

Canonical move keys: ``("enter", vertices)``, ``("remove", v)``,
``("comeback", child key)``, ``("start", v)``, ``("to", v)`` and
``("occupy", cop vertices, virtual cop vertices)`` (the resulting cop
configuration).

A :class:`StrategyCertificate` is a positional decision map for the
winner.  ``verify_certificate`` never trusts it: the certified player is
bound to the mapped moves while the opponent ranges over every legal
reply, and the resulting strategy-restricted graph is checked for
illegal or missing moves, plays won by the wrong player, and -- for the
pursuit games -- cycles (a cycle witnesses an infinite play, which only
the thief wins).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

THIEF = "thief"
COPS = "cops"

DEFAULT_POSITION_CEILING = 400_000

__all__ = [
    "THIEF",
    "COPS",
    "DEFAULT_POSITION_CEILING",
    "ArenaCeilingError",
    "StrategyCertificate",
    "GameResult",
    "ReplayReport",
    "solve_finite_game",
    "extract_certificate",
    "least_winning_k",
    "verify_certificate",
    "make_game",
    "certificate_to_json",
    "certificate_from_json",
]


class ArenaCeilingError(RuntimeError):
    """A solver exceeded its configured position ceiling."""

    def __init__(self, game_id: str, limit: int):
        super().__init__(
            f"{game_id} arena exceeded the position ceiling of {limit}"
        )
        self.game_id = game_id
        self.limit = limit

    def __reduce__(self):
        # rebuild from the constructor's arguments, not the message, so
        # the error crosses a process-pool boundary intact
        return (type(self), (self.game_id, self.limit))


@dataclass(eq=False)
class StrategyCertificate:
    """Positional strategy for one player of one game instance.

    ``moves`` maps canonical position keys (winner to move) to canonical
    move keys.
    """

    game: str
    k: int
    winner: str
    moves: dict[Any, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.moves)


class GameResult(NamedTuple):
    winner: str
    certificate: StrategyCertificate


@dataclass(eq=False)
class ReplayReport:
    ok: bool
    reason: str | None = None
    trace: list[Any] | None = None

    def __bool__(self) -> bool:
        return self.ok


def make_game(g, game_id: str, k: int, ceiling: int | None = None):
    """Instantiate the game named by its CLI identifier."""
    if game_id == "rank":
        from .rank import RankShrinkGame

        return RankShrinkGame(g, k)
    if game_id == "comeback":
        from .rank import ComebackGame

        return ComebackGame(g, k, ceiling=ceiling)
    if game_id in ("ent", "et", "entv"):
        from .entgames import PursuitGame

        return PursuitGame(g, k, variant=game_id)
    raise ValueError(f"unknown game id {game_id!r}")


class _Frame:
    __slots__ = ("pos", "children", "i")

    def __init__(self, pos):
        self.pos = pos
        self.children = None
        self.i = 0


def solve_finite_game(game) -> GameResult:
    """Backward induction for games whose plays are all finite.

    Returns the winner from the initial position together with a
    positional certificate extracted from the evaluated value table.
    """
    memo: dict[Any, bool] = {}  # memo_key -> cops win?
    onstack: set[Any] = set()
    init = game.initial_position()
    stack = [_Frame(init)]
    onstack.add(game.memo_key(init))
    while stack:
        f = stack[-1]
        key = game.memo_key(f.pos)
        if key in memo:
            stack.pop()
            onstack.discard(key)
            continue
        if f.children is None:
            term = game.winner_if_terminal(f.pos)
            if term is not None:
                memo[key] = term == COPS
                stack.pop()
                onstack.discard(key)
                continue
            f.children = game.successors(f.pos)
        cops_node = game.owner(f.pos) == COPS
        result: bool | None = None
        descend = None
        while f.i < len(f.children):
            q = f.children[f.i]
            qkey = game.memo_key(q)
            r = memo.get(qkey)
            if r is None:
                if qkey in onstack:
                    raise AssertionError("cycle in a finite-play game graph")
                descend = q
                break
            f.i += 1
            if cops_node and r:
                result = True
                break
            if not cops_node and not r:
                result = False
                break
        if descend is not None:
            stack.append(_Frame(descend))
            onstack.add(game.memo_key(descend))
            continue
        if result is None:
            # options exhausted without a short-circuit
            result = not cops_node
        memo[key] = result
        stack.pop()
        onstack.discard(key)

    winner = COPS if memo[game.memo_key(init)] else THIEF

    def value(pos) -> str | None:
        r = memo.get(game.memo_key(pos))
        if r is None:
            return None
        return COPS if r else THIEF

    cert = extract_certificate(game, winner, value)
    return GameResult(winner, cert)


def extract_certificate(game, winner: str, value: Callable[[Any], str | None]) -> StrategyCertificate:
    """Collect the winner's canonical winning move at each reachable position.

    Positions are explored from the initial one, following only the
    recorded move at the winner's turns and every legal move at the
    opponent's.  ``value(pos)`` reports the evaluated winner at ``pos``
    (``None`` for positions the solver never had to evaluate).
    """
    moves: dict[Any, Any] = {}
    init = game.initial_position()
    seen = {game.memo_key(init)}
    todo = [init]
    while todo:
        pos = todo.pop()
        if game.winner_if_terminal(pos) is not None:
            continue
        nxt = game.successors(pos)
        if game.owner(pos) == winner:
            q = next((q for q in nxt if value(q) == winner), None)
            if q is None:
                raise AssertionError(
                    f"no winning move at a {winner}-won position"
                )
            moves[game.pos_key(pos)] = game.move_key(pos, q)
            nxt = [q]
        for q in nxt:
            qkey = game.memo_key(q)
            if qkey not in seen:
                seen.add(qkey)
                todo.append(q)
    return StrategyCertificate(game.game_id, game.k, winner, moves)


def least_winning_k(g, solve: Callable[[int], GameResult]) -> int:
    """Least ``k`` in ``0 .. g.n`` at which ``solve(k)`` is a cops win."""
    for k in range(g.n + 1):
        if solve(k).winner == COPS:
            return k
    raise AssertionError("cops always win once k covers every vertex")


def verify_certificate(g, game_id: str, k: int, cert: StrategyCertificate,
                       ceiling: int | None = None) -> ReplayReport:
    """Replay a certificate against every opponent behaviour.

    The certificate owner plays exactly the mapped moves, followed by
    ``game.play``; all other moves are branched over ``successors``
    without being named.  The walk fails on a missing or illegal mapped
    move, on any play won by the opponent, and (unless infinite plays
    favour the owner) on a reachable cycle.
    """
    if cert.game != game_id:
        return ReplayReport(False, f"certificate is for game {cert.game!r}, not {game_id!r}")
    if cert.k != k:
        return ReplayReport(False, f"certificate is for k={cert.k}, not k={k}")
    game = make_game(g, game_id, k, ceiling)
    winner = cert.winner
    if winner not in (THIEF, COPS):
        return ReplayReport(False, f"unknown winner tag {winner!r}")

    init = game.initial_position()
    init_mk = game.memo_key(init)
    index: dict[Any, int] = {init_mk: 0}
    nodes = [init]
    succ: list[list[int]] = []
    parent: dict[int, int] = {}

    def trace_to(i: int) -> list[Any]:
        steps: list[Any] = []
        while i in parent:
            j = parent[i]
            steps.append((game.pos_key(nodes[j]), game.move_key(nodes[j], nodes[i])))
            i = j
        steps.reverse()
        return steps

    i = 0
    while i < len(nodes):
        pos = nodes[i]
        term = game.winner_if_terminal(pos)
        if term is not None:
            succ.append([])
            if term != winner:
                steps = trace_to(i)
                steps.append((game.pos_key(pos), None))
                return ReplayReport(
                    False, f"a play ends in a win for {term}", steps
                )
            i += 1
            continue
        if game.owner(pos) == winner:
            key = game.pos_key(pos)
            mk = cert.moves.get(key)
            if mk is None:
                steps = trace_to(i)
                steps.append((key, None))
                return ReplayReport(
                    False, f"no move recorded for position {key!r}", steps
                )
            q = game.play(pos, mk)
            if q is None:
                steps = trace_to(i)
                steps.append((key, mk))
                return ReplayReport(
                    False, f"recorded move {mk!r} is illegal at {key!r}", steps
                )
            chosen = [q]
        else:
            chosen = game.successors(pos)
        row = []
        for q in chosen:
            qkey = game.memo_key(q)
            j = index.get(qkey)
            if j is None:
                j = len(nodes)
                index[qkey] = j
                nodes.append(q)
                parent[j] = i
            row.append(j)
        succ.append(row)
        i += 1

    # cycle detection over the strategy-restricted graph
    if winner == COPS or game.finite_plays:
        color = [0] * len(nodes)  # 0 unvisited, 1 on stack, 2 done
        stack: list[tuple[int, int]] = [(0, 0)]
        color[0] = 1
        path = [0]
        while stack:
            node, ptr = stack.pop()
            row = succ[node]
            advanced = False
            while ptr < len(row):
                j = row[ptr]
                ptr += 1
                if color[j] == 1:
                    steps = [(game.pos_key(nodes[x]), None) for x in path]
                    steps.append((game.pos_key(nodes[j]), None))
                    return ReplayReport(
                        False,
                        "the play can repeat a position (infinite play)",
                        steps,
                    )
                if color[j] == 0:
                    stack.append((node, ptr))
                    color[j] = 1
                    stack.append((j, 0))
                    path.append(j)
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                path.pop()
    return ReplayReport(True)


# ---------------------------------------------------------------------------
# JSON encoding of certificates


def _pos_to_json(game_id: str, key, entry_ids) -> dict:
    if game_id in ("ent", "et", "entv"):
        if key == ("init",):
            return {"init": True}
        v, cops_t, vir_t, turn = key
        return {
            "vertex": v,
            "cops": list(cops_t),
            "virtual": list(vir_t),
            "turn": turn,
        }
    if game_id == "rank":
        verts, turn, n = key
        return {"vertices": list(verts), "turn": turn, "counter": n}
    if game_id == "comeback":
        return {"ref": entry_ids[key]}
    raise ValueError(f"unknown game id {game_id!r}")


def _move_to_json(game_id: str, mk, entry_ids) -> dict:
    tag = mk[0]
    if tag == "enter":
        return {"enter": list(mk[1])}
    if tag == "remove":
        return {"remove": mk[1]}
    if tag == "comeback":
        return {"comeback": {"ref": entry_ids[mk[1]]}}
    if tag == "start":
        return {"choose": mk[1]}
    if tag == "to":
        return {"to": mk[1]}
    if tag == "occupy":
        return {"cops": list(mk[1]), "virtual": list(mk[2])}
    raise ValueError(f"unknown move key {mk!r}")


def _collect_entry(key, ids: dict, table: list) -> int:
    got = ids.get(key)
    if got is not None:
        return got
    verts, turn, n, children = key
    child_ids = [_collect_entry(c, ids, table) for c in children]
    i = len(table)
    ids[key] = i
    table.append(
        {
            "vertices": list(verts),
            "turn": turn,
            "counter": n,
            "comebacks": child_ids,
        }
    )
    return i


def certificate_to_json(cert: StrategyCertificate) -> dict:
    entry_ids: dict = {}
    table: list = []
    ordered = sorted(cert.moves, key=repr)
    if cert.game == "comeback":
        for key in ordered:
            _collect_entry(key, entry_ids, table)
        for mk in cert.moves.values():
            if mk[0] == "comeback":
                _collect_entry(mk[1], entry_ids, table)
    obj = {
        "game": cert.game,
        "k": cert.k,
        "winner": cert.winner,
        "moves": [
            {
                "position": _pos_to_json(cert.game, key, entry_ids),
                "move": _move_to_json(cert.game, cert.moves[key], entry_ids),
            }
            for key in ordered
        ],
    }
    if cert.game == "comeback":
        obj["table"] = table
    return obj


def _field(obj, name: str, kind: type):
    """``obj[name]``, which must be a ``kind``; else a ValueError naming it."""
    if not isinstance(obj, dict) or name not in obj:
        raise ValueError(f"certificate JSON lacks the field {name!r}")
    value = obj[name]
    if not isinstance(value, kind):
        raise ValueError(
            f"certificate JSON field {name!r} is not a {kind.__name__}: {value!r}"
        )
    return value


def _vertices_field(obj, name: str) -> tuple[int, ...]:
    value = _field(obj, name, list)
    if not all(isinstance(v, int) for v in value):
        raise ValueError(
            f"certificate JSON field {name!r} is not a vertex list: {value!r}"
        )
    return tuple(value)


def _entry(entry_keys: list, i, name: str):
    if not isinstance(i, int) or not 0 <= i < len(entry_keys):
        raise ValueError(f"certificate JSON field {name!r} names no table entry: {i!r}")
    return entry_keys[i]


def _pos_from_json(game_id: str, obj: dict, entry_keys):
    if game_id in ("ent", "et", "entv"):
        if obj.get("init"):
            return ("init",)
        return (
            _field(obj, "vertex", int),
            _vertices_field(obj, "cops"),
            _vertices_field(obj, "virtual"),
            _field(obj, "turn", str),
        )
    if game_id == "rank":
        return (
            _vertices_field(obj, "vertices"),
            _field(obj, "turn", str),
            _field(obj, "counter", int),
        )
    if game_id == "comeback":
        return _entry(entry_keys, _field(obj, "ref", int), "ref")
    raise ValueError(f"unknown game id {game_id!r}")


def _move_from_json(game_id: str, obj: dict, entry_keys):
    if "enter" in obj:
        return ("enter", _vertices_field(obj, "enter"))
    if "remove" in obj:
        return ("remove", _field(obj, "remove", int))
    if "comeback" in obj:
        ref = _field(_field(obj, "comeback", dict), "ref", int)
        return ("comeback", _entry(entry_keys, ref, "ref"))
    if "choose" in obj:
        return ("start", _field(obj, "choose", int))
    if "to" in obj:
        return ("to", _field(obj, "to", int))
    if "cops" in obj:
        return ("occupy", _vertices_field(obj, "cops"), _vertices_field(obj, "virtual"))
    raise ValueError(f"cannot decode move {obj!r}")


def certificate_from_json(obj: dict) -> StrategyCertificate:
    """Decode :func:`certificate_to_json` output.

    Malformed input raises ``ValueError`` naming the offending field.
    """
    game_id = _field(obj, "game", str)
    entry_keys: list = []
    for row in _field(obj, "table", list) if "table" in obj else ():
        children = tuple(sorted(
            _entry(entry_keys, i, "comebacks") for i in _field(row, "comebacks", list)
        ))
        entry_keys.append((
            _vertices_field(row, "vertices"),
            _field(row, "turn", str),
            _field(row, "counter", int),
            children,
        ))
    moves = {}
    for entry in _field(obj, "moves", list):
        key = _pos_from_json(game_id, _field(entry, "position", dict), entry_keys)
        moves[key] = _move_from_json(game_id, _field(entry, "move", dict), entry_keys)
    return StrategyCertificate(
        game_id, _field(obj, "k", int), _field(obj, "winner", str), moves
    )

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

:data:`GAMES` maps each game id (``rank``, ``comeback``, ``ent``,
``et``, ``entv``) to a :class:`GameSpec`: how to build and solve the
game, and the JSON field names of its position keys.  :mod:`.rank` and
:mod:`.entgames` register their games when imported; :func:`make_game`,
the certificate JSON codec and the CLI look them up there.

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
from itertools import repeat
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
    "GameSpec",
    "GAMES",
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


class GameSpec(NamedTuple):
    """How to build, solve and write one game of :data:`GAMES`."""

    build: Callable[..., Any]  # (g, k, ceiling) -> game instance
    solve: Callable[..., GameResult]  # (g, k) -> GameResult
    fields: tuple[str, ...]  # JSON field names of a position key, in key order
    #: position keys nest (the last component holds child keys), so each
    #: is written once into the certificate's ``table``
    tabled: bool = False
    #: the position key written as ``{"init": true}`` instead of by ``fields``
    init: tuple | None = None


#: game id -> :class:`GameSpec`, filled in by the modules that define games
GAMES: dict[str, GameSpec] = {}


def make_game(g, game_id: str, k: int, ceiling: int | None = None):
    """Instantiate the game named by its identifier in :data:`GAMES`."""
    if game_id not in GAMES:
        raise ValueError(f"unknown game id {game_id!r}")
    return GAMES[game_id].build(g, k, ceiling)


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
#
# Each key component is written under its field name: a position key
# under its game's ``GameSpec.fields`` (or as ``{"init": true}`` when it is
# the game's ``init``), a move key ``(tag, *payload)`` under
# ``_MOVE_FIELDS[tag]``.  The keys of a ``tabled`` game nest, so each is
# written once into the certificate's ``table`` (children as indices,
# ``comebacks``) and named elsewhere by ``{"ref": index}``.

#: move tag -> JSON field names of its payload
_MOVE_FIELDS = {"enter": ("enter",), "remove": ("remove",), "comeback": ("comeback",),
                "start": ("choose",), "to": ("to",), "occupy": ("cops", "virtual")}

#: JSON field -> how it is written: "verts" (a list of vertices), "ref"
#: (``{"ref": i}``, one table entry), "refs" (a list of table entries), or
#: the type of a plain int or str
_FIELD_KINDS = {"vertices": "verts", "cops": "verts", "virtual": "verts", "enter": "verts",
                "comeback": "ref", "comebacks": "refs", "turn": str, "vertex": int,
                "counter": int, "remove": int, "choose": int, "to": int}


def _to_json(names, values, ids) -> dict:
    obj = {}
    for name, x in zip(names, values):
        kind = _FIELD_KINDS[name]
        if kind == "verts":
            x = list(x)
        elif kind == "ref":
            x = {"ref": ids[x]}
        elif kind == "refs":
            x = [ids[c] for c in x]
        obj[name] = x
    return obj


def _collect_entry(key, fields, ids: dict, table: list) -> None:
    """Write ``key`` into ``table`` after its children, once."""
    if key in ids:
        return
    for child in key[-1]:
        _collect_entry(child, fields, ids, table)
    ids[key] = len(table)
    table.append(_to_json(fields, key, ids))


def certificate_to_json(cert: StrategyCertificate) -> dict:
    spec = GAMES[cert.game]
    ids: dict = {}
    table: list = []
    ordered = sorted(cert.moves, key=repr)
    if spec.tabled:
        for key in ordered:
            _collect_entry(key, spec.fields, ids, table)
        for mk in cert.moves.values():
            if mk[0] == "comeback":
                _collect_entry(mk[1], spec.fields, ids, table)
    moves = []
    for key in ordered:
        if spec.tabled:
            pos = {"ref": ids[key]}
        elif key == spec.init:
            pos = {"init": True}
        else:
            pos = _to_json(spec.fields, key, ids)
        mk = cert.moves[key]
        moves.append({"position": pos, "move": _to_json(_MOVE_FIELDS[mk[0]], mk[1:], ids)})
    obj = {"game": cert.game, "k": cert.k, "winner": cert.winner, "moves": moves}
    if spec.tabled:
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


def _entry(entry_keys: list, i, name: str):
    if not isinstance(i, int) or not 0 <= i < len(entry_keys):
        raise ValueError(f"certificate JSON field {name!r} names no table entry: {i!r}")
    return entry_keys[i]


def _from_json(obj, names, entry_keys) -> tuple:
    out = []
    for name in names:
        kind = _FIELD_KINDS[name]
        if kind == "verts":
            value = _field(obj, name, list)
            if not all(map(isinstance, value, repeat(int))):
                raise ValueError(f"certificate JSON field {name!r} is not a vertex list: {value!r}")
            value = tuple(value)
        elif kind == "ref":
            value = _entry(entry_keys, _field(_field(obj, name, dict), "ref", int), "ref")
        elif kind == "refs":
            value = tuple(sorted(_entry(entry_keys, i, name) for i in _field(obj, name, list)))
        else:
            value = _field(obj, name, kind)
        out.append(value)
    return tuple(out)


def certificate_from_json(obj: dict) -> StrategyCertificate:
    """Decode :func:`certificate_to_json` output.

    Malformed input raises ``ValueError`` naming the offending field.
    """
    game_id = _field(obj, "game", str)
    if game_id not in GAMES:
        raise ValueError(f"certificate JSON field 'game' names an unknown game id {game_id!r}")
    spec = GAMES[game_id]
    if "table" in obj and not spec.tabled:
        raise ValueError(f"certificate JSON field 'table' does not belong to a {game_id!r} certificate")
    entry_keys: list = []
    for row in _field(obj, "table", list) if spec.tabled else ():
        entry_keys.append(_from_json(row, spec.fields, entry_keys))
    moves = {}
    for entry in _field(obj, "moves", list):
        pos = _field(entry, "position", dict)
        if spec.tabled:
            key = _entry(entry_keys, _field(pos, "ref", int), "ref")
        elif spec.init is not None and pos.get("init"):
            key = spec.init
        else:
            key = _from_json(pos, spec.fields, entry_keys)
        mv = _field(entry, "move", dict)
        for tag, names in _MOVE_FIELDS.items():
            if names[0] in mv:
                break
        else:
            raise ValueError(f"cannot decode move {mv!r}")
        moves[key] = (tag, *_from_json(mv, names, entry_keys))
    return StrategyCertificate(
        game_id, _field(obj, "k", int), _field(obj, "winner", str), moves
    )

"""Shared game machinery: solving, certificates, replay verification.

Every game object in this package exposes the same small protocol:

* ``game_id`` (str) and ``k`` (int)
* ``initial_position()``
* ``owner(pos)`` -> ``"thief"`` or ``"cops"``
* ``winner_if_terminal(pos)`` -> winner string or ``None``
* ``successors(pos)`` -> list of successor positions in canonical order
  (the order in which the solver examines them)
* ``move_key(src, dst)`` -> canonical key of the move from ``src`` to
  its successor ``dst``
* ``play(pos, move_key)`` -> the successor of ``pos`` that the key
  names, or ``None`` for a key that names no legal move (never raises
  on a malformed or foreign key); every game decodes the key and
  checks that one move instead of building every successor
* ``moves(pos)`` -> list of ``(move_key, successor)``, derived from
  ``successors`` and ``move_key``; nothing in the package calls it, and
  it stays for the benchmark tracer, which counts its calls
* ``pos_key(pos)`` -> hashable, instance-independent position encoding
* ``finite_plays`` -- True when no infinite play exists; it only tells
  replay whether a thief strategy must be checked for cycles

A position is its own dictionary key within one game instance:
pursuit positions are tuples, and shrink and comeback positions are
hash-consed, so equal ones are the same object.

One solver, :func:`solve_finite_game`, solves every game.  It walks
depth first from the initial position; a position still undecided when
the walk ends is a thief win, so infinite plays go to the thief.  The
cops play the move that first won a position, and the thief plays its
first successor, in ``successors`` order, that the cops have not won.
The winner is known when the search ends; the certificate is walked
only on the first read of :attr:`GameResult.certificate`, and until
then the result keeps the search's arrays.  A caller that needs only
the winner, such as :func:`least_winning_k`, never walks one.

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
``et``, ``entv``) to a :class:`GameSpec`: how to build the game, and
the JSON field names of its position keys.  :mod:`.rank` and
:mod:`.entgames` register their games when imported; :func:`make_game`
and the certificate JSON codec look them up there.  Each game that
:func:`make_game` builds is solved by :func:`solve_finite_game`.

Game objects do not count positions; the walks that store them do.
Solving, replay and strategy translation each take one ``ceiling``
(default :data:`DEFAULT_POSITION_CEILING`, read at the call) and raise
:class:`ArenaCeilingError` once they would store more positions.

A :class:`StrategyCertificate` is a positional decision map for the
winner.  ``verify_certificate`` never trusts it: the certified player is
bound to the mapped moves while the opponent ranges over every legal
reply, and the resulting strategy-restricted graph is checked for
illegal or missing moves, plays won by the wrong player, and -- for the
pursuit games -- cycles (a cycle witnesses an infinite play, which only
the thief wins).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, NamedTuple

THIEF = "thief"
COPS = "cops"

DEFAULT_POSITION_CEILING = 400_000

__all__ = [
    "THIEF",
    "COPS",
    "DEFAULT_POSITION_CEILING",
    "position_limit",
    "ArenaCeilingError",
    "StrategyCertificate",
    "GameResult",
    "ReplayReport",
    "solve_finite_game",
    "least_winning_k",
    "verify_certificate",
    "GameSpec",
    "GAMES",
    "make_game",
    "certificate_to_json",
    "certificate_from_json",
]


def position_limit(ceiling: int | None) -> int:
    """``ceiling``, or :data:`DEFAULT_POSITION_CEILING` as it is at the call."""
    return DEFAULT_POSITION_CEILING if ceiling is None else ceiling


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


class GameResult:
    """The winner of a solved game, and the winner's certificate.

    ``GameResult(winner, certificate)`` holds a finished certificate.
    :func:`solve_finite_game` gives ``walk`` instead, a function that
    builds the certificate from the search's arrays; it runs on the
    first read of :attr:`certificate`, whose value is then kept, and
    the walk is dropped with the arrays it holds.
    """

    __slots__ = ("winner", "_certificate", "_walk")

    def __init__(self, winner: str, certificate: StrategyCertificate | None = None,
                 walk: Callable[[], StrategyCertificate] | None = None):
        self.winner = winner
        self._certificate = certificate
        self._walk = walk

    @property
    def certificate(self) -> StrategyCertificate:
        if self._walk is not None:
            self._certificate = self._walk()
            self._walk = None
        return self._certificate


@dataclass(eq=False)
class ReplayReport:
    ok: bool
    reason: str | None = None
    trace: list[Any] | None = None

    def __bool__(self) -> bool:
        return self.ok


class GameSpec(NamedTuple):
    """How to build and write one game of :data:`GAMES`."""

    build: Callable[..., Any]  # (g, k) -> game instance
    fields: tuple[str, ...]  # JSON field names of a position key, in key order
    #: position keys nest (the last component holds child keys), so each
    #: is written once into the certificate's ``table``
    tabled: bool = False
    #: the position key written as ``{"init": true}`` instead of by ``fields``
    init: tuple | None = None


#: game id -> :class:`GameSpec`, filled in by the modules that define games
GAMES: dict[str, GameSpec] = {}


def make_game(g, game_id: str, k: int):
    """Instantiate the game named by its identifier in :data:`GAMES`."""
    if game_id not in GAMES:
        raise ValueError(f"unknown game id {game_id!r}")
    return GAMES[game_id].build(g, k)


def solve_finite_game(game, ceiling: int | None = None) -> GameResult:
    """Winner from the initial position, with a positional certificate.

    A local solver after Liu & Smolka (ICALP 1998), for any game with
    finitely many positions: it stores only the positions it meets
    before the initial one is decided.  A position becomes a cops win
    when it is terminal with that winner, when every thief move from it
    reaches a cops win, or when some cops move does; each new win is
    passed on to the positions waiting on it.  A thief position examines
    its moves one at a time, a cops position all of them, both in
    ``successors`` order.  The certificate follows the rules in the
    module docstring; a cops move always leads to a position won
    earlier, so every play of the cops strategy ends.  It is walked on
    the first read of the result's ``certificate``; until then the
    result keeps the search's position list, index and per-position
    arrays, so drop a result before the next solve.  Raises
    :class:`ArenaCeilingError` when more than ``ceiling`` positions would
    be stored (see :func:`position_limit`).
    """
    limit = position_limit(ceiling)
    owner = game.owner
    init = game.initial_position()

    # Per stored position, by index: the position, whether the cops move
    # there, whether it is terminal, whether it is a cops win, whether it
    # is on the work stack, the successors it has still to examine
    # (reversed, so the next one is last; ``None`` when it is not being
    # examined), and for a won cops position the successor that won it.
    positions: list = [init]
    index: dict = {init: 0}
    cops = bytearray([owner(init) == COPS])
    terminal = bytearray(1)
    won = bytearray(1)
    active = bytearray(b"\1")
    pending: list = [None]
    via = array("l", [-1])
    waiting: dict = {}  # position index -> positions to tell once it is won
    stack = [0]

    def win(p: int, by: int) -> None:
        won[p] = 1
        via[p] = by
        pending[p] = None
        wins = [p]
        while wins:
            q = wins.pop()
            for w in waiting.pop(q, ()):
                if won[w]:
                    continue
                if cops[w]:
                    won[w] = 1
                    via[w] = q
                    pending[w] = None
                    wins.append(w)
                elif not active[w]:
                    # a thief position waits on its current successor only:
                    # that one is won now, so it examines the next
                    active[w] = 1
                    stack.append(w)

    while stack and not won[0]:
        p = stack[-1]
        if won[p]:
            stack.pop()
            active[p] = 0
            continue
        cops_turn = cops[p]
        todo = pending[p]
        if todo is None:
            pos = positions[p]
            term = game.winner_if_terminal(pos)
            if term is not None:
                terminal[p] = 1
                if term == COPS:
                    win(p, -1)
                else:
                    stack.pop()
                    active[p] = 0
                continue
            todo = game.successors(pos)
            todo.reverse()
            pending[p] = todo
        descend = False
        while todo:
            q = todo[-1]
            j = index.get(q)
            if j is None:
                j = len(positions)
                if j >= limit:
                    raise ArenaCeilingError(game.game_id, limit)
                index[q] = j
                positions.append(q)
                cops.append(owner(q) == COPS)
                terminal.append(0)
                won.append(0)
                active.append(1)
                pending.append(None)
                via.append(-1)
                stack.append(j)
                descend = True
                break
            if won[j]:
                if cops_turn:
                    win(p, j)
                    break
                todo.pop()
                continue
            # undecided, or open below on the stack: wait for it
            waiting.setdefault(j, []).append(p)
            if not cops_turn:
                # resumed, from a fresh ``successors`` list, once j is won
                pending[p] = None
                break
            todo.pop()
        if descend or won[p]:
            continue
        stack.pop()
        active[p] = 0
        if not todo:
            pending[p] = None
            if not cops_turn:
                win(p, -1)

    # the search's arrays stay with the result until its certificate is read
    return GameResult(COPS if won[0] else THIEF,
                      walk=partial(_walk_strategy, game, positions, index, cops,
                                   terminal, won, via))


def _walk_strategy(game, positions: list, index: dict, cops: bytearray,
                   terminal: bytearray, won: bytearray, via: array) -> StrategyCertificate:
    """The certificate of a search by :func:`solve_finite_game`.

    Walks the winner's strategy from the initial position (index 0): the
    winner's recorded move at its turns, every move at the opponent's.
    """
    winner = COPS if won[0] else THIEF
    cert = StrategyCertificate(game.game_id, game.k, winner)
    seen = bytearray(len(positions))
    seen[0] = 1
    walk = [0]
    while walk:
        p = walk.pop()
        if terminal[p]:
            continue
        pos = positions[p]
        if cops[p] == won[0]:
            if won[0]:
                chosen = via[p]
            else:
                chosen = next((j for j in map(index.get, game.successors(pos))
                               if not won[j]), -1)
            if chosen < 0:
                raise AssertionError(f"no winning move at a {winner}-won position")
            cert.moves[game.pos_key(pos)] = game.move_key(pos, positions[chosen])
            nxt = (chosen,)
        else:
            nxt = map(index.__getitem__, game.successors(pos))
        for j in nxt:
            if not seen[j]:
                seen[j] = 1
                walk.append(j)
    return cert


def least_winning_k(g, game_id: str, ceiling: int | None = None) -> int:
    """Least ``k`` in ``0 .. g.n`` at which the cops win game ``game_id``."""
    for k in range(g.n + 1):
        if solve_finite_game(make_game(g, game_id, k), ceiling).winner == COPS:
            return k
    raise AssertionError("cops always win once k covers every vertex")


def verify_certificate(g, game_id: str, k: int, cert: StrategyCertificate,
                       ceiling: int | None = None) -> ReplayReport:
    """Replay a certificate against every opponent behaviour.

    The certificate owner plays exactly the mapped moves, followed by
    ``game.play``; all other moves are branched over ``successors``
    without being named.  The walk fails on a missing or illegal mapped
    move, on any play won by the opponent, and (unless infinite plays
    favour the owner) on a reachable cycle.  Raises
    :class:`ArenaCeilingError` when the walk would store more than
    ``ceiling`` positions (see :func:`position_limit`).
    """
    if cert.game != game_id:
        return ReplayReport(False, f"certificate is for game {cert.game!r}, not {game_id!r}")
    if cert.k != k:
        return ReplayReport(False, f"certificate is for k={cert.k}, not k={k}")
    game = make_game(g, game_id, k)
    limit = position_limit(ceiling)
    winner = cert.winner
    if winner not in (THIEF, COPS):
        return ReplayReport(False, f"unknown winner tag {winner!r}")

    init = game.initial_position()
    index: dict[Any, int] = {init: 0}
    nodes = [init]
    succ: list[list[int]] = []
    parent: dict[int, int] = {}

    def reject(reason: str, i: int, move: Any = None) -> ReplayReport:
        """Fail at ``nodes[i]``: the trace from the start to it, then ``move`` there."""
        steps = [(game.pos_key(nodes[i]), move)]
        while i in parent:
            j = parent[i]
            steps.append((game.pos_key(nodes[j]), game.move_key(nodes[j], nodes[i])))
            i = j
        steps.reverse()
        return ReplayReport(False, reason, steps)

    i = 0
    while i < len(nodes):
        pos = nodes[i]
        term = game.winner_if_terminal(pos)
        if term is not None:
            succ.append([])
            if term != winner:
                return reject(f"a play ends in a win for {term}", i)
            i += 1
            continue
        if game.owner(pos) == winner:
            key = game.pos_key(pos)
            mk = cert.moves.get(key)
            if mk is None:
                return reject(f"no move recorded for position {key!r}", i)
            q = game.play(pos, mk)
            if q is None:
                return reject(f"recorded move {mk!r} is illegal at {key!r}", i, mk)
            chosen = [q]
        else:
            chosen = game.successors(pos)
        row = []
        for q in chosen:
            j = index.get(q)
            if j is None:
                j = len(nodes)
                if j >= limit:
                    raise ArenaCeilingError(game_id, limit)
                index[q] = j
                nodes.append(q)
                parent[j] = i
            row.append(j)
        succ.append(row)
        i += 1

    # cycle detection over the strategy-restricted graph; the stack holds
    # the path from the start to the node being expanded
    if winner == COPS or game.finite_plays:
        color = [0] * len(nodes)  # 0 unvisited, 1 on stack, 2 done
        stack: list[tuple[int, int]] = [(0, 0)]
        color[0] = 1
        while stack:
            node, ptr = stack.pop()
            row = succ[node]
            while ptr < len(row):
                j = row[ptr]
                ptr += 1
                if color[j] == 1:
                    cycle = [x for x, _ in stack] + [node, j]
                    return ReplayReport(
                        False,
                        "the play can repeat a position (infinite play)",
                        [(game.pos_key(nodes[x]), None) for x in cycle],
                    )
                if color[j] == 0:
                    stack.append((node, ptr))
                    color[j] = 1
                    stack.append((j, 0))
                    break
            else:
                color[node] = 2
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
    # a JSON ``true`` decodes to a bool, which Python counts as an int
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(
            f"certificate JSON field {name!r} is not a {kind.__name__}: {value!r}"
        )
    return value


def _entry(entry_keys: list, i, name: str):
    if type(i) is not int or not 0 <= i < len(entry_keys):
        raise ValueError(f"certificate JSON field {name!r} names no table entry: {i!r}")
    return entry_keys[i]


def _from_json(obj, names, entry_keys) -> tuple:
    out = []
    for name in names:
        kind = _FIELD_KINDS[name]
        if kind == "verts":
            value = _field(obj, name, list)
            if not {int}.issuperset(map(type, value)):
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
    # how deeply each entry's key nests: hashing a key recurses in C once
    # per level, unchecked, so a deep enough one overflows the stack
    depths: list = []
    for row in _field(obj, "table", list) if spec.tabled else ():
        entry_keys.append(_from_json(row, spec.fields, entry_keys))
        depths.append(1 + max((depths[i] for i in row[spec.fields[-1]]), default=0))
        if depths[-1] > sys.getrecursionlimit():
            raise ValueError(f"certificate JSON field {spec.fields[-1]!r} nests table entries "
                             f"past the recursion limit of {sys.getrecursionlimit()}")
    moves = {}
    for entry in _field(obj, "moves", list):
        pos = _field(entry, "position", dict)
        if spec.tabled:
            key = _entry(entry_keys, _field(pos, "ref", int), "ref")
        elif spec.init is not None and pos.get("init"):
            key = spec.init
        else:
            key = _from_json(pos, spec.fields, entry_keys)
        if key in moves:
            raise ValueError(f"certificate JSON field 'position' names a position twice: {pos!r}")
        mv = _field(entry, "move", dict)
        tags = [tag for tag, names in _MOVE_FIELDS.items() if names[0] in mv]
        if len(tags) != 1:
            raise ValueError(f"certificate JSON field 'move' names {len(tags)} move tags: {mv!r}")
        moves[key] = (tags[0], *_from_json(mv, _MOVE_FIELDS[tags[0]], entry_keys))
    k = _field(obj, "k", int)
    winner = _field(obj, "winner", str)
    if winner not in (THIEF, COPS):
        raise ValueError(f"certificate JSON field 'winner' is not {THIEF!r} or {COPS!r}: {winner!r}")
    return StrategyCertificate(game_id, k, winner, moves)

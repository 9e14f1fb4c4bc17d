"""The three pursuit games behind entanglement, solved exactly.

All variants share the same skeleton: a thief walks along edges, cops
occupy at most ``k`` vertices, the thief may never move onto an
occupied vertex.  A play that halts (the thief is stuck) is a cops win;
an infinite play is a thief win.

* plain variant: cops may skip, add a cop on the thief's vertex
  (capacity permitting), or move an already placed cop onto it;
* retirement variant ("et"): cops may drop any subset of placed cops,
  optionally adding one on the thief's vertex;
* virtual variant ("entv"): positions carry a second set of *virtual*
  cops that do not block the thief; if the thief stands on a virtual
  cop it materializes (forced move), otherwise cops combine one
  retirement-style update of the blocking set with one update of the
  virtual set -- retire any subset of it and optionally reserve one new
  vertex anywhere.  The union of both sets never exceeds ``k``.

The move rules and the position and move key formats live only in
:class:`PursuitGame`.  The solver is local, after Liu & Smolka (ICALP
1998): it walks depth first from the initial position through those
rules and stores only the positions it meets before that one is
decided.  A position becomes a cops win when the thief is stuck there,
when every thief move from it reaches a cops win, or when some cops
move does; each new win is passed on to the positions waiting on it.
A thief position examines its moves one at a time in canonical order;
a cops position tries the moves that put a real cop on the thief's
vertex first, each group in canonical order.  What is undecided when
the walk runs out is a thief win: there every thief position has an
undecided successor and every cops position only undecided ones.
The extracted certificates are positional.  The cops play, at each
position, the move through which it was first shown won; that move
leads to a position won earlier, so every play of the strategy ends.
The thief plays its first successor, in canonical order, that is not a
cops win.  Each recorded decision is named by ``PursuitGame.move_key``.
Replay goes the other way: ``PursuitGame.play`` decodes a recorded move
key into its successor position and lets ``successors`` confirm it,
rather than naming every legal move to find the recorded one.
"""

from __future__ import annotations

from array import array
from functools import partial

from .digraph import Digraph, iter_mask, mask_of
from .gamecore import (
    COPS,
    THIEF,
    ArenaCeilingError,
    GAMES,
    GameResult,
    GameSpec,
    StrategyCertificate,
    least_winning_k,
    position_limit,
)

__all__ = [
    "VARIANTS",
    "PursuitGame",
    "solve_pursuit",
    "entanglement",
]

INIT = ("init",)

#: the pursuit variants, which are also their game ids
VARIANTS = ("ent", "et", "entv")


def _submasks(m: int) -> list[int]:
    """All submasks of ``m``, ascending."""
    out = [0]
    s = m
    while s:
        out.append(s)
        s = (s - 1) & m
    out.sort()
    return out


class PursuitGame:
    """One pursuit game instance in the shared game protocol.

    Positions are ``("init",)`` (the thief is about to pick a starting
    vertex) or ``(vertex, cop_mask, virtual_mask, turn)``.  The plain
    and retirement variants keep the virtual mask at zero.
    """

    finite_plays = False

    def __init__(self, g: Digraph, k: int, variant: str = "ent"):
        if variant not in VARIANTS:
            raise ValueError(f"unknown pursuit variant {variant!r}")
        if not 0 <= k <= g.n:
            raise ValueError("cop count k must satisfy 0 <= k <= |V|")
        self.g = g
        self.k = k
        self.variant = variant
        self.game_id = variant

    # -- move rules ------------------------------------------------------

    def thief_targets(self, v: int, cmask: int) -> list[int]:
        return [w for w in self.g.successors(v) if not (cmask >> w) & 1]

    def cop_configs(self, v: int, cmask: int, vmask: int) -> list[tuple[int, int]]:
        """Legal ``(cop_mask, virtual_mask)`` results of one Cops turn."""
        k = self.k
        vb = 1 << v
        if self.variant == "ent":
            configs = {cmask}
            if cmask.bit_count() < k:
                configs.add(cmask | vb)
            for x in range(self.g.n):
                if (cmask >> x) & 1:
                    configs.add((cmask & ~(1 << x)) | vb)
            return sorted((c, 0) for c in configs)
        if self.variant == "et":
            configs = set()
            for s in _submasks(cmask):
                configs.add(s)
                if (s | vb).bit_count() <= k:
                    configs.add(s | vb)
            return sorted((c, 0) for c in configs)
        # virtual variant
        if (vmask >> v) & 1:
            return [(cmask | vb, vmask & ~vb)]
        # Each (c2, t2) comes out once: v is not in cmask and cmask and
        # vmask are disjoint at every reachable cops position, so c2 never
        # meets vmask, and a reserved vertex w outside vmask cannot
        # rebuild a submask of vmask.
        full = self.g.full_mask
        out = []
        for s in _submasks(cmask):
            for c2 in (s, s | vb):
                room = k - c2.bit_count()
                fresh = [1 << w for w in iter_mask(full & ~(c2 | vmask))]
                for t in _submasks(vmask):
                    left = room - t.bit_count()
                    if left < 0:
                        continue
                    out.append((c2, t))
                    if left:
                        out.extend((c2, t | wb) for wb in fresh)
        out.sort()
        return out

    # -- game protocol ----------------------------------------------------

    def initial_position(self):
        return INIT

    def owner(self, pos) -> str:
        if pos == INIT:
            return THIEF
        return pos[3]

    def winner_if_terminal(self, pos) -> str | None:
        if self.owner(pos) == THIEF and not self.successors(pos):
            return COPS
        return None

    def successors(self, pos):
        if pos == INIT:
            return [(v, 0, 0, COPS) for v in self.g.vertices()]
        v, cmask, vmask, turn = pos
        if turn == THIEF:
            return [(w, cmask, vmask, COPS) for w in self.thief_targets(v, cmask)]
        return [(v, c2, t2, THIEF) for c2, t2 in self.cop_configs(v, cmask, vmask)]

    def move_key(self, src, dst):
        if src == INIT:
            return ("start", dst[0])
        if src[3] == THIEF:
            return ("to", dst[0])
        return ("occupy", tuple(iter_mask(dst[1])), tuple(iter_mask(dst[2])))

    def moves(self, pos):
        return [(self.move_key(pos, q), q) for q in self.successors(pos)]

    def play(self, pos, mk):
        """The successor of ``pos`` that move key ``mk`` names, or ``None``.

        The key is decoded into a position, which ``successors`` must
        list and ``move_key`` must name by ``mk`` itself: legality is
        left to the move rules, and unsorted or duplicated vertex tuples
        are refused.
        """
        try:
            tag = mk[0]
            if pos == INIT:
                q = (mk[1], 0, 0, COPS) if tag == "start" else None
            elif pos[3] == THIEF:
                q = (mk[1], pos[1], pos[2], COPS) if tag == "to" else None
            # a vertex past the graph would make ``mask_of`` build a huge int
            elif tag == "occupy" and all(x < self.g.n for x in mk[1] + mk[2]):
                q = (pos[0], mask_of(mk[1]), mask_of(mk[2]), THIEF)
            else:
                q = None
        except (TypeError, ValueError, LookupError):
            return None
        if q is None:
            return None
        succ = self.successors(pos)
        try:
            # the listed successor, whatever number types ``mk`` used
            q = succ[succ.index(q)]
        except ValueError:
            return None
        return q if self.move_key(pos, q) == mk else None

    def pos_key(self, pos):
        if pos == INIT:
            return INIT
        v, cmask, vmask, turn = pos
        return (v, tuple(iter_mask(cmask)), tuple(iter_mask(vmask)), turn)

    def memo_key(self, pos):
        return pos


def solve_pursuit(g: Digraph, k: int, variant: str = "ent",
                  ceiling: int | None = None) -> GameResult:
    """Exact winner of the chosen pursuit variant, with a certificate."""
    game = PursuitGame(g, k, variant)
    limit = position_limit(ceiling)
    n = g.n
    full = g.full_mask

    # Per stored position, by index: the position, whether it is a cops
    # win, whether it is on the work stack, the successor codes it has
    # still to examine (reversed, so the next one is last; ``None`` before
    # it is expanded and once it is won or has none left), and for a won
    # cops position the successor that won it.  A code is a target vertex
    # after a thief turn and ``c2 << n | t2`` after a cops turn.
    positions: list = [INIT]
    index: dict = {INIT: 0}
    won = bytearray(1)
    active = bytearray(b"\1")
    pending: list = [None]
    via = array("l", [-1])
    waiting: dict = {}  # position -> positions to tell once it is won
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
                if positions[w][-1] == COPS:
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
        pos = positions[p]
        cops_turn = pos[-1] == COPS
        if p:
            v, c, t, _ = pos
        else:
            v = c = t = 0
        todo = pending[p]
        if todo is None:
            if not p:
                todo = [q[0] for q in game.successors(INIT)]
            elif cops_turn:
                # moves that put a real cop on the thief's vertex go first
                vb = 1 << v
                occupy, other = [], []
                for c2, t2 in game.cop_configs(v, c, t):
                    (occupy if c2 & vb else other).append(c2 << n | t2)
                todo = occupy + other
            else:
                todo = game.thief_targets(v, c)
            todo.reverse()
            pending[p] = todo
        descend = False
        while todo:
            code = todo[-1]
            if cops_turn:
                q = (v, code >> n, code & full, THIEF)
            else:
                q = (code, c, t, COPS)
            j = index.get(q)
            if j is None:
                j = len(positions)
                if j >= limit:
                    raise ArenaCeilingError(variant, limit)
                index[q] = j
                positions.append(q)
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
                break
            todo.pop()
        if descend or won[p]:
            continue
        stack.pop()
        active[p] = 0
        if not todo:
            if cops_turn:
                pending[p] = None
            else:
                win(p, -1)

    winner = COPS if won[0] else THIEF
    cert = StrategyCertificate(variant, k, winner)

    # walk the winner's strategy: cops follow the move that won each
    # position, the thief its first successor that is not a cops win
    seen = bytearray(len(positions))
    seen[0] = 1
    walk = [0]
    while walk:
        p = walk.pop()
        pos = positions[p]
        if (game.owner(pos) == COPS) == (winner == COPS):
            if winner == COPS:
                chosen = via[p]
            else:
                chosen = next((j for j in map(index.get, game.successors(pos))
                               if not won[j]), -1)
            if chosen < 0:
                raise AssertionError(f"no winning move at a {winner}-won position")
            cert.moves[game.pos_key(pos)] = game.move_key(pos, positions[chosen])
            nxt = [chosen]
        else:
            nxt = [index[q] for q in game.successors(pos)]
        for j in nxt:
            if not seen[j]:
                seen[j] = 1
                walk.append(j)
    return GameResult(winner, cert)


def entanglement(g: Digraph, ceiling: int | None = None) -> int:
    """Least number of cops that wins the plain pursuit game on ``g``."""
    return least_winning_k(g, "ent", ceiling)


for _v in VARIANTS:
    # ``solve_pursuit`` is looked up at each call, so a wrapper installed on
    # this module (the benchmark's tracer) also sees calls through the table
    GAMES[_v] = GameSpec(partial(PursuitGame, variant=_v),
                         lambda g, k, ceiling=None, v=_v: solve_pursuit(g, k, v, ceiling),
                         ("vertex", "cops", "virtual", "turn"), init=INIT)

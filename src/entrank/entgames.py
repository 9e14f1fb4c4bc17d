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
:class:`PursuitGame`; :func:`.gamecore.solve_finite_game` solves it.
``cop_configs`` enumerates the cops moves in the solver's order: those
that put a real cop on the thief's vertex first, each group in
ascending order, so the solver tries those first.  It is the only
enumerator of cops moves.  ``_cops_move_legal`` decides one given cops
move with a few mask tests, which is all that replay needs.
"""

from __future__ import annotations

from functools import partial

from .digraph import Digraph, iter_mask, mask_of
from .gamecore import COPS, THIEF, GAMES, GameResult, GameSpec, solve_finite_game

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
        return list(iter_mask(self.g.succ_masks[v] & ~cmask))

    def cop_configs(self, v: int, cmask: int, vmask: int) -> list[tuple[int, int]]:
        """Legal ``(cop_mask, virtual_mask)`` results of one Cops turn.

        Those that put a real cop on ``v`` come first, then the rest,
        each group in ascending order.  The thief's vertex ``v`` is never
        in ``cmask`` at a cops position, so no result comes out twice.
        """
        k = self.k
        vb = 1 << v
        if self.variant == "ent":
            occupy = [((cmask ^ (1 << x)) | vb, 0) for x in iter_mask(cmask)]
            occupy.reverse()  # dropping a lower cop leaves a larger mask
            if cmask.bit_count() < k:
                occupy.append((cmask | vb, 0))
            occupy.append((cmask, 0))
            return occupy
        if self.variant == "et":
            subs = _submasks(cmask)
            return ([(s | vb, 0) for s in subs if s.bit_count() < k]
                    + [(s, 0) for s in subs])
        # virtual variant
        if (vmask >> v) & 1:
            return [(cmask | vb, vmask & ~vb)]
        # Each (c2, t2) comes out once: c2 never meets vmask, since cmask
        # and vmask are disjoint at every reachable cops position, and a
        # reserved vertex w outside vmask cannot rebuild a submask of vmask.
        full = self.g.full_mask
        occupy, other = [], []
        for s in _submasks(cmask):
            for c2, out in ((s | vb, occupy), (s, other)):
                room = k - c2.bit_count()
                fresh = [1 << w for w in iter_mask(full & ~(c2 | vmask))]
                for t in _submasks(vmask):
                    left = room - t.bit_count()
                    if left < 0:
                        continue
                    out.append((c2, t))
                    if left:
                        out.extend((c2, t | wb) for wb in fresh)
        occupy.sort()
        other.sort()
        return occupy + other

    def _cops_move_legal(self, v: int, cmask: int, vmask: int, c2: int, t2: int) -> bool:
        """Whether ``(c2, t2)`` is one of ``cop_configs(v, cmask, vmask)``.

        Decides one move without listing the others; ``v`` is the
        thief's vertex of a reachable cops position, so it is in neither
        ``cmask`` nor, outside the forced move, ``vmask``.
        """
        vb = 1 << v
        if self.variant == "ent":
            if t2:
                return False
            if c2 == cmask:
                return True  # skip
            if not c2 & vb or (c2 ^ vb) & ~cmask:
                return False
            # a cop on v, taken from one vertex of cmask or added within k
            moved = (cmask & ~c2).bit_count()
            return moved == 1 or (moved == 0 and cmask.bit_count() < self.k)
        if self.variant == "et":
            return not t2 and not c2 & ~(cmask | vb) and c2.bit_count() <= self.k
        # virtual variant
        if vmask & vb:
            return c2 == cmask | vb and t2 == vmask & ~vb
        fresh = t2 & ~vmask
        return (not c2 & ~(cmask | vb)
                and not fresh & (fresh - 1)
                and not fresh & c2
                and c2.bit_count() + t2.bit_count() <= self.k)

    # -- game protocol ----------------------------------------------------

    def initial_position(self):
        return INIT

    def owner(self, pos) -> str:
        if pos == INIT:
            return THIEF
        return pos[3]

    def winner_if_terminal(self, pos) -> str | None:
        if pos == INIT:
            return None if self.g.n else COPS
        v, cmask, _, turn = pos
        if turn == THIEF and not self.g.succ_masks[v] & ~cmask:
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

        The key is decoded into a position that must be legal and that
        ``move_key`` must name by ``mk`` itself, so unsorted or
        duplicated vertex tuples are refused.  A start or thief move is
        looked up among the few ``successors``; a cops move is decided
        by ``_cops_move_legal`` alone, since ``cop_configs`` enumerates
        every cops move in the solver's order and replay needs just one.
        """
        try:
            tag = mk[0]
            if pos == INIT:
                q = (mk[1], 0, 0, COPS) if tag == "start" else None
            elif pos[3] == THIEF:
                q = (mk[1], pos[1], pos[2], COPS) if tag == "to" else None
            # a vertex past the graph would make ``mask_of`` build a huge int
            elif tag == "occupy" and all(x < self.g.n for x in mk[1] + mk[2]):
                v, cmask, vmask, _ = pos
                c2, t2 = mask_of(mk[1]), mask_of(mk[2])
                legal = self._cops_move_legal(v, cmask, vmask, c2, t2)
                q = (v, c2, t2, THIEF) if legal else None
            else:
                q = None
        except (TypeError, ValueError, LookupError):
            return None
        if q is not None and q[3] == COPS:
            succ = self.successors(pos)
            # the listed successor, whatever number types ``mk`` used
            q = succ[succ.index(q)] if q in succ else None
        return q if q is not None and self.move_key(pos, q) == mk else None

    def pos_key(self, pos):
        if pos == INIT:
            return INIT
        v, cmask, vmask, turn = pos
        return (v, tuple(iter_mask(cmask)), tuple(iter_mask(vmask)), turn)


def solve_pursuit(g: Digraph, k: int, variant: str = "ent",
                  ceiling: int | None = None) -> GameResult:
    """Exact winner of the chosen pursuit variant, with a certificate."""
    return solve_finite_game(PursuitGame(g, k, variant), ceiling)


def entanglement(g: Digraph, ceiling: int | None = None) -> int:
    """Least number of cops that wins the plain pursuit game on ``g``."""
    # solves by ``solve_pursuit``: the benchmark's pursuit timings and useful_ratio read its spans
    for k in range(g.n + 1):
        if solve_pursuit(g, k, "ent", ceiling).winner == COPS:
            return k
    raise AssertionError("cops always win once k covers every vertex")


for _v in VARIANTS:
    GAMES[_v] = GameSpec(partial(PursuitGame, variant=_v),
                         ("vertex", "cops", "virtual", "turn"), init=INIT)

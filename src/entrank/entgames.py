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

The move rules and the position and move key formats live in
:class:`PursuitGame`; :func:`.gamecore.solve_finite_game` solves it.
The plain rules are stated once more, in mask form, by
``_ent_cops_win``: it decides one ``ent`` level for every cop set at
once, and :func:`entanglement` uses it on the levels where it pays.
``tests/test_entgames.py`` checks its winner against ``solve_pursuit``
at every k on random graphs, which ties the two statements together.
``cop_configs`` enumerates the cops moves in the solver's order: those
that put a real cop on the thief's vertex first, each group in
ascending order, so the solver tries those first.  It is the only
enumerator of cops moves.  ``_cops_move_legal`` decides one given cops
move with a few mask tests, which is all that replay needs.
"""

from __future__ import annotations

from functools import partial
from math import comb

from .digraph import Digraph, iter_mask, mask_of
from .gamecore import (COPS, THIEF, GAMES, GameResult, GameSpec, play_by_successors,
                       position_limit, solve_finite_game)

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


class _VertexTuples(dict):
    """Mask -> its ascending vertex tuple, built on the first lookup."""

    def __missing__(self, m: int) -> tuple[int, ...]:
        t = self[m] = tuple(iter_mask(m))
        return t


class PursuitGame:
    """One pursuit game instance in the shared game protocol.

    Positions are ``("init",)`` (the thief is about to pick a starting
    vertex) or ``(vertex, cop_mask, virtual_mask, turn)``.  The plain
    and retirement variants keep the virtual mask at zero.

    Position and move keys spell a cop mask as its ascending vertex
    tuple.  Each instance builds that tuple once per mask, in its own
    dict, so ``pos_key`` and ``move_key`` cost a lookup after the first
    time and the keys of one game share their tuples.  The search itself
    (``successors``) builds no keys.
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
        self._verts = _VertexTuples()

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
        verts = self._verts
        return ("occupy", verts[dst[1]], verts[dst[2]])

    def moves(self, pos):
        return [(self.move_key(pos, q), q) for q in self.successors(pos)]

    def play(self, pos, mk):
        """The successor of ``pos`` that move key ``mk`` names, or ``None``.

        A start or thief move is looked up among the few ``successors``
        by :func:`.gamecore.play_by_successors`.  A cops move is decoded
        into a position that ``_cops_move_legal`` must allow and that
        ``move_key`` must name by ``mk`` itself, so unsorted or duplicated
        vertex tuples are refused; ``cop_configs`` enumerates every cops
        move in the solver's order, and replay needs just one.
        """
        if pos == INIT or pos[3] == THIEF:
            return play_by_successors(self, pos, mk)
        v, cmask, vmask, _ = pos
        try:
            # a vertex past the graph would make ``mask_of`` build a huge int
            if mk[0] != "occupy" or not all(x < self.g.n for x in mk[1] + mk[2]):
                return None
            c2, t2 = mask_of(mk[1]), mask_of(mk[2])
        except (TypeError, ValueError, LookupError):
            return None
        q = (v, c2, t2, THIEF)
        legal = self._cops_move_legal(v, cmask, vmask, c2, t2)
        return q if legal and self.move_key(pos, q) == mk else None

    def pos_key(self, pos):
        if pos == INIT:
            return INIT
        v, cmask, vmask, turn = pos
        verts = self._verts
        return (v, verts[cmask], verts[vmask], turn)


def solve_pursuit(g: Digraph, k: int, variant: str = "ent",
                  ceiling: int | None = None) -> GameResult:
    """Exact winner of the chosen pursuit variant, with a certificate."""
    return solve_finite_game(PursuitGame(g, k, variant), ceiling)


def _ent_cops_win(g: Digraph, k: int) -> bool:
    """Whether ``k`` cops win plain ``ent`` on ``g``, for all cop sets at once.

    Bit ``m`` of an int of ``2**n`` bits stands for the cop set ``m``.
    ``cops[v]`` holds the sets with which the cops win their turn with
    the thief on ``v``, ``thief`` those of at most ``k`` cops with which
    they win the thief's turn there, and ``has[x]`` the sets that
    contain ``x``.  Sweeping
    the vertices until no ``cops[v]`` changes gives the least fixpoint
    of the rules of :class:`PursuitGame`, restated for masks:

    * the thief's turn is won when every successor is blocked or won at
      the cops' turn (a stuck thief loses);
    * the cops' turn at ``v`` (not in the set) is won when one of their
      moves wins the thief's turn: skip (the same set), add a cop on
      ``v`` (the set minus ``v``, shifted down by ``2**v``), or move the
      cop on ``x`` to ``v`` (shifted by ``2**x - 2**v``).

    The cops win when they win their turn at every start with no cop.
    """
    n = g.n
    if not n:
        return True
    everything = (1 << (1 << n)) - 1
    # the sets holding x come in runs of 2**x, every 2**(x + 1)
    has = [everything // ((1 << (2 << x)) - 1) * (((1 << (1 << x)) - 1) << (1 << x))
           for x in range(n)]
    lacks = [everything ^ h for h in has]
    by_size = [1] + [0] * k  # by_size[j]: the sets of j cops among the vertices so far
    for x in range(n):
        for j in range(k, 0, -1):
            by_size[j] |= by_size[j - 1] << (1 << x)
    valid = 0
    for sets in by_size:
        valid |= sets
    succ = [list(iter_mask(m)) for m in g.succ_masks]
    cops = [0] * n
    changed = True
    while changed:
        changed = False
        for v in range(n):
            thief = valid
            for w in succ[v]:
                thief &= has[w] | cops[w]
            on_v = thief & has[v]
            vb = 1 << v
            won = thief | on_v >> vb
            for x in range(n):
                if x != v:
                    moved = on_v & lacks[x]
                    shift = (1 << x) - vb
                    won |= moved << shift if shift > 0 else moved >> -shift
            # every rule keeps at most k cops; the sets that hold v are
            # never read back, since ``has[v]`` already covers them
            if won != cops[v]:
                cops[v] = won
                changed = True
    return all(c & 1 for c in cops)


def entanglement(g: Digraph, ceiling: int | None = None) -> int:
    """Least number of cops that wins the plain pursuit game on ``g``."""
    # A level goes to ``_ent_cops_win`` when a local solve there could not
    # trip the ceiling (it stores at most 1 + 2 n S positions for the S cop
    # sets of at most k cops), so skips and ArenaCeilingError stay as they
    # were, and when its 2**n masks are at most 32 S, which keeps it off
    # sparse low levels where the local solve is tiny (on n = 8..14 the 32
    # keeps every kernel level within about twice the local time).  Every
    # other level is a ``solve_pursuit`` span.  In the benchmark those are
    # the low levels of theorem-certify's graphs, among them every level
    # of its upath graphs and k < 3 of ucycle-12, and every level of
    # rank-scale's term graph, so the traced pursuit timings and
    # useful_ratio keep their values.
    n = g.n
    limit = position_limit(ceiling)
    sets = 0
    for k in range(n + 1):
        sets += comb(n, k)
        if 1 + 2 * n * sets <= limit and (1 << n) <= 32 * sets:
            won = _ent_cops_win(g, k)
        else:
            won = solve_pursuit(g, k, "ent", ceiling).winner == COPS
        if won:
            return k
    raise AssertionError("cops always win once k covers every vertex")


for _v in VARIANTS:
    GAMES[_v] = GameSpec(partial(PursuitGame, variant=_v),
                         ("vertex", "cops", "virtual", "turn"), init=INIT)

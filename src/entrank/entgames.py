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
:class:`PursuitGame`.  The solver enumerates the reachable arena
breadth-first through ``PursuitGame.successors`` into flat adjacency
arrays and computes the cops' forced-reachability set toward
thief-stuck positions by the standard backward counting pass.  The
extracted certificates are positional: cops follow strictly decreasing
attractor ranks; a winning thief simply stays outside the attractor.
Each recorded decision is named by ``PursuitGame.move_key``.  Replay
goes the other way: ``PursuitGame.play`` decodes a recorded move key
into its successor position and lets ``successors`` confirm it, rather
than naming every legal move to find the recorded one.
"""

from __future__ import annotations

from array import array

from .digraph import Digraph, iter_mask, mask_of
from .gamecore import (
    COPS,
    DEFAULT_POSITION_CEILING,
    THIEF,
    ArenaCeilingError,
    GAMES,
    GameResult,
    GameSpec,
    StrategyCertificate,
    least_winning_k,
)

__all__ = [
    "VARIANTS",
    "PursuitGame",
    "solve_pursuit",
    "entanglement",
    "et_min_k",
    "entv_min_k",
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
    limit = DEFAULT_POSITION_CEILING if ceiling is None else ceiling

    # breadth-first arena enumeration into flat CSR arrays
    positions: list = [INIT]
    index: dict = {INIT: 0}
    flat = array("l")
    offsets = array("l", [0])
    thief_owned = bytearray()

    i = 0
    while i < len(positions):
        pos = positions[i]
        thief_owned.append(1 if game.owner(pos) == THIEF else 0)
        for q in game.successors(pos):
            j = index.get(q)
            if j is None:
                j = len(positions)
                if j >= limit:
                    raise ArenaCeilingError(variant, limit)
                index[q] = j
                positions.append(q)
            flat.append(j)
        offsets.append(len(flat))
        i += 1

    count = len(positions)

    # predecessor lists by counting sort
    indeg = array("l", [0]) * count
    for j in flat:
        indeg[j] += 1
    poff = array("l", [0] * (count + 1))
    for p in range(count):
        poff[p + 1] = poff[p] + indeg[p]
    preds = array("l", [0] * len(flat))
    cursor = array("l", poff[:count])
    for p in range(count):
        for e in range(offsets[p], offsets[p + 1]):
            q = flat[e]
            preds[cursor[q]] = p
            cursor[q] += 1

    # backward reachability: cops force the play into stuck thief positions
    rank = array("l", [-1] * count)
    need = array("l", [0] * count)
    queue = array("l")
    for p in range(count):
        deg = offsets[p + 1] - offsets[p]
        if thief_owned[p]:
            need[p] = deg
            if deg == 0:
                rank[p] = 0
                queue.append(p)
        else:
            need[p] = 1
    qi = 0
    while qi < len(queue):
        p = queue[qi]
        qi += 1
        r = rank[p] + 1
        for e in range(poff[p], poff[p + 1]):
            q = preds[e]
            if rank[q] != -1:
                continue
            need[q] -= 1
            if need[q] == 0:
                rank[q] = r
                queue.append(q)

    winner = COPS if rank[0] != -1 else THIEF
    cert = StrategyCertificate(variant, k, winner)

    # walk the strategy-restricted graph, recording the winner's choices
    seen = bytearray(count)
    stack = [0]
    seen[0] = 1
    while stack:
        p = stack.pop()
        lo, hi = offsets[p], offsets[p + 1]
        if lo == hi:
            continue
        wins = thief_owned[p] == (1 if winner == THIEF else 0)
        if wins:
            chosen = -1
            if winner == COPS:
                r = rank[p]
                for e in range(lo, hi):
                    q = flat[e]
                    if 0 <= rank[q] < r:
                        chosen = q
                        break
            else:
                for e in range(lo, hi):
                    q = flat[e]
                    if rank[q] == -1:
                        chosen = q
                        break
            if chosen < 0:
                raise AssertionError("no progressing move at a won position")
            cert.moves[game.pos_key(positions[p])] = game.move_key(
                positions[p], positions[chosen]
            )
            nxt = [chosen]
        else:
            nxt = [flat[e] for e in range(lo, hi)]
        for q in nxt:
            if not seen[q]:
                seen[q] = 1
                stack.append(q)
    return GameResult(winner, cert)


def entanglement(g: Digraph, ceiling: int | None = None) -> int:
    """Least number of cops that wins the plain pursuit game on ``g``."""
    return least_winning_k(g, lambda k: solve_pursuit(g, k, "ent", ceiling))


def et_min_k(g: Digraph, ceiling: int | None = None) -> int:
    """Least winning cop count in the retirement variant."""
    return least_winning_k(g, lambda k: solve_pursuit(g, k, "et", ceiling))


def entv_min_k(g: Digraph, ceiling: int | None = None) -> int:
    """Least winning cop count in the virtual-cop variant."""
    return least_winning_k(g, lambda k: solve_pursuit(g, k, "entv", ceiling))


# a game instance takes no ceiling
for _v in VARIANTS:
    GAMES[_v] = GameSpec(lambda g, k, ceiling, v=_v: PursuitGame(g, k, v),
                         lambda g, k, v=_v: solve_pursuit(g, k, v),
                         ("vertex", "cops", "virtual", "turn"), init=INIT)

"""Digraph rank and the two shrinking games that characterize it.

The rank of a digraph is defined by recursion on its strongly connected
structure: an acyclic graph has rank 0; a strongly connected graph with
at least one edge has rank ``1 + min`` over single-vertex deletions;
anything else has the maximum rank of its nontrivial components.

:func:`rank` evaluates that recursion on vertex-subset bitmasks, taking
components one at a time from the peel of :func:`.digraph.components`.
The recursion is a branch and bound: a call with a cap returns the exact
rank when it is below the cap and a lower bound at or above the cap
otherwise.  Several components stop at the first one that reaches the
cap.  A strongly connected graph asks each deletion only whether it
beats the best found so far, and stops once the best meets its lower
bound: at least 1, and at least the rank of any deletion, since rank
never grows when a vertex is deleted.

A strongly connected graph tries only the deletions that no other
deletion provably matches or beats.  Two rules point a vertex ``v`` at a
vertex ``u`` whose deletion is no worse:

* *Twins.*  ``u`` and ``v`` have the same out- and in-neighbours besides
  each other, ``u -> v`` exactly when ``v -> u``, and the same loop
  status.  Swapping them is an automorphism of every subgraph holding
  both, so ``rank(G - u) = rank(G - v)``.  Twin classes are found once
  per call, and ``v`` points at its lowest live twin.  (The equality
  needs only ``G - u`` and ``G - v`` to be isomorphic, which holds for an
  edge between them one way only too; asking for both ways or neither
  makes twinship an equivalence that two hash keys find.)
* *Dominance.*  The in-neighbours of ``v`` in ``G``, counting ``v``
  itself, are exactly ``{u}`` with ``u != v`` (or the same for its
  out-neighbours).  In ``G - u`` the vertex ``v`` is then a trivial
  source (or sink), so ``rank(G - u) = rank(G - u - v) <= rank(G - v)``.

Along these pointers the deletion rank never grows, so trying the roots
of the pointer graph, plus one vertex on each of its cycles, finds the
minimum.  Skipping every pointed vertex would not: on a cycle of
pointers each vertex is beaten by another, and none may be dropped.

Only strongly connected masks are memoised, as exact values and lower
bounds apart; a mask of several components is the maximum over its
components, which are memoised themselves.  The memo is capped by a
ceiling (:class:`RankCeilingError` past it).

Two games compute the same number.  In the plain shrinking game the
thief repeatedly enters a nontrivial component and the cops delete one
of its vertices, spending one unit of a budget of ``k``; the cops win
iff the graph runs out of cycles before the budget runs out.  The
comeback variant additionally lets the thief return to any component
that was reachable *ahead* of an earlier choice, restoring the budget
in force back then.  The shrinking game is the comeback game with
recording turned off: :class:`RankShrinkGame` subclasses
:class:`ComebackGame` and records nothing on entering a component, so
its collection stays empty.  Both games are finite and solved exactly
by the one local solver, :func:`.gamecore.solve_finite_game`.
"""

from __future__ import annotations

from functools import cache, partial
from typing import Iterator

from .digraph import Digraph, components, iter_mask, scc_decompose
from .gamecore import (
    COPS,
    THIEF,
    GAMES,
    ArenaCeilingError,
    GameResult,
    GameSpec,
    play_by_successors,
    solve_finite_game,
)

__all__ = [
    "rank",
    "DEFAULT_RANK_CEILING",
    "RankDepthError",
    "RankCeilingError",
    "RankShrinkGame",
    "CPos",
    "ComebackGame",
    "solve_comeback_game",
]

#: default cap on the entries (exact values plus lower bounds) of the
#: rank memo; ``upath-400`` needs about 43k
DEFAULT_RANK_CEILING = 1_000_000


class RankDepthError(RuntimeError):
    """The rank recursion ran past the interpreter's recursion limit."""


class RankCeilingError(ArenaCeilingError):
    """The rank memo would hold more than ``limit`` entries (game id ``rank``)."""

    def __init__(self, game_id: str, limit: int):
        super().__init__(game_id, limit)
        self.args = (f"rank memo exceeded the entry ceiling of {limit}",)


def _twins_below(g: Digraph) -> list[int]:
    """Per vertex, the mask of its lower-numbered twins (see the module notes).

    Twins adjacent both ways share the key ``(succ | v, pred | v, loop)``,
    twins adjacent neither way the key ``(succ - v, pred - v, loop)``;
    each key names one class.
    """
    below = [0] * g.n
    adjacent: dict[tuple, int] = {}
    apart: dict[tuple, int] = {}
    for v, (s, p) in enumerate(zip(g.succ_masks, g.pred_masks)):
        bv = 1 << v
        loop = bool(s & bv)
        for classes, key in ((adjacent, (s | bv, p | bv, loop)),
                             (apart, (s & ~bv, p & ~bv, loop))):
            lower = classes.get(key, 0)
            below[v] |= lower
            classes[key] = lower | bv
    return below


class _RankMemo:
    """Branch-and-bound rank recursion memoised on strongly connected masks.

    ``exact`` maps a strongly connected mask with a cycle to its rank;
    ``lower`` maps one whose rank is not known to the best lower bound
    proven for it.  The two together may hold at most ``ceiling``
    entries.  A mask of several components, or of one vertex without a
    loop, is answered from its components and not stored.  A strongly
    connected mask tries only the deletions of :meth:`_deletions`.
    """

    __slots__ = ("g", "twins", "exact", "lower", "ceiling")

    def __init__(self, g: Digraph, ceiling: int):
        self.g = g
        self.twins = _twins_below(g)
        self.exact: dict[int, int] = {}
        self.lower: dict[int, int] = {}
        self.ceiling = ceiling

    def _remember(self, mask: int, value: int, cap: int) -> int:
        """Memoise ``value`` as exact when below ``cap``, else as a lower bound."""
        if value < cap:
            self.lower.pop(mask, None)
            table = self.exact
        else:
            table = self.lower
        if mask not in table and len(self.exact) + len(self.lower) >= self.ceiling:
            raise RankCeilingError("rank", self.ceiling)
        table[mask] = value
        return value

    def _deletions(self, mask: int) -> Iterator[int]:
        """The deletions to try on the strongly connected ``mask``, ascending.

        Each twin or dominated vertex points at one vertex whose deletion
        is no worse (see the module notes).  A vertex is tried when it
        points nowhere, or when its pointers lead back to it through
        higher vertices only: it is then the lowest vertex of a cycle of
        pointers.  Vertices are classified only as the caller asks.
        """
        succ, pred, twins = self.g.succ_masks, self.g.pred_masks, self.twins
        settled = 0  # vertices known not to be tried
        left = mask
        while left:
            low = left & -left
            left ^= low
            if settled & low:
                continue
            chain, bw = 0, low
            while True:
                w = bw.bit_length() - 1
                u = twins[w] & mask
                if not u:
                    u = pred[w] & mask
                    if u & (u - 1) or u == bw:
                        u = succ[w] & mask
                        if u & (u - 1) or u == bw:
                            if not chain:
                                yield w
                            break
                chain |= bw
                bw = u & -u
                if bw == low:
                    yield low.bit_length() - 1
                    break
                if bw < low or bw & settled:
                    break
                if bw & chain:
                    # a cycle of pointers above ``low``: its own lowest
                    # vertex is tried when its turn comes
                    chain = 0
                    break
            settled |= chain

    def solve(self, mask: int, cap: int) -> int:
        """Rank of ``mask`` if it is below ``cap``, else a lower bound >= ``cap``."""
        r = self.exact.get(mask)
        if r is not None:
            return r
        known = self.lower.get(mask, 0)
        if known >= cap:
            return known
        best = 0
        succ = self.g.succ_masks
        for comp in components(self.g, mask):
            if comp == mask:
                break
            # ``cyclic(g, comp)``, inlined on rank's hot path
            if not (comp & (comp - 1) or succ[comp.bit_length() - 1] & comp):
                continue
            r = self.solve(comp, cap)
            if r >= cap:
                return r
            if r > best:
                best = r
        else:
            return best  # several components, each memoised on its own
        if not (mask & (mask - 1) or succ[mask.bit_length() - 1] & mask):
            return 0  # one vertex without a loop
        # One nontrivial strongly connected piece: rank = 1 + min over
        # deletions, at least 1, and at least the rank of any deletion.
        # ``best`` stays exact below ``cap``; a deletion is only asked
        # whether it beats ``best``.
        floor = max(known, 1)
        best = cap
        for v in self._deletions(mask):
            if best <= floor:
                break
            r = self.solve(mask ^ (1 << v), best - 1)
            if r > floor:
                floor = r
            if r < best - 1:
                best = r + 1
        return self._remember(mask, max(best, floor), cap)


def rank(g: Digraph, ceiling: int | None = None) -> int:
    """Exact rank of ``g``.

    Raises :class:`RankCeilingError` when the memo would hold more than
    ``ceiling`` masks (default :data:`DEFAULT_RANK_CEILING`), and
    :class:`RankDepthError` when the recursion, up to about two frames
    per vertex, passes the interpreter's recursion limit.
    """
    limit = DEFAULT_RANK_CEILING if ceiling is None else ceiling
    try:
        return _RankMemo(g, limit).solve(g.full_mask, g.n + 1)
    except RecursionError:
        raise RankDepthError(
            f"rank recursion on {g.n} vertices exceeds the interpreter's recursion limit"
        ) from None


class CPos:
    """Hash-consed position of the comeback and shrinking games.

    ``entries`` is the comeback collection: cops-turn positions the
    thief may return to, canonically ordered by intern id.  The
    shrinking game is the comeback game with recording turned off, so
    its positions always have ``entries == ()``.  Structural equality is
    identity by construction, so positions hash and compare at pointer
    speed.
    """

    __slots__ = ("uid", "mask", "turn", "entries", "n")

    def __init__(self, uid: int, mask: int, turn: str, entries, n: int):
        self.uid = uid
        self.mask = mask
        self.turn = turn
        self.entries = entries
        self.n = n

    def __repr__(self) -> str:
        return (
            f"CPos({sorted(iter_mask(self.mask))}, {self.turn}, "
            f"|L|={len(self.entries)}, n={self.n})"
        )


class ComebackGame:
    """Shrinking game where the thief may revisit bypassed components.

    When the thief enters component ``C`` of the current graph, every
    nontrivial component reachable ahead of ``C`` is recorded -- with
    the comeback collection and budget in force at that moment -- and
    stays available as a comeback target for the rest of the play.  The
    cops' deletion move keeps the collection unchanged.

    Halting, on the thief's turn: cycles left and budget 0 is an
    immediate thief win whatever the collection holds; an acyclic graph
    with a nonempty collection forces a comeback; an acyclic graph with
    an empty collection is a cops win.

    Recorded positions are interned, which both bounds memory and makes
    the (finite, cycle-free) position graph explicit.
    """

    game_id = "comeback"
    finite_plays = True

    def __init__(self, g: Digraph, k: int):
        if not 0 <= k <= g.n:
            raise ValueError("budget k must satisfy 0 <= k <= |V|")
        self.g = g
        self.k = k
        self._intern: dict = {}
        self.decompose = cache(partial(scc_decompose, g))
        self._keys: dict[int, tuple] = {}
        self._init = self._pos(g.full_mask, THIEF, (), k)

    def _pos(self, mask: int, turn: str, entries, n: int) -> CPos:
        key = (mask, turn, tuple(e.uid for e in entries), n)
        p = self._intern.get(key)
        if p is None:
            p = self._intern[key] = CPos(len(self._intern), mask, turn, entries, n)
        return p

    def initial_position(self) -> CPos:
        return self._init

    def owner(self, pos: CPos) -> str:
        return pos.turn

    def winner_if_terminal(self, pos: CPos) -> str | None:
        if pos.turn != THIEF:
            return None
        if not self.decompose(pos.mask):
            return COPS if not pos.entries else None
        if pos.n == 0:
            return THIEF
        return None

    def successors(self, pos: CPos) -> list[CPos]:
        if pos.turn != THIEF:
            return [
                self._pos(pos.mask & ~(1 << v), THIEF, pos.entries, pos.n - 1)
                for v in iter_mask(pos.mask)
            ]
        out = []
        if pos.n > 0:
            out = [self._enter(pos, c, ahead) for c, ahead in self.decompose(pos.mask)]
        out.extend(pos.entries)
        return out

    def _enter(self, pos: CPos, c: int, ahead) -> CPos:
        """The position after the thief at ``pos`` enters component ``c``,
        recording the components ``ahead`` of it."""
        recorded = [self._pos(a, COPS, pos.entries, pos.n) for a in ahead]
        merged = sorted(set(pos.entries).union(recorded), key=lambda e: e.uid)
        return self._pos(c, COPS, tuple(merged), pos.n)

    def move_key(self, src: CPos, dst: CPos):
        if src.turn != THIEF:
            return ("remove", (src.mask & ~dst.mask).bit_length() - 1)
        # an entered position's collection holds all of ``src.entries``
        # and no position is in its own collection, so an entered
        # position is never one of ``src.entries``
        if dst in src.entries:
            return ("comeback", self.pos_key(dst))
        return ("enter", tuple(iter_mask(dst.mask)))

    def moves(self, pos: CPos):
        return [(self.move_key(pos, q), q) for q in self.successors(pos)]

    play = play_by_successors

    def pos_key(self, pos: CPos):
        k = self._keys.get(pos.uid)
        if k is None:
            children = tuple(sorted(self.pos_key(b) for b in pos.entries))
            k = (tuple(iter_mask(pos.mask)), pos.turn, pos.n, children)
            self._keys[pos.uid] = k
        return k


def solve_comeback_game(g: Digraph, k: int, ceiling: int | None = None) -> GameResult:
    """Winner and certificate of the comeback game at budget ``k``."""
    return solve_finite_game(ComebackGame(g, k), ceiling)


class RankShrinkGame(ComebackGame):
    """Thief-and-cops shrinking game with a deletion budget of ``k``.

    The comeback game with recording turned off: entering a component
    records nothing, so the collection stays empty, the thief never
    comes back, and the play ends with a cops win once the graph is
    acyclic.  Position keys are ``(vertices, turn, counter)``.
    """

    game_id = "rank"
    # the benchmark tracer counts calls of ``moves`` found in each
    # class's own namespace
    moves = ComebackGame.moves

    def _enter(self, pos: CPos, c: int, ahead) -> CPos:
        return self._pos(c, COPS, (), pos.n)

    def pos_key(self, pos: CPos):
        return (tuple(iter_mask(pos.mask)), pos.turn, pos.n)


GAMES["rank"] = GameSpec(RankShrinkGame, ("vertices", "turn", "counter"))
GAMES["comeback"] = GameSpec(ComebackGame, ("vertices", "turn", "counter", "comebacks"),
                             tabled=True)

"""Digraph rank and the two shrinking games that characterize it.

The rank of a digraph is defined by recursion on its strongly connected
structure: an acyclic graph has rank 0; a strongly connected graph with
at least one edge has rank ``1 + min`` over single-vertex deletions;
anything else has the maximum rank of its nontrivial components.

:func:`rank` evaluates that recursion on vertex-subset bitmasks.  Each
vertex gets a successor and a predecessor bitmask once per call; the
strongly connected component of the lowest live vertex is its forward
closure intersected with its backward closure, and components are
peeled off one at a time.  The recursion is a branch and bound: a call
with a cap returns the exact rank when it is below the cap and a lower
bound at or above the cap otherwise.  Several components stop at the
first one that reaches the cap.  A strongly connected graph asks each
deletion only whether it beats the best found so far, and stops once
the best meets its lower bound: at least 1, and at least the rank of
any deletion, since rank never grows when a vertex is deleted.  Exact
values and lower bounds are memoised apart, and the memo is capped by a
ceiling (:class:`ArenaCeilingError` past it).

Two games compute the same number.  In the plain shrinking game the
thief repeatedly enters a nontrivial component and the cops delete one
of its vertices, spending one unit of a budget of ``k``; the cops win
iff the graph runs out of cycles before the budget runs out.  The
comeback variant additionally lets the thief return to any component
that was reachable *ahead* of an earlier choice, restoring the budget
in force back then.  Both games are finite and solved exactly by
backward induction.
"""

from __future__ import annotations

from typing import Iterator

from .digraph import Digraph, iter_mask, mask_of, scc_memo
from .gamecore import (
    COPS,
    THIEF,
    ArenaCeilingError,
    GameResult,
    least_winning_k,
    solve_finite_game,
)

__all__ = [
    "rank",
    "DEFAULT_RANK_CEILING",
    "RankDepthError",
    "RankShrinkGame",
    "solve_rank_game",
    "rank_via_game",
    "CPos",
    "ComebackGame",
    "solve_comeback_game",
    "comeback_min_k",
]

#: default cap on the entries (exact values plus lower bounds) of the
#: rank memo; ``clique-16`` needs about 66k
DEFAULT_RANK_CEILING = 1_000_000


def _closure(v: int, adj: list[int], within: int) -> int:
    """Vertices of ``within`` reachable from ``v`` along ``adj`` masks."""
    todo = 1 << v
    left = within & ~todo
    while todo:
        low = todo & -todo
        todo ^= low
        new = adj[low.bit_length() - 1] & left
        left ^= new
        todo |= new
    return within & ~left


class RankDepthError(RuntimeError):
    """The rank recursion ran past the interpreter's recursion limit."""


class _RankMemo:
    """Branch-and-bound rank recursion memoised on vertex bitmasks.

    ``succ[v]`` and ``pred[v]`` are the successor and predecessor masks
    of ``v``.  ``exact`` maps a mask to its rank; ``lower`` maps a mask
    whose rank is not known to the best lower bound proven for it.  The
    two together may hold at most ``ceiling`` entries.
    """

    __slots__ = ("succ", "pred", "exact", "lower", "ceiling")

    def __init__(self, g: Digraph, ceiling: int):
        self.succ = [mask_of(g.successors(v)) for v in g.vertices()]
        self.pred = [mask_of(g.predecessors(v)) for v in g.vertices()]
        self.exact: dict[int, int] = {0: 0}
        self.lower: dict[int, int] = {}
        self.ceiling = ceiling

    def nontrivial_components(self, mask: int) -> Iterator[int]:
        """Masks of the nontrivial strongly connected components of ``mask``.

        The component of the lowest live vertex is its forward closure
        cut down to the vertices that reach back; components are peeled
        off one at a time, as the caller asks for them.
        """
        succ, pred = self.succ, self.pred
        rest = mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            comp = _closure(v, pred, _closure(v, succ, rest))
            rest ^= comp
            if comp != low or succ[v] & low:
                yield comp

    def _remember(self, mask: int, value: int, cap: int) -> int:
        """Memoise ``value`` as exact when below ``cap``, else as a lower bound."""
        if value < cap:
            self.lower.pop(mask, None)
            table = self.exact
        else:
            table = self.lower
        if mask not in table and len(self.exact) + len(self.lower) >= self.ceiling:
            raise ArenaCeilingError("rank", self.ceiling)
        table[mask] = value
        return value

    def solve(self, mask: int, cap: int) -> int:
        """Rank of ``mask`` if it is below ``cap``, else a lower bound >= ``cap``."""
        r = self.exact.get(mask)
        if r is not None:
            return r
        known = self.lower.get(mask, 0)
        if known >= cap:
            return known
        best = 0
        for comp in self.nontrivial_components(mask):
            if comp == mask:
                break
            r = self.solve(comp, cap)
            if r >= cap:
                return self._remember(mask, r, cap)
            if r > best:
                best = r
        else:
            return self._remember(mask, best, cap)
        # One nontrivial strongly connected piece: rank = 1 + min over
        # deletions, at least 1, and at least the rank of any deletion.
        # ``best`` stays exact below ``cap``; a deletion is only asked
        # whether it beats ``best``.
        floor = max(known, 1)
        best = cap
        for v in iter_mask(mask):
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

    Raises :class:`ArenaCeilingError` when the memo would hold more than
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


class RankShrinkGame:
    """Thief-and-cops shrinking game with a deletion budget of ``k``.

    Positions are ``(mask, turn, budget)``.  On the thief's turn the
    play halts with a cops win if the masked graph is acyclic, and with
    a thief win if cycles remain but the budget is 0; otherwise the
    thief enters a nontrivial component.  The cops then delete one of
    its vertices, decrementing the budget.
    """

    game_id = "rank"
    finite_plays = True

    def __init__(self, g: Digraph, k: int):
        if k < 0:
            raise ValueError("budget k must be >= 0")
        self.g = g
        self.k = k
        self.decompose = scc_memo(g)

    def initial_position(self):
        return (self.g.full_mask, THIEF, self.k)

    def owner(self, pos) -> str:
        return pos[1]

    def winner_if_terminal(self, pos) -> str | None:
        mask, turn, n = pos
        if turn != THIEF:
            return None
        if not self.decompose(mask).nontrivial:
            return COPS
        if n == 0:
            return THIEF
        return None

    def successors(self, pos):
        mask, turn, n = pos
        if turn == THIEF:
            return [(cmask, COPS, n) for cmask in self.decompose(mask).nontrivial_masks]
        return [(mask & ~(1 << v), THIEF, n - 1) for v in iter_mask(mask)]

    def move_key(self, src, dst):
        if src[1] == THIEF:
            return ("enter", tuple(iter_mask(dst[0])))
        return ("remove", (src[0] & ~dst[0]).bit_length() - 1)

    def moves(self, pos):
        return [(self.move_key(pos, q), q) for q in self.successors(pos)]

    def play(self, pos, mk):
        """The successor of ``pos`` that move key ``mk`` names, or ``None``."""
        return next((q for q in self.successors(pos) if self.move_key(pos, q) == mk), None)

    def pos_key(self, pos):
        mask, turn, n = pos
        return (tuple(iter_mask(mask)), turn, n)

    def memo_key(self, pos):
        return pos


def solve_rank_game(g: Digraph, k: int) -> GameResult:
    """Winner and positional certificate of the shrinking game at ``k``."""
    return solve_finite_game(RankShrinkGame(g, k))


def rank_via_game(g: Digraph) -> int:
    """Least budget with which the cops win the shrinking game."""
    return least_winning_k(g, lambda k: solve_rank_game(g, k))


class CPos:
    """Hash-consed position of the comeback game.

    ``entries`` is the comeback collection: cops-turn positions the
    thief may return to, canonically ordered by intern id.  Structural
    equality is identity by construction, so positions hash and compare
    at pointer speed.
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
    the (finite, cycle-free) position graph explicit.  The intern table
    is capped; overflowing raises :class:`ArenaCeilingError`.
    """

    game_id = "comeback"
    finite_plays = True

    #: default cap on distinct interned positions
    DEFAULT_CEILING = 300_000

    def __init__(self, g: Digraph, k: int, ceiling: int | None = None):
        if k < 0:
            raise ValueError("budget k must be >= 0")
        self.g = g
        self.k = k
        self.ceiling = self.DEFAULT_CEILING if ceiling is None else ceiling
        self._intern: dict = {}
        self.decompose = scc_memo(g)
        self._keys: dict[int, tuple] = {}
        self._init = self._pos(g.full_mask, THIEF, (), k)

    def _pos(self, mask: int, turn: str, entries, n: int) -> CPos:
        key = (mask, turn, tuple(e.uid for e in entries), n)
        p = self._intern.get(key)
        if p is None:
            if len(self._intern) >= self.ceiling:
                raise ArenaCeilingError(self.game_id, self.ceiling)
            p = CPos(len(self._intern), mask, turn, entries, n)
            self._intern[key] = p
        return p

    def initial_position(self) -> CPos:
        return self._init

    def owner(self, pos: CPos) -> str:
        return pos.turn

    def winner_if_terminal(self, pos: CPos) -> str | None:
        if pos.turn != THIEF:
            return None
        if not self.decompose(pos.mask).nontrivial:
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
        d = self.decompose(pos.mask)
        if d.nontrivial and pos.n > 0:
            for i in sorted(d.nontrivial):
                recorded = [
                    self._pos(d.component_masks[j], COPS, pos.entries, pos.n)
                    for j in d.ahead_of(i)
                ]
                merged = sorted(
                    set(pos.entries).union(recorded), key=lambda e: e.uid
                )
                out.append(self._pos(d.component_masks[i], COPS, tuple(merged), pos.n))
        out.extend(pos.entries)
        return out

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

    def play(self, pos: CPos, mk) -> CPos | None:
        """The successor of ``pos`` that move key ``mk`` names, or ``None``."""
        return next((q for q in self.successors(pos) if self.move_key(pos, q) == mk), None)

    def pos_key(self, pos: CPos):
        k = self._keys.get(pos.uid)
        if k is None:
            children = tuple(sorted(self.pos_key(b) for b in pos.entries))
            k = (tuple(iter_mask(pos.mask)), pos.turn, pos.n, children)
            self._keys[pos.uid] = k
        return k

    def memo_key(self, pos: CPos) -> int:
        return pos.uid


def solve_comeback_game(g: Digraph, k: int, ceiling: int | None = None) -> GameResult:
    """Winner and certificate of the comeback game at budget ``k``.

    Raises :class:`ArenaCeilingError` when the interned position count
    exceeds ``ceiling`` (a reported resource failure, never a silent
    wrong answer).
    """
    return solve_finite_game(ComebackGame(g, k, ceiling=ceiling))


def comeback_min_k(g: Digraph, ceiling: int | None = None) -> int:
    """Least budget with which the cops win the comeback game."""
    return least_winning_k(g, lambda k: solve_comeback_game(g, k, ceiling=ceiling))

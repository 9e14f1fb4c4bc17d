"""Turning a winning comeback-game strategy into a pursuit strategy.

Given a cops certificate for the comeback game at budget ``k``, this
module builds a cops strategy for the virtual-cop pursuit game with the
same ``k``, by replaying the comeback game alongside every possible
thief behaviour.  This is the constructive content of the inequality
``entanglement <= rank``.

The replay keeps a *chain of frames*, one per comeback-game deletion
still in force.  A frame remembers the component the play descended
into, the vertex the certificate deleted there (now carried by a real
or virtual cop), and the comeback-game position after the deletion.
The frame graphs are nested, each inside its parent with the parent's
deleted vertex removed.

Cops answer each thief arrival ``v`` by cases:

* ``v`` carries a virtual cop -- the forced materialization.
* the cop-free component of ``v`` is trivial -- skip (the thief is
  drifting toward a dead end or toward some nontrivial component).
* otherwise, find the deepest frame whose graph still contains ``v``
  and advance the comeback game from that frame's position with the
  forward move into the component of ``v``; the certificate names a
  vertex ``u`` to delete there, which the cops mirror by occupying
  ``v`` itself (``u = v``) or reserving a virtual cop on ``u``.  All
  deeper frames are discarded and their cops released.

The last case covers ordinary descents (the deepest frame contains
``v``), returns to components recorded "ahead" of an abandoned one,
and also thief walks that cross a virtual cop and re-enter an
enclosing graph *against* its component order -- a route that only
exists through deleted vertices, so the crossing has materialized the
deleted vertex and the door is now shut behind the thief.  Every
consulted comeback position is a forward option of a position the
certificate already covers, so the certificate always has an answer;
the budget stays within ``k`` because each frame holds exactly one
cop and forward moves demand a positive deletion allowance.

The produced certificate is positional.  If two different histories
force different decisions at one pursuit position, or any bookkeeping
invariant above fails, a :class:`TranslationError` is raised -- loudly,
never as a silently wrong strategy.  The final word on soundness always
belongs to ``verify_certificate``.
"""

from __future__ import annotations

from .digraph import Digraph, iter_mask
from .entgames import PursuitGame
from .gamecore import COPS, THIEF, StrategyCertificate
from .rank import ComebackGame, CPos

__all__ = ["TranslationError", "translate_rank_strategy"]

DEFAULT_NODE_LIMIT = 500_000


class TranslationError(RuntimeError):
    """The strategy translation could not be completed soundly."""


class _Frame:
    """One live comeback-game deletion.

    ``chosen`` is the component the play descended into, ``mark`` the
    vertex the certificate deleted there (held by a real or virtual
    cop), and ``match`` the comeback-game position after the deletion
    (its graph is ``chosen`` minus ``mark``).
    """

    __slots__ = ("chosen", "mark", "match")

    def __init__(self, chosen: int, mark: int, match: CPos):
        self.chosen = chosen
        self.mark = mark
        self.match = match

    def key(self):
        return (self.chosen, self.mark, self.match.uid)


def translate_rank_strategy(g: Digraph, cert: StrategyCertificate,
                            node_limit: int = DEFAULT_NODE_LIMIT) -> StrategyCertificate:
    """Cops certificate for the virtual-cop pursuit game at ``cert.k``.

    ``cert`` must be a winning cops certificate for the comeback game on
    ``g``.  Raises :class:`TranslationError` on any invariant breach.
    """
    if cert.game != "comeback":
        raise TranslationError(f"expected a comeback-game certificate, got {cert.game!r}")
    if cert.winner != COPS:
        raise TranslationError("certificate does not claim a cops win")
    return _Translator(g, cert, node_limit).run()


class _Translator:
    def __init__(self, g: Digraph, cert: StrategyCertificate, node_limit: int):
        self.k = cert.k
        self.cert = cert
        self.node_limit = node_limit
        self.game = ComebackGame(g, cert.k)
        self.pursuit = PursuitGame(g, cert.k, "entv")
        self.full = g.full_mask
        self.out: dict = {}

    def _removal_at(self, target: CPos) -> int:
        """The certificate's deletion at a cops-turn comeback position."""
        mk = self.cert.moves.get(self.game.pos_key(target))
        if mk is None:
            raise TranslationError(
                f"certificate has no move at {target!r}; it does not win"
            )
        if mk[0] != "remove" or not (target.mask >> mk[1]) & 1:
            raise TranslationError(f"certificate move {mk!r} is not a deletion in {target!r}")
        return mk[1]

    def _advance(self, pos: CPos, wanted) -> CPos:
        q = self.game.play(pos, wanted)
        if q is None:
            raise TranslationError(f"move {wanted!r} is not available at {pos!r}")
        return q

    def run(self) -> StrategyCertificate:
        pursuit = self.pursuit
        todo = [(q, ()) for q in pursuit.successors(pursuit.initial_position())]
        seen = set()
        while todo:
            pos, frames = todo.pop()
            node_key = (pos, tuple(f.key() for f in frames))
            if node_key in seen:
                continue
            seen.add(node_key)
            if len(seen) > self.node_limit:
                raise TranslationError("replay exploration exceeded its node limit")
            v, cmask, vmask, turn = pos
            if turn == COPS:
                c2, v2, frames2 = self._respond(v, cmask, vmask, frames)
                nxt = (v, c2, v2, THIEF)
                key = pursuit.pos_key(pos)
                move = pursuit.move_key(pos, nxt)
                old = self.out.get(key)
                if old is None:
                    self.out[key] = move
                elif old != move:
                    raise TranslationError(
                        f"conflicting decisions at position {key!r}: {old!r} vs {move!r}"
                    )
                todo.append((nxt, frames2))
            else:
                todo.extend((q, frames) for q in pursuit.successors(pos))
        return StrategyCertificate("entv", self.k, COPS, self.out)

    def _respond(self, v: int, cmask: int, vmask: int, frames: tuple[_Frame, ...]):
        """One cops decision: new cop sets plus the advanced frame chain."""
        vb = 1 << v
        if vmask & vb:
            # forced materialization of the virtual cop under the thief
            return cmask | vb, vmask & ~vb, frames

        free = self.full & ~(cmask | vmask)
        dfree = self.game.decompose(free)
        i = dfree.scc_of[v]
        if i not in dfree.nontrivial:
            return cmask, vmask, frames  # skip while the thief drifts

        # deepest frame whose graph still contains the thief
        m = len(frames) - 1
        while m >= 0 and not (frames[m].match.mask >> v) & 1:
            m -= 1
        parent = frames[m].match if m >= 0 else self.game.initial_position()

        dm = self.game.decompose(parent.mask)
        j = dm.scc_of[v]
        if j not in dm.nontrivial:
            raise TranslationError(
                f"matching broken: vertex {v} is free in a nontrivial component "
                f"but trivial in the enclosing matched graph"
            )
        smask = dm.component_masks[j]
        if dfree.component_masks[i] & ~smask:
            raise TranslationError(
                f"matching broken: the thief's free component at vertex {v} "
                f"leaks outside the enclosing matched component"
            )

        target = self.game.play(parent, ("enter", tuple(iter_mask(smask))))
        if target is None:
            raise TranslationError(
                f"no forward move into the thief's component from {parent!r}"
            )
        u = self._removal_at(target)
        match2 = self._advance(target, ("remove", u))

        released = 0
        for f in frames[m + 1:]:
            released |= 1 << f.mark
        c0 = cmask & ~released
        v0 = vmask & ~released
        ub = 1 << u
        if u == v:
            c2, v2 = c0 | ub, v0
        else:
            if (c0 | v0) & ub:
                raise TranslationError(
                    f"deletion vertex {u} is already guarded; the frame chain "
                    f"is inconsistent"
                )
            c2, v2 = c0, v0 | ub
        frames2 = frames[:m + 1] + (_Frame(smask, u, match2),)
        self._check_budget(c2, v2, frames2)
        return c2, v2, frames2

    def _check_budget(self, cmask: int, vmask: int,
                      frames: tuple[_Frame, ...]) -> None:
        if cmask & vmask:
            raise TranslationError("a vertex ended up both occupied and reserved")
        if (cmask | vmask).bit_count() > self.k:
            raise TranslationError(
                f"cop budget {self.k} exceeded by the simulated strategy"
            )
        held = 0
        for f in frames:
            held |= 1 << f.mark
        if held != (cmask | vmask):
            raise TranslationError(
                "cops on the board diverge from the frame chain's deletions"
            )

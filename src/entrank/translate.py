"""Turning a winning comeback-game strategy into a pursuit strategy.

Given a cops certificate for the comeback game at budget ``k``, this
module builds a cops strategy for the virtual-cop pursuit game with the
same ``k``, by replaying the comeback game alongside every possible
thief behaviour.  This is the constructive content of the inequality
``entanglement <= rank``.

The replay keeps a *chain of frames*, one per comeback-game deletion
still in force.  A frame is a pair ``(mark, match)``: the vertex the
certificate deleted (now carried by a real or virtual cop), and the
interned comeback-game position after the deletion, whose graph is the
component the play descended into minus ``mark``.  The frame graphs
are nested, each inside its parent with the parent's deleted vertex
removed.

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

The walk meets one frame position and one thief component at many
pursuit positions, and the answer depends on those two alone.  So the
comeback game is consulted once per ``(frame position, component)``
pair: one ``play`` to enter, one certificate lookup, one ``play`` to
delete, all checked at that first consult, and the answer is kept for
the rest of the call.  The component of the thief's vertex in a
frame's graph is kept the same way.  The leak check, the release of
deeper frames and the budget checks still run at every visit.

The produced certificate is positional.  If two different histories
force different decisions at one pursuit position, or any bookkeeping
invariant above fails, a :class:`TranslationError` is raised -- loudly,
never as a silently wrong strategy.  A walk that would visit more than
``ceiling`` (pursuit position, frame chain) pairs raises
:class:`ArenaCeilingError` instead: a resource stop, not a violation.
The final word on soundness always belongs to ``verify_certificate``.
"""

from __future__ import annotations

from .digraph import Digraph, component, cyclic, iter_mask
from .entgames import PursuitGame
from .gamecore import COPS, THIEF, ArenaCeilingError, StrategyCertificate, position_limit
from .rank import ComebackGame, CPos

__all__ = ["TranslationError", "translate_rank_strategy"]


class TranslationError(RuntimeError):
    """The strategy translation could not be completed soundly."""


def translate_rank_strategy(g: Digraph, cert: StrategyCertificate,
                            ceiling: int | None = None) -> StrategyCertificate:
    """Cops certificate for the virtual-cop pursuit game at ``cert.k``.

    ``cert`` must be a winning cops certificate for the comeback game on
    ``g``.  Raises :class:`TranslationError` on any invariant breach and
    :class:`ArenaCeilingError` past ``ceiling`` nodes (see
    :func:`.gamecore.position_limit`).
    """
    if cert.game != "comeback":
        raise TranslationError(f"expected a comeback-game certificate, got {cert.game!r}")
    if cert.winner != COPS:
        raise TranslationError("certificate does not claim a cops win")
    limit = position_limit(ceiling)
    k = cert.k
    game = ComebackGame(g, k)
    pursuit = PursuitGame(g, k, "entv")
    # Answers kept for the call, each stored once its checks pass, so a
    # broken certificate still fails at its first consult: ``entered`` maps
    # (parent, v) to the matched component of v in the parent's graph,
    # ``answered`` maps (parent, component) to the certificate's deletion
    # there and the position it leads to.  A CPos is its own key.
    entered: dict[tuple[CPos, int], int] = {}
    answered: dict[tuple[CPos, int], tuple[int, CPos]] = {}

    def respond(v: int, cmask: int, vmask: int, frames: tuple[tuple[int, CPos], ...]):
        """One cops decision: new cop sets plus the advanced frame chain."""
        vb = 1 << v
        if vmask & vb:
            # forced materialization of the virtual cop under the thief
            return cmask | vb, vmask & ~vb, frames

        free = component(g, v, g.full_mask & ~(cmask | vmask))
        if not cyclic(g, free):
            return cmask, vmask, frames  # skip while the thief drifts

        # deepest frame whose graph still contains the thief
        m = len(frames) - 1
        while m >= 0 and not (frames[m][1].mask >> v) & 1:
            m -= 1
        parent = frames[m][1] if m >= 0 else game.initial_position()

        smask = entered.get((parent, v))
        if smask is None:
            smask = component(g, v, parent.mask)
            if not cyclic(g, smask):
                raise TranslationError(
                    f"matching broken: vertex {v} is free in a nontrivial component "
                    f"but trivial in the enclosing matched graph"
                )
            entered[parent, v] = smask
        if free & ~smask:
            raise TranslationError(
                f"matching broken: the thief's free component at vertex {v} "
                f"leaks outside the enclosing matched component"
            )

        answer = answered.get((parent, smask))
        if answer is None:
            target = game.play(parent, ("enter", tuple(iter_mask(smask))))
            if target is None:
                raise TranslationError(
                    f"no forward move into the thief's component from {parent!r}"
                )
            # the certificate's deletion at this cops-turn comeback position
            mk = cert.moves.get(game.pos_key(target))
            if mk is None:
                raise TranslationError(
                    f"certificate has no move at {target!r}; it does not win"
                )
            if mk[0] != "remove" or not (target.mask >> mk[1]) & 1:
                raise TranslationError(f"certificate move {mk!r} is not a deletion in {target!r}")
            u = mk[1]
            match = game.play(target, ("remove", u))
            if match is None:
                raise TranslationError(f"move {('remove', u)!r} is not available at {target!r}")
            answer = answered[parent, smask] = (u, match)
        u, match = answer

        released = 0
        for mark, _ in frames[m + 1:]:
            released |= 1 << mark
        c0 = cmask & ~released
        v0 = vmask & ~released
        ub = 1 << u
        if u == v:
            c2, v2 = c0 | ub, v0
        elif (c0 | v0) & ub:
            raise TranslationError(
                f"deletion vertex {u} is already guarded; the frame chain "
                f"is inconsistent"
            )
        else:
            c2, v2 = c0, v0 | ub
        frames2 = frames[:m + 1] + ((u, match),)

        if c2 & v2:
            raise TranslationError("a vertex ended up both occupied and reserved")
        if (c2 | v2).bit_count() > k:
            raise TranslationError(f"cop budget {k} exceeded by the simulated strategy")
        held = 0
        for mark, _ in frames2:
            held |= 1 << mark
        if held != (c2 | v2):
            raise TranslationError("cops on the board diverge from the frame chain's deletions")
        return c2, v2, frames2

    # a node is (pursuit position, frames); a CPos is its own key
    out: dict = {}
    todo = [(q, ()) for q in pursuit.successors(pursuit.initial_position())]
    seen = set()
    while todo:
        node = todo.pop()
        if node in seen:
            continue
        if len(seen) >= limit:
            raise ArenaCeilingError("entv", limit)
        seen.add(node)
        pos, frames = node
        v, cmask, vmask, turn = pos
        if turn == COPS:
            c2, v2, frames2 = respond(v, cmask, vmask, frames)
            nxt = (v, c2, v2, THIEF)
            key = pursuit.pos_key(pos)
            move = pursuit.move_key(pos, nxt)
            old = out.get(key)
            if old is None:
                out[key] = move
            elif old != move:
                raise TranslationError(
                    f"conflicting decisions at position {key!r}: {old!r} vs {move!r}"
                )
            todo.append((nxt, frames2))
        else:
            todo.extend((q, frames) for q in pursuit.successors(pos))
    return StrategyCertificate("entv", k, COPS, out)

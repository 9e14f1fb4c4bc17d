"""Brute-force reference implementations used to pin expected values.

Everything here is deliberately naive and independent of the package's
solvers: reachability by iterated closure, strongly connected components
by mutual reachability, the rank recursion written straight off its
definition, and game values by plain recursion or fixpoint iteration on
explicitly enumerated arenas.  Slow on purpose; run only at desk scale.

Graphs are passed around as (n, edges) with ``edges`` an iterable of
(u, v) pairs, so nothing from the package's Digraph type leaks in here.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

THIEF = "thief"
COPS = "cops"


# ---------------------------------------------------------------- reachability


def reach_sets(verts, edges):
    """vertex -> frozenset of vertices reachable via one or more arcs."""
    verts = frozenset(verts)
    succ = {v: set() for v in verts}
    for u, v in edges:
        if u in verts and v in verts:
            succ[u].add(v)
    reach = {v: set(succ[v]) for v in verts}
    changed = True
    while changed:
        changed = False
        for v in verts:
            grown = set(reach[v])
            for w in list(reach[v]):
                grown |= reach[w]
            if grown != reach[v]:
                reach[v] = grown
                changed = True
    return {v: frozenset(r) for v, r in reach.items()}


def scc_classes(verts, edges):
    """All strongly connected components (singletons included)."""
    verts = frozenset(verts)
    reach = reach_sets(verts, edges)
    seen = set()
    classes = []
    for v in verts:
        if v in seen:
            continue
        cls = {v} | {w for w in reach[v] if v in reach[w]}
        classes.append(frozenset(cls))
        seen |= cls
    return classes


def nontrivial_sccs(verts, edges):
    """Components containing a cycle: size > 1, or a self-looped vertex."""
    out = []
    es = set(edges)
    for cls in scc_classes(verts, edges):
        if len(cls) > 1 or any((v, v) in es for v in cls):
            out.append(cls)
    return out


def is_acyclic(n, edges):
    return not nontrivial_sccs(range(n), edges)


# ----------------------------------------------------------------------- rank


def rank_value(n, edges):
    edges = tuple(sorted(set(edges)))

    @lru_cache(maxsize=None)
    def rec(verts):
        parts = nontrivial_sccs(verts, edges)
        if not parts:
            return 0
        if len(parts) == 1 and parts[0] == verts:
            return 1 + min(rec(verts - {v}) for v in verts)
        return max(rec(part) for part in parts)

    return rec(frozenset(range(n)))


# ------------------------------------------------------- rank shrinking game


def shrink_thief_wins(n, edges, k):
    edges = tuple(sorted(set(edges)))

    @lru_cache(maxsize=None)
    def thief_turn(verts, budget):
        parts = nontrivial_sccs(verts, edges)
        if not parts:
            return False
        if budget == 0:
            return True
        return any(cops_turn(part, budget) for part in parts)

    @lru_cache(maxsize=None)
    def cops_turn(verts, budget):
        return all(thief_turn(verts - {v}, budget - 1) for v in verts)

    return thief_turn(frozenset(range(n)), k)


def shrink_min_k(n, edges):
    k = 0
    while shrink_thief_wins(n, edges, k):
        k += 1
    return k


# ------------------------------------------------------------- comeback game


def comeback_thief_wins(n, edges, k):
    """The shrinking game extended with recorded come-back positions.

    A recorded target is a frozen cops-turn position (verts, entries, b);
    the forward move records one such target for every component ahead
    of the chosen one, keeping the recording-time entry list and budget.
    """
    edges = tuple(sorted(set(edges)))

    def ahead(parts, chosen, verts):
        reach = reach_sets(verts, edges)
        from_chosen = frozenset().union(*(reach[v] for v in chosen))
        return [p for p in parts if p != chosen and p & from_chosen]

    @lru_cache(maxsize=None)
    def thief_turn(verts, entries, budget):
        parts = nontrivial_sccs(verts, edges)
        if not parts:
            if not entries:
                return False
            return any(cops_turn(*b) for b in entries)
        if budget == 0:
            return True
        for part in parts:
            recorded = frozenset(
                (q, entries, budget) for q in ahead(parts, part, verts)
            ) | entries
            if cops_turn(part, recorded, budget):
                return True
        return any(cops_turn(*b) for b in entries)

    @lru_cache(maxsize=None)
    def cops_turn(verts, entries, budget):
        return all(thief_turn(verts - {v}, entries, budget - 1) for v in verts)

    return thief_turn(frozenset(range(n)), frozenset(), k)


def comeback_min_k(n, edges):
    k = 0
    while comeback_thief_wins(n, edges, k):
        k += 1
    return k


# ------------------------------------------------------------- pursuit games


def _cop_options(v, c, vir, k, n, variant):
    """All (C', Vir') the cops may move to, per the variant's rules."""
    if variant == "ent":
        opts = {c}
        if len(c) < k:
            opts.add(c | {v})
        for x in c:
            opts.add((c - {x}) | {v})
        return [(d, frozenset()) for d in opts]

    subsets = [frozenset(s) for r in range(len(c) + 1)
               for s in itertools.combinations(sorted(c), r)]
    if variant == "et":
        opts = set(subsets)
        opts |= {d | {v} for d in subsets}
        return [(d, frozenset()) for d in opts if len(d) <= k]

    assert variant == "entv"
    if v in vir:
        return [(c | {v}, vir - {v})]
    c_opts = set(subsets) | {d | {v} for d in subsets}
    vir_subsets = [frozenset(s) for r in range(len(vir) + 1)
                   for s in itertools.combinations(sorted(vir), r)]
    vir_opts = set(vir_subsets)
    for keep in vir_subsets:
        for w in range(n):
            vir_opts.add(keep | {w})
    return [
        (d, e)
        for d in c_opts
        for e in vir_opts
        if len(d | e) <= k and not (d & e)
    ]


def pursuit_cops_win(n, edges, k, variant):
    """Fixpoint evaluation of a pursuit game on an explicit arena.

    Finite plays are cops' wins, so the cops' winning region is the
    least fixpoint grown backward from positions where the thief is
    stuck (all-successors rule at thief nodes, some-successor at cops
    nodes).
    """
    succ_of = {v: sorted({w for (u, w) in edges if u == v}) for v in range(n)}
    start = ("start",)
    arena = {start: [(v, frozenset(), frozenset(), COPS) for v in range(n)]}
    todo = list(arena[start])
    while todo:
        node = todo.pop()
        if node in arena:
            continue
        v, c, vir, turn = node
        if turn == COPS:
            nxt = [(v, d, e, THIEF) for d, e in _cop_options(v, c, vir, k, n, variant)]
        else:
            nxt = [(w, c, vir, COPS) for w in succ_of[v] if w not in c]
        arena[node] = nxt
        todo.extend(nxt)

    won = set()
    changed = True
    while changed:
        changed = False
        for node, nxt in arena.items():
            if node in won:
                continue
            if node == start or node[3] == THIEF:
                good = all(q in won for q in nxt)
            else:
                good = any(q in won for q in nxt)
            if good:
                won.add(node)
                changed = True
    return start in won


def pursuit_min_k(n, edges, variant):
    k = 0
    while not pursuit_cops_win(n, edges, k, variant):
        k += 1
    return k


# -------------------------------------------------------- certificate replay


def replay_by_moves(game, cert):
    """Replay ``cert`` on ``game`` by matching recorded keys against ``moves``.

    The certified player's recorded key is looked up among every named
    move of ``game.moves(pos)``; the opponent takes every named move.
    Returns ``(ok, reason, trace)`` with the reasons and traces of
    ``gamecore.verify_certificate``: first on a play won by the other
    player, a missing or illegal recorded move, and then, unless
    infinite plays favour the certified thief, on a reachable cycle.
    """
    if cert.game != game.game_id:
        return False, f"certificate is for game {cert.game!r}, not {game.game_id!r}", None
    if cert.k != game.k:
        return False, f"certificate is for k={cert.k}, not k={game.k}", None
    winner = cert.winner
    if winner not in (THIEF, COPS):
        return False, f"unknown winner tag {winner!r}", None

    init = game.initial_position()
    index = {game.memo_key(init): 0}
    nodes = [init]
    rows = []
    parent = {}

    def trace_to(i):
        steps = []
        while i in parent:
            j, mk = parent[i]
            steps.append((game.pos_key(nodes[j]), mk))
            i = j
        return steps[::-1]

    i = 0
    while i < len(nodes):
        pos = nodes[i]
        term = game.winner_if_terminal(pos)
        if term is not None:
            rows.append([])
            if term != winner:
                return (False, f"a play ends in a win for {term}",
                        trace_to(i) + [(game.pos_key(pos), None)])
            i += 1
            continue
        opts = game.moves(pos)
        if game.owner(pos) == winner:
            key = game.pos_key(pos)
            mk = cert.moves.get(key)
            if mk is None:
                return (False, f"no move recorded for position {key!r}",
                        trace_to(i) + [(key, None)])
            opts = [(m, q) for m, q in opts if m == mk]
            if not opts:
                return (False, f"recorded move {mk!r} is illegal at {key!r}",
                        trace_to(i) + [(key, mk)])
        row = []
        for mk, q in opts:
            qkey = game.memo_key(q)
            if qkey not in index:
                index[qkey] = len(nodes)
                nodes.append(q)
                parent[index[qkey]] = (i, mk)
            row.append(index[qkey])
        rows.append(row)
        i += 1

    if winner == COPS or game.finite_plays:
        # iterative depth-first search; a successor on the current path
        # closes a cycle
        state = [0] * len(nodes)  # 0 new, 1 on the path, 2 finished
        state[0] = 1
        path = [0]
        stack = [(0, 0)]
        while stack:
            node, ptr = stack.pop()
            row = rows[node]
            while ptr < len(row):
                j = row[ptr]
                ptr += 1
                if state[j] == 1:
                    steps = [(game.pos_key(nodes[x]), None) for x in path + [j]]
                    return False, "the play can repeat a position (infinite play)", steps
                if state[j] == 0:
                    stack.append((node, ptr))
                    state[j] = 1
                    stack.append((j, 0))
                    path.append(j)
                    break
            else:
                state[node] = 2
                path.pop()
    return True, None, None

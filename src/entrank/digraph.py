"""Finite digraphs with dense integer vertices and their strongly
connected components.

Vertices are ``0 .. n-1``.  Self-loops are allowed and meaningful: a
single vertex is a *nontrivial* strongly connected component exactly
when it carries a loop.  Parallel edges are rejected at construction.

Subgraphs of a fixed parent graph are passed around as live-vertex
bitmasks (``int``), so that derived quantities can be memoised on
canonical integer keys; all solvers in this package work on (parent
graph, mask) pairs internally.  Each graph keeps a successor and a
predecessor mask per vertex, and the one SCC primitive works on them:
:func:`component` is the backward closure of a vertex inside its
forward closure, and :func:`components` peels components off a mask,
lowest vertex first.  :func:`scc_decompose` pairs each nontrivial
component of that peel with the nontrivial components ahead of it.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = [
    "Digraph",
    "scc_decompose",
    "component",
    "components",
    "cyclic",
    "mask_of",
    "iter_mask",
]


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with one bit per vertex."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_mask(mask: int) -> Iterator[int]:
    """Vertices of a bitmask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Digraph:
    """Immutable digraph on vertices ``0 .. n-1``."""

    __slots__ = ("_n", "_edges", "_adj", "_radj", "full_mask", "succ_masks", "pred_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        seen: set[tuple[int, int]] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        radj: list[list[int]] = [[] for _ in range(n)]
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {e!r} outside vertex range 0..{n - 1}")
            if (u, v) in seen:
                raise ValueError(f"parallel edge {(u, v)!r}")
            seen.add((u, v))
            adj[u].append(v)
            radj[v].append(u)
        self._n = n
        self._edges = frozenset(seen)
        self._adj = tuple(tuple(sorted(s)) for s in adj)
        self._radj = tuple(tuple(sorted(s)) for s in radj)
        self.full_mask = (1 << n) - 1
        self.succ_masks = tuple(mask_of(s) for s in self._adj)
        self.pred_masks = tuple(mask_of(s) for s in self._radj)

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edges

    def vertices(self) -> range:
        return range(self._n)

    def successors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def predecessors(self, v: int) -> tuple[int, ...]:
        return self._radj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edges

    def edge_count(self) -> int:
        return len(self._edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"Digraph({self._n}, {sorted(self._edges)!r})"


def _closure(v: int, adj: tuple[int, ...], within: int) -> int:
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


def component(g: Digraph, v: int, mask: int) -> int:
    """Strongly connected component of live vertex ``v`` in ``mask``.

    The vertices ``v`` reaches, cut down to those that reach ``v`` back.
    """
    return _closure(v, g.pred_masks, _closure(v, g.succ_masks, mask))


def components(g: Digraph, mask: int) -> Iterator[int]:
    """Strongly connected components of ``mask``, by smallest member.

    Each step peels off the :func:`component` of the lowest live vertex,
    as the caller asks for it.
    """
    succ, pred = g.succ_masks, g.pred_masks
    while mask:
        v = (mask & -mask).bit_length() - 1
        # component(g, v, mask), inlined: rank peels on its hot path
        comp = _closure(v, pred, _closure(v, succ, mask))
        mask ^= comp
        yield comp


def cyclic(g: Digraph, comp: int) -> bool:
    """Whether component ``comp`` holds a cycle: it has more than one
    vertex, or its one vertex carries a loop."""
    return bool(comp & (comp - 1) or g.succ_masks[comp.bit_length() - 1] & comp)


def scc_decompose(g: Digraph, mask: int | None = None) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """One ``(component, ahead)`` mask pair per nontrivial component of
    ``mask`` (default: all), by smallest member.  ``ahead`` holds the
    other nontrivial components that a path of the masked graph reaches
    from it, in the same order; it takes one forward closure.
    """
    if mask is None:
        mask = g.full_mask
    if mask & ~g.full_mask:
        raise ValueError("mask mentions vertices outside the graph")
    cycles = [c for c in components(g, mask) if cyclic(g, c)]
    out = []
    for c in cycles:
        ahead = _closure(c.bit_length() - 1, g.succ_masks, mask) & ~c
        out.append((c, tuple(d for d in cycles if d & ahead)))
    return tuple(out)

"""Finite digraphs with dense integer vertices and their strongly
connected components.

Vertices are ``0 .. n-1``.  Self-loops are allowed and meaningful: a
single vertex is a *nontrivial* strongly connected component exactly
when it carries a loop.  Parallel edges are rejected at construction.

Subgraphs of a fixed parent graph are passed around as live-vertex
bitmasks (``int``), so that derived quantities can be memoised on
canonical integer keys; all solvers in this package work on (parent
graph, mask) pairs internally.  A graph is only a successor and a
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
    """Immutable digraph on vertices ``0 .. n-1``, held as two mask tuples:
    bit ``w`` of ``succ_masks[v]`` and bit ``v`` of ``pred_masks[w]`` are
    the edge ``v -> w``.  Every other view is read off them."""

    __slots__ = ("_n", "full_mask", "succ_masks", "pred_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        # the lists come first: a vertex count too large to hold fails here
        succ = [0] * n
        pred = [0] * n
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {e!r} outside vertex range 0..{n - 1}")
            if succ[u] >> v & 1:
                raise ValueError(f"parallel edge {(u, v)!r}")
            succ[u] |= 1 << v
            pred[v] |= 1 << u
        self._n = n
        self.full_mask = (1 << n) - 1
        self.succ_masks = tuple(succ)
        self.pred_masks = tuple(pred)

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, s in enumerate(self.succ_masks) for v in iter_mask(s))

    def vertices(self) -> range:
        return range(self._n)

    def successors(self, v: int) -> tuple[int, ...]:
        return tuple(iter_mask(self.succ_masks[v]))

    def predecessors(self, v: int) -> tuple[int, ...]:
        return tuple(iter_mask(self.pred_masks[v]))

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self._n and 0 <= v and bool(self.succ_masks[u] >> v & 1)

    def edge_count(self) -> int:
        return sum(s.bit_count() for s in self.succ_masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self._n == other._n and self.succ_masks == other.succ_masks

    def __hash__(self) -> int:
        return hash((self._n, self.succ_masks))

    def __repr__(self) -> str:
        return f"Digraph({self._n}, {sorted(self.edges)!r})"


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

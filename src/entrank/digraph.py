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
lowest vertex first.  :func:`scc_decompose` packages that peel as an
:class:`SccDecomposition`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

__all__ = [
    "Digraph",
    "SccDecomposition",
    "scc_decompose",
    "scc_memo",
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

    def remove_vertex(self, v: int) -> "Digraph":
        """Digraph without ``v`` and its incident edges.

        Remaining vertices are renumbered canonically: ``w`` keeps its
        identifier when ``w < v`` and becomes ``w - 1`` when ``w > v``.
        """
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} not in 0..{self._n - 1}")

        def ren(w: int) -> int:
            return w if w < v else w - 1

        edges = [(ren(a), ren(b)) for (a, b) in self._edges if a != v and b != v]
        return Digraph(self._n - 1, edges)

    def induced_subgraph(self, s: Iterable[int]) -> "Digraph":
        """Subgraph induced by the vertex set ``s``.

        Kept vertices are renumbered densely in ascending order of their
        original identifiers.
        """
        keep = sorted(set(s))
        for v in keep:
            if not 0 <= v < self._n:
                raise ValueError(f"vertex {v} not in 0..{self._n - 1}")
        pos = {v: i for i, v in enumerate(keep)}
        edges = [
            (pos[a], pos[b])
            for (a, b) in self._edges
            if a in pos and b in pos
        ]
        return Digraph(len(keep), edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"Digraph({self._n}, {sorted(self._edges)!r})"


@dataclass(frozen=True, eq=False)
class SccDecomposition:
    """Strongly connected components of a (masked) digraph.

    ``components`` are frozensets ordered by smallest member vertex;
    ``component_masks`` are the same components as bitmasks.
    ``nontrivial`` holds the indices of components that contain a cycle
    (more than one vertex, or a looped single vertex).  ``order`` is the
    strict relation on nontrivial component indices: ``(i, j)`` is
    present iff some path of the masked graph leads from component ``i``
    to the distinct component ``j``.  ``scc_of`` maps each live vertex
    to its component index.
    """

    mask: int
    components: tuple[frozenset[int], ...]
    component_masks: tuple[int, ...]
    nontrivial: frozenset[int]
    order: frozenset[tuple[int, int]]
    scc_of: dict[int, int]

    @property
    def nontrivial_components(self) -> tuple[frozenset[int], ...]:
        return tuple(self.components[i] for i in sorted(self.nontrivial))

    @property
    def nontrivial_masks(self) -> tuple[int, ...]:
        return tuple(self.component_masks[i] for i in sorted(self.nontrivial))

    def ahead_of(self, i: int) -> tuple[int, ...]:
        """Indices of nontrivial components reachable from component ``i``."""
        return tuple(sorted(j for (a, j) in self.order if a == i))


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


def scc_decompose(g: Digraph, mask: int | None = None) -> SccDecomposition:
    """Decomposition of the subgraph induced by ``mask`` (default: all).

    Built from :func:`components`; ``order`` takes one forward closure
    per nontrivial component.
    """
    if mask is None:
        mask = g.full_mask
    if mask & ~g.full_mask:
        raise ValueError("mask mentions vertices outside the graph")
    masks = tuple(components(g, mask))
    nontrivial = [i for i, c in enumerate(masks) if cyclic(g, c)]
    order = set()
    for i in nontrivial:
        c = masks[i]
        ahead = _closure(c.bit_length() - 1, g.succ_masks, mask) & ~c
        order.update((i, j) for j in nontrivial if masks[j] & ahead)
    return SccDecomposition(
        mask=mask,
        components=tuple(frozenset(iter_mask(c)) for c in masks),
        component_masks=masks,
        nontrivial=frozenset(nontrivial),
        order=frozenset(order),
        scc_of={v: i for i, c in enumerate(masks) for v in iter_mask(c)},
    )


def scc_memo(g: Digraph) -> Callable[[int], SccDecomposition]:
    """``scc_decompose(g, mask)`` memoised on ``mask``.

    Create one per solver call and drop it with the call: the memo keeps
    every decomposition it returned alive for as long as it lives.
    """
    memo: dict[int, SccDecomposition] = {}

    def decompose(mask: int) -> SccDecomposition:
        d = memo.get(mask)
        if d is None:
            d = memo[mask] = scc_decompose(g, mask)
        return d

    return decompose

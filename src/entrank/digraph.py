"""Finite digraphs with dense integer vertices and SCC decomposition.

Vertices are ``0 .. n-1``.  Self-loops are allowed and meaningful: a
single vertex is a *nontrivial* strongly connected component exactly
when it carries a loop.  Parallel edges are rejected at construction.

Subgraphs of a fixed parent graph are passed around as live-vertex
bitmasks (``int``), so that derived quantities can be memoised on
canonical integer keys.  ``scc_decompose`` accepts such a mask; all
solvers in this package work on (parent graph, mask) pairs internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

__all__ = [
    "Digraph",
    "SccDecomposition",
    "scc_decompose",
    "scc_memo",
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

    __slots__ = ("_n", "_edges", "_adj", "_radj", "full_mask")

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


def scc_decompose(g: Digraph, mask: int | None = None) -> SccDecomposition:
    """Tarjan decomposition of the subgraph induced by ``mask``.

    ``mask`` defaults to the whole graph.  The implementation is
    iterative, so deep graphs do not hit the recursion limit.
    """
    if mask is None:
        mask = g.full_mask
    if mask & ~g.full_mask:
        raise ValueError("mask mentions vertices outside the graph")

    succs: dict[int, tuple[int, ...]] = {}

    def live_succs(v: int) -> tuple[int, ...]:
        s = succs.get(v)
        if s is None:
            s = tuple(w for w in g.successors(v) if mask >> w & 1)
            succs[v] = s
        return s

    index: dict[int, int] = {}
    low: dict[int, int] = {}
    onstack: set[int] = set()
    stack: list[int] = []
    comps_raw: list[list[int]] = []
    counter = 0

    for root in iter_mask(mask):
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        frames: list[tuple[int, int]] = [(root, 0)]
        while frames:
            v, i = frames.pop()
            ws = live_succs(v)
            descended = False
            while i < len(ws):
                w = ws[i]
                i += 1
                if w not in index:
                    frames.append((v, i))
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack.add(w)
                    frames.append((w, 0))
                    descended = True
                    break
                if w in onstack and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.remove(w)
                    comp.append(w)
                    if w == v:
                        break
                comps_raw.append(comp)
            if frames:
                pv = frames[-1][0]
                if low[v] < low[pv]:
                    low[pv] = low[v]

    comps = sorted(sorted(c) for c in comps_raw)
    components = tuple(frozenset(c) for c in comps)
    component_masks = tuple(mask_of(c) for c in comps)
    scc_of = {v: i for i, comp in enumerate(comps) for v in comp}
    nontrivial = frozenset(
        i
        for i, comp in enumerate(comps)
        if len(comp) > 1 or g.has_edge(comp[0], comp[0])
    )

    cn = len(comps)
    csucc: list[set[int]] = [set() for _ in range(cn)]
    for v in iter_mask(mask):
        ci = scc_of[v]
        for w in live_succs(v):
            cj = scc_of[w]
            if ci != cj:
                csucc[ci].add(cj)
    order_pairs: set[tuple[int, int]] = set()
    for i in nontrivial:
        seen: set[int] = set()
        todo = list(csucc[i])
        while todo:
            j = todo.pop()
            if j in seen:
                continue
            seen.add(j)
            todo.extend(csucc[j])
        order_pairs.update((i, j) for j in seen if j in nontrivial)

    return SccDecomposition(
        mask=mask,
        components=components,
        component_masks=component_masks,
        nontrivial=nontrivial,
        order=frozenset(order_pairs),
        scc_of=scc_of,
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

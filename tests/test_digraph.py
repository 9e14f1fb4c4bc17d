import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import clique_edges, dicycle_edges, random_edges, upath_edges
from entrank.digraph import (
    Digraph,
    component,
    components,
    cyclic,
    iter_mask,
    mask_of,
    scc_decompose,
)
from oracles import nontrivial_sccs, reach_sets, scc_classes

graphs = st.integers(0, 6).flatmap(
    lambda n: st.builds(
        lambda es: (n, sorted(set(es))),
        st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
            max_size=20,
        )
        if n
        else st.just([]),
    )
)


def test_basics():
    g = Digraph(4, [(0, 1), (1, 2), (2, 0), (3, 3)])
    assert g.n == 4
    assert list(g.vertices()) == [0, 1, 2, 3]
    assert g.successors(0) == (1,)
    assert g.predecessors(0) == (2,)
    assert g.has_edge(3, 3) and not g.has_edge(1, 0)
    assert g.edge_count() == 4
    assert sorted(g.edges) == [(0, 1), (1, 2), (2, 0), (3, 3)]


@settings(max_examples=120, deadline=None)
@given(graphs, st.randoms(use_true_random=False))
def test_views_match_the_edge_list(ne, rnd):
    n, edges = ne
    g = Digraph(n, edges)
    assert sorted(g.edges) == edges
    assert g.edge_count() == len(edges)
    for u in range(n):
        assert g.successors(u) == tuple(w for x, w in edges if x == u)
        assert g.predecessors(u) == tuple(x for x, w in edges if w == u)
        for v in range(n):
            assert g.has_edge(u, v) == ((u, v) in edges)
    # the same edges in another order build an equal graph
    shuffled = list(edges)
    rnd.shuffle(shuffled)
    h = Digraph(n, shuffled)
    assert h == g and hash(h) == hash(g)
    assert Digraph(n + 1, edges) != g


def test_bad_edges_rejected():
    with pytest.raises(ValueError):
        Digraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Digraph(1, [(-1, 0)])
    with pytest.raises(ValueError):
        Digraph(2, [(0, 1), (0, 1)])  # parallel edges are refused


def test_empty_graph():
    g = Digraph(0)
    assert g.n == 0
    assert list(g.vertices()) == []
    assert list(components(g, g.full_mask)) == []
    assert scc_decompose(g) == ()


def test_mask_roundtrip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert list(iter_mask(0b101001)) == [0, 3, 5]
    assert list(iter_mask(0)) == []


def _masks(data, g):
    """The whole graph plus one drawn live-vertex mask."""
    return (g.full_mask, data.draw(st.integers(0, g.full_mask), label="mask"))


@settings(max_examples=120, deadline=None)
@given(graphs, st.data())
def test_components_match_oracle(ne, data):
    n, edges = ne
    g = Digraph(n, edges)
    for mask in _masks(data, g):
        live = list(iter_mask(mask))
        comps = list(components(g, mask))
        assert sorted(comps) == sorted(mask_of(c) for c in scc_classes(live, edges))
        # listed by ascending smallest member, disjoint, covering the mask
        lows = [c & -c for c in comps]
        assert lows == sorted(lows)
        assert sum(comps) == mask
        assert all(a & b == 0 for i, a in enumerate(comps) for b in comps[:i])
        for v in live:
            assert component(g, v, mask) == next(c for c in comps if c >> v & 1)
        nontrivial = {mask_of(c) for c in nontrivial_sccs(live, edges)}
        assert {c for c in comps if cyclic(g, c)} == nontrivial


@settings(max_examples=120, deadline=None)
@given(graphs, st.data())
def test_scc_decompose_matches_oracle(ne, data):
    n, edges = ne
    g = Digraph(n, edges)
    for mask in _masks(data, g):
        live = list(iter_mask(mask))
        pairs = scc_decompose(g, mask)
        cycles = [c for c, _ in pairs]
        assert cycles == sorted(cycles, key=lambda c: c & -c)
        assert set(cycles) == {mask_of(c) for c in nontrivial_sccs(live, edges)}


@settings(max_examples=120, deadline=None)
@given(graphs, st.data())
def test_ahead_of_matches_reachability(ne, data):
    n, edges = ne
    g = Digraph(n, edges)
    for mask in _masks(data, g):
        live = list(iter_mask(mask))
        pairs = scc_decompose(g, mask)
        cycles = [c for c, _ in pairs]
        reach = reach_sets(live, edges)
        for c, ahead in pairs:
            from_c = mask_of(set().union(*(reach[v] for v in iter_mask(c))))
            assert ahead == tuple(d for d in cycles if d != c and d & from_c)


def test_ahead_masks_by_smallest_member():
    # looped 2 -> looped 0 -> looped 1: what lies ahead of 2 is listed
    # by smallest member, not in path order
    g = Digraph(3, [(0, 0), (1, 1), (2, 2), (2, 0), (0, 1)])
    assert scc_decompose(g) == ((0b001, (0b010,)), (0b010, ()), (0b100, (0b001, 0b010)))


def test_mask_outside_the_graph_is_refused():
    g = Digraph(3, dicycle_edges(3))
    with pytest.raises(ValueError):
        scc_decompose(g, 0b1000)
    with pytest.raises(ValueError):
        scc_decompose(Digraph(0), 1)


def test_scc_on_mask_restricts():
    g = Digraph(4, dicycle_edges(4))
    mask = mask_of([0, 1, 2])  # cycle broken by dropping 3
    assert scc_decompose(g, mask) == ()
    assert list(components(g, mask)) == [0b001, 0b010, 0b100]


def test_family_shapes():
    assert scc_decompose(Digraph(5, upath_edges(5))) == ((0b11111, ()),)
    assert list(components(Digraph(4, clique_edges(4)), 0b1111)) == [0b1111]
    rng = random.Random(7)
    n, edges = 5, random_edges(5, 0.4, rng)
    assert Digraph(n, edges).edge_count() == len(set(edges))

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import clique_edges, dicycle_edges, random_edges, upath_edges
from entrank.digraph import Digraph, iter_mask, mask_of, scc_decompose
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
    assert scc_decompose(g).components == ()


def test_remove_vertex_renumbers():
    g = Digraph(4, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 3)])
    h = g.remove_vertex(0)  # 1,2,3 become 0,1,2
    assert h.n == 3
    assert sorted(h.edges) == [(0, 1), (2, 2)]
    with pytest.raises(ValueError):
        g.remove_vertex(4)


def test_induced_subgraph_renumbers():
    g = Digraph(4, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 3)])
    sub = g.induced_subgraph([1, 2, 3])  # kept vertices renumbered 0,1,2
    assert sub.n == 3
    assert sorted(sub.edges) == [(0, 1), (2, 2)]
    assert g.induced_subgraph([1, 3, 2]).edges == sub.edges
    assert g.induced_subgraph([]).n == 0


def test_mask_roundtrip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert list(iter_mask(0b101001)) == [0, 3, 5]
    assert list(iter_mask(0)) == []


def _masks(data, g):
    """The whole graph plus one drawn live-vertex mask."""
    return (g.full_mask, data.draw(st.integers(0, g.full_mask), label="mask"))


@settings(max_examples=120, deadline=None)
@given(graphs, st.data())
def test_scc_decompose_matches_oracle(ne, data):
    n, edges = ne
    g = Digraph(n, edges)
    for mask in _masks(data, g):
        live = list(iter_mask(mask))
        d = scc_decompose(g, mask)
        assert d.mask == mask
        assert set(d.components) == set(scc_classes(live, edges))
        expected_nontrivial = set(nontrivial_sccs(live, edges))
        assert {d.components[i] for i in d.nontrivial} == expected_nontrivial
        assert set(d.nontrivial_components) == expected_nontrivial
        # listed by ascending smallest member
        lows = [min(c) for c in d.components]
        assert lows == sorted(lows) and len(set(lows)) == len(lows)
        assert sorted(d.scc_of) == live
        for i, comp in enumerate(d.components):
            assert d.component_masks[i] == mask_of(comp)
            for v in comp:
                assert d.scc_of[v] == i
                assert d.components[d.scc_of[v]] == comp


@settings(max_examples=120, deadline=None)
@given(graphs, st.data())
def test_ahead_of_matches_reachability(ne, data):
    n, edges = ne
    g = Digraph(n, edges)
    for mask in _masks(data, g):
        d = scc_decompose(g, mask)
        reach = reach_sets(list(iter_mask(mask)), edges)
        for i in d.nontrivial:
            ahead = set(d.ahead_of(i))
            from_i = set().union(*(reach[v] for v in d.components[i]))
            for j in d.nontrivial:
                expect = j != i and bool(d.components[j] & from_i)
                assert (j in ahead) == expect


def test_scc_on_mask_restricts():
    g = Digraph(4, dicycle_edges(4))
    d = scc_decompose(g, mask_of([0, 1, 2]))  # cycle broken by dropping 3
    assert d.nontrivial == frozenset()
    assert all(len(c) == 1 for c in d.components)


def test_family_shapes():
    assert scc_decompose(Digraph(5, upath_edges(5))).nontrivial_components == (
        frozenset(range(5)),
    )
    assert len(scc_decompose(Digraph(4, clique_edges(4))).components) == 1
    rng = random.Random(7)
    n, edges = 5, random_edges(5, 0.4, rng)
    assert Digraph(n, edges).edge_count() == len(set(edges))

"""Branch-and-bound rank computation against the brute-force oracle."""

import importlib
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from entrank.digraph import Digraph
from entrank.gamecore import ArenaCeilingError
from entrank.muterm import parse, term_graph
from entrank.rank import RankCeilingError, rank

from conftest import (
    clique_edges,
    dg,
    dicycle_edges,
    random_edges,
    ucycle_edges,
    upath_edges,
)
from oracles import is_acyclic, rank_value


# Frozen expected values (oracle: oracles.rank_value).
UPATH_RANKS = [0, 1, 1, 2, 2, 2, 2, 3]  # n = 1..8


def test_empty_and_single():
    assert rank(Digraph(0, [])) == 0
    assert rank(Digraph(1, [])) == 0
    assert rank(Digraph(1, [(0, 0)])) == 1


def test_acyclic_iff_zero():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(7)
        edges = random_edges(n, 0.4, rng)
        g = dg(n, edges)
        assert (rank(g) == 0) == is_acyclic(n, edges)


def test_undirected_path_log_law():
    for n in range(1, 9):
        assert rank(dg(n, upath_edges(n))) == UPATH_RANKS[n - 1]
    # the general law: floor(log2(n))
    for n in range(1, 41):
        assert rank(dg(n, upath_edges(n))) == n.bit_length() - 1


def test_cliques():
    for n in range(1, 11):
        assert rank(dg(n, clique_edges(n))) == n - 1


def test_cycles():
    for n in range(1, 7):
        assert rank(dg(n, dicycle_edges(n))) == 1
    assert [rank(dg(n, ucycle_edges(n))) for n in range(3, 7)] == [2, 2, 3, 3]


def test_disjoint_union_takes_max():
    # a 3-clique next to a directed 2-cycle: rank is the larger piece's
    edges = clique_edges(3) + [(3, 4), (4, 3)]
    assert rank(dg(5, edges)) == 2


def test_random_sweep_matches_oracle():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randrange(7)
        p = rng.choice([0.15, 0.3, 0.5])
        edges = random_edges(n, p, rng)
        assert rank(dg(n, edges)) == rank_value(n, tuple(edges))


def test_nested_term_graph_has_rank_one():
    # mu x. f(f(...f(x, x)..., x), x) with 12 nested f: 26 vertices, and
    # deleting the binder leaves the graph acyclic
    body = "x"
    for _ in range(12):
        body = f"f({body}, x)"
    g = term_graph(parse(f"mu x. {body}"))
    assert g.n == 26
    assert rank(g) == 1


def test_memo_ceiling():
    with pytest.raises(ArenaCeilingError) as exc:
        rank(dg(10, clique_edges(10)), ceiling=50)
    assert exc.value.game_id == "rank" and exc.value.limit == 50
    # the memo is no game arena, and its message says so
    assert type(exc.value) is RankCeilingError
    assert str(exc.value) == "rank memo exceeded the entry ceiling of 50"
    assert rank(dg(10, clique_edges(10)), ceiling=2000) == 9


def test_ceiling_error_pickles():
    # a worker process sends the error back to its parent by pickling
    exc = pickle.loads(pickle.dumps(ArenaCeilingError("rank", 50)))
    assert (exc.game_id, exc.limit) == ("rank", 50)
    assert str(exc) == "rank arena exceeded the position ceiling of 50"
    memo = pickle.loads(pickle.dumps(RankCeilingError("rank", 50)))
    assert type(memo) is RankCeilingError and (memo.game_id, memo.limit) == ("rank", 50)
    assert str(memo) == "rank memo exceeded the entry ceiling of 50"


@st.composite
def small_graphs(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = sorted(set(draw(st.lists(pairs, max_size=3 * n)))) if n else []
    return n, edges


@given(small_graphs())
@settings(max_examples=100, deadline=None)
def test_rank_matches_oracle_property(ne):
    n, edges = ne
    assert rank(dg(n, edges)) == rank_value(n, tuple(edges))


@given(small_graphs(max_n=7), st.data())
@settings(max_examples=60, deadline=None)
def test_capped_solve_and_memo_match_oracle(ne, data):
    # solve(mask, cap) is exact below cap and a lower bound >= cap
    # otherwise; every memo entry holds for the subgraph it names
    n, edges = ne
    g = dg(n, edges)
    cap = data.draw(st.integers(1, n + 1))
    memo = importlib.import_module("entrank.rank")._RankMemo(g, 10**6)
    got = memo.solve(g.full_mask, cap)
    want = rank_value(n, tuple(edges))
    assert got == want if want < cap else cap <= got <= want

    def oracle(mask):
        # vertices outside the mask stay as isolated loop-free vertices,
        # which do not change rank
        return rank_value(n, tuple((a, b) for a, b in edges if mask >> a & mask >> b & 1))

    assert all(oracle(m) == r for m, r in memo.exact.items())
    assert all(oracle(m) >= r for m, r in memo.lower.items())
    assert not memo.exact.keys() & memo.lower.keys()


@given(small_graphs(max_n=6))
@settings(max_examples=60, deadline=None)
def test_rank_monotone_under_subgraphs(ne):
    n, edges = ne
    g = dg(n, edges)
    full = rank(g)
    for v in range(n):
        assert rank(Digraph(n, [e for e in edges if v not in e])) <= full

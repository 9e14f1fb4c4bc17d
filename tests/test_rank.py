"""Branch-and-bound rank computation against the brute-force oracle."""

import importlib
import pickle
import random
from functools import cache, partial

import pytest
from hypothesis import given, settings, strategies as st

from entrank.digraph import Digraph, component, cyclic, iter_mask
from entrank.gamecore import ArenaCeilingError
from entrank.muterm import parse, term_graph
from entrank.rank import RankCeilingError, rank

from conftest import (
    clique_edges,
    dg,
    dicycle_edges,
    random_edges,
    three_name_term,
    ucycle_edges,
    upath_edges,
)
from oracles import is_acyclic, rank_value


def _rank_module():
    # ``entrank.rank`` the module: the package exports the function ``rank``
    return importlib.import_module("entrank.rank")


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
    # ucycle-10 has no twins, and its memo needs 71 entries
    g = dg(10, ucycle_edges(10))
    assert not any(_rank_module()._twins_below(g))
    with pytest.raises(ArenaCeilingError) as exc:
        rank(g, ceiling=50)
    assert exc.value.game_id == "rank" and exc.value.limit == 50
    # the memo is no game arena, and its message says so
    assert type(exc.value) is RankCeilingError
    assert str(exc.value) == "rank memo exceeded the entry ceiling of 50"
    assert rank(g, ceiling=2000) == 4
    # a clique's vertices are all twins: one deletion per level, 9 entries
    assert rank(dg(10, clique_edges(10)), ceiling=50) == 9


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
    memo = _rank_module()._RankMemo(g, 10**6)
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


# ------------------------------------- pruned deletions and the memo's keys


def _twin_rich_edges(pick):
    """A graph on 2..8 vertices drawn to hold twins, near-twins and
    vertices of in- or out-degree 1; ``pick(lo, hi)`` draws an integer.

    A copied vertex takes another's in- and out-sets and loop, with the
    edge between the two both ways, neither way, or one way only (which
    makes no twins).  A pinned vertex keeps one in- or out-neighbour,
    with or without a loop.
    """
    n = pick(2, 8)
    density = pick(1, 10)
    edges = {(u, v) for u in range(n) for v in range(n) if pick(1, 10) <= density}
    for _ in range(pick(0, 3)):
        a, b = pick(0, n - 1), pick(0, n - 1)
        if a == b:
            continue
        outs = {y for x, y in edges if x == a and y not in (a, b)}
        ins = {x for x, y in edges if y == a and x not in (a, b)}
        edges = {e for e in edges if b not in e}
        edges |= {(b, y) for y in outs} | {(x, b) for x in ins}
        if (a, a) in edges:
            edges.add((b, b))
        both, one_way = pick(0, 1), pick(0, 2)
        if both or one_way == 1:
            edges.add((a, b))
        if both or one_way == 2:
            edges.add((b, a))
    for _ in range(pick(0, 2)):
        c, u = pick(0, n - 1), pick(0, n - 1)
        if c == u:
            continue
        side = pick(0, 1)  # 0: keep one in-neighbour, 1: one out-neighbour
        edges = {e for e in edges if e[1 - side] != c}
        edges.add((u, c) if side == 0 else (c, u))
        if pick(0, 1):
            edges.add((c, c))
    return n, sorted(edges)


@st.composite
def twin_rich_graphs(draw):
    return _twin_rich_edges(lambda lo, hi: draw(st.integers(lo, hi)))


@given(twin_rich_graphs())
@settings(max_examples=150, deadline=None)
def test_rank_matches_oracle_on_twins_and_pinned_vertices(ne):
    n, edges = ne
    assert rank(dg(n, edges)) == rank_value(n, tuple(edges))


def test_three_name_term_rank_law():
    # d nested binders over three names: rank = floor(log2 d) + 1
    for d in range(1, 33):
        assert rank(term_graph(parse(three_name_term(d)))) == d.bit_length()


def _solved_memo(g):
    memo = _rank_module()._RankMemo(g, 10**6)
    memo.solve(g.full_mask, g.n + 1)
    return memo


def test_clique_memo_holds_one_mask_per_level():
    # all vertices of a clique are twins, so each level tries one deletion
    for n in range(1, 41):
        memo = _solved_memo(dg(n, clique_edges(n)))
        assert memo.exact.get(memo.g.full_mask, 0) == n - 1
        assert len(memo.exact) + len(memo.lower) <= 2 * n


def test_memo_keys_are_strongly_connected():
    # a deletion from a path leaves two paths; their union is not stored
    for n in (2, 5, 16, 48):
        g = dg(n, upath_edges(n))
        memo = _solved_memo(g)
        assert memo.exact[g.full_mask] == n.bit_length() - 1
        for m in memo.exact.keys() | memo.lower.keys():
            assert component(g, (m & -m).bit_length() - 1, m) == m and cyclic(g, m)


def _pointers(memo, mask, count_self=True):
    """Twin or dominated vertex -> the vertex it points at, by the rules
    of the ``entrank.rank`` notes, written out vertex by vertex."""
    g, out = memo.g, {}
    for v in iter_mask(mask):
        twins = memo.twins[v] & mask
        if twins:
            out[v] = min(iter_mask(twins))
            continue
        for nbrs in (g.pred_masks[v], g.succ_masks[v]):
            near = [u for u in iter_mask(nbrs & mask) if count_self or u != v]
            if len(near) == 1 and near[0] != v:
                out[v] = near[0]
                break
    return out


def _reference_deletions(memo, mask, count_self=True, cycles=True):
    """The roots of the pointers, and the lowest vertex of each cycle of them."""
    points_at = _pointers(memo, mask, count_self)
    tried = {v for v in iter_mask(mask) if v not in points_at}
    for v in points_at if cycles else ():
        chain = []
        while v in points_at and v not in chain:
            chain.append(v)
            v = points_at[v]
        if v in chain:
            tried.add(min(chain[chain.index(v):]))
    return sorted(tried)


def _pairwise_twins_below(g, same_loop=True, same_pred=True):
    """``_twins_below`` pair by pair: equal out- and in-sets besides each
    other, the edge between them both ways or neither, equal loops."""
    below = [0] * g.n
    succ, pred = g.succ_masks, g.pred_masks
    for v in range(g.n):
        for u in range(v):
            besides = ~(1 << u | 1 << v)
            if (not (succ[u] ^ succ[v]) & besides
                    and (not (pred[u] ^ pred[v]) & besides or not same_pred)
                    and succ[u] >> v & 1 == succ[v] >> u & 1
                    and (succ[u] >> u & 1 == succ[v] >> v & 1 or not same_loop)):
                below[v] |= 1 << u
    return below


@cache
def _pruning_corpus():
    """A fixed corpus of twin-rich graphs with their oracle ranks."""
    rng = random.Random(2017)
    graphs = [_twin_rich_edges(rng.randint) for _ in range(600)]
    return [(n, edges, rank_value(n, tuple(edges))) for n, edges in graphs]


def test_deletions_match_the_reference_rule():
    # the twin classes are the pairwise twins, and the lazy walk of
    # ``_deletions`` offers exactly the reference's vertices on every
    # mask that the recursion met
    for n, edges, want in _pruning_corpus():
        memo = _solved_memo(dg(n, edges))
        assert memo.twins == _pairwise_twins_below(memo.g)
        assert memo.exact.get(memo.g.full_mask, want) == want
        for m in memo.exact.keys() | memo.lower.keys():
            assert list(memo._deletions(m)) == _reference_deletions(memo, m)


MUTANTS = {
    # every pointed vertex skipped, none tried per cycle of pointers
    "no-cycle-vertex": ("_deletions", lambda self, mask: iter(
        _reference_deletions(self, mask, cycles=False))),
    # in- and out-sets taken without v, so a looped v counts as dominated
    "self-uncounted": ("_deletions", lambda self, mask: iter(
        _reference_deletions(self, mask, count_self=False))),
    # twins whose loop status differs
    "loop-blind-twins": ("_twins_below", partial(_pairwise_twins_below, same_loop=False)),
    # twins compared on their out-sets only
    "in-blind-twins": ("_twins_below", partial(_pairwise_twins_below, same_pred=False)),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_pruning_mutants_disagree_with_oracle(mutant, monkeypatch):
    name, fake = MUTANTS[mutant]
    module = _rank_module()
    monkeypatch.setattr(module._RankMemo if name == "_deletions" else module, name, fake)
    assert any(rank(dg(n, edges)) != want for n, edges, want in _pruning_corpus())

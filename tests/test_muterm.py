"""Fixpoint-term front end: parsing, substitution axioms, star height."""

import random
import re

import pytest

from entrank.digraph import scc_decompose
from entrank.entgames import entanglement
from entrank.muterm import (
    Mu,
    Nu,
    Op,
    ParseError,
    Subst,
    Var,
    alpha_eq,
    analyze,
    bound_name_count,
    compose_substitutions,
    format_term,
    free_vars,
    parse,
    star_height,
    substitute,
    term_graph,
)
from entrank.rank import rank

from conftest import random_substitution, random_term


# --- parsing and printing ---


def test_parse_format_goldens():
    for text in [
        "x",
        "f(x, y)",
        "mu x. f(x, nu y. g(y))",
        "f(x, y)[x := a, y := g(x)]",
        "a()",
    ]:
        assert format_term(parse(text)) == text


def test_dot_binds_weakest():
    t = parse("mu x. f(x, x)")
    assert isinstance(t, Mu)
    assert isinstance(t.body, Op)


def test_parse_format_roundtrip_random():
    rng = random.Random(13)
    for _ in range(200):
        t = random_term(rng, rng.randrange(1, 7))
        assert parse(format_term(t)) == t


def test_parse_errors_carry_offsets():
    cases = [
        ("mu x", "expected '.'"),
        ("f(x", "expected ')'"),
        ("mu . x", "expected 'ident'"),
        ("", "unexpected end of input"),
        ("f(x,)", "expected a term"),
        ("x y", "trailing input"),
        ("f(x, f(y))", "operator 'f' used with 2 arguments after 1"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError, match=re.escape(fragment)) as exc:
            parse(text)
        assert "offset" in str(exc.value)


# --- free variables ---


def test_free_vars_goldens():
    assert free_vars(parse("x")) == {"x"}
    assert free_vars(parse("mu x. f(x, y)")) == {"y"}
    assert free_vars(parse("f(x, y)[x := g(z)]")) == {"y", "z"}
    assert free_vars(parse("mu x. x")) == frozenset()


def test_free_vars_of_substitution_node():
    # a binding only matters if its variable is free in the carrier
    rng = random.Random(29)
    for _ in range(150):
        t = random_term(rng, 4)
        rho = random_substitution(rng)
        node = Subst(t, tuple(rho.items()))
        expect = frozenset()
        for y in free_vars(t):
            expect |= free_vars(rho.get(y, Var(y)))
        assert free_vars(node) == expect


def test_free_vars_of_binder():
    rng = random.Random(31)
    for _ in range(100):
        t = random_term(rng, 4)
        for binder in (Mu, Nu):
            assert free_vars(binder("x", t)) == free_vars(t) - {"x"}


# --- substitution ---


def test_substitute_on_variables():
    s = parse("g(y)")
    assert substitute(Var("x"), {"x": s}) == s
    assert substitute(Var("x"), {}) == Var("x")
    assert substitute(Var("x"), {"y": s}) == Var("x")


def test_substitute_avoids_capture():
    t = substitute(parse("mu x. f(x, y)"), {"y": Var("x")})
    assert format_term(t) == "mu v0. f(v0, x)"
    assert alpha_eq(t, parse("mu q. f(q, x)"))


def test_substitute_only_free_occurrences():
    t = substitute(parse("f(x, mu x. g(x))"), {"x": Var("z")})
    assert alpha_eq(t, parse("f(z, mu x. g(x))"))


def test_substitution_ignores_irrelevant_bindings():
    # agreeing on the free variables is all that matters
    rng = random.Random(37)
    for _ in range(150):
        t = random_term(rng, 5)
        rho = random_substitution(rng)
        fv = free_vars(t)
        trimmed = {y: s for y, s in rho.items() if y in fv}
        padded = dict(rho)
        padded["unused_name"] = parse("mu w. g(w)")
        assert alpha_eq(substitute(t, trimmed), substitute(t, rho))
        assert alpha_eq(substitute(t, padded), substitute(t, rho))


def test_substitution_composes():
    rng = random.Random(41)
    for _ in range(150):
        t = random_term(rng, 4)
        rho = random_substitution(rng)
        pi = random_substitution(rng)
        lhs = substitute(substitute(t, rho), pi)
        rhs = substitute(t, compose_substitutions(rho, pi))
        assert alpha_eq(lhs, rhs), format_term(t)


def test_binder_renaming_is_alpha_equivalent():
    # substitute() flattens explicit substitution nodes, so compare both
    # sides after a normalizing empty substitution
    rng = random.Random(43)
    for _ in range(100):
        t = random_term(rng, 4)
        fresh = "w9"
        assert fresh not in free_vars(t)
        for binder in (Mu, Nu):
            a = binder("x", t)
            b = binder(fresh, substitute(t, {"x": Var(fresh)}))
            assert alpha_eq(substitute(a, {}), substitute(b, {}))


def test_alpha_eq_distinguishes():
    assert alpha_eq(parse("mu x. f(x, x)"), parse("mu q. f(q, q)"))
    assert not alpha_eq(parse("mu x. f(x, y)"), parse("mu q. f(q, z)"))
    assert not alpha_eq(parse("mu x. x"), parse("nu x. x"))
    assert not alpha_eq(parse("f(x, y)"), parse("f(y, x)"))


# --- star height ---


def test_star_height_goldens():
    assert star_height(parse("x")) == 0
    assert star_height(parse("f(x, g(y))")) == 0
    assert star_height(parse("mu x. nu y. f(x, y)")) == 2
    assert star_height(parse("f(mu x. g(x), mu y. g(y))")) == 1
    assert star_height(parse("f(x, y)[x := mu z. g(z)]")) == 1


def test_star_height_counts_only_live_bindings():
    # a substitution for a variable that is not free in the carrier does
    # not contribute, so a binder can hide at height 0
    assert star_height(parse("a[x := mu z. g(z)]")) == 0
    assert star_height(parse("x[x := mu z. g(z)]")) == 1


def _has_binder(t):
    if isinstance(t, (Mu, Nu)):
        return True
    if isinstance(t, Op):
        return any(_has_binder(a) for a in t.args)
    if isinstance(t, Subst):
        return _has_binder(t.body) or any(_has_binder(s) for _, s in t.bindings)
    return False


def test_binder_free_terms_have_height_zero():
    rng = random.Random(47)
    for _ in range(200):
        t = random_term(rng, 5)
        if not _has_binder(t):
            assert star_height(t) == 0
        if star_height(t) == 0 and not isinstance(t, Subst):
            # outside dead substitution bindings, height 0 means no binder
            if not any(
                isinstance(s, Subst) for s in _walk(t)
            ):
                assert not _has_binder(t)


def _walk(t):
    yield t
    if isinstance(t, Op):
        for a in t.args:
            yield from _walk(a)
    elif isinstance(t, (Mu, Nu)):
        yield from _walk(t.body)
    elif isinstance(t, Subst):
        yield from _walk(t.body)
        for _, s in t.bindings:
            yield from _walk(s)


def test_bound_name_count():
    assert bound_name_count(parse("mu x. f(x)")) == 1
    assert bound_name_count(parse("mu x. f(mu x. g(x))")) == 1
    assert bound_name_count(parse("mu x. nu y. f(x, y)")) == 2
    assert bound_name_count(parse("f(x, y)")) == 0


# --- term graphs and the analyzer ---


def test_term_graph_simple_loop():
    g = term_graph(parse("mu x. f(x)"))
    assert g.n == 3
    assert scc_decompose(g) == ((0b111, ()),)
    assert rank(g) == 1


def test_term_graph_binder_free_is_acyclic():
    rng = random.Random(53)
    for _ in range(60):
        t = random_term(rng, 5)
        if not _has_binder(t):
            assert rank(term_graph(t)) == 0


def test_term_graph_two_loops():
    g = term_graph(parse("mu x. f(mu y. g(y), x)"))
    assert len(scc_decompose(g)) == 2


def test_analyze_reports():
    rep = analyze(parse("mu x. f(x)"))
    assert rep["star_height"] == 1
    assert rep["graph_rank"] == 1
    assert rep["graph_entanglement"] == 1
    assert rep["bound_names"] == 1
    assert rep["free_variables"] == []
    var = analyze(parse("x"))
    assert (var["star_height"], var["graph_rank"], var["graph_entanglement"]) == (
        0,
        0,
        0,
    )
    assert var["free_variables"] == ["x"]


def test_entanglement_rank_height_chain():
    rng = random.Random(59)
    for _ in range(60):
        t = random_term(rng, 5)
        g = term_graph(t)
        e = entanglement(g)
        r = rank(g)
        assert e <= r <= star_height(t), format_term(t)

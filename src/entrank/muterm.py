"""Mu-terms: parsing, the variable axioms, star height, term graphs.

Terms are built from variables, operator applications over a signature,
explicit simultaneous substitutions ``t[x1 := s1, ...]``, and the two
fixpoint binders.  The concrete grammar (``.`` binds weakest, postfix
substitution tightest):

    term     := 'mu' IDENT '.' term | 'nu' IDENT '.' term | postfix
    postfix  := atom ( '[' IDENT ':=' term (',' IDENT ':=' term)* ']' )*
    atom     := IDENT '(' term (',' term)* ')' | IDENT '(' ')'
              | IDENT | '(' term ')'

A bare identifier is a variable; an operator symbol is always followed
by parentheses.  ``substitute`` evaluates substitutions capture-free,
renaming binders to the first of ``v0, v1, ...`` that is not free in
the result scope; the explicit-substitution *node* exists so that star
height can be computed on the unreduced shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .digraph import Digraph
from .entgames import entanglement
from .rank import rank

__all__ = [
    "Term",
    "Var",
    "Op",
    "Subst",
    "Mu",
    "Nu",
    "ParseError",
    "parse",
    "format_term",
    "free_vars",
    "substitute",
    "compose_substitutions",
    "alpha_eq",
    "star_height",
    "bound_name_count",
    "term_graph",
    "analyze",
]


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Op:
    symbol: str
    args: tuple["Term", ...] = ()


@dataclass(frozen=True)
class Subst:
    """Explicit simultaneous substitution ``body[x1 := t1, ...]``."""

    body: "Term"
    bindings: tuple[tuple[str, "Term"], ...]

    def __post_init__(self):
        names = [x for x, _ in self.bindings]
        if len(names) != len(set(names)):
            raise ValueError("substitution binds a variable twice")


@dataclass(frozen=True)
class Mu:
    name: str
    body: "Term"


@dataclass(frozen=True)
class Nu:
    name: str
    body: "Term"


Term = Union[Var, Op, Subst, Mu, Nu]


# ---------------------------------------------------------------------------
# parsing


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_KEYWORDS = ("mu", "nu")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append(("kw" if word in _KEYWORDS else "ident", word, i))
            i = j
            continue
        if text.startswith(":=", i):
            toks.append(("assign", ":=", i))
            i += 2
            continue
        if c in "()[].,":
            toks.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str, signature: dict[str, int] | None):
        self.toks = _tokenize(text)
        self.i = 0
        self.signature = signature
        self.seen_arities: dict[str, int] = {}

    def peek(self):
        return self.toks[self.i]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.toks[self.i]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def term(self) -> Term:
        kind, word, pos = self.peek()
        if kind == "kw":
            self.i += 1
            name = self.take("ident")[1]
            self.take(".")
            body = self.term()
            return Mu(name, body) if word == "mu" else Nu(name, body)
        return self.postfix()

    def postfix(self) -> Term:
        t = self.atom()
        while self.peek()[0] == "[":
            self.i += 1
            bindings = [self.binding()]
            while self.peek()[0] == ",":
                self.i += 1
                bindings.append(self.binding())
            self.take("]")
            try:
                t = Subst(t, tuple(bindings))
            except ValueError as exc:
                raise ParseError(str(exc), self.peek()[2]) from None
        return t

    def binding(self) -> tuple[str, Term]:
        name = self.take("ident")[1]
        self.take("assign")
        return name, self.term()

    def atom(self) -> Term:
        kind, word, pos = self.peek()
        if kind == "(":
            self.i += 1
            t = self.term()
            self.take(")")
            return t
        if kind != "ident":
            raise ParseError(f"expected a term, found {word!r}" if word else "unexpected end of input", pos)
        self.i += 1
        if self.peek()[0] != "(":
            return Var(word)
        self.i += 1
        args: list[Term] = []
        if self.peek()[0] != ")":
            args.append(self.term())
            while self.peek()[0] == ",":
                self.i += 1
                args.append(self.term())
        self.take(")")
        self.check_operator(word, len(args), pos)
        return Op(word, tuple(args))

    def check_operator(self, symbol: str, arity: int, pos: int) -> None:
        if self.signature is not None:
            want = self.signature.get(symbol)
            if want is None:
                raise ParseError(f"unknown operator {symbol!r}", pos)
            if want != arity:
                raise ParseError(
                    f"operator {symbol!r} expects {want} arguments, got {arity}", pos
                )
            return
        before = self.seen_arities.setdefault(symbol, arity)
        if before != arity:
            raise ParseError(
                f"operator {symbol!r} used with {arity} arguments after {before}", pos
            )


def parse(text: str, signature: dict[str, int] | None = None) -> Term:
    """Parse ``text``; validate operator arities against ``signature`` if given."""
    p = _Parser(text, signature)
    try:
        t = p.term()
    except RecursionError:
        # the parser takes three frames per nesting level, the walks over
        # terms at most that many, so a term that parses can be walked
        raise ParseError("term nested too deeply", p.peek()[2]) from None
    kind, word, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input starting with {word!r}", pos)
    return t


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Op):
        return f"{t.symbol}({', '.join(format_term(a) for a in t.args)})"
    if isinstance(t, Subst):
        body = format_term(t.body)
        if isinstance(t.body, (Mu, Nu)):
            body = f"({body})"
        inner = ", ".join(f"{x} := {format_term(s)}" for x, s in t.bindings)
        return f"{body}[{inner}]"
    kw = "mu" if isinstance(t, Mu) else "nu"
    return f"{kw} {t.name}. {format_term(t.body)}"


# ---------------------------------------------------------------------------
# the variable axioms


def free_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Op):
        out: frozenset[str] = frozenset()
        for a in t.args:
            out |= free_vars(a)
        return out
    if isinstance(t, Subst):
        bound = dict(t.bindings)
        out = frozenset()
        for y in free_vars(t.body):
            out |= free_vars(bound[y]) if y in bound else frozenset((y,))
        return out
    return free_vars(t.body) - {t.name}


def _fresh(avoid: frozenset[str]) -> str:
    i = 0
    while f"v{i}" in avoid:
        i += 1
    return f"v{i}"


def substitute(t: Term, rho: dict[str, Term]) -> Term:
    """Apply ``rho`` to the free variables of ``t``, capture-free.

    Explicit substitution nodes are evaluated away (their bindings are
    composed with ``rho``), so the result never contains one.
    """
    if isinstance(t, Var):
        got = rho.get(t.name)
        return got if got is not None else t
    if isinstance(t, Op):
        return Op(t.symbol, tuple(substitute(a, rho) for a in t.args))
    if isinstance(t, Subst):
        inner = dict(t.bindings)
        return substitute(t.body, compose_substitutions(inner, rho, free_vars(t.body)))
    # binder: rename if the bound name would capture anything incoming
    scope: frozenset[str] = frozenset()
    for z in free_vars(t.body) - {t.name}:
        got = rho.get(z)
        scope |= free_vars(got) if got is not None else frozenset((z,))
    name = t.name if t.name not in scope else _fresh(scope)
    rho2 = dict(rho)
    rho2[t.name] = Var(name)
    body = substitute(t.body, rho2)
    return Mu(name, body) if isinstance(t, Mu) else Nu(name, body)


def compose_substitutions(rho: dict[str, Term], pi: dict[str, Term],
                          domain: frozenset[str] | None = None) -> dict[str, Term]:
    """The substitution sending ``x`` to ``rho(x)[pi]``.

    ``domain`` restricts which variables need an entry (defaulting to
    everything either map mentions); variables outside ``rho`` pass
    through to ``pi``.
    """
    names = domain if domain is not None else frozenset(rho) | frozenset(pi)
    out: dict[str, Term] = {}
    for x in names:
        if x in rho:
            out[x] = substitute(rho[x], pi)
        elif x in pi:
            out[x] = pi[x]
    return out


def alpha_eq(a: Term, b: Term) -> bool:
    """Structural equality modulo bound-name choice.

    Binders are compared by de Bruijn level; the bindings of explicit
    substitutions are compared positionally.
    """

    def walk(a: Term, b: Term, ea: dict[str, int], eb: dict[str, int], depth: int) -> bool:
        if type(a) is not type(b):
            return False
        if isinstance(a, Var):
            return ea.get(a.name, a.name) == eb.get(b.name, b.name)
        if isinstance(a, Op):
            return (
                a.symbol == b.symbol
                and len(a.args) == len(b.args)
                and all(
                    walk(x, y, ea, eb, depth) for x, y in zip(a.args, b.args)
                )
            )
        if isinstance(a, Subst):
            if len(a.bindings) != len(b.bindings):
                return False
            for (_, s), (_, r) in zip(a.bindings, b.bindings):
                if not walk(s, r, ea, eb, depth):
                    return False
            ea2 = dict(ea)
            eb2 = dict(eb)
            for i, ((x, _), (y, _)) in enumerate(zip(a.bindings, b.bindings)):
                ea2[x] = depth + i
                eb2[y] = depth + i
            return walk(a.body, b.body, ea2, eb2, depth + len(a.bindings))
        ea2 = dict(ea)
        eb2 = dict(eb)
        ea2[a.name] = depth
        eb2[b.name] = depth
        return walk(a.body, b.body, ea2, eb2, depth + 1)

    return walk(a, b, {}, {}, 0)


# ---------------------------------------------------------------------------
# measures


def star_height(t: Term) -> int:
    if isinstance(t, Var):
        return 0
    if isinstance(t, Op):
        return max((star_height(a) for a in t.args), default=0)
    if isinstance(t, Subst):
        used = free_vars(t.body)
        h = star_height(t.body)
        for x, s in t.bindings:
            if x in used:
                h = max(h, star_height(s))
        return h
    return 1 + star_height(t.body)


def bound_name_count(t: Term) -> int:
    """Number of distinct names bound by the fixpoint binders."""
    names: set[str] = set()

    def walk(t: Term) -> None:
        if isinstance(t, Op):
            for a in t.args:
                walk(a)
        elif isinstance(t, Subst):
            walk(t.body)
            for _, s in t.bindings:
                walk(s)
        elif isinstance(t, (Mu, Nu)):
            names.add(t.name)
            walk(t.body)

    walk(t)
    return len(names)


def term_graph(t: Term) -> Digraph:
    """The digraph of a term: syntax-tree edges plus binder back edges.

    Vertices are the AST nodes in preorder.  Every node points to its
    children; every variable occurrence bound by a fixpoint points back
    to its binder.  Substitution bindings shadow outer binders inside
    their body (the name is cut loose there, not re-tied), while the
    bound terms themselves live in the enclosing scope.
    """
    edges: list[tuple[int, int]] = []
    counter = 0

    def walk(t: Term, env: dict[str, int]) -> int:
        nonlocal counter
        me = counter
        counter += 1
        if isinstance(t, Var):
            binder = env.get(t.name)
            if binder is not None:
                edges.append((me, binder))
        elif isinstance(t, Op):
            for a in t.args:
                edges.append((me, walk(a, env)))
        elif isinstance(t, Subst):
            inner = dict(env)
            for x, _ in t.bindings:
                inner.pop(x, None)
            edges.append((me, walk(t.body, inner)))
            for _, s in t.bindings:
                edges.append((me, walk(s, env)))
        else:
            inner = dict(env)
            inner[t.name] = me
            edges.append((me, walk(t.body, inner)))
        return me

    walk(t, {})
    return Digraph(counter, edges)


def analyze(t: Term) -> dict:
    """Flat report of the term's measures and its graph's measures."""
    g = term_graph(t)
    return {
        "star_height": star_height(t),
        "graph_rank": rank(g),
        "graph_entanglement": entanglement(g),
        "free_variables": sorted(free_vars(t)),
        "bound_names": bound_name_count(t),
        "graph_vertices": g.n,
        "graph_construction": "syntax-tree edges plus binder back edges",
    }

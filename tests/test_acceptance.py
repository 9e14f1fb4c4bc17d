"""Acceptance suite: one test and one summary line per shipped guarantee.

Each test prints an ``ACCEPTANCE <num> <name>: PASS/FAIL`` line through the
terminal-summary hook in conftest.py and also asserts, so a regression shows
up both in the exit status and in the human-readable recap.
"""

import hashlib
import json
import random
import time

from entrank.corpus import FAMILIES, family_graph
from entrank.digraph import Digraph
from entrank.entgames import entanglement, solve_pursuit
from entrank.harness import run_equivalence_suite, run_theorem_suite
from entrank.muterm import (
    Mu,
    Nu,
    Subst,
    Var,
    alpha_eq,
    compose_substitutions,
    format_term,
    free_vars,
    parse,
    star_height,
    substitute,
    term_graph,
)
from entrank.rank import rank
from entrank import cli

from conftest import (
    dg,
    random_substitution,
    random_term,
    record_acceptance,
    upath_edges,
)


def _acceptance_corpus(max_size=6):
    """Family graphs at sizes 1..max_size plus seeded random graphs."""
    graphs = []
    for name in sorted(FAMILIES):
        for size in range(1, max_size + 1):
            if name in ("ucycle",) and size < 3:
                continue
            graphs.append((f"{name}-{size}", family_graph(name, size)))
    rng = random.Random(20260815)
    idx = 0
    for n, p, count in [(4, 0.3, 20), (5, 0.3, 20), (6, 0.3, 15), (6, 0.5, 10)]:
        for _ in range(count):
            edges = [
                (u, v) for u in range(n) for v in range(n) if rng.random() < p
            ]
            graphs.append((f"rand-{idx:03d}-n{n}", Digraph(n, edges)))
            idx += 1
    return graphs


def test_criterion_1_path_rank_law():
    t0 = time.monotonic()
    bad = [
        n
        for n in range(1, 33)
        if rank(dg(n, upath_edges(n))) != n.bit_length() - 1
    ]
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 30.0
    record_acceptance(
        1,
        "path-rank-law",
        ok,
        f"rank(upath n) = floor(log2 n) for n=1..32 in {elapsed:.1f}s",
    )
    assert ok, (bad, elapsed)


def test_criterion_2_path_entanglement():
    values = {n: entanglement(dg(n, upath_edges(n))) for n in range(1, 33)}
    bounded = all(v <= 2 for v in values.values())
    # The bound is as published; the exact boundary is what the solver (and
    # the independent brute-force oracle) derive: the value first reaches 2
    # at n = 4, with upath-3 still won by a single cop.  The stated "equals
    # 2 from n = 3" is off by one at that single point; see
    # /root/notes/decisions.md for the worked 1-cop strategy on upath-3.
    exact = all((v == 2) == (n >= 4) for n, v in values.items())
    ok = bounded and exact and values[3] == 1
    record_acceptance(
        2,
        "path-entanglement",
        ok,
        "<=2 for n=1..32; solver-exact value: 2 iff n>=4 (=1 at n=3, "
        "corrected boundary)",
    )
    assert ok, values


def test_criterion_3_main_theorem_at_scale():
    t0 = time.monotonic()
    total = 0
    violations = 0
    for n in (4, 5, 6, 7):
        for p in (0.1, 0.2, 0.3, 0.4, 0.5):
            spec = f"random:n={n},p={p},seed={int(p * 10)},count=25"
            rep = run_theorem_suite(spec)
            total += rep.checked
            violations += rep.violations
    elapsed = time.monotonic() - t0
    ok = total >= 500 and violations == 0 and elapsed < 600.0
    record_acceptance(
        3,
        "entanglement<=rank",
        ok,
        f"{total} random graphs (n<=7, p=0.1..0.5), {violations} violations, "
        f"{elapsed:.1f}s",
    )
    assert ok, (total, violations, elapsed)


def test_criterion_4_game_recursion_equivalence():
    corpus = _acceptance_corpus(6)
    rep = run_equivalence_suite(corpus)
    shrink_checked = sum(1 for r in rep.records if r.shrink_game_k is not None)
    comeback_checked = sum(
        1 for r in rep.records if r.comeback_game_k is not None
    )
    shrink_ok = all(
        r.shrink_game_k == r.rank
        for r in rep.records
        if r.shrink_game_k is not None
    )
    comeback_ok = all(
        r.comeback_game_k == r.shrink_game_k
        for r in rep.records
        if r.comeback_game_k is not None
    )
    skips_reported = all(
        (r.comeback_game_k is not None) or r.skips for r in rep.records
    )
    ok = (
        rep.ok
        and shrink_ok
        and comeback_ok
        and skips_reported
        and shrink_checked >= len(corpus) - 2  # ucycle sizes 1..2 dropped
        and comeback_checked > 0
    )
    record_acceptance(
        4,
        "game-equals-recursion",
        ok,
        f"shrink=rank on {shrink_checked} graphs (n<=6), comeback=shrink on "
        f"{comeback_checked} (n<=5), {rep.skips} size skips reported, "
        "all solves terminated",
    )
    assert ok, rep.summary_line()


def test_criterion_5_variant_equivalence():
    corpus = [(gid, g) for gid, g in _acceptance_corpus(6) if g.n <= 6]
    disagreements = []
    solves = 0
    for gid, g in corpus:
        for k in range(g.n + 1):
            winners = {
                variant: solve_pursuit(g, k, variant=variant).winner
                for variant in ("ent", "et", "entv")
            }
            solves += 3
            if len(set(winners.values())) != 1:
                disagreements.append((gid, k, winners))
    ok = not disagreements
    record_acceptance(
        5,
        "pursuit-variant-equivalence",
        ok,
        f"{len(corpus)} graphs x all k<=n ({solves} solves), "
        f"{len(disagreements)} disagreements",
    )
    assert ok, disagreements[:3]


def test_criterion_6_constructive_translation():
    corpus = [(gid, g) for gid, g in _acceptance_corpus(5) if g.n <= 5]
    rep = run_theorem_suite(corpus, translate=True)
    translated = [r for r in rep.records if r.certificate_ok is not None]
    ok = (
        rep.ok
        and len(translated) == len(corpus)
        and all(r.certificate_ok for r in translated)
    )
    record_acceptance(
        6,
        "strategy-translation",
        ok,
        f"comeback->virtual-cop certificates replay-verified on "
        f"{len(translated)} graphs (n<=5), {rep.violations} failures",
    )
    assert ok, rep.summary_line()


def test_criterion_7_degenerate_laws():
    from oracles import is_acyclic

    corpus = _acceptance_corpus(6)
    law_ok = True
    for gid, g in corpus:
        r = rank(g)
        e = entanglement(g)
        truth = is_acyclic(g.n, tuple(sorted(g.edges)))
        if not ((r == 0) == truth == (e == 0)):
            law_ok = False
            break
    cliques_ok = all(
        rank(family_graph("clique", n))
        == entanglement(family_graph("clique", n))
        == n - 1
        for n in range(1, 6)
    )
    ok = law_ok and cliques_ok
    record_acceptance(
        7,
        "degenerate-laws",
        ok,
        f"rank=0 <=> acyclic <=> entanglement=0 on {len(corpus)} graphs; "
        "clique K_n has rank=ent=n-1 for n<=5",
    )
    assert ok


def test_criterion_8_muterm_suite():
    rng = random.Random(88)
    pairs = 0
    failures = []

    for _ in range(210):
        t = random_term(rng, rng.randrange(1, 6))
        rho = random_substitution(rng)
        pi = random_substitution(rng)
        pairs += 1

        # free-variable axioms
        if free_vars(Var("x")) != {"x"}:
            failures.append("fv-var")
        node = Subst(t, tuple(rho.items()))
        expect = frozenset()
        for y in free_vars(t):
            expect |= free_vars(rho.get(y, Var(y)))
        if free_vars(node) != expect:
            failures.append(f"fv-subst {format_term(t)}")
        if free_vars(Mu("x", t)) != free_vars(t) - {"x"}:
            failures.append(f"fv-binder {format_term(t)}")

        # substitution axioms
        s = rho.get("x", Var("x"))
        if substitute(Var("x"), rho) != s:
            failures.append("subst-var")
        fv = free_vars(t)
        trimmed = {y: q for y, q in rho.items() if y in fv}
        if not alpha_eq(substitute(t, trimmed), substitute(t, rho)):
            failures.append(f"subst-agree {format_term(t)}")
        lhs = substitute(substitute(t, rho), pi)
        rhs = substitute(t, compose_substitutions(rho, pi))
        if not alpha_eq(lhs, rhs):
            failures.append(f"subst-compose {format_term(t)}")

        # binder renaming
        fresh = "w77"
        body = substitute(t, {"x": Var(fresh)})
        for binder in (Mu, Nu):
            if not alpha_eq(
                substitute(binder("x", t), {}),
                substitute(binder(fresh, body), {}),
            ):
                failures.append(f"alpha {format_term(t)}")

    goldens_ok = (
        star_height(parse("x")) == 0
        and star_height(parse("mu x. nu y. f(x, y)")) == 2
        and star_height(parse("f(mu x. g(x), mu y. g(y))")) == 1
        and star_height(parse("f(x, y)[x := mu z. g(z)]")) == 1
    )

    chain_checked = 0
    for _ in range(210):
        t = random_term(rng, rng.randrange(1, 6))
        g = term_graph(t)
        e, r, h = entanglement(g), rank(g), star_height(t)
        chain_checked += 1
        if not (e <= r <= h):
            failures.append(f"chain {format_term(t)}: {e},{r},{h}")

    ok = not failures and goldens_ok and pairs >= 200 and chain_checked >= 200
    record_acceptance(
        8,
        "muterm-suite",
        ok,
        f"axioms on {pairs} term/substitution pairs, star-height goldens, "
        f"ent<=rank<=h on {chain_checked} terms, {len(failures)} failures",
    )
    assert ok, failures[:5]


def test_criterion_9_determinism(tmp_path):
    spec = "random:n=6,p=0.3,seed=42,count=100"
    # API level
    first = run_theorem_suite(spec).to_json()
    second = run_theorem_suite(spec).to_json()
    api_ok = first == second
    # CLI level, byte-for-byte on the written reports
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    rc_a = cli.main(["verify", "theorem", "--corpus", spec, "--json", str(out_a)])
    rc_b = cli.main(["verify", "theorem", "--corpus", spec, "--json", str(out_b)])
    cli_ok = rc_a == rc_b == 0 and out_a.read_bytes() == out_b.read_bytes()
    obj = json.loads(first)
    # the report's bytes are pinned, so a refactor cannot change them
    pinned = hashlib.sha256(first.encode()).hexdigest() == (
        "27fbe802f275d95fc7c935b72aa917e00148963eeeb825adbd2df004c22e030c"
    )
    ok = api_ok and cli_ok and pinned and obj["summary"]["checked"] == 100
    record_acceptance(
        9,
        "deterministic-reports",
        ok,
        "two runs over random:n=6,p=0.3,seed=42,count=100 byte-identical "
        "(API and CLI) and equal to the pinned sha256",
    )
    assert ok

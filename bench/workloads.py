"""The benchmark's workloads: their inputs, one verdict per input, and checks.

Every input graph is a fixed graph: a named family member, or a member of
a random corpus with a fixed corpus seed.  In ``rank-scale`` and
``equiv-suite`` the run's ``--seed`` renumbers the vertices of every
graph by a random permutation.  Different seeds thus pose different but
isomorphic problems, on which those workloads' solvers do the same work.
``theorem-certify`` keeps every numbering: the comeback certificate, and
with it the translation and the replay, follow the order of the moves,
so one graph's verdict time moved by up to half between numberings.
There the seed only shuffles the order in which the inputs are visited.

Each workload calls ``entrank`` only through the module objects it is
given (``m["rank"].rank(...)``), so that wrappers installed by the
tracer are called too.  Checks run outside the timed region and compare
against laws, properties, or the naive reference solvers of
``tests/oracles.py``, never against stored output.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

LAYERS = ("digraph", "rank", "entgames", "gamecore", "translate", "muterm",
          "harness", "corpus", "graphio")


@dataclass
class Item:
    """One input: a graph (``graph``) or a μ-term source text (``term``)."""

    label: str
    family: str  # "upath", "clique", "ucycle", ..., "random" or "term"
    graph: Any = None
    term: str | None = None


def edge_list_text(g, rng: random.Random | None) -> str:
    """Edge-list text of ``g``, its vertices renumbered at random by ``rng``
    unless that is ``None``."""
    perm = list(range(g.n))
    if rng is not None:
        rng.shuffle(perm)
    lines = [str(g.n)] + [f"{perm[u]} {perm[v]}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def nested_term(depth: int) -> str:
    """``mu x. f(f(...f(x, x)..., x), x)`` with ``depth`` nested ``f``."""
    body = "x"
    for _ in range(depth):
        body = f"f({body}, x)"
    return f"mu x. {body}"


def graph_items(m: dict, specs: list[str], rng: random.Random | None) -> list[Item]:
    """Items for every graph of every corpus spec, each parsed from its
    edge-list text; ``rng`` renumbers the vertices (see above)."""
    items = []
    for spec in specs:
        family = spec.split("name=")[1].split(",")[0] if "name=" in spec else "random"
        for gid, g in m["corpus"].generate_corpus(spec):
            text = edge_list_text(g, rng)
            label = gid if family != "random" else f"{gid}-n{g.n}"
            items.append(Item(label, family, graph=m["graphio"].parse_graph(text)))
    return items


def floor_log2(n: int) -> int:
    return n.bit_length() - 1


def edges_of(g) -> list[tuple[int, int]]:
    return sorted(g.edges)


class Checks:
    """Collects failed-check messages."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def check_same_across_passes(checks: Checks, items, outputs, answer: Callable) -> None:
    """Every pass must give every input the same answer as the first pass.

    ``outputs[0]`` holds whole outputs, later passes their ``answer``.
    """
    first = [None if out is None else answer(out) for out in outputs[0]]
    for p, row in enumerate(outputs[1:], start=1):
        for item, a, b in zip(items, first, row):
            if a is not None and b is not None:
                checks.expect(a == b, f"{item.label}: pass {p} answered differently from pass 0")


def same(out):
    return out


# --------------------------------------------------------------- rank-scale

RANK_SCALE_SPECS = [
    "family:name=upath,size=48",
    "family:name=clique,size=14",
    "random:n=16,p=0.2,seed=1,count=4",
]
TERM_DEPTH = 10


def rank_scale_build(m: dict, seed: int) -> list[Item]:
    items = graph_items(m, RANK_SCALE_SPECS, random.Random(seed))
    items.append(Item(f"term-depth-{TERM_DEPTH}", "term", term=nested_term(TERM_DEPTH)))
    return items


def rank_scale_verdict(m: dict, item: Item):
    if item.term is not None:
        return m["muterm"].analyze(m["muterm"].parse(item.term))
    return m["rank"].rank(item.graph)


def rank_scale_check(m: dict, oracles, items, outputs, seed: int) -> list[str]:
    checks = Checks()
    check_same_across_passes(checks, items, outputs, same)
    for item, out in zip(items, outputs[0]):
        if out is None:
            continue
        if item.term is not None:
            ent, rk, sh = out["graph_entanglement"], out["graph_rank"], out["star_height"]
            checks.expect(ent <= rk <= sh,
                          f"{item.label}: entanglement {ent} <= rank {rk} <= star height {sh} fails")
            # one fixpoint binder: star height 1, and a back edge forces rank >= 1
            checks.expect(sh == 1 and rk == 1, f"{item.label}: star height {sh}, rank {rk}, not 1 and 1")
            checks.expect(out["graph_vertices"] == 2 * TERM_DEPTH + 2,
                          f"{item.label}: {out['graph_vertices']} term-graph vertices")
            continue
        g = item.graph
        if item.family == "upath":
            want = floor_log2(g.n)
        elif item.family == "clique":
            want = g.n - 1
        else:
            want = oracles.rank_value(g.n, edges_of(g))
        checks.expect(out == want, f"{item.label}: rank {out}, expected {want}")
    return checks.failures


# -------------------------------------------------------------- equiv-suite

# The make-up of the acceptance corpus of criteria 4 and 5 (six families at
# sizes 1..6, random G(n, 0.3) graphs), without its random n = 6 graphs:
# those hold three quarters of its time and would make one pass longer
# than a whole run.  The size-6 family members keep n = 6 instances in.
EQUIV_SPECS = (
    [f"family:name={name},size={size}"
     for name in ("clique", "dag", "dicycle", "dipath", "ucycle", "upath")
     for size in range(1, 7)
     if not (name == "ucycle" and size < 3)]
    + ["random:n=4,p=0.3,seed=20260815,count=20",
       "random:n=5,p=0.3,seed=20260815,count=20"]
)


def equiv_build(m: dict, seed: int) -> list[Item]:
    return graph_items(m, EQUIV_SPECS, random.Random(seed))


def equiv_verdict(m: dict, item: Item):
    report = m["harness"].run_equivalence_suite([(item.label, item.graph)], jobs=1)
    return report.to_json()


def equiv_check(m: dict, oracles, items, outputs, seed: int) -> list[str]:
    checks = Checks()
    check_same_across_passes(checks, items, outputs, same)
    comeback_max_n = m["harness"].COMEBACK_GAME_MAX_N
    for item, text in zip(items, outputs[0]):
        if text is None:
            continue
        g, label = item.graph, item.label
        report = json.loads(text)
        (rec,) = report["records"]
        checks.expect(not rec["failures"], f"{label}: harness failures {rec['failures']}")
        n, es = g.n, edges_of(g)
        want = {
            "rank": oracles.rank_value(n, es),
            "shrink_game_k": oracles.shrink_min_k(n, es),
            "ent_k": oracles.pursuit_min_k(n, es, "ent"),
            "et_k": oracles.pursuit_min_k(n, es, "et"),
            "entv_k": oracles.pursuit_min_k(n, es, "entv"),
        }
        if n <= comeback_max_n:
            want["comeback_game_k"] = oracles.comeback_min_k(n, es)
        for field, value in want.items():
            checks.expect(rec[field] == value, f"{label}: {field} {rec[field]}, expected {value}")
        if item.family == "upath":
            checks.expect(rec["rank"] == floor_log2(n), f"{label}: rank {rec['rank']} breaks the path law")
            checks.expect(n < 4 or rec["ent_k"] == 2, f"{label}: entanglement {rec['ent_k']}, not 2")
        elif item.family == "clique":
            checks.expect(rec["rank"] == rec["ent_k"] == n - 1,
                          f"{label}: rank {rec['rank']}, entanglement {rec['ent_k']}, not {n - 1}")
        checks.expect(rec["entanglement"] is not None and rec["entanglement"] <= rec["rank"],
                      f"{label}: entanglement {rec['entanglement']} > rank {rec['rank']}")
    return checks.failures


# ---------------------------------------------------------- theorem-certify

THEOREM_SPECS = [
    "family:name=clique,size=7",
    "family:name=clique,size=8",
    "family:name=upath,size=16",
    "family:name=upath,size=24",
    "family:name=ucycle,size=12",
    "random:n=10,p=0.3,seed=2,count=3",
    "random:n=11,p=0.3,seed=2,count=3",
    "random:n=12,p=0.3,seed=2,count=3",
]


@dataclass
class TheoremOut:
    rank: int
    entanglement: int
    comeback_winner: str
    certificate: Any  # translated entv certificate
    certificate_json: str
    replayed: Any  # certificate read back from its JSON
    replay_ok: bool

    def answer(self):
        digest = hashlib.sha256(self.certificate_json.encode()).hexdigest()
        return (self.rank, self.entanglement, self.comeback_winner, digest, self.replay_ok)


def theorem_build(m: dict, seed: int) -> list[Item]:
    items = graph_items(m, THEOREM_SPECS, None)
    random.Random(seed).shuffle(items)
    return items


def theorem_verdict(m: dict, item: Item) -> TheoremOut:
    """The steps of ``entrank verify theorem --translate`` on one graph,
    plus the certificate file round trip a later replay needs."""
    g = item.graph
    gc = m["gamecore"]
    r = m["rank"].rank(g)
    e = m["entgames"].entanglement(g)
    result = m["rank"].solve_comeback_game(g, r)
    cert = m["translate"].translate_rank_strategy(g, result.certificate)
    text = json.dumps(gc.certificate_to_json(cert))
    back = gc.certificate_from_json(json.loads(text))
    ok = gc.verify_certificate(g, "entv", r, back).ok
    return TheoremOut(r, e, result.winner, cert, text, back, ok)


def theorem_check(m: dict, oracles, items, outputs, seed: int) -> list[str]:
    checks = Checks()
    check_same_across_passes(checks, items, outputs, TheoremOut.answer)
    gc = m["gamecore"]
    rng = random.Random(seed)
    for item, out in zip(items, outputs[0]):
        if out is None:
            continue
        g, label = item.graph, item.label
        if item.family == "upath":
            want_rank, want_ent = floor_log2(g.n), 2
        elif item.family == "clique":
            want_rank = want_ent = g.n - 1
        else:
            want_rank = oracles.rank_value(g.n, edges_of(g))
            want_ent = oracles.pursuit_min_k(g.n, edges_of(g), "ent")
        checks.expect(out.rank == want_rank, f"{label}: rank {out.rank}, expected {want_rank}")
        checks.expect(out.entanglement == want_ent,
                      f"{label}: entanglement {out.entanglement}, expected {want_ent}")
        checks.expect(out.entanglement <= out.rank,
                      f"{label}: entanglement {out.entanglement} > rank {out.rank}")
        checks.expect(out.comeback_winner == gc.COPS,
                      f"{label}: comeback game at k = rank won by {out.comeback_winner}")
        checks.expect(out.replay_ok, f"{label}: translated certificate rejected on replay")
        cert, back = out.certificate, out.replayed
        checks.expect((back.game, back.k, back.winner, back.moves)
                      == (cert.game, cert.k, cert.winner, cert.moves),
                      f"{label}: JSON round trip changed the certificate")
        # a certificate missing one recorded decision must not replay
        keys = sorted(cert.moves, key=repr)
        dropped = keys[rng.randrange(len(keys))]
        cut = gc.StrategyCertificate(cert.game, cert.k, cert.winner,
                                     {k: v for k, v in cert.moves.items() if k != dropped})
        checks.expect(not gc.verify_certificate(g, "entv", out.rank, cut).ok,
                      f"{label}: certificate without the move at {dropped!r} still replays")
    return checks.failures


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    verdict: Callable
    answer: Callable  # compact comparable form of a verdict's output
    check: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rank-scale", rank_scale_build, rank_scale_verdict, same,
                 rank_scale_check),
        Workload("equiv-suite", equiv_build, equiv_verdict, same, equiv_check),
        Workload("theorem-certify", theorem_build, theorem_verdict, TheoremOut.answer,
                 theorem_check),
    )
}

"""Verification suites: run the solvers against each other over a corpus.

Two suites, both returning a :class:`VerificationReport`:

* :func:`run_theorem_suite` — per graph, checks
  ``entanglement(g) <= rank(g)``, and (optionally) translates a cops
  certificate for the comeback game at ``k = rank(g)`` into a
  virtual-cop pursuit certificate and replays it.
* :func:`run_equivalence_suite` — per graph, checks that the rank
  recursion, the shrinking game, and the comeback game agree on the
  minimal cop count, and that the three pursuit variants have the same
  winner at every ``k <= n``.  Each variant is solved up to its least
  winning ``k``; above it, its cops certificate from that ``k`` is
  replayed with the larger budget, and solving resumes only if the
  replay is rejected.

Suites parallelise across graphs only (``jobs``); per-graph work is
sequential and results are merged in corpus order, so reports are a
deterministic function of the corpus spec.  ``ceiling`` caps every game
arena's positions and the rank memo's entries; a tripped ceiling, or
a rank recursion past the interpreter's recursion limit, becomes a
*skip*, listed in the report rather than dropped; every
failure message embeds enough detail to replay it (the record carries
the graph, the message carries ``k`` and the reason).

``wall_time`` is kept on the report object for human display but is
deliberately excluded from the JSON serialisation so that two runs over
the same corpus produce byte-identical reports.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence, Union

from .corpus import CorpusSpec
from .digraph import Digraph
from .entgames import VARIANTS, entanglement, solve_pursuit
from .gamecore import COPS, ArenaCeilingError, StrategyCertificate, verify_certificate
from .rank import (
    RankDepthError,
    comeback_min_k,
    rank,
    rank_via_game,
    solve_comeback_game,
)
from .translate import TranslationError, translate_rank_strategy

__all__ = [
    "ReportRecord",
    "VerificationReport",
    "run_theorem_suite",
    "run_equivalence_suite",
    "SHRINK_GAME_MAX_N",
    "COMEBACK_GAME_MAX_N",
    "VARIANT_SWEEP_MAX_N",
]

# Exhaustive game solving is exponential; these bounds keep the suites at
# desk scale.  Larger graphs are reported as skips, not silently ignored.
SHRINK_GAME_MAX_N = 6
COMEBACK_GAME_MAX_N = 5
VARIANT_SWEEP_MAX_N = 6

CorpusLike = Union[str, CorpusSpec, Sequence[tuple[str, Digraph]]]


@dataclass
class ReportRecord:
    """Everything measured for one corpus graph."""

    graph_id: str
    n: int
    edges: list[list[int]]
    rank: int | None = None
    entanglement: int | None = None
    shrink_game_k: int | None = None
    comeback_game_k: int | None = None
    ent_k: int | None = None
    et_k: int | None = None
    entv_k: int | None = None
    theorem_ok: bool | None = None
    certificate_ok: bool | None = None
    skips: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def to_obj(self) -> dict:
        return {
            "graph_id": self.graph_id,
            "n": self.n,
            "edges": self.edges,
            "rank": self.rank,
            "entanglement": self.entanglement,
            "shrink_game_k": self.shrink_game_k,
            "comeback_game_k": self.comeback_game_k,
            "ent_k": self.ent_k,
            "et_k": self.et_k,
            "entv_k": self.entv_k,
            "theorem_ok": self.theorem_ok,
            "certificate_ok": self.certificate_ok,
            "skips": self.skips,
            "failures": self.failures,
        }


@dataclass
class VerificationReport:
    suite: str
    corpus: str
    records: list[ReportRecord]
    wall_time: float = 0.0  # seconds; display only, never serialised

    @property
    def checked(self) -> int:
        return len(self.records)

    @property
    def violations(self) -> int:
        return sum(len(r.failures) for r in self.records)

    @property
    def skips(self) -> int:
        return sum(len(r.skips) for r in self.records)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_obj(self) -> dict:
        return {
            "suite": self.suite,
            "corpus": self.corpus,
            "summary": {
                "checked": self.checked,
                "violations": self.violations,
                "skips": self.skips,
            },
            "records": [r.to_obj() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2, sort_keys=True) + "\n"

    def summary_line(self) -> str:
        status = "OK" if self.ok else "FAIL"
        return (
            f"{self.suite} suite over {self.corpus}: {status} "
            f"({self.checked} graphs, {self.violations} violations, "
            f"{self.skips} skips, {self.wall_time:.2f}s)"
        )


def _resolve(corpus: CorpusLike) -> tuple[list[tuple[str, Digraph]], str]:
    if isinstance(corpus, str):
        corpus = CorpusSpec.parse(corpus)
    if isinstance(corpus, CorpusSpec):
        return corpus.graphs(), corpus.canonical
    graphs = list(corpus)
    return graphs, f"explicit:{len(graphs)} graphs"


def _new_record(graph_id: str, n: int, edges: tuple[tuple[int, int], ...]) -> ReportRecord:
    return ReportRecord(graph_id=graph_id, n=n, edges=[list(e) for e in edges])


def _rank_or_skip(g: Digraph, rec: ReportRecord, ceiling: int | None) -> bool:
    """Set ``rec.rank``; on a rank ceiling or depth limit record a skip
    and return False."""
    try:
        rec.rank = rank(g, ceiling=ceiling)
    except ArenaCeilingError as exc:
        rec.skips.append(f"rank memo exceeded {exc.limit} entries")
        return False
    except RankDepthError as exc:
        rec.skips.append(str(exc))
        return False
    return True


def _theorem_worker(task) -> ReportRecord:
    graph_id, n, edges, do_translate, ceiling = task
    g = Digraph(n, edges)
    rec = _new_record(graph_id, n, edges)
    if not _rank_or_skip(g, rec, ceiling):
        return rec
    try:
        rec.entanglement = rec.ent_k = entanglement(g, ceiling=ceiling)
    except ArenaCeilingError as exc:
        rec.skips.append(f"pursuit arena exceeded {exc.limit} positions")
        return rec
    rec.theorem_ok = rec.entanglement <= rec.rank
    if not rec.theorem_ok:
        rec.failures.append(
            f"entanglement {rec.entanglement} exceeds rank {rec.rank}"
        )
    if do_translate:
        _translate_and_verify(g, rec, ceiling)
    return rec


def _translate_and_verify(g: Digraph, rec: ReportRecord, ceiling: int | None) -> None:
    k = rec.rank
    try:
        res = solve_comeback_game(g, k, ceiling=ceiling)
    except ArenaCeilingError as exc:
        rec.skips.append(f"comeback arena exceeded {exc.limit} positions at k={k}")
        return
    if res.winner != COPS:
        rec.certificate_ok = False
        rec.failures.append(f"comeback game lost at k = rank = {k}")
        return
    try:
        cert = translate_rank_strategy(g, res.certificate)
    except TranslationError as exc:
        rec.certificate_ok = False
        rec.failures.append(f"strategy translation failed at k={k}: {exc}")
        return
    replay = verify_certificate(g, "entv", k, cert, ceiling=ceiling)
    rec.certificate_ok = replay.ok
    if not replay.ok:
        rec.failures.append(
            f"translated certificate rejected at k={k}: {replay.reason}"
        )


def _equivalence_worker(task) -> ReportRecord:
    graph_id, n, edges, ceiling = task
    g = Digraph(n, edges)
    rec = _new_record(graph_id, n, edges)
    if not _rank_or_skip(g, rec, ceiling):
        return rec

    if n <= SHRINK_GAME_MAX_N:
        rec.shrink_game_k = rank_via_game(g)
        if rec.shrink_game_k != rec.rank:
            rec.failures.append(
                f"shrink-game min-k {rec.shrink_game_k} != rank {rec.rank}"
            )
    else:
        rec.skips.append(f"shrink-game check skipped (n={n} > {SHRINK_GAME_MAX_N})")

    if n <= COMEBACK_GAME_MAX_N:
        try:
            rec.comeback_game_k = comeback_min_k(g, ceiling=ceiling)
        except ArenaCeilingError as exc:
            rec.skips.append(f"comeback arena exceeded {exc.limit} positions")
        else:
            if rec.comeback_game_k != rec.rank:
                rec.failures.append(
                    f"comeback-game min-k {rec.comeback_game_k} != rank {rec.rank}"
                )
    else:
        rec.skips.append(f"comeback check skipped (n={n} > {COMEBACK_GAME_MAX_N})")

    if n <= VARIANT_SWEEP_MAX_N:
        _sweep_variants(g, rec, ceiling)
    else:
        rec.skips.append(f"variant sweep skipped (n={n} > {VARIANT_SWEEP_MAX_N})")
    return rec


def _sweep_variants(g: Digraph, rec: ReportRecord, ceiling: int | None) -> None:
    """Find the winner of all three pursuit variants at every ``k <= n``.

    Below a variant's least winning ``k`` every level is solved.  Above
    it the cops certificate from that least ``k`` is replayed with its
    budget raised to ``k``: extra cops never hurt, since thief moves
    depend only on the cop mask and every cop move legal with ``k``
    cops stays legal with more.  A replay that ``verify_certificate``
    accepts proves a cops win without building the arena; a rejected
    one falls back to solving.  Winner agreement at each level is the
    strong form; the per-variant minimal ``k`` values recorded on the
    way out follow from it.
    """
    lift: dict[str, StrategyCertificate] = {}  # cops certificate at the least k
    for k in range(g.n + 1):
        winners = {}
        for variant in VARIANTS:
            cert = lift.get(variant)
            if cert is not None and verify_certificate(
                g, variant, k, StrategyCertificate(variant, k, COPS, cert.moves),
                ceiling=ceiling,
            ).ok:
                winners[variant] = COPS
                continue
            try:
                res = solve_pursuit(g, k, variant, ceiling=ceiling)
            except ArenaCeilingError as exc:
                rec.skips.append(
                    f"{variant} arena exceeded {exc.limit} positions at k={k}"
                )
                continue
            winners[variant] = res.winner
            if res.winner == COPS:
                lift.setdefault(variant, res.certificate)
        if len(set(winners.values())) > 1:
            rec.failures.append(f"variant winners disagree at k={k}: {winners}")
    first_win = {v: lift[v].k if v in lift else None for v in VARIANTS}
    rec.ent_k = first_win["ent"]
    rec.et_k = first_win["et"]
    rec.entv_k = first_win["entv"]
    rec.entanglement = rec.ent_k
    if len({v for v in first_win.values() if v is not None}) > 1:
        rec.failures.append(f"variant min-k values disagree: {first_win}")


def _run_tasks(worker, tasks: list, jobs: int) -> list[ReportRecord]:
    if jobs <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


def run_theorem_suite(corpus: CorpusLike, *, translate: bool = False,
                      jobs: int = 1, ceiling: int | None = None) -> VerificationReport:
    graphs, label = _resolve(corpus)
    tasks = [(gid, g.n, tuple(sorted(g.edges)), translate, ceiling) for gid, g in graphs]
    t0 = time.perf_counter()
    records = _run_tasks(_theorem_worker, tasks, jobs)
    return VerificationReport("theorem", label, records, time.perf_counter() - t0)


def run_equivalence_suite(corpus: CorpusLike, *, jobs: int = 1,
                          ceiling: int | None = None) -> VerificationReport:
    graphs, label = _resolve(corpus)
    tasks = [(gid, g.n, tuple(sorted(g.edges)), ceiling) for gid, g in graphs]
    t0 = time.perf_counter()
    records = _run_tasks(_equivalence_worker, tasks, jobs)
    return VerificationReport("equivalence", label, records, time.perf_counter() - t0)

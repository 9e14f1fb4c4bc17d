"""Verification suites: run the solvers against each other over a corpus.

Two suites, both returning a :class:`VerificationReport`:

* :func:`run_theorem_suite` — per graph, checks
  ``entanglement(g) <= rank(g)``, and (optionally) runs the theorem's
  step at ``k = rank(g)`` with :func:`translate_and_verify`: a comeback
  cops certificate translated into a virtual-cop pursuit certificate
  and replayed.  ``entrank translate`` runs the same step.
* :func:`run_equivalence_suite` — per graph, checks that the rank
  recursion, the shrinking game, and the comeback game agree on the
  minimal cop count, and decides the three pursuit variants at every
  ``k <= n`` from two solves: ``ent`` up to its least winning ``k``,
  ``e``, and ``entv`` at ``e - 1``, a thief win.  The other levels are
  decided by replaying their two certificates outward from ``e``: in
  each variant the first accepted replay decides every farther level,
  since one more cop keeps every cops move and changes nothing else,
  and a rejected replay is a failure (see ``_sweep_variants``).

Suites parallelise across graphs only (``jobs``); per-graph work is
sequential and results are merged in corpus order, so reports are a
deterministic function of the corpus spec.  ``ceiling`` caps the
positions of every arena walk (solve, replay, translation) and the rank
memo's entries; a tripped ceiling, or a rank recursion past the
interpreter's recursion limit, becomes a *skip*, listed in the report
rather than dropped.  Every failure message embeds enough detail to
replay it (the record carries the graph, the message carries ``k`` and
the reason).

``wall_time`` is kept on the report object for human display but is
deliberately excluded from the JSON serialisation so that two runs over
the same corpus produce byte-identical reports.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Sequence, Union

from .corpus import CorpusSpec
from .digraph import Digraph
from .entgames import VARIANTS, entanglement, solve_pursuit
from .gamecore import (
    COPS,
    THIEF,
    ArenaCeilingError,
    StrategyCertificate,
    least_winning_k,
    verify_certificate,
)
from .rank import RankDepthError, rank, solve_comeback_game
from .translate import TranslationError, translate_rank_strategy

__all__ = [
    "ReportRecord",
    "VerificationReport",
    "run_theorem_suite",
    "run_equivalence_suite",
    "translate_and_verify",
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
        return asdict(self)


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


def _new_record(graph_id: str, g: Digraph) -> ReportRecord:
    return ReportRecord(graph_id=graph_id, n=g.n, edges=[list(e) for e in sorted(g.edges)])


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
    graph_id, g, do_translate, ceiling = task
    rec = _new_record(graph_id, g)
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
        translate_and_verify(g, rec.rank, rec, ceiling)
    return rec


def translate_and_verify(g: Digraph, k: int, rec: ReportRecord,
                         ceiling: int | None = None) -> StrategyCertificate | None:
    """The theorem's step at budget ``k``: the comeback game's cops
    certificate, translated to the virtual-cop game and replayed there.
    Returns that certificate, or None after adding to ``rec`` one failure
    (``certificate_ok`` False) or one skip naming the step that tripped."""
    step = "comeback arena"
    try:
        res = solve_comeback_game(g, k, ceiling=ceiling)
        if res.winner != COPS:
            failure = f"comeback game lost at k={k}"
        else:
            step = "translation"
            cert = translate_rank_strategy(g, res.certificate, ceiling)
            step = "entv replay"
            replay = verify_certificate(g, "entv", k, cert, ceiling=ceiling)
            if replay.ok:
                rec.certificate_ok = True
                return cert
            failure = f"translated certificate rejected at k={k}: {replay.reason}"
    except ArenaCeilingError as exc:
        rec.skips.append(f"{step} exceeded {exc.limit} positions at k={k}")
        return None
    except TranslationError as exc:
        failure = f"strategy translation failed at k={k}: {exc}"
    rec.certificate_ok = False
    rec.failures.append(failure)
    return None


def _equivalence_worker(task) -> ReportRecord:
    graph_id, g, ceiling = task
    rec = _new_record(graph_id, g)
    if not _rank_or_skip(g, rec, ceiling):
        return rec

    # each rank game: its id, record field, size bound, and its names in
    # skips and in failures
    for game_id, attr, max_n, name, failed in (
        ("rank", "shrink_game_k", SHRINK_GAME_MAX_N, "shrink-game", "shrink-game"),
        ("comeback", "comeback_game_k", COMEBACK_GAME_MAX_N, "comeback", "comeback-game"),
    ):
        if g.n > max_n:
            rec.skips.append(f"{name} check skipped (n={g.n} > {max_n})")
            continue
        try:
            least = least_winning_k(g, game_id, ceiling)
        except ArenaCeilingError as exc:
            rec.skips.append(f"{name} arena exceeded {exc.limit} positions")
            continue
        setattr(rec, attr, least)
        if least != rec.rank:
            rec.failures.append(f"{failed} min-k {least} != rank {rec.rank}")

    if g.n <= VARIANT_SWEEP_MAX_N:
        _sweep_variants(g, rec, ceiling)
    else:
        rec.skips.append(f"variant sweep skipped (n={g.n} > {VARIANT_SWEEP_MAX_N})")
    return rec


def _sweep_variants(g: Digraph, rec: ReportRecord, ceiling: int | None) -> None:
    """Decide the winner of all three pursuit variants at every
    ``k <= n`` from two solves and one accepted replay per variant and
    side.

    ``ent`` is solved at ``k = 0, 1, ...`` up to its first cops win
    ``e``, and ``entv`` at ``e - 1`` when ``e > 0``.  Every other level
    is decided by :func:`verify_certificate` on one of the two
    certificates, with its game tag and ``k`` changed.  In each variant
    the ``ent`` cops certificate is replayed at ``k = e, e + 1, ..., n``
    and the ``entv`` thief certificate at ``k = e - 1, e - 2, ..., 0``,
    skipping levels a solve decided; the first accepted replay decides
    its own level and every farther one of that variant.  This rests on
    one lemma.  A pursuit position, the thief's moves and
    ``winner_if_terminal`` do not depend on ``k``, and every cops move
    that ``_cops_move_legal`` allows at ``k`` it also allows at
    ``k + 1``.  So a cops certificate accepted at ``k`` replays the same
    walk at every ``k' > k``, and a thief certificate accepted at ``k``
    meets a subset of its walk at every ``k' < k``, where the opponent
    has fewer moves.  Both replays at ``e`` and ``e - 1`` hold when the
    solves are right: the three games share their thief moves; at a
    position with no virtual cops an ``ent`` cops move is an ``et``
    move, which is an ``entv`` move that reserves nothing; so the cops
    certificate, which never reserves, plays only legal moves in every
    variant, and the thief certificate faces only cops moves it was
    solved against or fewer.

    A rejected replay is a failure naming the certificate's game, both
    budgets and the reason, and the next level of that variant is
    replayed; nothing is re-solved.  An ``entv`` cops win at ``e - 1``
    where ``ent`` was solved a thief win is a failure too.  Replay
    failures come cops certificate first, then by ``k`` ascending, then
    in :data:`VARIANTS` order.  A pursuit position depends on neither
    ``k`` nor the variant, so a replay meets only positions that its
    certificate's solve stored under the same ceiling, and cannot trip
    it.  Skips name a tripped
    solve: ``ent`` at a ``k`` up to ``e`` (at every ``k`` when no solve
    finds a cops win), or ``entv`` at ``e - 1``.  The thief certificate
    still decides a skipped ``ent`` level.  A variant records ``e`` as
    its least ``k`` when its levels below ``e`` are decided for the
    thief and level ``e`` for the cops, and None otherwise: a solve at a
    larger ``k`` can store fewer positions than one at a smaller ``k``,
    so with a tripped level below it ``e`` may lie above the least ``k``.
    """
    won: dict[tuple[str, int], str] = {}  # (variant, k) -> winner of a decided level
    for e in range(g.n + 1):
        try:
            res = solve_pursuit(g, e, "ent", ceiling=ceiling)
        except ArenaCeilingError as exc:
            rec.skips.append(f"ent arena exceeded {exc.limit} positions at k={e}")
            continue
        won["ent", e] = res.winner
        if res.winner == COPS:
            break
        del res  # with its search arrays, before the next solve
    else:
        return  # no cops win to replay
    certs = [res.certificate]  # reading it drops the search arrays
    if e:
        try:
            res = solve_pursuit(g, e - 1, "entv", ceiling=ceiling)
        except ArenaCeilingError as exc:
            rec.skips.append(f"entv arena exceeded {exc.limit} positions at k={e - 1}")
        else:
            if res.winner == THIEF:
                won["entv", e - 1] = THIEF
                certs.append(res.certificate)
            elif ("ent", e - 1) in won:  # not a contradiction if that solve tripped
                rec.failures.append(f"entv won by the cops at k={e - 1}, "
                                    f"below ent's first cops win at k={e}")
    for cert in certs:
        # outward from e: the cops certificate up, the thief certificate down
        levels = range(e, g.n + 1) if cert.winner == COPS else range(e - 1, -1, -1)
        rejected = {}  # (k, variant position) -> failure
        for i, variant in enumerate(VARIANTS):
            for at, k in enumerate(levels):
                if (variant, k) in won:
                    continue
                replay = verify_certificate(
                    g, variant, k, StrategyCertificate(variant, k, cert.winner, cert.moves),
                    ceiling=ceiling,
                )
                if replay.ok:
                    for farther in levels[at:]:
                        won[variant, farther] = cert.winner
                    break
                rejected[k, i] = (f"{cert.game} {cert.winner} certificate from "
                                  f"k={cert.k} rejected as {variant} at k={k}: "
                                  f"{replay.reason}")
        rec.failures.extend(rejected[key] for key in sorted(rejected))
    decided = [THIEF] * e + [COPS]
    for variant in VARIANTS:
        least = e if [won.get((variant, k)) for k in range(e + 1)] == decided else None
        setattr(rec, f"{variant}_k", least)
    rec.entanglement = rec.ent_k


def _check_counts(jobs: int, ceiling: int | None) -> None:
    """Refuse a job count or ceiling below 1, as the CLI does."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs!r}")
    if ceiling is not None and ceiling < 1:
        raise ValueError(f"ceiling must be at least 1, not {ceiling!r}")


def _run_tasks(worker, tasks: list, jobs: int) -> list[ReportRecord]:
    # a fork-started pool forks all its workers at the first submit
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


def run_theorem_suite(corpus: CorpusLike, *, translate: bool = False,
                      jobs: int = 1, ceiling: int | None = None) -> VerificationReport:
    _check_counts(jobs, ceiling)
    graphs, label = _resolve(corpus)
    tasks = [(gid, g, translate, ceiling) for gid, g in graphs]
    t0 = time.perf_counter()
    records = _run_tasks(_theorem_worker, tasks, jobs)
    return VerificationReport("theorem", label, records, time.perf_counter() - t0)


def run_equivalence_suite(corpus: CorpusLike, *, jobs: int = 1,
                          ceiling: int | None = None) -> VerificationReport:
    _check_counts(jobs, ceiling)
    graphs, label = _resolve(corpus)
    tasks = [(gid, g, ceiling) for gid, g in graphs]
    t0 = time.perf_counter()
    records = _run_tasks(_equivalence_worker, tasks, jobs)
    return VerificationReport("equivalence", label, records, time.perf_counter() - t0)

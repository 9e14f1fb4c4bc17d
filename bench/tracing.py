"""Per-layer tracing of ``entrank`` from outside the program.

A :class:`Tracer` replaces public functions of the package's modules with
wrappers that record one span per call -- name, start, end, parent span
and the verdict it belongs to -- and replaces a few hot game methods with
wrappers that only count calls.  Every module attribute bound to a
wrapped function is patched, so a name imported into another module
(``harness.rank``, ``translate.scc_decompose``, ...) is traced too.
Spans stay in memory until the run ends; per-layer self times and counts
are derived from them afterwards.

A target that no longer exists in the package is recorded as missing, and
every metric that depends on it is reported as missing instead of
crashing the run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Sequence

# (module, function) pairs traced as spans.  Span names are "module.function".
SPAN_TARGETS = (
    ("digraph", "scc_decompose"),
    ("rank", "rank"),
    ("gamecore", "solve_finite_game"),
    ("gamecore", "verify_certificate"),
    ("gamecore", "certificate_to_json"),
    ("gamecore", "certificate_from_json"),
    ("entgames", "solve_pursuit"),
    ("translate", "translate_rank_strategy"),
    ("muterm", "parse"),
    ("muterm", "term_graph"),
    ("muterm", "analyze"),
    ("harness", "run_equivalence_suite"),
    ("graphio", "parse_graph"),
    ("corpus", "generate_corpus"),
)

# (module, class, method, counter, only inside this span or None).
COUNT_TARGETS = (
    ("rank", "RankShrinkGame", "moves", "rank.positions_expanded", None),
    ("rank", "ComebackGame", "moves", "rank.positions_expanded", None),
    ("entgames", "PursuitGame", "thief_targets", "entgames.positions_expanded",
     "entgames.solve_pursuit"),
    ("entgames", "PursuitGame", "cop_configs", "entgames.positions_expanded",
     "entgames.solve_pursuit"),
    ("entgames", "PursuitGame", "moves", "gamecore.replay_positions",
     "gamecore.verify_certificate"),
)


def self_times(spans: Sequence[tuple[float, float, int]]) -> list[float]:
    """Self time of each ``(start, end, parent_index)`` span.

    A span's self time is its duration minus the part of its interval
    that its child spans cover; children are clipped to the parent's
    interval and overlapping children are counted once.  A parent index
    below 0 marks a root span.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if run_end is None or cs > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = cs, ce
            elif ce > run_end:
                run_end = ce
        if run_end is not None:
            covered += run_end - run_start
        out.append(max(0.0, (end - start) - covered))
    return out


class Tracer:
    """Records spans and counts while installed on the ``entrank`` modules."""

    def __init__(self) -> None:
        # (name, start, end, parent index, verdict)
        self.spans: list[Any] = []
        self.counts: Counter = Counter()  # (counter name, verdict) -> count
        self.missing: set[str] = set()
        self.verdict: Any = None
        self._stack: list[int] = []
        self._open: Counter = Counter()  # span name -> open depth
        self._decomposed: set = set()  # (graph, mask) seen in this verdict
        self._undo: list[tuple[Any, str, Any]] = []

    # -- verdict bookkeeping -------------------------------------------

    def start_verdict(self, verdict: Any) -> None:
        self.verdict = verdict
        self._decomposed.clear()

    # -- installing wrappers -------------------------------------------

    def install(self, modules: dict[str, Any]) -> None:
        """Wrap every target found in ``modules`` (short name -> module)."""
        loaded = [m for name, m in sorted(sys.modules.items())
                  if (name == "entrank" or name.startswith("entrank.")) and m]
        for mod_name, func_name in SPAN_TARGETS:
            name = f"{mod_name}.{func_name}"
            orig = getattr(modules.get(mod_name), func_name, None)
            if not callable(orig):
                self.missing.add(name)
                continue
            wrapper = self._span_wrapper(name, orig)
            for m in loaded:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, attr, wrapper)
        for mod_name, cls_name, meth, counter, within in COUNT_TARGETS:
            cls = getattr(modules.get(mod_name), cls_name, None)
            orig = vars(cls).get(meth) if isinstance(cls, type) else None
            if not callable(orig):
                self.missing.add(f"{mod_name}.{cls_name}.{meth}")
                continue
            self._patch(cls, meth, self._count_wrapper(counter, within, orig))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        spans, stack, opened = self.spans, self._stack, self._open
        clock = time.perf_counter
        is_scc = name == "digraph.scc_decompose"
        is_pursuit = name == "entgames.solve_pursuit"
        is_translate = name == "translate.translate_rank_strategy"

        def traced(*args, **kwargs):
            if is_scc:
                self._note_decompose(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            opened[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                opened[name] -= 1
                stack.pop()
                spans[index] = (name, start, end, parent, self.verdict)
            if is_pursuit:
                self.counts["entgames.cert_moves", self.verdict] += len(
                    result.certificate.moves)
            elif is_translate:
                self.counts["translate.cert_moves", self.verdict] += len(result.moves)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, counter: str, within: str | None, fn: Callable) -> Callable:
        counts, opened = self.counts, self._open

        def counted(*args, **kwargs):
            if within is None or opened[within]:
                counts[counter, self.verdict] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _note_decompose(self, g, mask=None) -> None:
        key = (g, g.full_mask if mask is None else mask)
        if key in self._decomposed:
            self.counts["digraph.scc_decompose.repeats", self.verdict] += 1
        else:
            self._decomposed.add(key)

    # -- reading the record --------------------------------------------

    def self_time_by(self, clock: Callable[[float], float] | None = None
                     ) -> dict[tuple[str, Any], float]:
        """Summed self time per ``(span name, verdict)``, with each span's
        start and end first mapped through ``clock`` if one is given."""
        convert = clock or (lambda t: t)
        selfs = self_times([(convert(s[1]), convert(s[2]), s[3]) for s in self.spans])
        out: dict[tuple[str, Any], float] = defaultdict(float)
        for s, t in zip(self.spans, selfs):
            out[s[0], s[4]] += t
        return out

    def calls_by(self) -> Counter:
        """Number of spans per ``(span name, verdict)``."""
        return Counter((s[0], s[4]) for s in self.spans)

    def write(self, path) -> None:
        """Write every span as one tab-separated line; the verdict column
        is ``pass:input`` or ``setup``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tverdict\n")
            for name, start, end, parent, verdict in self.spans:
                if isinstance(verdict, tuple):
                    verdict = ":".join(map(str, verdict))
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{verdict}\n")

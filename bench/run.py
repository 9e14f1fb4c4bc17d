"""Benchmark of the ``entrank`` exact verifier.

Run from the root of a source checkout:

    python3 bench/run.py --workload rank-scale --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of that checkout, and the naive
reference solvers from ``tests/oracles.py``.  The load comes from this one
process and thread; suites are called with ``jobs=1``.

A run sets the workload up several times (import plus input building) and
reports the median as ``setup_s``.  It then cycles through the workload's
inputs in whole passes, one verdict per input, until ``--seconds`` are
used; ``pass_s`` sums each input's fastest verdict and
``worst_verdict_s`` is the slowest of those.  All times are read off a
clock that a speed probe, timed every 20 ms during the run, scales to a
reference host speed (see ``stats.py``).  With ``--trace 1`` untraced and traced
passes take turns (see ``tracing.py``), and the per-layer metrics are
reported instead.  Answers are checked after the timed passes, on every
run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A checkout
without the package or the reference solvers exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from stats import ReferenceTime, SpeedClock, pass_estimate, per_input_min
from tracing import Tracer
from workloads import LAYERS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_REPS = 15

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "worst_verdict_s": "s",
    "peak_rss_mib": "MiB",
}

# per-layer metric -> (unit, targets it needs; see tracing.py)
PER_LAYER = {
    "digraph.scc_decompose.calls": ("count", ["digraph.scc_decompose"]),
    "digraph.scc_decompose.repeats": ("count", ["digraph.scc_decompose"]),
    "digraph.scc_decompose.self_s": ("s", ["digraph.scc_decompose"]),
    "rank.rank.calls": ("count", ["rank.rank"]),
    "rank.rank.self_s": ("s", ["rank.rank"]),
    "rank.positions_expanded": ("count", ["rank.RankShrinkGame.moves",
                                          "rank.ComebackGame.moves"]),
    "gamecore.solve_finite_game.self_s": ("s", ["gamecore.solve_finite_game"]),
    "entgames.solve_pursuit.calls": ("count", ["entgames.solve_pursuit"]),
    "entgames.solve_pursuit.self_s": ("s", ["entgames.solve_pursuit"]),
    "entgames.positions_expanded": ("count", ["entgames.solve_pursuit",
                                              "entgames.PursuitGame.thief_targets",
                                              "entgames.PursuitGame.cop_configs"]),
    "entgames.cert_moves": ("count", ["entgames.solve_pursuit"]),
    "entgames.useful_ratio": ("ratio", ["entgames.solve_pursuit",
                                        "entgames.PursuitGame.thief_targets",
                                        "entgames.PursuitGame.cop_configs"]),
    "gamecore.verify_certificate.self_s": ("s", ["gamecore.verify_certificate"]),
    "gamecore.replay_positions": ("count", ["gamecore.verify_certificate",
                                            "entgames.PursuitGame.moves"]),
    "gamecore.certificate_json.self_s": ("s", ["gamecore.certificate_to_json",
                                               "gamecore.certificate_from_json"]),
    "gamecore.certificate_json_bytes": ("bytes", ["gamecore.certificate_to_json"]),
    "translate.translate_rank_strategy.self_s": ("s", ["translate.translate_rank_strategy"]),
    "translate.cert_moves": ("count", ["translate.translate_rank_strategy"]),
    "muterm.parse.self_s": ("s", ["muterm.parse"]),
    "muterm.term_graph.self_s": ("s", ["muterm.term_graph"]),
    "muterm.analyze.self_s": ("s", ["muterm.analyze"]),
    "harness.run_equivalence_suite.self_s": ("s", ["harness.run_equivalence_suite"]),
    "harness.report_bytes": ("bytes", ["harness.run_equivalence_suite"]),
    "graphio.parse_graph.self_s": ("s", ["graphio.parse_graph"]),
    "corpus.generate_corpus.self_s": ("s", ["corpus.generate_corpus"]),
    "trace.overhead_s": ("s", []),
}


class CheckoutError(RuntimeError):
    """The checkout lacks the program or its reference solvers."""


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "entrank" / "__init__.py").is_file():
        raise CheckoutError(f"no entrank package under {src}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        raise CheckoutError(f"no reference solvers at {ROOT / 'tests' / 'oracles.py'}")
    sys.path.insert(0, str(src))


def load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fresh_modules() -> dict:
    """Import ``entrank`` anew and return its layer modules by short name."""
    for name in [n for n in sys.modules if n == "entrank" or n.startswith("entrank.")]:
        del sys.modules[name]
    importlib.import_module("entrank")
    return {name: importlib.import_module(f"entrank.{name}") for name in LAYERS}


def set_up(workload, seed: int):
    """``SETUP_REPS`` imports plus input builds; returns the wall-clock
    ``(start, end)`` of each, and the modules and inputs of the last."""
    stamps = []
    for _ in range(SETUP_REPS):
        gc.collect()
        start = time.perf_counter()
        m = fresh_modules()
        items = workload.build(m, seed)
        stamps.append((start, time.perf_counter()))
    if not str(Path(m["rank"].__file__).resolve()).startswith(str(ROOT / "src")):
        raise CheckoutError(f"entrank was imported from {m['rank'].__file__}")
    return stamps, m, items


def durations(ref: ReferenceTime, stamps):
    """Reference seconds of each ``(start, end)`` in rows of stamps."""
    return [[ref.duration(a, b) for a, b in row] for row in stamps]


def run_passes(workload, m, items, budget_s: float, tracer=None,
               pass_base: int = 0, keep_first: bool = True):
    """Whole passes over ``items`` until ``budget_s`` would be exceeded.

    Returns per-pass wall-clock ``(start, end)`` of each verdict,
    per-pass outputs (``None`` for a verdict that raised) and the number
    of verdicts that raised.  Only the first pass keeps whole outputs,
    and only if ``keep_first``; other passes keep the workload's compact
    ``answer`` of each, so that retained outputs do not grow the peak
    memory with the number of passes.  A budget of 0 makes exactly one
    pass.
    """
    stamps, outputs, failed = [], [], 0
    start = time.perf_counter()
    while True:
        p = pass_base + len(stamps)
        row_s, row_o = [], []
        for i, item in enumerate(items):
            gc.collect()
            if tracer is not None:
                tracer.start_verdict((p, i))
            t0 = time.perf_counter()
            try:
                out = workload.verdict(m, item)
            except Exception:  # counted as a failed operation, and shown
                out = None
                failed += 1
                print(f"verdict on {item.label} raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            row_s.append((t0, time.perf_counter()))
            keep = keep_first and not stamps
            row_o.append(out if keep or out is None else workload.answer(out))
        stamps.append(row_s)
        outputs.append(row_o)
        elapsed = time.perf_counter() - start
        if elapsed * (len(stamps) + 1) / len(stamps) > budget_s:
            return stamps, outputs, failed


def per_layer_metrics(tracer: Tracer, items, first_outputs, passes: list[int],
                      ref: ReferenceTime, overhead_s: float) -> dict:
    """Per-layer metrics of the traced ``passes``.

    Self times are in the reference seconds of ``ref``; byte counts come
    from ``first_outputs``, the whole outputs of the first untraced pass;
    ``overhead_s`` is traced minus untraced ``pass_s``.
    """
    selfs = tracer.self_time_by(ref)
    calls = tracer.calls_by()
    counts = tracer.counts
    first = passes[0]

    def self_s(*names):
        # per input, the fastest traced pass; summed over inputs
        return sum(
            min(sum(selfs.get((n, (p, i)), 0.0) for n in names) for p in passes)
            for i in range(len(items))
        )

    def count(source, name):
        return sum(source.get((name, (first, i)), 0) for i in range(len(items)))

    def setup_self_s(name):
        return sum(t for (n, v), t in selfs.items() if n == name and v == "setup")

    expanded = count(counts, "entgames.positions_expanded")
    cert_moves = count(counts, "entgames.cert_moves")
    first_outputs = [o for o in first_outputs if o is not None]
    values = {
        "digraph.scc_decompose.calls": count(calls, "digraph.scc_decompose"),
        "digraph.scc_decompose.repeats": count(counts, "digraph.scc_decompose.repeats"),
        "digraph.scc_decompose.self_s": self_s("digraph.scc_decompose"),
        "rank.rank.calls": count(calls, "rank.rank"),
        "rank.rank.self_s": self_s("rank.rank"),
        "rank.positions_expanded": count(counts, "rank.positions_expanded"),
        "gamecore.solve_finite_game.self_s": self_s("gamecore.solve_finite_game"),
        "entgames.solve_pursuit.calls": count(calls, "entgames.solve_pursuit"),
        "entgames.solve_pursuit.self_s": self_s("entgames.solve_pursuit"),
        "entgames.positions_expanded": expanded,
        "entgames.cert_moves": cert_moves,
        "entgames.useful_ratio": cert_moves / expanded if expanded else None,
        "gamecore.verify_certificate.self_s": self_s("gamecore.verify_certificate"),
        "gamecore.replay_positions": count(counts, "gamecore.replay_positions"),
        "gamecore.certificate_json.self_s": self_s("gamecore.certificate_to_json",
                                                   "gamecore.certificate_from_json"),
        "gamecore.certificate_json_bytes": sum(
            len(o.certificate_json) for o in first_outputs if hasattr(o, "certificate_json")),
        "translate.translate_rank_strategy.self_s": self_s("translate.translate_rank_strategy"),
        "translate.cert_moves": count(counts, "translate.cert_moves"),
        "muterm.parse.self_s": self_s("muterm.parse"),
        "muterm.term_graph.self_s": self_s("muterm.term_graph"),
        "muterm.analyze.self_s": self_s("muterm.analyze"),
        "harness.run_equivalence_suite.self_s": self_s("harness.run_equivalence_suite"),
        "harness.report_bytes": sum(len(o) for o in first_outputs if isinstance(o, str)),
        "graphio.parse_graph.self_s": setup_self_s("graphio.parse_graph"),
        "corpus.generate_corpus.self_s": setup_self_s("corpus.generate_corpus"),
        "trace.overhead_s": overhead_s,
    }
    metrics = {}
    for name, (unit, needs) in PER_LAYER.items():
        value = values[name]
        if value is None or any(t in tracer.missing for t in needs):
            metrics[name] = {"value": None, "unit": unit, "missing": True}
        else:
            metrics[name] = {"value": value, "unit": unit}
    return metrics


def traced_run(workload, m, items, args):
    """Untraced and traced passes in turn, for ``args.seconds`` in all.

    Taking turns lets both kinds of pass see the same stretches of host
    speed, so that their difference, ``trace.overhead_s``, is the cost
    of tracing.  Returns the untraced and the traced verdict stamps, the
    outputs of all passes, the number of verdicts that raised, the
    tracer and the numbers of the traced passes.
    """
    tracer = Tracer()
    stamps, t_stamps, outputs, failed, traced = [], [], [], 0, []
    traced_items = None
    start = time.perf_counter()
    while True:
        u_stamps, u_outputs, u_failed = run_passes(
            workload, m, items, 0, pass_base=len(outputs), keep_first=not outputs)
        traced.append(len(outputs) + 1)
        tracer.install(m)
        try:
            if traced_items is None:
                tracer.start_verdict("setup")
                traced_items = workload.build(m, args.seed)
            v_stamps, v_outputs, v_failed = run_passes(
                workload, m, traced_items, 0, tracer, pass_base=traced[-1], keep_first=False)
        finally:
            tracer.uninstall()
        stamps += u_stamps
        t_stamps += v_stamps
        outputs += u_outputs + v_outputs
        failed += u_failed + v_failed
        elapsed = time.perf_counter() - start
        if elapsed * (len(traced) + 1) / len(traced) > args.seconds:
            return stamps, t_stamps, outputs, failed, tracer, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    clock = SpeedClock(capacity_s=3 * args.seconds + 300)
    clock.start()
    try:
        import_program()
        setup_stamps, m, items = set_up(workload, args.seed)
        if args.trace:
            stamps, t_stamps, outputs, failed, tracer, traced = traced_run(
                workload, m, items, args)
        else:
            stamps, outputs, failed = run_passes(workload, m, items, args.seconds)
    except CheckoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        ref = clock.stop()
    setup_s = statistics.median(durations(ref, [setup_stamps])[0])
    times = durations(ref, stamps)
    pass_s, worst_s = pass_estimate(times)

    if args.trace:
        overhead_s = pass_estimate(durations(ref, t_stamps))[0] - pass_s
        metrics = per_layer_metrics(tracer, items, outputs[0], traced, ref, overhead_s)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}.tsv")
        if tracer.missing:
            print(f"bench: missing trace targets {sorted(tracer.missing)}", file=sys.stderr)
    else:
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in (("setup_s", setup_s), ("pass_s", pass_s),
                                ("worst_verdict_s", worst_s), ("peak_rss_mib", peak_rss_mib))
        }
    attempted = len(outputs) * len(items)

    failures = workload.check(m, load_oracles(), items, outputs, args.seed)
    for line in failures:
        print(f"bench: check failed: {line}", file=sys.stderr)
    raw = per_input_min([[b - a for a, b in row] for row in stamps])
    for item, t, raw_t in zip(items, per_input_min(times), raw):
        print(f"{item.label}\t{t:.4f} s\traw {raw_t:.4f} s", file=sys.stderr)
    print(f"untraced passes {len(times)}, raw pass {sum(raw):.4f} s, "
          f"probe median {(ref.probe_median_s or 0) * 1e3:.4f} ms", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands::

    measure <graph-file> [--rank] [--ent] [--all]
    game {rank|ent} <graph-file> -k K [--variant ...] [--cert out.json]
    verify {theorem|equiv} (--corpus SPEC | files ...) [--json [PATH]]
    gen (--corpus SPEC | corpus flags) -o DIR
    muterm analyze <term-file>
    translate <graph-file> [-k K] [--cert out.json]
    replay <graph-file> <cert.json>

Exit status: 0 when the requested work succeeded with zero violations,
1 when a verification suite or translation reported violations or a
replayed certificate was rejected, 2 on operational errors (unreadable
files, malformed certificates, solver ceilings, bad arguments).

``verify --json -`` (or bare ``--json``) writes the report JSON to
stdout and moves the human-readable summary to stderr, so that piped
output is exactly the deterministic report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .corpus import FAMILIES, CorpusSpec, generate_corpus
from .entgames import VARIANTS, entanglement
from .gamecore import (
    COPS,
    GAMES,
    ArenaCeilingError,
    GameResult,
    certificate_from_json,
    certificate_to_json,
    make_game,
    verify_certificate,
)
from .graphio import GraphFormatError, load_graph, save_edge_list
from .harness import VerificationReport, run_equivalence_suite, run_theorem_suite
from .muterm import ParseError, analyze, parse as parse_term
from .rank import RankDepthError, rank, solve_comeback_game
from .translate import TranslationError, translate_rank_strategy

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2


def _load(path: str):
    try:
        return load_graph(path)
    except (OSError, GraphFormatError) as exc:
        raise SystemExit(f"error: cannot load graph {path!r}: {exc}")


def _check_writable(path: str | None, what: str) -> None:
    """Exit before the work if ``path`` cannot be written, leaving any file as it was."""
    if path:
        existed = os.path.exists(path)  # follows a symlink to its target
        try:
            open(path, "a").close()
        except OSError as exc:
            raise SystemExit(f"error: cannot write {what} {path!r}: {exc}")
        if not existed:
            # the probe made the file: ``path``, or the target of a dangling link
            os.remove(os.path.realpath(path))


def _write(path: str, text: str, what: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise SystemExit(f"error: cannot write {what} {path!r}: {exc}")


def _write_certificate(path: str, result: GameResult) -> None:
    text = json.dumps(certificate_to_json(result.certificate), indent=2) + "\n"
    _write(path, text, "certificate")


def cmd_measure(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    want_rank = args.rank or args.all or not (args.rank or args.ent)
    want_ent = args.ent or args.all or not (args.rank or args.ent)
    try:
        if want_rank:
            print(f"rank: {rank(g)}")
        if want_ent:
            print(f"entanglement: {entanglement(g)}")
    except (ArenaCeilingError, RankDepthError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


_GAME_VARIANTS = {"rank": ("shrink", "comeback"), "ent": VARIANTS}


def cmd_game(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    variant = args.variant or _GAME_VARIANTS[args.game][0]
    if variant not in _GAME_VARIANTS[args.game]:
        print(
            f"error: variant {variant!r} does not belong to game {args.game!r} "
            f"(choose from {', '.join(_GAME_VARIANTS[args.game])})",
            file=sys.stderr,
        )
        return EXIT_ERROR
    _check_writable(args.cert, "certificate")
    try:
        # the CLI's ``shrink`` variant is the game id ``rank``
        result = GAMES["rank" if variant == "shrink" else variant].solve(g, args.k)
    except (ArenaCeilingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"game: {variant}  k: {args.k}  winner: {result.winner}")
    if args.cert:
        _write_certificate(args.cert, result)
        print(f"certificate written to {args.cert}")
    return EXIT_OK


def _verify_corpus(args: argparse.Namespace):
    if args.corpus:
        if args.files:
            raise SystemExit("error: give either --corpus or graph files, not both")
        try:
            return CorpusSpec.parse(args.corpus)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    if not args.files:
        raise SystemExit("error: need --corpus SPEC or at least one graph file")
    return [(Path(f).name, _load(f)) for f in args.files]


def cmd_verify(args: argparse.Namespace) -> int:
    corpus = _verify_corpus(args)
    if args.json != "-":
        _check_writable(args.json, "report")
    if args.suite == "theorem":
        report = run_theorem_suite(
            corpus, translate=args.translate, jobs=args.jobs, ceiling=args.ceiling
        )
    else:
        report = run_equivalence_suite(corpus, jobs=args.jobs, ceiling=args.ceiling)
    human_out = sys.stdout
    if args.json is not None:
        text = report.to_json()
        if args.json == "-":
            human_out = sys.stderr
            sys.stdout.write(text)
        else:
            _write(args.json, text, "report")
    for rec in report.records:
        for msg in rec.failures:
            print(f"FAIL {rec.graph_id}: {msg}", file=human_out)
        for msg in rec.skips:
            print(f"skip {rec.graph_id}: {msg}", file=human_out)
    print(report.summary_line(), file=human_out)
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def cmd_gen(args: argparse.Namespace) -> int:
    if args.corpus:
        try:
            spec = CorpusSpec.parse(args.corpus)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    elif args.family:
        spec = CorpusSpec(mode="family", name=args.family, size=args.size)
    else:
        spec = CorpusSpec(
            mode="random", n=args.n, p=args.p, seed=args.seed, count=args.count
        )
    try:
        spec.validate()
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    out = Path(args.output)
    try:
        out.mkdir(parents=True, exist_ok=True)
        graphs = generate_corpus(spec)
        for index, (graph_id, g) in enumerate(graphs):
            save_edge_list(g, out / f"{index:04d}-{graph_id}.edges", comment=graph_id)
    except OSError as exc:
        raise SystemExit(f"error: cannot write corpus to {args.output!r}: {exc}")
    print(f"wrote {len(graphs)} graphs from {spec.canonical} to {out}")
    return EXIT_OK


def cmd_muterm(args: argparse.Namespace) -> int:
    try:
        text = Path(args.term).read_text()
    except OSError as exc:
        print(f"error: cannot read {args.term!r}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        term = parse_term(text)
    except ParseError as exc:
        print(f"error: cannot parse {args.term!r}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        measures = analyze(term)
    except (ArenaCeilingError, RankDepthError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(json.dumps(measures, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_translate(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    _check_writable(args.cert, "certificate")
    try:
        k = args.k if args.k is not None else rank(g)
        # the translated pursuit game has at most one cop per vertex
        if not 0 <= k <= g.n:
            raise ValueError(f"budget k={k} must satisfy 0 <= k <= {g.n}, the vertex count")
        res = solve_comeback_game(g, k)
    except (ArenaCeilingError, RankDepthError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if res.winner != COPS:
        print(f"thief wins the comeback game at k={k}; nothing to translate")
        return EXIT_VIOLATIONS
    try:
        cert = translate_rank_strategy(g, res.certificate)
    except TranslationError as exc:
        print(f"FAIL translation at k={k}: {exc}")
        return EXIT_VIOLATIONS
    replay = verify_certificate(g, "entv", k, cert)
    if not replay.ok:
        print(f"FAIL translated certificate rejected at k={k}: {replay.reason}")
        return EXIT_VIOLATIONS
    print(
        f"comeback certificate at k={k} translated to a virtual-cop pursuit "
        f"certificate ({len(cert.moves)} cop decisions); replay verification passed"
    )
    if args.cert:
        _write_certificate(args.cert, GameResult(COPS, cert))
        print(f"certificate written to {args.cert}")
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    try:
        text = Path(args.cert).read_text()
    except OSError as exc:
        print(f"error: cannot read {args.cert!r}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        cert = certificate_from_json(json.loads(text))
        # the game id and k come from the file; the game checks them
        make_game(g, cert.game, cert.k)
    except (ValueError, RecursionError) as exc:
        print(f"error: bad certificate {args.cert!r}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        report = verify_certificate(g, cert.game, cert.k, cert)
    except ArenaCeilingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if not report.ok:
        print(f"rejected: {report.reason}")
        return EXIT_VIOLATIONS
    print("ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrank",
        description="Exact solvers for digraph rank and entanglement, "
        "their pursuit games, and mu-term star height.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="compute rank and/or entanglement of a graph")
    p.add_argument("graph", help="edge-list or DOT file")
    p.add_argument("--rank", action="store_true", help="print the rank")
    p.add_argument("--ent", action="store_true", help="print the entanglement")
    p.add_argument("--all", action="store_true", help="print both (default)")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("game", help="solve one game instance at a fixed k")
    p.add_argument("game", choices=("rank", "ent"))
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True, help="cop / deletion budget")
    p.add_argument(
        "--variant",
        help="rank: shrink (default) or comeback; ent: ent (default), et or entv",
    )
    p.add_argument("--cert", metavar="OUT.json", help="write the strategy certificate")
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("verify", help="run a verification suite over a corpus")
    p.add_argument("suite", choices=("theorem", "equiv"))
    p.add_argument("files", nargs="*", help="graph files (alternative to --corpus)")
    p.add_argument("--corpus", help='e.g. "random:n=6,p=0.3,seed=42,count=100"')
    p.add_argument(
        "--json",
        nargs="?",
        const="-",
        metavar="PATH",
        help="write the JSON report (to stdout if no PATH)",
    )
    p.add_argument(
        "--translate",
        action="store_true",
        help="theorem suite: also translate and replay strategy certificates",
    )
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument(
        "--ceiling",
        type=int,
        default=None,
        help="cap on each game arena's positions and on the rank memo's entries",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="write a corpus to a directory of edge-list files")
    p.add_argument("--corpus", help="full corpus spec string")
    p.add_argument("--family", choices=sorted(FAMILIES), help="family corpus")
    p.add_argument("--size", type=int, default=4, help="family size")
    p.add_argument("--n", type=int, default=5, help="random: vertex count")
    p.add_argument("--p", type=float, default=0.3, help="random: edge probability")
    p.add_argument("--seed", type=int, default=0, help="random: seed")
    p.add_argument("--count", type=int, default=10, help="random: number of graphs")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("muterm", help="mu-term front end")
    msub = p.add_subparsers(dest="muterm_command", required=True)
    m = msub.add_parser("analyze", help="star height and term-graph measures")
    m.add_argument("term", help="file containing one term")
    m.set_defaults(func=cmd_muterm)

    p = sub.add_parser(
        "translate",
        help="solve the comeback game, translate the cops strategy to the "
        "virtual-cop pursuit game, and replay-verify it",
    )
    p.add_argument("graph")
    p.add_argument("-k", type=int, default=None, help="budget (default: rank of the graph)")
    p.add_argument("--cert", metavar="OUT.json", help="write the translated certificate")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser(
        "replay",
        help="replay a certificate file against every opponent move; "
        "its game id and k are read from the file",
    )
    p.add_argument("graph")
    p.add_argument("cert", metavar="CERT.json", help="certificate written by game or translate")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:  # our error messages carry a string code
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_ERROR
        raise


if __name__ == "__main__":
    sys.exit(main())

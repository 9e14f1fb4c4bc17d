"""Command-line interface.

Subcommands::

    measure <graph-file> [--rank] [--ent] [--all] [--ceiling N]
    game {rank|ent} <graph-file> -k K [--variant ...] [--cert out.json] [--ceiling N]
    verify {theorem|equiv} (--corpus SPEC | files ...) [--json [PATH]] [--ceiling N]
    gen (--corpus SPEC | corpus flags) -o DIR
    muterm analyze <term-file> [--ceiling N]
    translate <graph-file> [-k K] [--cert out.json] [--ceiling N]
    replay <graph-file> <cert.json> [--ceiling N]

Exit status: 0 when the requested work succeeded with zero violations,
1 when a verification suite or translation reported violations or a
replayed certificate was rejected, 2 on operational errors (unreadable
files, an input file that is not UTF-8 text, malformed certificates,
solver ceilings, bad arguments).

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
    ArenaCeilingError,
    StrategyCertificate,
    certificate_from_json,
    certificate_to_json,
    make_game,
    solve_finite_game,
    verify_certificate,
)
from .graphio import GraphFormatError, parse_graph, save_edge_list
from .harness import VerificationReport, run_equivalence_suite, run_theorem_suite
from .muterm import ParseError, analyze, parse as parse_term
from .rank import RankDepthError, rank, solve_comeback_game
from .translate import TranslationError, translate_rank_strategy

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2


def _read(path: str, what: str) -> str:
    """The UTF-8 text of input file ``path``; unreadable, it exits with
    ``error: cannot {what} {path!r}: …``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(f"error: cannot {what} {path!r}: {exc}")


def _load(path: str):
    text = _read(path, "load graph")
    try:
        return parse_graph(text)
    except GraphFormatError as exc:
        raise SystemExit(f"error: cannot load graph {path!r}: {exc}")
    except MemoryError:  # a vertex count too large to hold
        raise SystemExit(f"error: cannot load graph {path!r}: out of memory") from None


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


def _write_certificate(path: str, cert: StrategyCertificate) -> None:
    text = json.dumps(certificate_to_json(cert), indent=2) + "\n"
    _write(path, text, "certificate")


def cmd_measure(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    want_rank = args.rank or args.all or not (args.rank or args.ent)
    want_ent = args.ent or args.all or not (args.rank or args.ent)
    if want_rank:
        print(f"rank: {rank(g, args.ceiling)}")
    if want_ent:
        print(f"entanglement: {entanglement(g, args.ceiling)}")
    return EXIT_OK


_GAME_VARIANTS = {"rank": ("shrink", "comeback"), "ent": VARIANTS}


def cmd_game(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    variant = args.variant or _GAME_VARIANTS[args.game][0]
    if variant not in _GAME_VARIANTS[args.game]:
        raise SystemExit(
            f"error: variant {variant!r} does not belong to game {args.game!r} "
            f"(choose from {', '.join(_GAME_VARIANTS[args.game])})"
        )
    _check_writable(args.cert, "certificate")
    try:
        # the CLI's ``shrink`` variant is the game id ``rank``
        game = make_game(g, "rank" if variant == "shrink" else variant, args.k)
        result = solve_finite_game(game, args.ceiling)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print(f"game: {variant}  k: {args.k}  winner: {result.winner}")
    if args.cert:
        _write_certificate(args.cert, result.certificate)
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
    try:
        if args.corpus:
            spec = CorpusSpec.parse(args.corpus)
        elif args.family:
            spec = CorpusSpec(mode="family", name=args.family, size=args.size)
        else:
            spec = CorpusSpec(
                mode="random", n=args.n, p=args.p, seed=args.seed, count=args.count
            )
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
    text = _read(args.term, "read")
    try:
        term = parse_term(text)
    except ParseError as exc:
        raise SystemExit(f"error: cannot parse {args.term!r}: {exc}")
    print(json.dumps(analyze(term, ceiling=args.ceiling), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_translate(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    _check_writable(args.cert, "certificate")
    try:
        k = args.k if args.k is not None else rank(g, args.ceiling)
        # the translated pursuit game has at most one cop per vertex
        if not 0 <= k <= g.n:
            raise ValueError(f"budget k={k} must satisfy 0 <= k <= {g.n}, the vertex count")
        res = solve_comeback_game(g, k, args.ceiling)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if res.winner != COPS:
        print(f"thief wins the comeback game at k={k}; nothing to translate")
        return EXIT_VIOLATIONS
    step = "translation"
    try:
        cert = translate_rank_strategy(g, res.certificate, args.ceiling)
        step = "replay of the translated certificate"
        replay = verify_certificate(g, "entv", k, cert, args.ceiling)
    except ArenaCeilingError as exc:
        raise SystemExit(f"error: {step} at k={k} exceeded the position ceiling of {exc.limit}")
    except TranslationError as exc:
        print(f"FAIL translation at k={k}: {exc}")
        return EXIT_VIOLATIONS
    if not replay.ok:
        print(f"FAIL translated certificate rejected at k={k}: {replay.reason}")
        return EXIT_VIOLATIONS
    print(
        f"comeback certificate at k={k} translated to a virtual-cop pursuit "
        f"certificate ({len(cert.moves)} cop decisions); replay verification passed"
    )
    if args.cert:
        _write_certificate(args.cert, cert)
        print(f"certificate written to {args.cert}")
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    text = _read(args.cert, "read")
    try:
        cert = certificate_from_json(json.loads(text))
        # the game id and k come from the file; the game checks them
        make_game(g, cert.game, cert.k)
    except (ValueError, RecursionError) as exc:
        raise SystemExit(f"error: bad certificate {args.cert!r}: {exc}")
    report = verify_certificate(g, cert.game, cert.k, cert, args.ceiling)
    if not report.ok:
        print(f"rejected: {report.reason}")
        return EXIT_VIOLATIONS
    print("ok")
    return EXIT_OK


def _at_least_one(text: str) -> int:
    """An integer flag value of 1 or more; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_ceiling(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--ceiling",
        type=_at_least_one,
        default=None,
        help="cap on the positions of each solve, replay and translation, "
        "and on the rank memo's entries",
    )


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
    _add_ceiling(p)
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
    _add_ceiling(p)
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
    p.add_argument("--jobs", type=_at_least_one, default=1, help="parallel worker processes")
    _add_ceiling(p)
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
    _add_ceiling(m)
    m.set_defaults(func=cmd_muterm)

    p = sub.add_parser(
        "translate",
        help="solve the comeback game, translate the cops strategy to the "
        "virtual-cop pursuit game, and replay-verify it",
    )
    p.add_argument("graph")
    p.add_argument("-k", type=int, default=None, help="budget (default: rank of the graph)")
    p.add_argument("--cert", metavar="OUT.json", help="write the translated certificate")
    _add_ceiling(p)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser(
        "replay",
        help="replay a certificate file against every opponent move; "
        "its game id and k are read from the file",
    )
    p.add_argument("graph")
    p.add_argument("cert", metavar="CERT.json", help="certificate written by game or translate")
    _add_ceiling(p)
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ArenaCeilingError, RankDepthError) as exc:  # resource stops, in any command
        message = f"error: {exc}"
    except SystemExit as exc:  # our error messages carry a string code
        if not isinstance(exc.code, str):
            raise
        message = exc.code
    print(message, file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands::

    measure <graph-file> [--rank] [--ent] [--ceiling N]
    game ID <graph-file> -k K [--cert out.json] [--ceiling N]
    verify {theorem|equiv} (--corpus SPEC | files ...) [--json [PATH]] [--jobs N] [--ceiling N]
    verify theorem ... [--translate]
    gen --corpus SPEC -o DIR
    muterm analyze <term-file> [--ceiling N]
    translate <graph-file> [-k K] [--cert out.json] [--ceiling N]
    replay <graph-file> <cert.json> [--ceiling N]

``ID`` is a game id of ``gamecore.GAMES`` (``rank``, ``comeback``,
``ent``, ``et``, ``entv``), the id a certificate records.

Exit status: 0 when the requested work succeeded with zero violations,
1 when a verification suite or translation reported violations or a
replayed certificate was rejected, 2 on operational errors (unreadable
files, an input file that is not UTF-8 text, malformed certificates,
solver ceilings, bad arguments).  Output cut short by a reader that
closes stdout early (``| head -1``) ends quietly: with the command's own
status when it had finished, else 0.

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

from .corpus import CorpusSpec, generate_corpus
from .entgames import entanglement
from .gamecore import (
    GAMES,
    ArenaCeilingError,
    StrategyCertificate,
    certificate_from_json,
    certificate_to_json,
    make_game,
    solve_finite_game,
    verify_certificate,
)
from .graphio import GraphFormatError, parse_graph, save_edge_list
from .harness import (
    ReportRecord,
    run_equivalence_suite,
    run_theorem_suite,
    translate_and_verify,
)
from .muterm import ParseError, analyze, parse as parse_term
from .rank import RankDepthError, rank

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
    both = not (args.rank or args.ent)
    if args.rank or both:
        print(f"rank: {rank(g, args.ceiling)}")
    if args.ent or both:
        print(f"entanglement: {entanglement(g, args.ceiling)}")
    return EXIT_OK


def cmd_game(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    _check_writable(args.cert, "certificate")
    try:
        result = solve_finite_game(make_game(g, args.game, args.k), args.ceiling)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print(f"game: {args.game}  k: {args.k}  winner: {result.winner}")
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
    if args.translate and args.suite != "theorem":
        raise SystemExit("error: --translate applies only to verify theorem")
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
        spec = CorpusSpec.parse(args.corpus)
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
    k = args.k if args.k is not None else rank(g, args.ceiling)
    # the translated pursuit game has at most one cop per vertex
    if not 0 <= k <= g.n:
        raise SystemExit(f"error: budget k={k} must satisfy 0 <= k <= {g.n}, the vertex count")
    rec = ReportRecord(args.graph, g.n, [])
    cert = translate_and_verify(g, k, rec, args.ceiling)
    if rec.skips:
        raise SystemExit(f"error: {rec.skips[0]}")
    if cert is None:
        print(f"FAIL {rec.failures[0]}")
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

    p = sub.add_parser(
        "measure", help="compute rank and/or entanglement of a graph (both by default)"
    )
    p.add_argument("graph", help="edge-list or DOT file")
    p.add_argument("--rank", action="store_true", help="print the rank")
    p.add_argument("--ent", action="store_true", help="print the entanglement")
    _add_ceiling(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("game", help="solve one game instance at a fixed k")
    p.add_argument("game", choices=GAMES, help="game id, as in a certificate's \"game\" field")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True, help="cop / deletion budget")
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
        help="theorem suite only: also translate and replay strategy certificates",
    )
    p.add_argument("--jobs", type=_at_least_one, default=1, help="parallel worker processes")
    _add_ceiling(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="write a corpus to a directory of edge-list files")
    p.add_argument(
        "--corpus", required=True, help='e.g. "random:n=6,p=0.3,seed=42,count=100"'
    )
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
    code = EXIT_OK  # kept when only the output was cut short
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early (``| head -1``): the rest of the output,
        # and the flush at exit, go to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return code
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

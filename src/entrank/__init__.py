"""Exact solvers for two digraph complexity measures.

*Rank* is the recursive feedback measure behind star height of
μ-terms; *entanglement* is the cop count of a robber-pursuit game.
The package solves both exactly (the rank recursion, two shrinking
games, three pursuit-game variants), translates winning cop strategies
between the games, and verifies ``entanglement(G) <= rank(G)``
empirically over reproducible corpora.

Everything is exponential-time by nature and tuned for graphs of desk
scale (a handful of vertices); every walk that stores game positions
(solve, replay, translation) counts them against a ceiling and raises
:class:`~entrank.gamecore.ArenaCeilingError` rather than grind unbounded.
"""

from .corpus import CorpusSpec, FAMILIES, family_graph, generate_corpus
from .digraph import Digraph, scc_decompose
from .entgames import PursuitGame, entanglement, solve_pursuit
from .gamecore import (
    COPS,
    THIEF,
    ArenaCeilingError,
    GameResult,
    ReplayReport,
    StrategyCertificate,
    certificate_from_json,
    certificate_to_json,
    least_winning_k,
    make_game,
    solve_finite_game,
    verify_certificate,
)
from .graphio import GraphFormatError, load_graph, parse_graph, save_edge_list
from .harness import (
    ReportRecord,
    VerificationReport,
    run_equivalence_suite,
    run_theorem_suite,
)
from .muterm import (
    Mu,
    Nu,
    Op,
    ParseError,
    Subst,
    Var,
    alpha_eq,
    analyze,
    format_term,
    free_vars,
    parse,
    star_height,
    substitute,
    term_graph,
)
from .rank import (
    ComebackGame,
    RankCeilingError,
    RankDepthError,
    RankShrinkGame,
    rank,
    solve_comeback_game,
)
from .translate import TranslationError, translate_rank_strategy

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graphs
    "Digraph",
    "scc_decompose",
    "GraphFormatError",
    "load_graph",
    "parse_graph",
    "save_edge_list",
    # rank and its games
    "rank",
    "RankDepthError",
    "RankCeilingError",
    "RankShrinkGame",
    "ComebackGame",
    "solve_comeback_game",
    # pursuit games
    "PursuitGame",
    "solve_pursuit",
    "entanglement",
    # game plumbing
    "COPS",
    "THIEF",
    "GameResult",
    "StrategyCertificate",
    "ReplayReport",
    "ArenaCeilingError",
    "make_game",
    "least_winning_k",
    "solve_finite_game",
    "verify_certificate",
    "certificate_to_json",
    "certificate_from_json",
    # strategy translation
    "TranslationError",
    "translate_rank_strategy",
    # mu-terms
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
    "alpha_eq",
    "star_height",
    "term_graph",
    "analyze",
    # corpora and suites
    "CorpusSpec",
    "FAMILIES",
    "family_graph",
    "generate_corpus",
    "ReportRecord",
    "VerificationReport",
    "run_theorem_suite",
    "run_equivalence_suite",
]

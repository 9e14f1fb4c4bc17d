"""Reading and writing digraphs.

Two text formats are accepted:

* edge list -- first meaningful line is the vertex count ``n``, each
  further line is one ``u v`` pair (0-based, whitespace separated).
  Blank lines and lines starting with ``#`` are ignored.
* a minimal DOT subset -- ``digraph [name] { 0 -> 1; 1 -> 2 -> 0; 3; }``
  with integer node names only.  Chains are allowed, semicolons are
  optional, ``//`` and ``#`` line comments are ignored.  The vertex
  count is inferred as ``max mentioned id + 1`` (0 for an empty body).

``load_graph``/``parse_graph`` sniff the format: input whose first line
that is not blank or a ``#`` or ``//`` comment starts with ``digraph``
is parsed as DOT, anything else as an edge list.
"""

from __future__ import annotations

import re
from pathlib import Path

from .digraph import Digraph

__all__ = [
    "GraphFormatError",
    "parse_edge_list",
    "parse_dot",
    "parse_graph",
    "load_graph",
    "format_edge_list",
    "save_edge_list",
]


class GraphFormatError(ValueError):
    """Raised when a graph file cannot be parsed."""


def _meaningful_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


def parse_edge_list(text: str) -> Digraph:
    lines = _meaningful_lines(text)
    if not lines:
        raise GraphFormatError("empty edge list: expected a vertex count line")
    lineno, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise GraphFormatError(
            f"line {lineno}: expected the vertex count, got {head!r}"
        ) from None
    if n < 0:
        raise GraphFormatError(f"line {lineno}: negative vertex count {n}")
    edges = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(
                f"line {lineno}: expected 'u v', got {line!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"line {lineno}: non-integer endpoint in {line!r}"
            ) from None
        edges.append((u, v))
    try:
        return Digraph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


_DOT_TOKEN = re.compile(r"\s*(digraph\b|->|[{};]|\d+|[A-Za-z_][A-Za-z0-9_]*)")


def _dot_tokens(text: str) -> list[str]:
    # strip // and # comments first
    cleaned = []
    for raw in text.splitlines():
        line = raw.split("//", 1)[0].split("#", 1)[0]
        cleaned.append(line)
    text = "\n".join(cleaned)
    tokens = []
    pos = 0
    while pos < len(text):
        m = _DOT_TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise GraphFormatError(f"unexpected DOT input near {rest[:20]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_dot(text: str) -> Digraph:
    toks = _dot_tokens(text)
    if not toks or toks[0] != "digraph":
        raise GraphFormatError("DOT input must start with 'digraph'")
    i = 1
    if i < len(toks) and (toks[i].isdigit() or toks[i].isidentifier()):
        i += 1  # optional graph name
    if i >= len(toks) or toks[i] != "{":
        raise GraphFormatError("expected '{' after 'digraph'")
    i += 1
    edges: set[tuple[int, int]] = set()
    mentioned: set[int] = set()

    def node(tok: str) -> int:
        if not tok.isdigit():
            raise GraphFormatError(f"only integer node names are supported, got {tok!r}")
        return int(tok)

    while i < len(toks) and toks[i] != "}":
        if toks[i] == ";":
            i += 1
            continue
        u = node(toks[i])
        mentioned.add(u)
        i += 1
        while i < len(toks) and toks[i] == "->":
            i += 1
            if i >= len(toks):
                raise GraphFormatError("dangling '->' at end of input")
            v = node(toks[i])
            mentioned.add(v)
            if (u, v) not in edges:
                edges.add((u, v))
            u = v
            i += 1
    if i >= len(toks) or toks[i] != "}":
        raise GraphFormatError("unterminated DOT body: missing '}'")
    if i + 1 < len(toks):
        raise GraphFormatError(f"unexpected DOT input after '}}': {toks[i + 1]!r}")
    n = max(mentioned) + 1 if mentioned else 0
    return Digraph(n, sorted(edges))


def parse_graph(text: str) -> Digraph:
    lines = (line for _, line in _meaningful_lines(text) if not line.startswith("//"))
    if next(lines, "").startswith("digraph"):
        return parse_dot(text)
    return parse_edge_list(text)


def load_graph(path: str | Path) -> Digraph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def format_edge_list(g: Digraph, comment: str | None = None) -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    lines.append(str(g.n))
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def save_edge_list(g: Digraph, path: str | Path, comment: str | None = None) -> None:
    Path(path).write_text(format_edge_list(g, comment), encoding="utf-8")

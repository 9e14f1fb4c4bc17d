"""Graph parsing and serialization."""

import random

import pytest

from entrank.digraph import Digraph
from entrank.graphio import (
    GraphFormatError,
    format_edge_list,
    load_graph,
    parse_dot,
    parse_edge_list,
    parse_graph,
    save_edge_list,
)

from conftest import random_edges, run_python


def test_edge_list_basic():
    g = parse_edge_list("3\n0 1\n1 2\n")
    assert g.n == 3
    assert sorted(g.edges) == [(0, 1), (1, 2)]


def test_edge_list_comments_and_blanks():
    text = "# a comment\n\n  4\n# another\n0 1\n\n2 3\n"
    g = parse_edge_list(text)
    assert g.n == 4
    assert sorted(g.edges) == [(0, 1), (2, 3)]


def test_edge_list_empty_graph():
    assert parse_edge_list("0\n").n == 0
    assert parse_edge_list("5\n").edge_count() == 0


def test_edge_list_errors():
    with pytest.raises(GraphFormatError):
        parse_edge_list("")  # no vertex count at all
    with pytest.raises(GraphFormatError):
        parse_edge_list("x\n0 1\n")  # non-integer count
    with pytest.raises(GraphFormatError):
        parse_edge_list("-1\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("3\n0 1 2\n")  # three fields
    with pytest.raises(GraphFormatError):
        parse_edge_list("3\n0 b\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("2\n0 5\n")  # endpoint out of range
    with pytest.raises(GraphFormatError):
        parse_edge_list("2\n0 1\n0 1\n")  # parallel edge


def test_edge_list_error_mentions_line_number():
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_edge_list("# hi\n3\n0 1 2\n")


def test_dot_basic():
    g = parse_dot("digraph { 0 -> 1; 1 -> 2; }")
    assert g.n == 3
    assert sorted(g.edges) == [(0, 1), (1, 2)]
    # the optional graph name is an identifier or a numeral
    for header in ("digraph g {", "digraph 7 {"):
        assert sorted(parse_dot(header + " 0 -> 1; 1 -> 2; }").edges) == [(0, 1), (1, 2)]


def test_dot_chains_names_comments():
    text = """\
digraph demo {
    // a chain expands to consecutive edges
    0 -> 1 -> 2 -> 0
    # isolated node bumps the vertex count
    5;
}
"""
    g = parse_dot(text)
    assert g.n == 6  # max mentioned id + 1
    assert sorted(g.edges) == [(0, 1), (1, 2), (2, 0)]


def test_dot_duplicate_edges_collapse():
    g = parse_dot("digraph { 0 -> 1; 0 -> 1; }")
    assert sorted(g.edges) == [(0, 1)]


def test_dot_empty_body():
    g = parse_dot("digraph {}")
    assert g.n == 0


def test_dot_errors():
    with pytest.raises(GraphFormatError):
        parse_dot("graph { 0 -> 1; }")  # undirected keyword
    with pytest.raises(GraphFormatError):
        parse_dot("digraph { 0 -> 1")  # missing brace
    with pytest.raises(GraphFormatError):
        parse_dot("digraph { 0 -> ; }")
    with pytest.raises(GraphFormatError):
        parse_dot("digraph { a -> b; }")  # named nodes unsupported
    with pytest.raises(GraphFormatError):
        parse_dot("digraph { 0 -> 1; } trailing!")
    for name in ("->", ";", "}"):  # punctuation is not a graph name
        with pytest.raises(GraphFormatError, match="expected '{' after 'digraph'"):
            parse_dot(f"digraph {name} {{ 0 -> 1 }}")
    for text in ("digraph { 0 -> 1 -> 0 } 5 -> 6", "digraph { 0 -> 1 }\ndigraph { 2 -> 3 }\n"):
        with pytest.raises(GraphFormatError, match="unexpected DOT input after '}'"):
            parse_dot(text)
    # a comment after the body is not input
    assert parse_dot("digraph { 0 -> 1 } // done\n# end\n").n == 2


def test_parse_graph_sniffs_format():
    assert parse_graph("digraph { 0 -> 1; }").edge_count() == 1
    assert parse_graph("2\n0 1\n").edge_count() == 1
    # comments before the first meaningful token do not confuse the sniffer
    assert parse_graph("# note\ndigraph { 0 -> 1; }").n == 2
    assert parse_graph("// a triangle\ndigraph { 0 -> 1 -> 2 -> 0 }\n").edge_count() == 3


def test_roundtrip_random(tmp_path):
    rng = random.Random(11)
    for trial in range(25):
        n = rng.randrange(7)
        g = Digraph(n, random_edges(n, 0.4, rng))
        text = format_edge_list(g)
        h = parse_edge_list(text)
        assert h.n == g.n and h.edges == g.edges
        p = tmp_path / f"g{trial}.txt"
        save_edge_list(g, p, comment="two\nlines")
        assert load_graph(p).edges == g.edges


def test_format_edge_list_comment():
    g = Digraph(2, [(0, 1)])
    text = format_edge_list(g, comment="hello")
    assert text.startswith("# hello\n2\n")
    assert parse_edge_list(text).edges == g.edges


def test_graph_files_are_utf8_whatever_the_locale(tmp_path):
    # under the C locale the default text encoding is ASCII
    src = tmp_path / "in.edges"
    src.write_bytes("# café\n2\n0 1\n".encode("utf-8"))
    out = tmp_path / "out.edges"
    child = (
        "import sys\n"
        "from entrank.graphio import load_graph, save_edge_list\n"
        "g = load_graph(sys.argv[1])\n"
        # escaped: the C locale cannot decode a non-ASCII command line
        "save_edge_list(g, sys.argv[2], comment='caf\\u00e9')\n"
        "assert load_graph(sys.argv[2]) == g\n"
    )
    proc = run_python("-c", child, str(src), str(out),
                      env={"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == "# café\n2\n0 1\n".encode("utf-8")

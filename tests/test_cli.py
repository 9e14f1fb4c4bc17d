"""Command-line interface, driven in-process through cli.main(), plus the
console script started in a fresh process."""

import importlib
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import entrank
from entrank import cli


@pytest.fixture
def run(capsys):
    def go(*argv):
        rc = cli.main(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    return go


@pytest.fixture
def dicycle_file(tmp_path):
    p = tmp_path / "dicycle3.txt"
    p.write_text("3\n0 1\n1 2\n2 0\n")
    return str(p)


@pytest.fixture
def upath_file(tmp_path):
    p = tmp_path / "upath4.dot"
    p.write_text("digraph { 0 -> 1 -> 2 -> 3; 1 -> 0; 2 -> 1; 3 -> 2; }")
    return str(p)


def test_measure_all(run, dicycle_file):
    rc, out, err = run("measure", dicycle_file)
    assert rc == 0
    assert out == "rank: 1\nentanglement: 1\n"


def test_measure_single_flags(run, upath_file):
    rc, out, _ = run("measure", upath_file, "--rank")
    assert rc == 0 and out == "rank: 2\n"
    rc, out, _ = run("measure", upath_file, "--ent")
    assert rc == 0 and out == "entanglement: 2\n"


def test_measure_reads_dot(run, upath_file):
    rc, out, _ = run("measure", upath_file, "--all")
    assert rc == 0
    assert "rank: 2" in out and "entanglement: 2" in out


def test_measure_missing_file(run, tmp_path):
    rc, out, err = run("measure", str(tmp_path / "nope.txt"))
    assert rc == 2
    assert "cannot load graph" in err


def test_measure_malformed_file(run, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("not a graph\n")
    rc, _, err = run("measure", str(p))
    assert rc == 2
    assert "error" in err


def test_game_default_variants(run, dicycle_file):
    rc, out, _ = run("game", "ent", dicycle_file, "-k", "1")
    assert rc == 0 and out == "game: ent  k: 1  winner: cops\n"
    rc, out, _ = run("game", "rank", dicycle_file, "-k", "0")
    assert rc == 0 and out == "game: shrink  k: 0  winner: thief\n"


def test_game_explicit_variants(run, dicycle_file):
    for variant in ("et", "entv"):
        rc, out, _ = run("game", "ent", dicycle_file, "-k", "1", "--variant", variant)
        assert rc == 0 and f"game: {variant}" in out and "cops" in out
    rc, out, _ = run("game", "rank", dicycle_file, "-k", "1", "--variant", "comeback")
    assert rc == 0 and "winner: cops" in out


def test_game_variant_mismatch(run, dicycle_file):
    rc, _, err = run("game", "rank", dicycle_file, "-k", "1", "--variant", "entv")
    assert rc == 2
    assert "does not belong" in err


def test_game_bad_budget(run, dicycle_file):
    rc, _, err = run("game", "ent", dicycle_file, "-k", "9")
    assert rc == 2 and "cop count" in err
    rc, _, err = run("game", "rank", dicycle_file, "-k", "-1")
    assert rc == 2 and "budget" in err


def test_game_writes_certificate(run, dicycle_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    rc, out, _ = run("game", "ent", dicycle_file, "-k", "1", "--cert", str(cert_path))
    assert rc == 0
    assert f"certificate written to {cert_path}" in out
    blob = json.loads(cert_path.read_text())
    assert blob["game"] == "ent" and blob["k"] == 1 and blob["winner"] == "cops"
    assert isinstance(blob["moves"], list) and blob["moves"]


def test_verify_theorem_corpus(run):
    rc, out, _ = run(
        "verify", "theorem", "--corpus", "random:n=4,p=0.3,seed=2,count=6"
    )
    assert rc == 0
    assert "theorem suite" in out and "OK" in out and "6 graphs" in out


def test_verify_equiv_files(run, dicycle_file, upath_file):
    rc, out, _ = run("verify", "equiv", dicycle_file, upath_file)
    assert rc == 0
    assert "2 graphs, 0 violations" in out


def test_verify_json_to_stdout(run):
    rc, out, err = run(
        "verify", "theorem", "--corpus", "random:n=3,p=0.4,seed=5,count=4", "--json"
    )
    assert rc == 0
    obj = json.loads(out)  # stdout must be pure JSON
    assert obj["summary"]["checked"] == 4
    assert "theorem suite" in err  # the human line moved to stderr


def test_verify_json_to_file(run, tmp_path):
    out_path = tmp_path / "report.json"
    rc, out, _ = run(
        "verify",
        "theorem",
        "--corpus",
        "random:n=3,p=0.4,seed=5,count=4",
        "--json",
        str(out_path),
    )
    assert rc == 0
    assert json.loads(out_path.read_text())["summary"]["violations"] == 0
    assert "OK" in out


def test_verify_rejects_bad_usage(run, dicycle_file):
    rc, _, err = run("verify", "theorem")
    assert rc == 2 and "--corpus" in err
    rc, _, err = run("verify", "theorem", "--corpus", "bogus:n=1")
    assert rc == 2
    rc, _, err = run(
        "verify", "theorem", dicycle_file, "--corpus", "random:n=3,p=0.2"
    )
    assert rc == 2 and "not both" in err


def test_gen_writes_corpus(run, tmp_path):
    out_dir = tmp_path / "corpus"
    rc, out, _ = run(
        "gen", "--corpus", "random:n=3,p=0.5,seed=4,count=5", "-o", str(out_dir)
    )
    assert rc == 0
    files = sorted(out_dir.iterdir())
    assert len(files) == 5
    assert files[0].name == "0000-random-4-0000.edges"
    # generated files feed straight back into measure
    rc, out, _ = run("measure", str(files[0]), "--rank")
    assert rc == 0 and out.startswith("rank: ")


def test_gen_family_flags(run, tmp_path):
    out_dir = tmp_path / "fam"
    rc, out, _ = run("gen", "--family", "ucycle", "--size", "4", "-o", str(out_dir))
    assert rc == 0
    assert [p.name for p in sorted(out_dir.iterdir())] == ["0000-ucycle-4.edges"]


def test_muterm_analyze(run, tmp_path):
    term = tmp_path / "t.term"
    term.write_text("mu x. f(x, nu y. g(y))\n")
    rc, out, _ = run("muterm", "analyze", str(term))
    assert rc == 0
    obj = json.loads(out)
    assert obj["star_height"] == 2
    assert obj["graph_entanglement"] <= obj["graph_rank"] <= 2


def test_muterm_analyze_errors(run, tmp_path):
    bad = tmp_path / "bad.term"
    bad.write_text("mu x\n")
    rc, _, err = run("muterm", "analyze", str(bad))
    assert rc == 2 and "cannot parse" in err
    rc, _, err = run("muterm", "analyze", str(tmp_path / "missing.term"))
    assert rc == 2 and "cannot read" in err
    bad.write_text("g(" * 3000 + "x" + ")" * 3000)
    rc, _, err = run("muterm", "analyze", str(bad))
    assert rc == 2 and "nested too deeply" in err


def test_translate_roundtrip(run, dicycle_file, tmp_path):
    cert_path = tmp_path / "translated.json"
    rc, out, _ = run("translate", dicycle_file, "--cert", str(cert_path))
    assert rc == 0
    assert "replay verification passed" in out
    blob = json.loads(cert_path.read_text())
    assert blob["game"] == "entv" and blob["winner"] == "cops"


def test_translate_at_losing_budget(run, dicycle_file):
    rc, out, _ = run("translate", dicycle_file, "-k", "0")
    assert rc == 1
    assert "thief wins" in out


def test_translate_bad_budget(run, dicycle_file):
    rc, _, err = run("translate", dicycle_file, "-k", "-2")
    assert rc == 2 and "budget" in err


def test_translate_budget_above_vertex_count(run, tmp_path):
    p = tmp_path / "dicycle5.txt"
    p.write_text("5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    rc, out, err = run("translate", str(p), "-k", "9")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "budget k=9" in err and "Traceback" not in err


@pytest.fixture
def tiny_rank_ceiling(monkeypatch):
    monkeypatch.setattr(importlib.import_module("entrank.rank"), "DEFAULT_RANK_CEILING", 1)


def test_rank_ceiling_exits_2(run, dicycle_file, tiny_rank_ceiling):
    for argv in (("measure",), ("measure", "--rank"), ("translate",)):
        rc, out, err = run(*argv, dicycle_file)
        assert rc == 2 and out == ""
        assert err == "error: rank arena exceeded the position ceiling of 1\n"
    rc, out, _ = run("measure", dicycle_file, "--ent")
    assert rc == 0 and out == "entanglement: 1\n"


@pytest.fixture
def upath1200_file(tmp_path):
    # rank recurses about two frames per vertex, past the default limit
    n = 1200
    p = tmp_path / "upath1200.txt"
    p.write_text(f"{n}\n" + "".join(f"{i} {i + 1}\n{i + 1} {i}\n" for i in range(n - 1)))
    return str(p)


DEPTH_ERROR = "error: rank recursion on 1200 vertices exceeds the interpreter's recursion limit\n"


def test_rank_depth_exits_2(run, upath1200_file):
    for argv in (("measure", "--rank"), ("measure",), ("translate",)):
        rc, out, err = run(argv[0], upath1200_file, *argv[1:])
        assert rc == 2 and out == ""
        assert err == DEPTH_ERROR and "Traceback" not in err


def test_rank_depth_is_a_skip(run, upath1200_file):
    rc, out, err = run("verify", "theorem", upath1200_file)
    assert rc == 0 and "Traceback" not in err
    assert "skip upath1200.txt: rank recursion on 1200 vertices exceeds" in out


def test_muterm_analyze_rank_depth_exits_2(run, tmp_path, monkeypatch):
    # a term that parses is too shallow to reach the limit in rank, so
    # the recursion is made to overflow at once
    def overflow(self, mask, cap):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(importlib.import_module("entrank.rank")._RankMemo, "solve", overflow)
    term = tmp_path / "t.term"
    term.write_text("mu x. f(x, nu y. g(y))\n")
    rc, out, err = run("muterm", "analyze", str(term))
    assert rc == 2 and out == ""
    assert err.startswith("error: rank recursion on ") and "Traceback" not in err


@pytest.mark.parametrize("suite", ["theorem", "equiv"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_rank_ceiling_is_a_skip(run, dicycle_file, suite, jobs):
    # --ceiling also caps the rank memo; in worker processes too, the
    # ceiling becomes a per-graph skip rather than a lost report
    rc, out, err = run("verify", suite, dicycle_file, "--ceiling", "1", "--jobs", jobs)
    assert rc == 0 and "Traceback" not in err
    assert "skip dicycle3.txt: rank memo exceeded 1 entries\n" in out
    assert "(1 graphs, 0 violations, 1 skips," in out


def test_muterm_analyze_ceiling_exits_2(run, tmp_path, tiny_rank_ceiling):
    term = tmp_path / "t.term"
    term.write_text("mu x. f(x, nu y. g(y))\n")
    rc, out, err = run("muterm", "analyze", str(term))
    assert rc == 2 and out == ""
    assert err == "error: rank arena exceeded the position ceiling of 1\n"


def test_argparse_usage_errors_exit_2(run):
    with pytest.raises(SystemExit) as exc:
        cli.main(["game", "rank"])  # missing -k and graph
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2


def _declared_console_script(name):
    """The project's own ``[project.scripts]`` entry for ``name``: the installed
    distribution's metadata when there is one, else ``pyproject.toml``."""
    try:
        dist = importlib.metadata.distribution("entrank")
    except importlib.metadata.PackageNotFoundError:
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        return importlib.metadata.EntryPoint(name, scripts[name], "console_scripts")
    (ep,) = dist.entry_points.select(group="console_scripts", name=name)
    return ep


def test_console_script_entry_point(tmp_path):
    # Start the declared target the way a console-script wrapper does, in a
    # fresh interpreter outside the checkout, so neither PATH nor the working
    # directory decides whether it is found.
    ep = _declared_console_script("entrank")
    launcher = (
        f"import sys; from {ep.module} import {ep.attr.split('.')[0]}; "
        f"sys.exit({ep.attr}())"
    )
    package_root = str(Path(entrank.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "measure" in proc.stdout


@pytest.mark.skipif(
    shutil.which("entrank") is None, reason="no `entrank` executable on PATH"
)
def test_installed_console_script():
    proc = subprocess.run(
        ["entrank", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "measure" in proc.stdout


# ------------------------------------------------------------------ replay


@pytest.mark.parametrize("argv", [
    ("game", "ent", "-k", "1", "--variant", "entv"),
    ("game", "ent", "-k", "0"),
    ("game", "rank", "-k", "1", "--variant", "comeback"),
    ("translate",),
])
def test_replay_accepts_written_certificates(run, dicycle_file, tmp_path, argv):
    cert = str(tmp_path / "cert.json")
    rc, _, _ = run(*argv[:2], dicycle_file, *argv[2:], "--cert", cert)
    assert rc == 0
    assert run("replay", dicycle_file, cert) == (0, "ok\n", "")


def test_replay_rejects_a_tampered_certificate(run, dicycle_file, tmp_path):
    cert = tmp_path / "cert.json"
    run("game", "ent", dicycle_file, "-k", "1", "--cert", str(cert))
    obj = json.loads(cert.read_text())
    dropped = obj["moves"].pop()
    cert.write_text(json.dumps(obj))
    rc, out, err = run("replay", dicycle_file, str(cert))
    assert rc == 1 and err == ""
    assert out.startswith("rejected: no move recorded for position ")
    # the same certificate on a graph it does not fit
    obj["moves"].append(dropped)
    cert.write_text(json.dumps(obj))
    other = tmp_path / "path.txt"
    other.write_text("3\n0 1\n1 0\n1 2\n2 1\n")
    rc, out, _ = run("replay", str(other), str(cert))
    assert rc == 1 and out.startswith("rejected: ")


@pytest.mark.parametrize("text, message", [
    ("{not json", "error: bad certificate "),
    ("[" * 100_000 + "]" * 100_000, "error: bad certificate "),
    ('{"game": "ent", "k": 1, "winner": "cops"}', "lacks the field 'moves'"),
    ('{"game": "nope", "k": 1, "winner": "cops", "moves": []}', "unknown game id 'nope'"),
    ('{"game": "ent", "k": 9, "winner": "cops", "moves": []}', "cop count k must satisfy"),
    (None, "error: cannot read "),
])
def test_replay_bad_input_exits_2(run, dicycle_file, tmp_path, text, message):
    cert = tmp_path / "cert.json"
    if text is not None:
        cert.write_text(text)
    rc, out, err = run("replay", dicycle_file, str(cert))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_replay_bad_graph_exits_2(run, tmp_path):
    cert = tmp_path / "cert.json"
    cert.write_text('{"game": "ent", "k": 0, "winner": "cops", "moves": []}')
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    for graph in (str(bad), str(tmp_path / "missing.txt")):
        rc, out, err = run("replay", graph, str(cert))
        assert rc == 2 and out == ""
        assert err.startswith("error: cannot load graph ") and err.count("\n") == 1


def test_replay_ceiling_exits_2(run, dicycle_file, tmp_path, monkeypatch):
    cert = str(tmp_path / "cert.json")
    run("game", "rank", dicycle_file, "-k", "1", "--variant", "comeback", "--cert", cert)
    monkeypatch.setattr(importlib.import_module("entrank.rank").ComebackGame, "DEFAULT_CEILING", 1)
    rc, out, err = run("replay", dicycle_file, cert)
    assert rc == 2 and out == ""
    assert err == "error: comeback arena exceeded the position ceiling of 1\n"

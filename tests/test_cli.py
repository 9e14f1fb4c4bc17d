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
from entrank import cli, harness
from entrank.gamecore import ReplayReport
from entrank.translate import TranslationError

from conftest import python_env, run_python


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
    rc, out, _ = run("measure", upath_file, "--rank", "--ent")
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
    assert rc == 0 and out == "game: rank  k: 0  winner: thief\n"


def test_game_explicit_variants(run, dicycle_file):
    for game_id in ("et", "entv"):
        rc, out, _ = run("game", game_id, dicycle_file, "-k", "1")
        assert rc == 0 and f"game: {game_id}" in out and "cops" in out
    rc, out, _ = run("game", "comeback", dicycle_file, "-k", "1")
    assert rc == 0 and "winner: cops" in out


def test_game_bad_budget(run, dicycle_file):
    rc, _, err = run("game", "ent", dicycle_file, "-k", "9")
    assert rc == 2 and "cop count" in err
    rc, _, err = run("game", "rank", dicycle_file, "-k", "-1")
    assert rc == 2 and "budget" in err
    # the rank games refuse a budget past the vertex count, as the pursuit games do
    for game_id in ("rank", "comeback"):
        rc, out, err = run("game", game_id, dicycle_file, "-k", "9")
        assert rc == 2 and out == "" and "budget" in err


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
    # the equivalence suite translates nothing, so it must not accept the flag
    assert run("verify", "equiv", "--translate", "--corpus", "family:name=dicycle,size=3") == (
        2, "", "error: --translate applies only to verify theorem\n")


def _refuse(*args, **kwargs):
    raise AssertionError("the work started before the output path was checked")


@pytest.mark.parametrize(
    "argv",
    [
        ("game", "rank", "{graph}", "-k", "1", "--cert", "{missing}/x.json"),
        ("translate", "{graph}", "--cert", "{missing}/x.json"),
        ("verify", "equiv", "{graph}", "--json", "{missing}/r.json"),
        ("gen", "--corpus", "family:name=clique,size=3", "--output", "{graph}"),
    ],
    ids=["game-cert", "translate-cert", "verify-json", "gen-onto-a-file"],
)
def test_unwritable_output_exits_2(run, dicycle_file, tmp_path, monkeypatch, argv):
    # the solvers and suites refuse to run: the path is checked first
    for name in ("solve_finite_game", "rank", "translate_and_verify", "run_equivalence_suite",
                 "generate_corpus"):
        monkeypatch.setattr(cli, name, _refuse)
    missing = tmp_path / "missing" / "dir"
    rc, _, err = run(*(a.format(graph=dicycle_file, missing=missing) for a in argv))
    assert rc == 2
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert not missing.exists()


def test_old_spellings_are_usage_errors(run, dicycle_file, tmp_path, monkeypatch, capsys):
    # each input has one spelling: the CLI's own game names and corpus
    # flags are gone, and refused before any work starts
    for name in ("solve_finite_game", "rank", "entanglement", "generate_corpus"):
        monkeypatch.setattr(cli, name, _refuse)
    out_dir = tmp_path / "corpus"
    for argv in (
        ("game", "shrink", dicycle_file, "-k", "1"),
        ("game", "rank", dicycle_file, "-k", "1", "--variant", "comeback"),
        ("gen", "--family", "clique", "--size", "3", "-o", str(out_dir)),
        ("gen", "-o", str(out_dir)),
        ("measure", dicycle_file, "--all"),
    ):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: entrank ") and ": error: " in err, argv
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, want_rc",
    [
        (("game", "ent", "{graph}", "-k", "9", "--cert", "{out}"), 2),
        (("translate", "{graph}", "-k", "0", "--cert", "{out}"), 1),
        (("game", "ent", "{graph}", "-k", "1", "--cert", "{out}", "--ceiling", "1"), 2),
    ],
    ids=["game-bad-k", "translate-thief-wins", "game-ceiling"],
)
def test_failed_run_leaves_output_path_as_it_was(run, dicycle_file, tmp_path, argv, want_rc):
    out = tmp_path / "out.json"
    args = [a.format(graph=dicycle_file, out=out) for a in argv]
    # the path is checked before the run fails: no file is left behind ...
    assert run(*args)[0] == want_rc
    assert not out.exists()
    # ... and an existing file keeps its bytes
    out.write_text("old")
    assert run(*args)[0] == want_rc
    assert out.read_text() == "old"
    # ... and a dangling symlink stays dangling
    out.unlink()
    target = tmp_path / "target.json"
    out.symlink_to(target)
    assert run(*args)[0] == want_rc
    assert out.is_symlink() and not target.exists()


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
    rc, out, _ = run("gen", "--corpus", "family:name=ucycle,size=4", "-o", str(out_dir))
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
    assert "FAIL comeback game lost at k=0" in out


def _fail_translation(*args, **kwargs):
    raise TranslationError("x")


@pytest.mark.parametrize("target, stub, failure", [
    pytest.param("translate_rank_strategy", _fail_translation,
                 "strategy translation failed at k=1: x", id="translation-failed"),
    pytest.param("verify_certificate", lambda *args, **kwargs: ReplayReport(False, "y"),
                 "translated certificate rejected at k=1: y", id="replay-rejected"),
])
def test_translate_reports_the_suite_failure(run, dicycle_file, tmp_path, monkeypatch,
                                             target, stub, failure):
    # translate runs the theorem suite's step and prints its failure as is
    monkeypatch.setattr(harness, target, stub)
    cert = tmp_path / "out.json"
    assert run("translate", dicycle_file, "--cert", str(cert)) == (1, f"FAIL {failure}\n", "")
    assert not cert.exists()


def test_translate_bad_budget(run, dicycle_file):
    rc, _, err = run("translate", dicycle_file, "-k", "-2")
    assert rc == 2 and "budget" in err


@pytest.mark.parametrize("ceiling, step", [
    pytest.param(5, "translation", id="5"),
    pytest.param(12, "entv replay", id="12"),
])
def test_translate_ceiling_exits_2(run, dicycle_file, monkeypatch, ceiling, step):
    # the comeback game on dicycle-3 stores 3 positions, its translation
    # 12 and the replay of the translated certificate 13: a ceiling of 5
    # stops the translation, one of 12 its replay -- a resource stop, not
    # a violation, and the error names the step that stopped; the same
    # ceiling given by --ceiling stops the same step
    want = f"error: {step} exceeded {ceiling} positions at k=1\n"
    assert run("translate", dicycle_file, "--ceiling", str(ceiling)) == (2, "", want)
    monkeypatch.setattr(importlib.import_module("entrank.gamecore"), "DEFAULT_POSITION_CEILING", ceiling)
    rc, out, err = run("translate", dicycle_file)
    assert rc == 2 and out == ""
    assert err == want
    monkeypatch.setattr(importlib.import_module("entrank.gamecore"), "DEFAULT_POSITION_CEILING", 13)
    rc, out, err = run("translate", dicycle_file)
    assert rc == 0 and "replay verification passed" in out and err == ""


def test_translate_budget_above_vertex_count(run, tmp_path):
    p = tmp_path / "dicycle5.txt"
    p.write_text("5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    rc, out, err = run("translate", str(p), "-k", "9")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "budget k=9" in err and "Traceback" not in err


@pytest.fixture
def tiny_rank_ceiling(monkeypatch):
    monkeypatch.setattr(importlib.import_module("entrank.rank"), "DEFAULT_RANK_CEILING", 1)


def test_rank_ceiling_exits_2(run, upath_file, tiny_rank_ceiling):
    # upath-4's rank memo needs 2 entries (dicycle-3's needs only 1)
    for argv in (("measure",), ("measure", "--rank"), ("translate",)):
        rc, out, err = run(*argv, upath_file)
        assert rc == 2 and out == ""
        assert err == "error: rank memo exceeded the entry ceiling of 1\n"
    rc, out, _ = run("measure", upath_file, "--ent")
    assert rc == 0 and out == "entanglement: 2\n"


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
def test_verify_rank_ceiling_is_a_skip(run, upath_file, suite, jobs):
    # --ceiling also caps the rank memo; in worker processes too, the
    # ceiling becomes a per-graph skip rather than a lost report
    # (two graphs, so that --jobs 2 starts a pool)
    rc, out, err = run("verify", suite, upath_file, upath_file, "--ceiling", "1", "--jobs", jobs)
    assert rc == 0 and "Traceback" not in err
    assert out.count("skip upath4.dot: rank memo exceeded 1 entries\n") == 2
    assert "(2 graphs, 0 violations, 2 skips," in out


def test_muterm_analyze_ceiling_exits_2(run, tmp_path, tiny_rank_ceiling):
    term = tmp_path / "t.term"
    term.write_text("mu x. f(x, nu y. g(y))\n")
    rc, out, err = run("muterm", "analyze", str(term))
    assert rc == 2 and out == ""
    assert err == "error: rank memo exceeded the entry ceiling of 1\n"


@pytest.mark.parametrize("argv, err", [
    (("measure", "{graph}"), "error: rank memo exceeded the entry ceiling of 1\n"),
    (("measure", "{graph}", "--ent"), "error: ent arena exceeded the position ceiling of 1\n"),
    (("translate", "{graph}", "-k", "2"), "error: comeback arena exceeded 1 positions at k=2\n"),
    (("muterm", "analyze", "{term}"), "error: rank memo exceeded the entry ceiling of 1\n"),
    (("game", "et", "{graph}", "-k", "2"),
     "error: et arena exceeded the position ceiling of 1\n"),
    (("game", "comeback", "{graph}", "-k", "2"),
     "error: comeback arena exceeded the position ceiling of 1\n"),
], ids=["measure", "measure-ent", "translate", "muterm-analyze", "game-et", "game-comeback"])
def test_ceiling_flag_exits_2(run, upath_file, tmp_path, argv, err):
    # the flag reaches every solver of measure, game, translate and muterm analyze
    term = tmp_path / "t.term"
    term.write_text("mu x. f(x, mu y. f(x, f(y, a)))\n")
    rc, out, got = run(*(a.format(graph=upath_file, term=term) for a in argv), "--ceiling", "1")
    assert rc == 2 and out == "" and got == err


@pytest.mark.parametrize("argv", [
    ("measure", "{graph}"), ("translate", "{graph}"), ("muterm", "analyze", "{graph}"),
    ("game", "ent", "{graph}", "-k", "1"), ("replay", "{graph}", "{graph}"),
])
def test_ceiling_flag_below_one_is_refused(run, upath_file, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*(a.format(graph=upath_file) for a in argv), "--ceiling", "0")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --ceiling: must be at least 1, got 0" in err and "Traceback" not in err


def test_measure_ceiling_flag_allows_clique_40(run, tmp_path):
    # every vertex of a clique is a twin of the others: 39 memo entries
    p = tmp_path / "clique40.txt"
    p.write_text("40\n" + "".join(f"{i} {j}\n" for i in range(40) for j in range(40) if i != j))
    rc, out, _ = run("measure", str(p), "--rank", "--ceiling", "39")
    assert rc == 0 and out == "rank: 39\n"
    rc, _, err = run("measure", str(p), "--rank", "--ceiling", "38")
    assert rc == 2 and err == "error: rank memo exceeded the entry ceiling of 38\n"


@pytest.mark.parametrize("flag, value", [
    ("--ceiling", "0"), ("--ceiling", "-1"), ("--jobs", "0"), ("--jobs", "-2"),
])
def test_verify_flag_below_one_is_refused(run, dicycle_file, flag, value, capsys):
    # a ceiling below 1 would skip every graph and still report OK
    with pytest.raises(SystemExit) as exc:
        run("verify", "equiv", dicycle_file, flag, value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least 1, got {value}" in err and "Traceback" not in err


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


@pytest.mark.parametrize("unbuffered", ("1", ""), ids=("unbuffered", "buffered"))
def test_output_cut_short_ends_quietly(run, tmp_path, unbuffered):
    # `entrank game rank clique-8.edges -k 7 --cert rank-7.json | head -1`:
    # unbuffered, the reader closes stdout after the first line and the
    # second print meets the closed pipe; buffered, both lines wait for the
    # flush at the end of the command, and the pipe is closed before it
    graph, cert = tmp_path / "clique-8.txt", tmp_path / "rank-7.json"
    graph.write_text("8\n" + "".join(f"{u} {v}\n" for u in range(8) for v in range(8) if u != v))
    proc = subprocess.Popen(
        [sys.executable, "-m", "entrank", "game", "rank", str(graph), "-k", "7",
         "--cert", str(cert)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=python_env({"PYTHONUNBUFFERED": unbuffered}),
    )
    if unbuffered:
        assert proc.stdout.readline() == "game: rank  k: 7  winner: cops\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert "Traceback" not in err and err == ""
    assert run("replay", str(graph), str(cert)) == (0, "ok\n", "")


# ------------------------------------------------------------------ replay


@pytest.mark.parametrize("argv", [
    ("game", "entv", "-k", "1"),
    ("game", "ent", "-k", "0"),
    ("game", "comeback", "-k", "1"),
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
    ('{"game": "rank", "k": 9, "winner": "cops", "moves": []}', "budget k must satisfy"),
    # one position named twice: which entry came last used to decide the verdict
    ('{"game": "ent", "k": 1, "winner": "cops", "moves": [%s, %s]}' % (
        '{"position": {"vertex": 0, "cops": [], "virtual": [], "turn": "cops"}, '
        '"move": {"cops": [0], "virtual": []}}',
        '{"position": {"vertex": 0, "cops": [], "virtual": [], "turn": "cops"}, '
        '"move": {"cops": [0, 1], "virtual": []}}'), "field 'position' names a position twice"),
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


def test_replay_refuses_a_table_nested_too_deep(dicycle_file, tmp_path):
    # each of 100,000 comeback entries names the one before it; hashing a
    # key that deep used to overflow the C stack (exit 139), so the
    # decoder refuses a table nested past the recursion limit
    depth = 100_000
    rows = ",".join(
        '{"vertices": [0, 1, 2], "turn": "cops", "counter": 1, "comebacks": [%s]}'
        % (i - 1 if i else "") for i in range(depth)
    )
    cert = tmp_path / "deep.json"
    cert.write_text('{"game": "comeback", "k": 1, "winner": "cops", "table": [%s], '
                    '"moves": [{"position": {"ref": %d}, "move": {"remove": 0}}]}'
                    % (rows, depth - 1))
    proc = run_python("-m", "entrank", "replay", dicycle_file, str(cert))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: bad certificate ") and proc.stderr.count("\n") == 1
    assert "'comebacks'" in proc.stderr


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
    run("game", "comeback", dicycle_file, "-k", "1", "--cert", cert)
    want = (2, "", "error: comeback arena exceeded the position ceiling of 1\n")
    assert run("replay", dicycle_file, cert, "--ceiling", "1") == want
    assert run("replay", dicycle_file, cert, "--ceiling", "100") == (0, "ok\n", "")
    monkeypatch.setattr(importlib.import_module("entrank.gamecore"), "DEFAULT_POSITION_CEILING", 1)
    assert run("replay", dicycle_file, cert) == want


@pytest.mark.parametrize("game_id, argv", (("rank", ("rank",)), ("ent", ("ent",)),
                                           ("et", ("et",)), ("entv", ("entv",))))
def test_replay_ceiling_exits_2_for_every_game(run, dicycle_file, tmp_path, monkeypatch,
                                               game_id, argv):
    cert = str(tmp_path / "cert.json")
    assert run("game", *argv, dicycle_file, "-k", "1", "--cert", cert)[0] == 0
    want = (2, "", f"error: {game_id} arena exceeded the position ceiling of 1\n")
    assert run("replay", dicycle_file, cert, "--ceiling", "1") == want
    assert run("replay", dicycle_file, cert, "--ceiling", "100") == (0, "ok\n", "")
    monkeypatch.setattr(importlib.import_module("entrank.gamecore"), "DEFAULT_POSITION_CEILING", 1)
    assert run("replay", dicycle_file, cert) == want


@pytest.mark.parametrize("argv", [
    ("measure", "{bad}"),
    ("game", "ent", "{bad}", "-k", "1"),
    ("verify", "theorem", "{bad}"),
    ("translate", "{bad}"),
    ("muterm", "analyze", "{bad}"),
    ("replay", "{graph}", "{bad}"),
], ids=lambda argv: argv[0])
def test_non_text_input_exits_2(run, dicycle_file, tmp_path, argv):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00bad")
    rc, out, err = run(*(a.format(bad=bad, graph=dicycle_file) for a in argv))
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["100000000000\n", "digraph { 100000000000 }\n"],
                         ids=["edges", "dot"])
def test_huge_vertex_count_exits_2_under_a_memory_limit(tmp_path, text):
    # a vertex count too large to hold is an operational error; the
    # child's address space is capped at about 600 MB so that the
    # allocation fails fast with a MemoryError instead of exhausting the
    # machine
    pytest.importorskip("resource")
    graph = tmp_path / "huge.txt"
    graph.write_text(text)
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))\n"
        "from entrank.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = run_python("-c", child, "measure", str(graph))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: cannot load graph {str(graph)!r}: out of memory\n"

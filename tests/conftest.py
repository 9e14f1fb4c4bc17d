"""Shared helpers: tiny graph builders, a seeded term generator, and the
acceptance-line reporter printed after the run summary."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import entrank
from entrank.digraph import Digraph
from entrank.muterm import Mu, Nu, Op, Subst, Term, Var

# ----------------------------------------------------------- graph builders
# Built locally (not via entrank.corpus) so corpus bugs cannot hide here.


def upath_edges(n: int) -> list[tuple[int, int]]:
    out = []
    for i in range(n - 1):
        out += [(i, i + 1), (i + 1, i)]
    return out


def clique_edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def dicycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def ucycle_edges(n: int) -> list[tuple[int, int]]:
    if n == 1:
        return [(0, 0)]
    es = set()
    for i in range(n):
        es.add((i, (i + 1) % n))
        es.add(((i + 1) % n, i))
    return sorted(es)


def random_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(n) if rng.random() < p]


def dg(n: int, edges) -> Digraph:
    return Digraph(n, edges)


def run_python(*args: str, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on ``args`` that imports this ``entrank``,
    with ``env`` added to the environment; its output is text."""
    child_env = dict(os.environ, **(env or {}))
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(entrank.__file__).resolve().parents[1]),
                    child_env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=child_env)


# ------------------------------------------------------------ random terms

_SIGNATURE = {"f": 2, "g": 1, "a": 0}
_NAMES = ("x", "y", "z")


def random_term(rng: random.Random, size: int) -> Term:
    """A random term with roughly ``size`` AST nodes."""
    if size <= 1:
        if rng.random() < 0.6:
            return Var(rng.choice(_NAMES))
        return Op("a")
    roll = rng.random()
    if roll < 0.30:
        sym = "f" if size >= 3 and rng.random() < 0.6 else "g"
        if sym == "g":
            return Op("g", (random_term(rng, size - 1),))
        left = rng.randint(1, size - 2)
        return Op("f", (random_term(rng, left), random_term(rng, size - 1 - left)))
    if roll < 0.55:
        binder = Mu if rng.random() < 0.5 else Nu
        return binder(rng.choice(_NAMES), random_term(rng, size - 1))
    if roll < 0.70 and size >= 3:
        names = rng.sample(_NAMES, rng.randint(1, 2))
        budget = size - 1 - len(names)
        body = random_term(rng, max(1, budget // 2))
        bindings = tuple(
            (nm, random_term(rng, max(1, budget // (2 * len(names)))))
            for nm in names
        )
        return Subst(body, bindings)
    return Var(rng.choice(_NAMES))


def random_substitution(rng: random.Random, size: int = 3) -> dict[str, Term]:
    names = rng.sample(_NAMES, rng.randint(1, len(_NAMES)))
    return {nm: random_term(rng, rng.randint(1, size)) for nm in names}


def three_name_term(d: int) -> str:
    """``d`` nested binders cycling through the names x, y, z; each body
    refers to its own binder and the one before it."""
    names = "xyz"
    text = "a"
    for i in reversed(range(d)):
        me = names[i % 3]
        if i:
            text = f"f({names[(i - 1) % 3]}, f({me}, {text}))"
        else:
            text = f"f({me}, {text})"
        text = f"mu {me}. {text}"
    return text


# ------------------------------------------------------- acceptance report

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(num: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {num} {name}: {status}{suffix}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)

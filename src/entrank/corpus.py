"""Reproducible graph corpora for the verification harness.

Two corpus modes:

* ``random`` — G(n, p) digraphs (self-loops included) drawn from a single
  seeded :class:`random.Random` stream, so the corpus is a pure function
  of its spec string.
* ``family`` — named deterministic families (paths, cycles, cliques, a
  complete DAG) at a given size.

A spec round-trips through :meth:`CorpusSpec.parse` /
:attr:`CorpusSpec.canonical`, which the harness uses as the corpus id in
reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .digraph import Digraph

__all__ = ["CorpusSpec", "FAMILIES", "family_graph", "generate_corpus"]


def _dipath(size: int) -> Digraph:
    return Digraph(size, [(i, i + 1) for i in range(size - 1)])


def _dicycle(size: int) -> Digraph:
    return Digraph(size, [(i, (i + 1) % size) for i in range(size)])


def _upath(size: int) -> Digraph:
    edges = []
    for i in range(size - 1):
        edges.append((i, i + 1))
        edges.append((i + 1, i))
    return Digraph(size, edges)


def _ucycle(size: int) -> Digraph:
    edges = set()
    for i in range(size):
        j = (i + 1) % size
        edges.add((i, j))
        edges.add((j, i))
    return Digraph(size, sorted(edges))


def _clique(size: int) -> Digraph:
    return Digraph(size, [(i, j) for i in range(size) for j in range(size) if i != j])


def _dag(size: int) -> Digraph:
    """Complete DAG: every edge ``i -> j`` with ``i < j``."""
    return Digraph(size, [(i, j) for i in range(size) for j in range(i + 1, size)])


FAMILIES: dict[str, Callable[[int], Digraph]] = {
    "dipath": _dipath,
    "dicycle": _dicycle,
    "upath": _upath,
    "ucycle": _ucycle,
    "clique": _clique,
    "dag": _dag,
}


def family_graph(name: str, size: int) -> Digraph:
    """Build one member of a named family.  ``size`` is the vertex count."""
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}")
    if size < 1:
        raise ValueError("family size must be at least 1")
    return FAMILIES[name](size)


@dataclass(frozen=True)
class CorpusSpec:
    """Parsed corpus description.

    ``mode`` is ``"random"`` or ``"family"``.  Random corpora use
    ``n, p, seed, count``; family corpora use ``name, size``.
    """

    mode: str
    n: int = 0
    p: float = 0.0
    seed: int = 0
    count: int = 0
    name: str = ""
    size: int = 0

    @staticmethod
    def parse(text: str) -> "CorpusSpec":
        """Parse ``random:n=6,p=0.3,seed=42,count=100`` or
        ``family:name=upath,size=8``."""
        mode, sep, rest = text.partition(":")
        mode = mode.strip()
        if not sep or mode not in ("random", "family"):
            raise ValueError(
                f"bad corpus spec {text!r}: expected 'random:...' or 'family:...'"
            )
        fields: dict[str, str] = {}
        for part in rest.split(","):
            part = part.strip()
            if not part:
                continue
            key, eq, value = part.partition("=")
            if not eq:
                raise ValueError(f"bad corpus field {part!r} in {text!r}")
            fields[key.strip()] = value.strip()
        try:
            if mode == "random":
                spec = CorpusSpec(
                    mode="random",
                    n=int(fields.pop("n")),
                    p=float(fields.pop("p")),
                    seed=int(fields.pop("seed", "0")),
                    count=int(fields.pop("count", "1")),
                )
            else:
                spec = CorpusSpec(
                    mode="family",
                    name=fields.pop("name"),
                    size=int(fields.pop("size")),
                )
        except KeyError as exc:
            raise ValueError(f"corpus spec {text!r} is missing field {exc}") from None
        if fields:
            raise ValueError(f"unknown corpus fields {sorted(fields)} in {text!r}")
        spec.validate()
        return spec

    def validate(self) -> None:
        if self.mode == "random":
            if self.n < 0:
                raise ValueError("random corpus needs n >= 0")
            if not 0.0 <= self.p <= 1.0:
                raise ValueError("edge probability must lie in [0, 1]")
            if self.count < 1:
                raise ValueError("random corpus needs count >= 1")
        else:
            family_graph(self.name, self.size)  # raises on bad name/size

    @property
    def canonical(self) -> str:
        """Normalised spec string; equal specs print identically."""
        if self.mode == "random":
            return f"random:n={self.n},p={self.p:g},seed={self.seed},count={self.count}"
        return f"family:name={self.name},size={self.size}"

    def graphs(self) -> list[tuple[str, Digraph]]:
        """Materialise the corpus as ``(graph_id, graph)`` pairs."""
        if self.mode == "family":
            return [(f"{self.name}-{self.size}", family_graph(self.name, self.size))]
        rng = random.Random(self.seed)
        out: list[tuple[str, Digraph]] = []
        for index in range(self.count):
            edges = []
            for u in range(self.n):
                for v in range(self.n):
                    if rng.random() < self.p:
                        edges.append((u, v))
            out.append((f"random-{self.seed}-{index:04d}", Digraph(self.n, edges)))
        return out


def generate_corpus(spec: str | CorpusSpec) -> list[tuple[str, Digraph]]:
    if isinstance(spec, str):
        spec = CorpusSpec.parse(spec)
    return spec.graphs()

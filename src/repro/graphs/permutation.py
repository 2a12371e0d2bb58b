"""Permutations of vertex sets and orbit computation for generator sets.

A :class:`Permutation` is a bijection on an arbitrary finite vertex set.
Fixed points may be stored implicitly: ``Permutation({1: 2, 2: 1})`` acts as
the transposition (1 2) and fixes everything else, which keeps sparse
automorphisms of large graphs cheap.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import TYPE_CHECKING

from repro.utils.unionfind import UnionFind
from repro.utils.validation import ReproError

if TYPE_CHECKING:
    from repro.graphs.graph import Graph

Vertex = Hashable


class Permutation:
    """An immutable bijection on a finite support, identity elsewhere.

    >>> p = Permutation({1: 2, 2: 3, 3: 1})
    >>> p(1), p(2), p(3), p(7)
    (2, 3, 1, 7)
    >>> (p * p.inverse()).is_identity()
    True
    """

    __slots__ = ("_map", "_support", "_hash")

    def __init__(self, mapping: dict[Vertex, Vertex]) -> None:
        if set(mapping.keys()) != set(mapping.values()):
            raise ReproError("permutation mapping must be a bijection on its support")
        # Drop fixed points so equality and support are canonical.
        self._map = {k: v for k, v in mapping.items() if k != v}
        self._support: frozenset | None = None
        self._hash: int | None = None

    def __getstate__(self) -> dict:
        # The cached hash is salted per process for str vertices: not pickled.
        return self._map

    def __setstate__(self, state: dict) -> None:
        self._map = state
        self._support = None
        self._hash = None

    @classmethod
    def identity(cls) -> "Permutation":
        return cls({})

    @classmethod
    def transposition(cls, a: Vertex, b: Vertex) -> "Permutation":
        """The swap (a b)."""
        if a == b:
            return cls.identity()
        return cls({a: b, b: a})

    @classmethod
    def from_cycles(cls, cycles: Iterable[Iterable[Vertex]]) -> "Permutation":
        """Build from disjoint cycles, e.g. ``from_cycles([[1, 2, 3], [4, 5]])``."""
        mapping: dict[Vertex, Vertex] = {}
        for cycle in cycles:
            cycle = list(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if a in mapping:
                    raise ReproError(f"cycles are not disjoint at {a!r}")
                mapping[a] = b
        return cls(mapping)

    def __call__(self, v: Vertex) -> Vertex:
        """Image of *v* (fixed points map to themselves)."""
        return self._map.get(v, v)

    def support(self) -> frozenset:
        """Vertices actually moved by this permutation (cached)."""
        if self._support is None:
            self._support = frozenset(self._map)
        return self._support

    def is_identity(self) -> bool:
        return not self._map

    def inverse(self) -> "Permutation":
        return Permutation({v: k for k, v in self._map.items()})

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition ``(self * other)(v) == self(other(v))``."""
        if not isinstance(other, Permutation):
            return NotImplemented
        keys = set(self._map) | set(other._map)
        return Permutation({k: self(other(k)) for k in keys})

    def __pow__(self, exponent: int) -> "Permutation":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Permutation.identity()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def cycles(self) -> list[list[Vertex]]:
        """Disjoint cycle decomposition restricted to the support (deterministic)."""
        try:
            order = sorted(self._map)
        except TypeError:
            order = list(self._map)
        seen: set[Vertex] = set()
        out: list[list[Vertex]] = []
        for start in order:
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            v = self._map[start]
            while v != start:
                cycle.append(v)
                seen.add(v)
                v = self._map[v]
            out.append(cycle)
        return out

    def order(self) -> int:
        """Group-theoretic order (lcm of cycle lengths)."""
        from math import lcm

        return lcm(*(len(c) for c in self.cycles())) if self._map else 1

    def is_automorphism_of(self, graph: "Graph") -> bool:
        """Whether this permutation preserves *graph* (vertex set and adjacency)."""
        for v in self._map:
            if v not in graph or self._map[v] not in graph:
                return False
        for u, v in graph.edges():
            if not graph.has_edge(self(u), self(v)):
                return False
        return True

    def as_dict(self, domain: Iterable[Vertex]) -> dict[Vertex, Vertex]:
        """Explicit mapping over *domain* (fixed points included)."""
        return {v: self(v) for v in domain}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._map.items()))
        return self._hash

    def __repr__(self) -> str:
        if not self._map:
            return "Permutation(identity)"
        text = "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles())
        return f"Permutation{text}"


def orbits_of_generators(vertices: Iterable[Vertex], generators: Iterable[Permutation]) -> list[list[Vertex]]:
    """Orbits of the group generated by *generators* acting on *vertices*.

    Because an orbit of the generated group is exactly a connected component
    of the "moved-to" relation over the generator set, a union-find pass over
    generator supports suffices; no group elements are enumerated.
    """
    uf = UnionFind(vertices)
    for gen in generators:
        for v in gen.support():
            if v in uf:
                uf.union(v, gen(v))
    return uf.sets()

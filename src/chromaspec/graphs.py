"""Immutable simple-graph representation and combinatorial primitives.

Vertices are dense integer indices 0..n-1. Adjacency is kept both as sorted
neighbor tuples (iteration) and as bitset rows (fast pair and subset queries).
Graphs are immutable: composition operators always build new graphs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "from_edge_list",
    "is_connected",
    "connected_components",
    "edge_count_between",
    "is_independent_set",
    "classify_pair",
    "induced_subgraph",
    "min_degree",
    "is_regular",
    "read_edge_list",
    "write_edge_list",
    "to_dot",
    "to_json",
]


# Largest n with a computed chromatic number, so also the largest edge-list header.
CHROMATIC_CAP = 64


class GraphError(ValueError):
    """Raised for malformed graph construction or out-of-contract queries."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``rows[v]`` is a bitmask of the neighbors of ``v``; ``neighbors[v]`` is the
    same set as a sorted tuple.
    """

    n: int
    rows: tuple[int, ...]
    neighbors: tuple[tuple[int, ...], ...] = field(repr=False)
    degrees: tuple[int, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GraphError("graph needs at least one vertex")
        for v, row in enumerate(self.rows):
            if row >> self.n:
                raise GraphError(f"vertex {v} has a neighbor >= n")
            if (row >> v) & 1:
                raise GraphError(f"self-loop at vertex {v}")
        for v in range(self.n):
            for w in self.neighbors[v]:
                if not (self.rows[w] >> v) & 1:
                    raise GraphError(f"adjacency not symmetric at ({v},{w})")
        if any(d != row.bit_count() for d, row in zip(self.degrees, self.rows)):
            raise GraphError("degree cache inconsistent with adjacency")

    def has_edge(self, v: int, w: int) -> bool:
        return bool((self.rows[v] >> w) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for w in self.neighbors[v]:
                if v < w:
                    yield (v, w)

    @property
    def num_edges(self) -> int:
        return sum(self.degrees) // 2

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for v, w in self.edges():
            a[v, w] = a[w, v] = 1.0
        return a

    def require_min_degree_one(self) -> None:
        if 0 in self.degrees:
            v = self.degrees.index(0)
            raise GraphError(f"vertex {v} has degree 0")


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicates are merged.

    Rejects self-loops and out-of-range endpoints.
    """
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop ({u},{v}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return _from_rows(n, rows)


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _from_rows(n: int, rows: list[int]) -> Graph:
    neighbors = tuple(tuple(_bits(row)) for row in rows)
    degrees = tuple(row.bit_count() for row in rows)
    return Graph(n, tuple(rows), neighbors, degrees)


def _reach(g: Graph, start: int, within: int = -1) -> int:
    """Bitmask of the vertices reachable from ``start`` inside ``within``."""
    reach = frontier = start
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= g.rows[v]
        nxt &= within
        frontier = nxt & ~reach
        reach |= nxt
    return reach


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the components, ordered by their least vertex."""
    rest = (1 << g.n) - 1
    comps = []
    while rest:
        reach = _reach(g, rest & -rest)
        rest &= ~reach
        comps.append(_bits(reach))
    return comps


def is_connected(g: Graph) -> bool:
    return _reach(g, 1) == (1 << g.n) - 1


def _check_subset(g: Graph, u: frozenset[int] | set[int]) -> int:
    mask = 0
    for v in u:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} not in graph of size {g.n}")
        mask |= 1 << v
    return mask


def edge_count_between(g: Graph, u1: Iterable[int], u2: Iterable[int]) -> int:
    """Number of edges {u,v} with u in u1 and v in u2.

    Overlapping subsets are fine: each qualifying edge is counted once, per
    the set-of-edges definition.
    """
    s1, s2 = set(u1), set(u2)
    m1 = _check_subset(g, s1)
    m2 = _check_subset(g, s2)
    both = m1 & m2
    # The ordered pairs count an edge with both ends in u1 & u2 twice.
    pairs = sum((g.rows[v] & m2).bit_count() for v in s1)
    inside = sum((g.rows[v] & both).bit_count() for v in _bits(both)) // 2
    return pairs - inside


def is_independent_set(g: Graph, u: Iterable[int]) -> bool:
    s = set(u)
    mask = _check_subset(g, s)
    return all((g.rows[v] & mask) == 0 for v in s)


def classify_pair(g: Graph, v: int, w: int) -> str:
    """Return 'twin', 'duplicate', or 'neither' for a vertex pair.

    Twins are adjacent with equal neighborhoods outside the pair; duplicates
    are the non-adjacent analogue.
    """
    if v == w:
        raise GraphError("classify_pair needs two distinct vertices")
    clear = ~((1 << v) | (1 << w))
    same = (g.rows[v] & clear) == (g.rows[w] & clear)
    if not same:
        return "neither"
    return "twin" if g.has_edge(v, w) else "duplicate"


def induced_subgraph(g: Graph, u: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph on ``u`` plus the old->new vertex relabel map."""
    verts = sorted(set(u))
    if not verts:
        raise GraphError("induced subgraph of empty vertex set")
    _check_subset(g, verts)
    relabel = {old: new for new, old in enumerate(verts)}
    edges = [
        (relabel[v], relabel[w])
        for v, w in g.edges()
        if v in relabel and w in relabel
    ]
    return from_edge_list(len(verts), edges), relabel


def min_degree(g: Graph) -> int:
    return min(g.degrees)


def is_regular(g: Graph) -> Optional[int]:
    """The common degree if the graph is regular, else None."""
    d = g.degrees[0]
    return d if all(x == d for x in g.degrees) else None


# --- edge-list text format: "n m" then m lines "u v", 0-based ---

def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{v} {w}" for v, w in g.edges())
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphError("empty edge-list input")
    try:
        n, m = map(int, lines[0].split())
    except ValueError as exc:
        raise GraphError(f"bad header line {lines[0]!r}") from exc
    if n > CHROMATIC_CAP:
        raise GraphError(f"edge-list header has n = {n}, above the cap {CHROMATIC_CAP}")
    if len(lines) - 1 != m:
        raise GraphError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError as exc:
            raise GraphError(f"bad edge line {ln!r}") from exc
        edges.append((u, v))
    return from_edge_list(n, edges)


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {v} -- {w};" for v, w in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(g: Graph) -> str:
    return json.dumps({"n": g.n, "edges": [list(e) for e in g.edges()]}, sort_keys=True)

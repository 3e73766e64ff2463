"""Exhaustive scan over small connected graphs for sharp instances.

A graph on n vertices is an upper-triangular adjacency bitmask: bit e is the
e-th pair of ``combinations(range(n), 2)``.

The connected graphs are generated one isomorphism class at a time, vertex by
vertex (McKay 1998, "Isomorph-free exhaustive generation"). The classes on n
vertices come from the classes on n - 1 vertices: add one new vertex, join it
to each nonempty subset of the old vertices, and keep the canonical masks in
a set. This reaches every class. Every connected graph has a vertex that is
not a cut vertex, such as a leaf of a spanning tree; deleting it leaves a
connected graph on n - 1 vertices, whose class is already known, and the
deleted vertex is the new vertex joined to its old neighbours. The set holds
one mask per class, so memory grows with the number of classes, not with the
2^(n choose 2) labelled graphs.

Canonical masks come from individualization-refinement (McKay & Piperno 2014,
"Practical graph isomorphism, II"): refine an ordered vertex partition until
it is equitable, individualize each vertex of its first non-singleton cell in
turn, and recurse; the canonical mask is the least mask over the leaves, the
discrete partitions read as relabelings. Desk scale only (n <= 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator

from .bounds import SHARPNESS_TOL
from .coloring import chromatic_number
from .graphs import Graph, GraphError, from_edge_list
from .spectral import largest_eigenvalue, spectrum

__all__ = [
    "SEARCH_CAP",
    "SearchHit",
    "graph_from_mask",
    "canonical_mask",
    "connected_classes",
    "search_sharp",
]

SEARCH_CAP = 9


@dataclass(frozen=True)
class SearchHit:
    n: int
    mask: int
    edges: tuple[tuple[int, int], ...]
    chi: int
    lambda_max: float
    multiplicity: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "chi": self.chi,
            "lambda_max": self.lambda_max,
            "multiplicity": self.multiplicity,
        }


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The vertex pair of each mask bit; keyed by n only, so the cache stays small."""
    return tuple(combinations(range(n), 2))


def graph_from_mask(n: int, mask: int) -> Graph:
    return from_edge_list(n, [p for e, p in enumerate(_pairs(n)) if (mask >> e) & 1])


def _rows_from_mask(n: int, mask: int) -> list[int]:
    rows = [0] * n
    for e, (i, j) in enumerate(_pairs(n)):
        if (mask >> e) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


def _relabelled_mask(rows: list[int], order: Iterable[int]) -> int:
    """Mask of the graph with vertex ``order[i]`` relabelled i."""
    order = list(order)
    n = len(order)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    mask = 0
    offset = 0  # bit of pair (i, i + 1)
    for i, v in enumerate(order):
        row = rows[v]
        new = 0
        while row:
            low = row & -row
            new |= 1 << pos[low.bit_length() - 1]
            row ^= low
        mask |= (new >> (i + 1)) << offset
        offset += n - 1 - i
    return mask


def _refinement_cells(rows: list[int], cells: list[int], splitters: list[int]) -> list[int]:
    """Refine an ordered partition (cells as vertex bitmasks) until it is equitable.

    Each splitter W splits every cell by the number of neighbours its vertices
    have in W, smallest count first and in place; the new cells become
    splitters too. Once every splitter is processed, all vertices of a cell
    have the same number of neighbours in every cell. Only cell positions and
    counts steer the splitting, never vertex labels, so relabelling the graph
    and the input relabels the output the same way.
    """
    cells = list(cells)
    splitters = list(splitters)
    s = 0
    while s < len(splitters) and len(cells) < len(rows):
        w = splitters[s]
        s += 1
        i = 0
        while i < len(cells):
            cell = cells[i]
            i += 1
            if not cell & (cell - 1):
                continue
            groups: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                k = (rows[low.bit_length() - 1] & w).bit_count()
                groups[k] = groups.get(k, 0) | low
                rest ^= low
            if len(groups) > 1:
                parts = [groups[k] for k in sorted(groups)]
                cells[i - 1 : i] = parts
                splitters.extend(parts)
                i += len(parts) - 1
    return cells


def canonical_mask(n: int, mask: int) -> int:
    """Least relabelled mask over the leaves of the individualization-refinement tree.

    Isomorphic graphs get the same value because the tree is built from the
    graph alone, not from its labels. Of several twins (vertices with the same
    open or the same closed neighbourhood) in the cell being individualized,
    only the first is tried: swapping two twins is an automorphism that fixes
    the partition, so the others lead to the same leaf masks.
    """
    if n < 1:
        raise GraphError("graph needs at least one vertex")
    rows = _rows_from_mask(n, mask)
    full = (1 << n) - 1
    best = None
    stack = [_refinement_cells(rows, [full], [full])]
    while stack:
        cells = stack.pop()
        target = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if target is None:
            leaf = _relabelled_mask(rows, [c.bit_length() - 1 for c in cells])
            if best is None or leaf < best:
                best = leaf
            continue
        cell = cells[target]
        tried: set[int] = set()
        rest = cell
        while rest:
            low = rest & -rest
            rest ^= low
            row = rows[low.bit_length() - 1]
            # an open twin shares `row`, a closed twin `row | low`; the two
            # kinds never collide, since a row never holds its own vertex
            if row in tried or row | low in tried:
                continue
            tried.update((row, row | low))
            split = cells[:target] + [low, cell ^ low] + cells[target + 1 :]
            stack.append(_refinement_cells(rows, split, [low]))
    assert best is not None
    return best


def _augmented(n: int, parents: list[int]) -> list[int]:
    """Sorted canonical masks of every parent on n - 1 vertices plus a new
    vertex joined to a nonempty subset of the old ones."""
    # bit of pair (v, n - 1) for each old vertex v, then the OR of those
    # bits for every subset of old vertices (bit v of the index is v)
    joins = [0]
    for e, (_, j) in enumerate(_pairs(n)):
        if j == n - 1:
            joins += [join | 1 << e for join in joins]
    seen: set[int] = set()
    for parent in parents:
        base = _relabelled_mask(_rows_from_mask(n - 1, parent) + [0], range(n))
        seen.update(canonical_mask(n, base | join) for join in joins[1:])
    return sorted(seen)


def connected_classes(max_n: int) -> Iterator[tuple[int, list[int]]]:
    """Yield ``(n, masks)`` for n = 1..max_n: the sorted canonical masks of the
    connected graphs on n vertices, one per isomorphism class."""
    level = [0]  # K_1
    for n in range(1, max_n + 1):
        if n > 1:
            level = _augmented(n, level)
        yield n, level


def search_sharp(
    max_n: int,
    mult: int | None = None,
    tol: float = SHARPNESS_TOL,
) -> list[SearchHit]:
    """All connected graphs with n <= max_n attaining lambda_N = chi/(chi-1).

    With ``mult`` set, only hits whose top-eigenvalue multiplicity equals it
    are kept. One hit per isomorphism class, sorted by (n, canonical mask).
    """
    if max_n > SEARCH_CAP:
        raise GraphError(f"search supports max_n <= {SEARCH_CAP}, got {max_n}")
    if max_n < 2:
        raise GraphError("search needs max_n >= 2")
    hits: list[SearchHit] = []
    for n, classes in connected_classes(max_n):
        if n < 2:
            continue
        for cmask in classes:
            g = graph_from_mask(n, cmask)
            chi = chromatic_number(g)
            if chi < 2:
                continue
            lam, m = largest_eigenvalue(spectrum(g))
            if abs(lam - chi / (chi - 1)) > tol:
                continue
            if mult is not None and m != mult:
                continue
            hits.append(SearchHit(n, cmask, tuple(g.edges()), chi, lam, m))
    return hits

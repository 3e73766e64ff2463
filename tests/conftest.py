"""Shared fixtures and small independent oracles for the test suite.

The brute-force helpers here deliberately avoid the library's own search and
enumeration code so that tests compare two independent computations.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from chromaspec.graphs import Graph, from_edge_list


def path(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves: int) -> Graph:
    """Center 0 joined to `leaves` leaf vertices."""
    return from_edge_list(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def bowtie() -> Graph:
    """Two triangles sharing vertex 0."""
    return from_edge_list(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def brute_chromatic(g: Graph) -> int:
    """Smallest k admitting a proper coloring, by exhaustive assignment."""
    if g.num_edges == 0:
        return 1
    for k in range(2, g.n + 1):
        for assignment in product(range(k), repeat=g.n):
            if all(assignment[v] != assignment[w] for v, w in g.edges()):
                return k
    raise AssertionError("unreachable: g.n colors always suffice")


def brute_canonical_colorings(g: Graph, k: int) -> set[tuple[int, ...]]:
    """All proper k-colorings using every color, canonicalized and deduped.

    Canonical form: classes renumbered by first occurrence along the vertex
    order. Every one of the k^n assignments is tested at once, as the rows of
    a numpy array, against the edge list. Independent of the library's
    enumeration.
    """
    table = np.indices((k,) * g.n, dtype=np.int8).reshape(g.n, -1)
    keep = np.ones(table.shape[1], dtype=bool)
    for v, w in g.edges():
        keep &= table[v] != table[w]
    for c in range(k):
        keep &= (table == c).any(axis=0)
    out: set[tuple[int, ...]] = set()
    for assignment in table[:, keep].T.tolist():
        relabel: dict[int, int] = {}
        out.add(tuple(relabel.setdefault(c, len(relabel)) for c in assignment))
    return out


def brute_equitable_DinvA(g: Graph, assignment, k: int) -> bool:
    """(k-1) * e(v, V_i) == deg v for every v and every class i not its own.

    Neighbor counts per class, and the degrees, come from the edge list.
    """
    counts = [[0] * k for _ in range(g.n)]
    for v, w in g.edges():
        counts[v][assignment[w]] += 1
        counts[w][assignment[v]] += 1
    return all(
        (k - 1) * counts[v][i] == sum(counts[v])
        for v in range(g.n)
        for i in range(k)
        if i != assignment[v]
    )


def mycielskian(n: int, edges: list[tuple[int, int]]) -> tuple[int, list[tuple[int, int]]]:
    """Mycielski's construction: chi grows by one, the clique number stays.

    Vertex i gets a shadow n + i joined to the neighbors of i; the shadows are
    joined to one new vertex 2n.
    """
    out = list(edges)
    for i, j in edges:
        out += [(n + i, j), (i, n + j)]
    out += [(n + i, 2 * n) for i in range(n)]
    return 2 * n + 1, out


def chi_pool() -> list[tuple[Graph, int]]:
    """The benchmark's G(n, 1/2) graphs (33 <= n <= 38) with their stored chi.

    Each chi was proved once and checked against a max clique and a witness
    coloring when the pool was made; the file is only read here.
    """
    path = Path(__file__).resolve().parent.parent / "perfbench" / "chi_pool.json"
    out = []
    for item in json.loads(path.read_text())["graphs"]:
        n, rows = item["n"], [int(r, 16) for r in item["rows"]]
        edges = [(v, w) for v, w in combinations(range(n), 2) if rows[v] >> w & 1]
        out.append((from_edge_list(n, edges), item["chi"]))
    return out


def brute_psd_nullity(m: list[list[int]]) -> int | None:
    """Nullity of a symmetric matrix if it is PSD, else None, from definitions.

    PSD iff every principal minor is >= 0; nullity is n minus the rank. Both
    come from Fraction row reduction, not from the library's elimination.
    """

    def reduce(rows: list[list[Fraction]]) -> tuple[Fraction, int]:
        """(determinant, rank) by Gaussian elimination with row swaps."""
        rows = [list(r) for r in rows]
        det, rank = Fraction(1), 0
        for col in range(len(rows[0]) if rows else 0):
            pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
            if pivot is None:
                det = Fraction(0)
                continue
            if pivot != rank:
                rows[rank], rows[pivot] = rows[pivot], rows[rank]
                det = -det
            det *= rows[rank][col]
            for i in range(len(rows)):
                if i != rank and rows[i][col]:
                    f = rows[i][col] / rows[rank][col]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
            rank += 1
        return det, rank

    n = len(m)
    for size in range(1, n + 1):
        for idx in combinations(range(n), size):
            if reduce([[Fraction(m[i][j]) for j in idx] for i in idx])[0] < 0:
                return None
    return n - reduce([[Fraction(x) for x in row] for row in m])[1]


def brute_spectrum(g: Graph) -> np.ndarray:
    """Sorted eigenvalues of I - D^{-1} A via the generic dense eigensolver.

    Independent cross-check: solves the *non-symmetric* form directly.
    """
    a = g.adjacency_matrix()
    d = np.asarray(g.degrees, dtype=float)
    lap = np.eye(g.n) - a / d[:, None]
    vals = np.linalg.eigvals(lap)
    assert np.max(np.abs(vals.imag)) < 1e-9
    return np.sort(vals.real)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)

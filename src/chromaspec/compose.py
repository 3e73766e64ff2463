"""1-sum, join, and edge-disjoint union, plus eigenfunction gluing.

The glue vertex of a 1-sum always takes index 0 in the result; the summands'
remaining vertices follow in input order with their glue vertex omitted, so
the embeddings are deterministic and certificate tests can rely on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, GraphError, from_edge_list
from .spectral import verify_eigenpair

__all__ = [
    "GluedGraph",
    "one_sum",
    "one_sum_many",
    "join",
    "disjoint_union",
    "edge_disjoint_union",
    "glue_functions",
    "one_sum_multiplicity_prediction",
    "glue_eigenbasis",
]

GLUE_VANISH_REL_TOL = 1e-9


@dataclass(frozen=True)
class GluedGraph:
    """A composed graph plus the injective old->new embeddings per summand.

    For a 1-sum the embeddings overlap exactly on the glue vertex (index 0);
    for an edge-disjoint union they overlap on the shared vertex set.
    """

    result: Graph
    embeddings: tuple[dict[int, int], ...]
    shared: tuple[int, ...]


def one_sum_many(parts: list[tuple[Graph, int]]) -> GluedGraph:
    """1-sum of several graphs: all glue vertices identified into vertex 0."""
    if not parts:
        raise GraphError("1-sum needs at least one summand")
    embeddings = []
    edges = []
    offset = 1
    for g, x in parts:
        if not (0 <= x < g.n):
            raise GraphError(f"glue vertex {x} not in graph of size {g.n}")
        emb = {x: 0}
        for v in range(g.n):
            if v != x:
                emb[v] = offset
                offset += 1
        embeddings.append(emb)
        edges.extend((emb[v], emb[w]) for v, w in g.edges())
    result = from_edge_list(offset, edges)
    return GluedGraph(result, tuple(embeddings), (0,))


def one_sum(g1: Graph, x1: int, g2: Graph, x2: int) -> GluedGraph:
    return one_sum_many([(g1, x1), (g2, x2)])


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all edges between the two vertex sets."""
    edges = list(g1.edges())
    edges.extend((g1.n + v, g1.n + w) for v, w in g2.edges())
    edges.extend((v, g1.n + w) for v in range(g1.n) for w in range(g2.n))
    return from_edge_list(g1.n + g2.n, edges)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    edges = list(g1.edges())
    edges.extend((g1.n + v, g1.n + w) for v, w in g2.edges())
    return from_edge_list(g1.n + g2.n, edges)


def edge_disjoint_union(g1: Graph, g2: Graph) -> GluedGraph:
    """Union over a shared index space; the edge sets must be disjoint.

    Callers align vertex labels beforehand; vertex i of g1 and vertex i of g2
    are the same vertex.
    """
    shared_edges = set(g1.edges()) & set(g2.edges())
    if shared_edges:
        raise GraphError(f"edge sets overlap: {sorted(shared_edges)}")
    n = max(g1.n, g2.n)
    result = from_edge_list(n, list(g1.edges()) + list(g2.edges()))
    shared = tuple(range(min(g1.n, g2.n)))
    emb1 = {v: v for v in range(g1.n)}
    emb2 = {v: v for v in range(g2.n)}
    return GluedGraph(result, (emb1, emb2), shared)


def glue_functions(f1, f2, glue: GluedGraph) -> np.ndarray:
    """Common extension of two summand functions along the embeddings.

    The functions must agree exactly on the glue locus; callers rescale first.
    """
    emb1, emb2 = glue.embeddings
    out = np.zeros(glue.result.n)
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    for old, new in emb1.items():
        out[new] = f1[old]
    for old, new in emb2.items():
        if new in emb1.values() and out[new] != f2[old]:
            raise GraphError(f"functions disagree at shared vertex {new}")
        out[new] = f2[old]
    return out


def one_sum_multiplicity_prediction(m1: int, m2: int, both_glue_zero: bool) -> int:
    """Multiplicity of the top eigenvalue of a 1-sum per the two-case split.

    When every top eigenfunction of both sides vanishes at the glue vertex the
    multiplicities add; otherwise one is lost. For an arbitrary eigenvalue
    (not the top), only m1 + m2 - 1 is a valid lower bound.
    """
    return m1 + m2 if both_glue_zero else m1 + m2 - 1


def _rotate_glue_last(basis: np.ndarray, x: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Orthogonal recombination so at most one basis function is nonzero at x.

    Returns (glue-vanishing functions as rows, distinguished function or None).
    """
    if len(basis) == 0:
        return basis, None
    b = basis[:, x].copy()
    scale = max(np.linalg.norm(row, np.inf) for row in basis)
    if np.linalg.norm(b) <= GLUE_VANISH_REL_TOL * scale:
        return basis, None
    # Householder step: send the evaluation-at-x functional onto row 0
    e = np.zeros_like(b)
    e[0] = np.linalg.norm(b)
    u = b - e
    if np.linalg.norm(u) > 0:
        u /= np.linalg.norm(u)
        rotated = basis - 2.0 * np.outer(u, u @ basis)
    else:
        rotated = basis.copy()
    distinguished = rotated[0]
    vanishing = rotated[1:]
    # the rotation is exact up to roundoff; pin the glue values to zero
    vanishing = vanishing.copy()
    vanishing[:, x] = 0.0
    return vanishing, distinguished


def glue_eigenbasis(
    g1: Graph,
    x1: int,
    basis1: np.ndarray,
    g2: Graph,
    x2: int,
    basis2: np.ndarray,
    lam: float,
    verify_tol: float = 1e-8,
) -> list[np.ndarray]:
    """Eigenfunctions of the 1-sum for lam, built from summand eigenbases.

    ``basis1`` and ``basis2`` hold eigenfunctions as rows (possibly none).
    Each side is recombined so at most one function is nonzero at the glue
    vertex; the vanishing ones are zero-extended, and the distinguished pair,
    if both present, is rescaled to agree and glued.
    """
    basis1 = np.atleast_2d(np.asarray(basis1, dtype=float)) if np.size(basis1) else np.zeros((0, g1.n))
    basis2 = np.atleast_2d(np.asarray(basis2, dtype=float)) if np.size(basis2) else np.zeros((0, g2.n))
    for f in basis1:
        if not verify_eigenpair(g1, lam, f, verify_tol).valid:
            raise GraphError("basis1 contains a non-eigenfunction")
    for f in basis2:
        if not verify_eigenpair(g2, lam, f, verify_tol).valid:
            raise GraphError("basis2 contains a non-eigenfunction")
    glued = one_sum(g1, x1, g2, x2)
    van1, dist1 = _rotate_glue_last(basis1, x1)
    van2, dist2 = _rotate_glue_last(basis2, x2)
    zero1 = np.zeros(g1.n)
    zero2 = np.zeros(g2.n)
    out = [glue_functions(f, zero2, glued) for f in van1]
    out += [glue_functions(zero1, f, glued) for f in van2]
    if dist1 is not None and dist2 is not None:
        scaled2 = dist2 * (dist1[x1] / dist2[x2])
        scaled2[x2] = dist1[x1]
        out.append(glue_functions(dist1, scaled2, glued))
    # a distinguished function on one side only cannot be extended: its
    # zero-extension would be discontinuous at the glue vertex, so it is lost
    return out

"""Exact coloring machinery and coloring-tied eigenfunction constructions.

Chromatic number is exact: DSATUR gives the upper bound, a greedy maximal
clique the lower bound, and backtracking with color-symmetry breaking closes
the gap. Enumeration of proper chi-colorings is complete and canonical
(classes ordered by least contained vertex), which makes "up to permutation"
deduplication trivial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .graphs import Graph, GraphError, edge_count_between, induced_subgraph
from .spectral import rayleigh_quotient

__all__ = [
    "CHROMATIC_CAP",
    "ENUMERATION_CAP",
    "Coloring",
    "is_proper",
    "greedy_clique",
    "dsatur",
    "chromatic_number",
    "enumerate_chi_colorings",
    "is_equitable_DinvA",
    "is_equitable_A",
    "class_indicator_pm",
    "pair_pm",
    "plus_minus_check",
    "support_rq_decomposition",
    "restricted_eigenvalue_prediction",
]

CHROMATIC_CAP = 64
ENUMERATION_CAP = 32


@dataclass(frozen=True)
class Coloring:
    """Per-vertex color assignment using colors 0..k-1, all of them used."""

    assignment: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        used = set(self.assignment)
        if used != set(range(self.k)):
            raise GraphError(f"colors used {sorted(used)} != 0..{self.k - 1}")

    @classmethod
    def from_classes(cls, n: int, classes: Iterable[Iterable[int]]) -> "Coloring":
        assignment = [-1] * n
        k = 0
        for k, cl in enumerate(classes, start=1):
            for v in cl:
                if assignment[v] != -1:
                    raise GraphError(f"vertex {v} in two classes")
                assignment[v] = k - 1
        if -1 in assignment:
            raise GraphError("classes do not cover all vertices")
        return cls(tuple(assignment), k)

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.k)]
        for v, c in enumerate(self.assignment):
            out[c].append(v)
        return out

    def canonical(self) -> "Coloring":
        """Relabel classes by their least contained vertex."""
        order = sorted(range(self.k), key=lambda c: self.assignment.index(c))
        relabel = {old: new for new, old in enumerate(order)}
        return Coloring(tuple(relabel[c] for c in self.assignment), self.k)

    def to_json(self) -> str:
        return json.dumps(
            {"k": self.k, "classes": self.classes()}, sort_keys=True
        )


def is_proper(g: Graph, c: Coloring) -> bool:
    return all(c.assignment[v] != c.assignment[w] for v, w in g.edges())


def greedy_clique(g: Graph) -> list[int]:
    """Maximal clique grown greedily from high-degree vertices."""
    order = sorted(range(g.n), key=lambda v: -g.degrees[v])
    clique: list[int] = []
    mask = (1 << g.n) - 1
    for v in order:
        if (mask >> v) & 1:
            clique.append(v)
            mask &= g.rows[v]
    return clique


def dsatur(g: Graph) -> Coloring:
    """DSATUR heuristic; ties broken by saturation, degree, then low index."""
    assignment = [-1] * g.n
    neighbor_colors: list[set[int]] = [set() for _ in range(g.n)]
    for _ in range(g.n):
        v = max(
            (u for u in range(g.n) if assignment[u] == -1),
            key=lambda u: (len(neighbor_colors[u]), g.degrees[u], -u),
        )
        color = 0
        while color in neighbor_colors[v]:
            color += 1
        assignment[v] = color
        for w in g.neighbors[v]:
            neighbor_colors[w].add(color)
    return Coloring(tuple(assignment), max(assignment) + 1).canonical()


def _can_color_with(g: Graph, k: int, clique: list[int]) -> bool:
    """Backtracking k-colorability with symmetry breaking.

    A new color class may only be opened by the least-index uncolored vertex,
    and the seed clique is pre-colored.
    """
    if len(clique) > k:
        return False
    assignment = [-1] * g.n
    for i, v in enumerate(clique):
        assignment[v] = i
    order = sorted(
        (v for v in range(g.n) if assignment[v] == -1),
        key=lambda v: -g.degrees[v],
    )

    def rec(idx: int, used: int) -> bool:
        if idx == len(order):
            return True
        v = order[idx]
        forbidden = {assignment[w] for w in g.neighbors[v] if assignment[w] != -1}
        for color in range(min(used + 1, k)):
            if color in forbidden:
                continue
            assignment[v] = color
            if rec(idx + 1, max(used, color + 1)):
                return True
            assignment[v] = -1
        return False

    return rec(0, len(clique))


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number via branch and bound; hard cap on size."""
    if g.n > CHROMATIC_CAP:
        raise GraphError(
            f"chromatic_number supports n <= {CHROMATIC_CAP}, got {g.n}"
        )
    if g.num_edges == 0:
        return 1
    upper = dsatur(g).k
    clique = greedy_clique(g)
    k = max(len(clique), 2)
    while k < upper:
        if _can_color_with(g, k, clique):
            return k
        k += 1
    return upper


def enumerate_chi_colorings(g: Graph, chi: int) -> list[Coloring]:
    """All proper chi-colorings, one representative per class permutation.

    The canonical-first symmetry breaking (vertex v may open color c only if
    colors 0..c-1 are already open) enumerates exactly the canonical forms.
    """
    if g.n > ENUMERATION_CAP:
        raise GraphError(
            f"enumerate_chi_colorings supports n <= {ENUMERATION_CAP}, got {g.n}"
        )
    if chi != chromatic_number(g):
        raise GraphError(f"chi={chi} is not the chromatic number of the graph")
    results: list[Coloring] = []
    assignment = [-1] * g.n

    def rec(v: int, used: int) -> None:
        if v == g.n:
            if used == chi:
                results.append(Coloring(tuple(assignment), chi))
            return
        forbidden = {assignment[w] for w in g.neighbors[v] if w < v}
        for color in range(min(used + 1, chi)):
            if color in forbidden:
                continue
            assignment[v] = color
            rec(v + 1, max(used, color + 1))
            assignment[v] = -1

    rec(0, 0)
    return results


def is_equitable_DinvA(g: Graph, c: Coloring) -> bool:
    """Exact integer test: (k-1) * e(v, V_i) == deg v for every v not in V_i."""
    if not is_proper(g, c):
        raise GraphError("equitability is only defined for proper colorings")
    classes = c.classes()
    for v in range(g.n):
        for i, cl in enumerate(classes):
            e = edge_count_between(g, [v], cl)
            if c.assignment[v] == i:
                if e != 0:
                    return False
            elif (c.k - 1) * e != g.degrees[v]:
                return False
    return True


def is_equitable_A(g: Graph, c: Coloring) -> bool:
    """Per-vertex counts into each class are constant within every class."""
    classes = c.classes()
    for cl in classes:
        for target in classes:
            counts = {edge_count_between(g, [v], target) for v in cl}
            if len(counts) > 1:
                return False
    return True


def class_indicator_pm(g: Graph, c: Coloring, i: int, j: int) -> np.ndarray:
    """+1 on class i, -1 on class j, 0 elsewhere."""
    if i == j or not (0 <= i < c.k and 0 <= j < c.k):
        raise GraphError(f"invalid class pair ({i},{j}) for k={c.k}")
    f = np.zeros(g.n)
    for v, color in enumerate(c.assignment):
        if color == i:
            f[v] = 1.0
        elif color == j:
            f[v] = -1.0
    return f


def pair_pm(g: Graph, v: int, w: int) -> np.ndarray:
    if v == w:
        raise GraphError("pair function needs distinct vertices")
    f = np.zeros(g.n)
    f[v] = 1.0
    f[w] = -1.0
    return f


def plus_minus_check(
    g: Graph, vplus: Iterable[int], vminus: Iterable[int]
) -> Optional[Fraction]:
    """Eigenvalue of the +1/-1/0 indicator of (vplus, vminus), if it is one.

    Checks the two combinatorial conditions exactly: outside vertices see both
    sides equally, and (lambda-1) * deg v = e(v, opposite) - e(v, same) is
    consistent across the support.
    """
    plus, minus = set(vplus), set(vminus)
    if not plus or not minus:
        raise GraphError("both signed subsets must be non-empty")
    if plus & minus:
        raise GraphError("signed subsets must be disjoint")
    outside = set(range(g.n)) - plus - minus
    for v0 in outside:
        if edge_count_between(g, [v0], plus) != edge_count_between(g, [v0], minus):
            return None
    lam: Optional[Fraction] = None
    for v, same, opp in [(v, plus, minus) for v in plus] + [
        (v, minus, plus) for v in minus
    ]:
        num = edge_count_between(g, [v], opp) - edge_count_between(
            g, [v], same - {v}
        )
        cand = 1 + Fraction(num, g.degrees[v])
        if lam is None:
            lam = cand
        elif lam != cand:
            return None
    return lam


def support_rq_decomposition(
    g: Graph, c: Coloring, f, class_subset: Iterable[int]
) -> tuple[float, float]:
    """Rayleigh quotient of a class-supported function vs its predicted split.

    Returns (RQ on the full graph, prediction from the restricted graph); for
    an equitable coloring the two agree.
    """
    if not is_equitable_DinvA(g, c):
        raise GraphError("decomposition requires an equitable coloring")
    idx = sorted(set(class_subset))
    arr = np.asarray(f, dtype=float)
    support_classes = {c.assignment[v] for v in range(g.n) if arr[v] != 0.0}
    if not support_classes <= set(idx):
        raise GraphError("function support leaks outside the chosen classes")
    chi = c.k
    size = len(idx)
    lhs = rayleigh_quotient(g, arr)
    if size == 1:
        return lhs, (chi - size) / (chi - 1)
    verts = [v for v in range(g.n) if c.assignment[v] in idx]
    sub, relabel = induced_subgraph(g, verts)
    f_sub = np.zeros(sub.n)
    for old, new in relabel.items():
        f_sub[new] = arr[old]
    rhs = (size - 1) / (chi - 1) * rayleigh_quotient(sub, f_sub) + (
        chi - size
    ) / (chi - 1)
    return lhs, rhs


def restricted_eigenvalue_prediction(lam: float, k: int, i_size: int) -> float:
    """Eigenvalue of a class-restricted eigenfunction on the restricted graph."""
    if i_size < 2:
        raise GraphError("restriction prediction needs at least two classes")
    return 1.0 + (k - 1) * (lam - 1.0) / (i_size - 1)

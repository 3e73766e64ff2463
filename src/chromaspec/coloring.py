"""Exact coloring machinery and coloring-tied eigenfunction constructions.

Color classes are vertex bitmasks, tested against the bitset rows of
``Graph``. Chromatic number is exact: from a greedy maximal clique, a DSATUR
branch and bound tries k = |clique|, |clique|+1, ... and its first k-coloring
is the witness (``chromatic_coloring``). It branches on the most saturated
uncolored vertex, backtracks as soon as an uncolored vertex has no allowed
color (forward checking), breaks color symmetry by opening colors in order,
and colors the components of the uncolored vertices one at a time; its first
descent with n colors is the DSATUR heuristic. One enumerator lists the
proper chi-colorings, canonically (classes ordered by least contained vertex),
which makes "up to permutation" deduplication trivial; it tests each
coloring's equitability as it goes, each vertex once its closed neighborhood
has colors, and hands a flag to a callback at every leaf.
``enumerate_chi_colorings`` keeps every coloring; ``bounds.full_report``
keeps the first and the flags, and stops after ``ENUMERATION_BUDGET``
colorings. Equitability counts are popcounts of a row against a class mask.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

import numpy as np

from .graphs import (
    CHROMATIC_CAP, Graph, GraphError, _bits, _reach, edge_count_between, induced_subgraph,
)
from .spectral import rayleigh_quotient

__all__ = [
    "CHROMATIC_CAP",
    "ENUMERATION_CAP",
    "ENUMERATION_BUDGET",
    "Coloring",
    "is_proper",
    "greedy_clique",
    "dsatur",
    "chromatic_coloring",
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

ENUMERATION_CAP = 32
# full_report checks at most this many chi-colorings of one graph.
ENUMERATION_BUDGET = 2**18


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


def _check_cap(g: Graph, name: str) -> None:
    if g.n > CHROMATIC_CAP:
        raise GraphError(f"{name} supports n <= {CHROMATIC_CAP}, got {g.n}")


def dsatur(g: Graph) -> Coloring:
    """DSATUR heuristic: the branch and bound's first descent with every
    color allowed, seeded with the greedy clique; it never backtracks."""
    _check_cap(g, "dsatur")
    assignment = _can_color_with(g, g.n, greedy_clique(g))
    return Coloring(tuple(assignment), max(assignment) + 1).canonical()


def _can_color_with(g: Graph, k: int, clique: list[int]) -> Optional[list[int]]:
    """DSATUR branch and bound: a k-coloring of the graph, or None if it has none.

    The seed clique is pre-colored and each color class is a vertex bitmask.
    The uncolored vertices, also a bitmask, split into the components of the
    graph they induce; each is colored on its own, since no edge joins two of
    them. Every node branches on the vertex of its component with the fewest
    allowed colors (ties: most uncolored neighbors, then lowest index) and
    backtracks as soon as some vertex there has no allowed color (forward
    checking). Symmetry breaking: a vertex may only open the next unopened
    color. On success each vertex's last color written is its color in the
    branch that succeeded, since nothing is written after it.
    """
    if len(clique) > k:
        return None
    rows = g.rows
    masks = [0] * k
    assignment = [-1] * g.n
    # sat[v]: number of distinct colors among v's colored neighbors.
    sat = [0] * g.n
    uncolored = (1 << g.n) - 1
    for color, v in enumerate(clique):
        masks[color] = 1 << v
        assignment[v] = color
        uncolored ^= 1 << v
        for w in g.neighbors[v]:
            sat[w] += 1

    def colorable(uncolored: int, used: int) -> bool:
        while uncolored:
            part = _reach(g, uncolored & -uncolored, uncolored)
            if not branch(part, used):
                return False
            uncolored ^= part
        return True

    def branch(part: int, used: int) -> bool:
        # Allowed colors of w: used - sat[w] open ones, plus a new one if
        # used < k. So the fewest allowed is the highest sat.
        best_sat, best_deg, v = -1, -1, -1
        for w in _bits(part):
            s = sat[w]
            if s >= best_sat:
                if s == k:
                    return False
                deg = (rows[w] & part).bit_count()
                if s > best_sat or deg > best_deg:
                    best_sat, best_deg, v = s, deg, w
        row = rows[v]
        bit = 1 << v
        part ^= bit
        for color in range(min(used + 1, k)):
            mask = masks[color]
            if row & mask:
                continue
            # Uncolored neighbors that see this color for the first time.
            fresh = [w for w in _bits(row & part) if not rows[w] & mask]
            for w in fresh:
                sat[w] += 1
            masks[color] = mask | bit
            assignment[v] = color
            ok = colorable(part, used + (color == used))
            masks[color] = mask
            for w in fresh:
                sat[w] -= 1
            if ok:
                return True
        return False

    return assignment if colorable(uncolored, len(clique)) else None


def chromatic_coloring(g: Graph) -> Coloring:
    """A chi-coloring, the witness of the exact chromatic number: the first
    coloring the branch and bound finds for k = |clique|, |clique|+1, ..."""
    _check_cap(g, "chromatic_number")
    clique = greedy_clique(g)
    k = len(clique)
    while (assignment := _can_color_with(g, k, clique)) is None:
        k += 1
    return Coloring(tuple(assignment), k).canonical()


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number via branch and bound; hard cap on size."""
    return chromatic_coloring(g).k


class _BudgetSpent(Exception):
    """Raised at the first coloring past the budget of ``_visit_chi_colorings``."""


def _visit_chi_colorings(
    g: Graph,
    chi: int,
    visit: Callable[[list[int], bool], object],
    budget: Optional[int] = None,
) -> bool:
    """Call ``visit(assignment, equitable)`` at each canonical chi-coloring.

    Colorings come one per class permutation, in lexicographic order of their
    assignments: vertices are colored 0, 1, ..., n-1, vertex v takes a color
    whose class bitmask misses its row, and it may open color c only if
    colors 0..c-1 are already open. ``assignment`` is the enumerator's own
    list, valid only during the call. ``equitable`` is the exact test of
    ``is_equitable_DinvA``, done as the search goes: vertex w is tested right
    after vertex max(w, highest neighbor of w) is colored, when none of its
    class counts can change any more; a failure is carried down, and nothing
    below it is tested again. After ``budget`` colorings the enumeration
    stops. Returns whether every coloring was visited.

    Neither ``chi`` nor the size of the graph is checked here.
    """
    n, rows, degrees = g.n, g.rows, g.degrees
    k1 = chi - 1
    # ready[v]: the vertices whose closed neighborhood lies in 0..v-1, but
    # not in 0..v-2; they are tested once vertices 0..v-1 have colors.
    ready: list[list[int]] = [[] for _ in range(n + 1)]
    for w, row in enumerate(rows):
        ready[max(w, row.bit_length() - 1) + 1].append(w)
    assignment = [-1] * n
    masks = [0] * chi
    visited = 0

    def equitable_at(ws: list[int]) -> bool:
        for w in ws:
            row, deg, own = rows[w], degrees[w], assignment[w]
            for i, mask in enumerate(masks):
                if i != own and k1 * (row & mask).bit_count() != deg:
                    return False
        return True

    def rec(v: int, used: int, ok: bool) -> None:
        nonlocal visited
        if chi - used > n - v:  # too few vertices left to open every color
            return
        if ok and ready[v]:
            ok = equitable_at(ready[v])
        if v == n:
            if visited == budget:
                raise _BudgetSpent
            visited += 1
            visit(assignment, ok)
            return
        row = rows[v]
        bit = 1 << v
        for color in range(min(used + 1, chi)):
            mask = masks[color]
            if row & mask:
                continue
            assignment[v] = color
            masks[color] = mask | bit
            rec(v + 1, used + (color == used), ok)
            masks[color] = mask

    try:
        rec(0, 0, True)
    except _BudgetSpent:
        return False
    return True


def enumerate_chi_colorings(g: Graph, chi: int) -> list[Coloring]:
    """All proper chi-colorings, one representative per class permutation,
    in the order of ``_visit_chi_colorings``.

    ``chi`` must be the chromatic number, as ``chromatic_coloring`` finds it.
    """
    if g.n > ENUMERATION_CAP:
        raise GraphError(
            f"enumerate_chi_colorings supports n <= {ENUMERATION_CAP}, got {g.n}"
        )
    if chromatic_coloring(g).k != chi:
        raise GraphError(f"chi={chi} is not the chromatic number of the graph")
    results: list[Coloring] = []
    _visit_chi_colorings(g, chi, lambda a, _: results.append(Coloring(tuple(a), chi)))
    return results


def is_equitable_DinvA(g: Graph, c: Coloring) -> bool:
    """Exact integer test: (k-1) * e(v, V_i) == deg v for every v not in V_i.

    e(v, V_i) is the popcount of v's row against the bitmask of class i.
    """
    if len(c.assignment) != g.n:
        raise GraphError(f"coloring of {len(c.assignment)} vertices, graph has {g.n}")
    rows, own = g.rows, c.assignment
    masks = [0] * c.k
    for v, color in enumerate(own):
        # Each monochromatic edge shows at its larger end.
        if rows[v] & masks[color]:
            raise GraphError("equitability is only defined for proper colorings")
        masks[color] |= 1 << v
    k1 = c.k - 1
    for v, row in enumerate(rows):
        deg, mine = g.degrees[v], own[v]
        for i, mask in enumerate(masks):
            if i != mine and k1 * (row & mask).bit_count() != deg:
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

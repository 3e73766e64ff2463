"""Generators and exact closed-form spectrum oracles for the named families.

All oracles are exact rational multisets; floats only appear when comparing
against the eigensolver. Vertex numbering conventions are part of the public
contract (tests rely on them):

* petal(m): hub x = 0, then v_1..v_m at 1..m, w_1..w_m at m+1..2m.
* generalized_petal(m, n): hub 0, then m consecutive blocks of K_{n-1}.
* g_ktd(k, theta, d): v_j^i at index (i-1)*k + (j-1), classes contiguous.
* complete_split(t, chi): independent class 0..t-1, clique t..t+chi-2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .graphs import CHROMATIC_CAP, Graph, GraphError, from_edge_list

__all__ = [
    "ExactSpectrum",
    "complete",
    "complete_bipartite",
    "turan",
    "petal",
    "generalized_petal",
    "g_ktd",
    "complete_split",
    "oracle_spectrum_complete",
    "oracle_spectrum_bipartite",
    "oracle_spectrum_turan",
    "oracle_spectrum_petal",
    "oracle_spectrum_g_ktd",
    "g_ktd_lambda_max_case",
    "oracle_lambda_max_complete_split",
    "parse_family",
    "FAMILY_SYNTAX",
]


@dataclass(frozen=True)
class ExactSpectrum:
    """Multiset of exact rational eigenvalues with multiplicities."""

    groups: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        values = [v for v, _ in self.groups]
        if len(set(values)) != len(values):
            raise GraphError("oracle groups must have distinct values")
        if any(not (0 <= v <= 2) for v in values):
            raise GraphError("eigenvalue outside [0, 2]")

    @property
    def n(self) -> int:
        return sum(m for _, m in self.groups)

    def sorted_groups(self) -> list[tuple[Fraction, int]]:
        return sorted(self.groups)

    def lambda_max(self) -> tuple[Fraction, int]:
        return max(self.groups)


def _merge(groups: list[tuple[Fraction, int]]) -> ExactSpectrum:
    """Merge groups whose exact rationals coincide and drop empty ones."""
    merged: dict[Fraction, int] = {}
    for value, mult in groups:
        if mult > 0:
            merged[value] = merged.get(value, 0) + mult
    return ExactSpectrum(tuple(sorted(merged.items())))


# --- generators ---

def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(n1: int, n2: int) -> Graph:
    if n1 < 1 or n2 < 1:
        raise GraphError("complete bipartite graph needs positive class sizes")
    return from_edge_list(
        n1 + n2, [(i, n1 + j) for i in range(n1) for j in range(n2)]
    )


def turan(n: int, k: int) -> Graph:
    """Complete multipartite graph with k classes of equal size n/k."""
    if k < 1 or n % k != 0:
        raise GraphError(f"turan({n},{k}) requires k | n")
    size = n // k
    cls = lambda v: v // size
    return from_edge_list(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if cls(i) != cls(j)]
    )


def petal(m: int) -> Graph:
    """m triangles sharing the hub vertex 0."""
    if m < 1:
        raise GraphError("petal graph needs m >= 1")
    edges = []
    for i in range(1, m + 1):
        v, w = i, m + i
        edges += [(0, v), (0, w), (v, w)]
    return from_edge_list(2 * m + 1, edges)


def generalized_petal(m: int, n: int) -> Graph:
    """Hub vertex 0 joined to m disjoint copies of K_{n-1}."""
    if m < 1 or n < 2:
        raise GraphError("generalized petal needs m >= 1 and n >= 2")
    edges = []
    for b in range(m):
        block = range(1 + b * (n - 1), 1 + (b + 1) * (n - 1))
        for v in block:
            edges.append((0, v))
            edges.extend((v, w) for w in block if w > v)
    return from_edge_list(1 + m * (n - 1), edges)


def g_ktd(k: int, theta: int, d: int) -> Graph:
    """Complete multipartite K_{k x theta} minus d disjoint theta-cliques.

    v_j^i sits at index (i-1)*k + (j-1); non-adjacency holds iff same class,
    or different classes with equal column index j <= d.
    """
    if k < 1 or theta < 1 or not (0 <= d <= k):
        raise GraphError(f"g_ktd({k},{theta},{d}) out of domain")
    n = k * theta
    edges = []
    for a in range(n):
        i1, j1 = divmod(a, k)
        for b in range(a + 1, n):
            i2, j2 = divmod(b, k)
            if i1 == i2 or (j1 == j2 and j1 < d):
                continue
            edges.append((a, b))
    return from_edge_list(n, edges)


def complete_split(t: int, chi: int) -> Graph:
    """Independent class of size t joined completely to a (chi-1)-clique."""
    if t < 1 or chi < 2:
        raise GraphError("complete split graph needs t >= 1 and chi >= 2")
    n = t + chi - 1
    edges = [(i, j) for i in range(t, n) for j in range(i + 1, n)]
    edges += [(i, j) for i in range(t) for j in range(t, n)]
    return from_edge_list(n, edges)


# --- exact spectrum oracles ---

def oracle_spectrum_complete(n: int) -> ExactSpectrum:
    if n < 2:
        raise GraphError("spectrum oracle needs n >= 2")
    return _merge([(Fraction(n, n - 1), n - 1), (Fraction(0), 1)])


def oracle_spectrum_bipartite(n1: int, n2: int) -> ExactSpectrum:
    n = n1 + n2
    return _merge([(Fraction(2), 1), (Fraction(1), n - 2), (Fraction(0), 1)])


def oracle_spectrum_turan(n: int, k: int) -> ExactSpectrum:
    if k < 2 or n % k != 0:
        raise GraphError(f"turan oracle needs k >= 2 and k | n, got ({n},{k})")
    return _merge(
        [(Fraction(k, k - 1), k - 1), (Fraction(1), n - k), (Fraction(0), 1)]
    )


def oracle_spectrum_petal(m: int) -> ExactSpectrum:
    if m < 1:
        raise GraphError("petal oracle needs m >= 1")
    return _merge(
        [(Fraction(3, 2), m + 1), (Fraction(1, 2), m - 1), (Fraction(0), 1)]
    )


def oracle_spectrum_g_ktd(k: int, theta: int, d: int) -> ExactSpectrum:
    """Closed-form spectrum of g_ktd; equal rationals are merged.

    Covers d = 0 (Turán), 0 < d < k, and d = k >= theta with k*theta > 4.
    """
    if k < 2 or theta < 2:
        raise GraphError("g_ktd oracle needs k, theta >= 2")
    if d == 0:
        return oracle_spectrum_turan(k * theta, theta)
    if 0 < d < k:
        return _merge(
            [
                (Fraction(k, k - 1), d - 1),
                (Fraction(k * k - d, k * (k - 1)), 1),
                (Fraction(theta, theta - 1), theta - 1),
                (Fraction(1), (k - d - 1) * theta),
                (1 - Fraction(k - d, k * (k - 1) * (theta - 1)), theta - 1),
                (1 - Fraction(1, (k - 1) * (theta - 1)), (d - 1) * (theta - 1)),
                (Fraction(0), 1),
            ]
        )
    if d == k:
        if k < theta:
            raise GraphError(
                "g_ktd oracle: d = k < theta is outside the covered cases"
            )
        if k * theta <= 4:
            raise GraphError("g_ktd oracle: d = k case requires k*theta > 4")
        return _merge(
            [
                (Fraction(theta, theta - 1), theta - 1),
                (Fraction(k, k - 1), d - 1),
                (1 - Fraction(1, (k - 1) * (theta - 1)), (d - 1) * (theta - 1)),
                (Fraction(0), 1),
            ]
        )
    raise GraphError(f"g_ktd oracle out of domain: ({k},{theta},{d})")


def g_ktd_lambda_max_case(k: int, theta: int, d: int) -> tuple[Fraction, int, int]:
    """Largest eigenvalue, its multiplicity, and the case id (1..6).

    Hypotheses: k, theta > 1; 0 < d <= k; not all three equal 2; and
    k >= theta whenever d = k.
    """
    if k <= 1 or theta <= 1 or not (0 < d <= k):
        raise GraphError(f"case table needs k,theta > 1 and 0 < d <= k")
    if k == theta == d == 2:
        raise GraphError("case table excludes k = theta = d = 2")
    if d == k and k < theta:
        raise GraphError("case table requires k >= theta when d = k")
    if theta < k:
        return Fraction(theta, theta - 1), theta - 1, 1
    if theta == k:
        if d > 1:
            return Fraction(theta, theta - 1), theta + d - 2, 2
        return Fraction(theta, theta - 1), theta - 1, 3
    # theta > k
    if d == 1:
        if theta == k + 1:
            return Fraction(theta, theta - 1), theta, 4
        return Fraction(k + 1, k), 1, 5
    return Fraction(k, k - 1), d - 1, 6


def oracle_lambda_max_complete_split(t: int, chi: int) -> Fraction:
    n = t + chi - 1
    return 1 + Fraction(t, n - 1)


# --- family spec strings for the CLI ---

FAMILY_SYNTAX = (
    "K_n | K_{a,b} | T(N,k) | petal(m) | gpetal(m,n) | Gktd(k,t,d) | split(t,chi)"
)


# (pattern, generator, vertex count from the pattern's integers) per spec form
_SPECS = [
    (r"K_\{(\d+),(\d+)\}", complete_bipartite, lambda a, b: a + b),
    (r"K_(\d+)", complete, lambda n: n),
    (r"T\((\d+),(\d+)\)", turan, lambda n, k: n),
    (r"petal\((\d+)\)", petal, lambda m: 2 * m + 1),
    (r"gpetal\((\d+),(\d+)\)", generalized_petal, lambda m, n: 1 + m * (n - 1)),
    (r"Gktd\((\d+),(\d+),(\d+)\)", g_ktd, lambda k, theta, d: k * theta),
    (r"split\((\d+),(\d+)\)", complete_split, lambda t, chi: t + chi - 1),
]


def parse_family(spec: str) -> Graph:
    """Parse a family spec string like 'K_5', 'T(9,3)', or 'Gktd(2,5,1)'.

    A spec whose graph has more than ``CHROMATIC_CAP`` vertices is rejected
    before any edge is listed; the generators themselves take any size.
    """
    spec = spec.strip()
    for pattern, make, order in _SPECS:
        m = re.fullmatch(pattern, spec)
        if m:
            args = [int(x) for x in m.groups()]
            n = order(*args)
            if n > CHROMATIC_CAP:
                raise GraphError(
                    f"family spec {spec!r} has n = {n}, above the cap {CHROMATIC_CAP}"
                )
            return make(*args)
    raise GraphError(f"unrecognized family spec {spec!r}; expected {FAMILY_SYNTAX}")

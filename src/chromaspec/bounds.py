"""Eigenvalue-vs-chromatic-number bounds and the assembled graph report."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .coloring import (
    ENUMERATION_CAP,
    Coloring,
    chromatic_number,
    dsatur,
    enumerate_chi_colorings,
    is_equitable_DinvA,
)
from .graphs import Graph, GraphError, classify_pair, is_connected, is_regular, min_degree
from .spectral import DEFAULT_GROUP_TOL, largest_eigenvalue, multiplicity_of, spectrum

__all__ = [
    "SHARPNESS_TOL",
    "BoundReport",
    "chromatic_lower_bound_from_spectrum",
    "hoffman_bound",
    "twin_classes",
    "duplicate_classes",
    "multiplicity_bounds_from_structure",
    "upper_bound_equal_classes",
    "upper_bound_general",
    "upper_bound_regular_equitable",
    "full_report",
]

SHARPNESS_TOL = 1e-8


def chromatic_lower_bound_from_spectrum(lam_n: float) -> float:
    """chi >= lam_N / (lam_N - 1), valid whenever lam_N > 1."""
    if lam_n <= 1.0:
        raise GraphError("spectral chromatic bound needs lambda_N > 1")
    return lam_n / (lam_n - 1.0)


def hoffman_bound(g: Graph) -> float:
    """chi >= 1 - mu_max / mu_min over the adjacency spectrum.

    mu_min < 0 whenever the graph has an edge; edgeless graphs are rejected.
    """
    if g.num_edges == 0:
        raise GraphError("Hoffman bound undefined for edgeless graphs")
    mu = np.linalg.eigvalsh(g.adjacency_matrix())
    return 1.0 - float(mu[-1]) / float(mu[0])


def twin_classes(g: Graph) -> list[list[int]]:
    """Maximal sets of pairwise twin vertices (identical closed neighborhoods)."""
    buckets: dict[int, list[int]] = {}
    for v in range(g.n):
        buckets.setdefault(g.rows[v] | (1 << v), []).append(v)
    return [vs for vs in buckets.values() if len(vs) > 1]


def duplicate_classes(g: Graph) -> list[list[int]]:
    """Maximal sets of pairwise duplicate vertices (identical open neighborhoods)."""
    buckets: dict[int, list[int]] = {}
    for v in range(g.n):
        buckets.setdefault(g.rows[v], []).append(v)
    return [vs for vs in buckets.values() if len(vs) > 1]


def multiplicity_bounds_from_structure(
    g: Graph,
    c: Coloring,
    duplicates: list[list[int]],
    twins: list[list[int]],
) -> tuple[int, int]:
    """Bounds on the multiplicity of chi/(chi-1) for a sharp graph.

    Lower bound: each twin collection T_i contributes |T_i| - 1 eigenfunctions
    supported on it, plus one class-indicator function per coloring class not
    needed to cover the twins (y classes cover them; chi - y remain). With no
    twin collections the class indicators alone give chi - 1. Upper bound:
    each duplicate collection D_i pins |D_i| - 1 eigenvalues to 1, which the
    top group cannot contain.
    """
    claimed: set[int] = set()
    for group, kind in [(duplicates, "duplicate"), (twins, "twin")]:
        for vs in group:
            for a in vs:
                if a in claimed:
                    raise GraphError("duplicate/twin collections must be disjoint")
                claimed.add(a)
            for i, a in enumerate(vs):
                for b in vs[i + 1 :]:
                    if classify_pair(g, a, b) != kind:
                        raise GraphError(f"vertices {a},{b} are not {kind}s")
    chi = c.k
    if twins:
        twin_verts = {v for vs in twins for v in vs}
        y = len({c.assignment[v] for v in twin_verts})
        lower = sum(len(vs) - 1 for vs in twins) + chi - y
    else:
        lower = chi - 1
    upper = g.n - sum(len(vs) for vs in duplicates) + len(duplicates) - 1
    return lower, upper


def upper_bound_equal_classes(g: Graph, c: Coloring) -> Optional[float]:
    """lambda_N <= N / delta when all coloring classes have equal size."""
    sizes = {len(cl) for cl in c.classes()}
    if len(sizes) != 1:
        return None
    return g.n / min_degree(g)


def upper_bound_general(g: Graph, c: Coloring) -> float:
    """lambda_N <= (1/x) * N / (N - N_1), x = min deg v / (N - N_i) over classes."""
    n = g.n
    sizes = [len(cl) for cl in c.classes()]
    n1 = max(sizes)
    x = min(
        Fraction(g.degrees[v], n - len(cl))
        for cl in c.classes()
        for v in cl
    )
    return float(Fraction(n, n - n1) / x)


def upper_bound_regular_equitable(g: Graph, c: Coloring) -> Optional[float]:
    """d-regular + equitable coloring: lambda_N <= max{(N/d)(chi-1)/chi, chi/(chi-1)}."""
    d = is_regular(g)
    if d is None or not is_equitable_DinvA(g, c):
        return None
    chi = c.k
    return max(g.n / d * (chi - 1) / chi, chi / (chi - 1))


@dataclass(frozen=True)
class BoundReport:
    """Bounds, sharpness flags, and equitability verdicts for one graph."""

    n: int
    chi: int
    lambda_max: float
    lambda_max_multiplicity: int
    lower_bound: float
    gap: float
    sharp: bool
    hoffman: float
    upper_bounds: tuple[tuple[str, Optional[float], bool, Optional[bool]], ...]
    multiplicity_bounds: Optional[tuple[int, int]]
    equitable: tuple[bool, ...]
    colorings_complete: bool
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "chi": self.chi,
            "lambda_max": self.lambda_max,
            "lambda_max_multiplicity": self.lambda_max_multiplicity,
            "lower_bound": self.lower_bound,
            "gap": self.gap,
            "sharp": self.sharp,
            "hoffman": self.hoffman,
            "upper_bounds": [
                {"name": name, "value": value, "applicable": app, "satisfied": sat}
                for name, value, app, sat in self.upper_bounds
            ],
            "multiplicity_bounds": (
                list(self.multiplicity_bounds) if self.multiplicity_bounds else None
            ),
            "equitable": list(self.equitable),
            "colorings_complete": self.colorings_complete,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def full_report(g: Graph, tol: float = DEFAULT_GROUP_TOL) -> BoundReport:
    """Run every applicable bound and equitability check on one graph."""
    if not is_connected(g):
        raise GraphError("connected graph required")
    notes: list[str] = []
    chi = chromatic_number(g)
    spec = spectrum(g, tol)
    lam, mult = largest_eigenvalue(spec)
    lower = chi / (chi - 1) if chi > 1 else float("nan")
    gap = lam - lower
    sharp = chi > 1 and abs(gap) <= SHARPNESS_TOL

    if g.n <= ENUMERATION_CAP:
        colorings = enumerate_chi_colorings(g, chi)
        complete_enum = True
    else:
        first = dsatur(g)
        colorings = [first] if first.k == chi else []
        complete_enum = False
        notes.append(f"n > {ENUMERATION_CAP}: only a first-found coloring checked")
    equitable = tuple(is_equitable_DinvA(g, c) for c in colorings)

    uppers: list[tuple[str, Optional[float], bool, Optional[bool]]] = []
    rep = colorings[0] if colorings else None
    for name, fn in [
        ("equal_classes_N_over_delta", upper_bound_equal_classes),
        ("general_scaled_multipartite", upper_bound_general),
        ("regular_equitable", upper_bound_regular_equitable),
    ]:
        if rep is None:
            uppers.append((name, None, False, None))
            continue
        value = fn(g, rep)
        if value is None:
            uppers.append((name, None, False, None))
        else:
            uppers.append((name, value, True, lam <= value + SHARPNESS_TOL))

    mult_bounds = None
    if sharp and rep is not None:
        twins = twin_classes(g)
        twin_verts = {v for vs in twins for v in vs}
        dups = [
            [v for v in vs if v not in twin_verts]
            for vs in duplicate_classes(g)
        ]
        dups = [vs for vs in dups if len(vs) > 1]
        mult_bounds = multiplicity_bounds_from_structure(g, rep, dups, twins)

    return BoundReport(
        n=g.n,
        chi=chi,
        lambda_max=lam,
        lambda_max_multiplicity=mult,
        lower_bound=lower,
        gap=gap,
        sharp=sharp,
        hoffman=hoffman_bound(g) if g.num_edges else float("nan"),
        upper_bounds=tuple(uppers),
        multiplicity_bounds=mult_bounds,
        equitable=equitable,
        colorings_complete=complete_enum,
        notes=tuple(notes),
    )

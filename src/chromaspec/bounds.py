"""Eigenvalue-vs-chromatic-number bounds and the assembled graph report."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .coloring import (
    ENUMERATION_BUDGET,
    ENUMERATION_CAP,
    Coloring,
    _visit_chi_colorings,
    chromatic_coloring,
    is_equitable_DinvA,
)
from .graphs import Graph, GraphError, classify_pair, is_connected, is_regular, min_degree
from .spectral import DEFAULT_GROUP_TOL, largest_eigenvalue, spectrum

__all__ = [
    "BoundReport",
    "chromatic_lower_bound_from_spectrum",
    "hoffman_bound",
    "sharp_multiplicity",
    "twin_classes",
    "duplicate_classes",
    "multiplicity_bounds_from_structure",
    "upper_bound_equal_classes",
    "upper_bound_general",
    "upper_bound_regular_equitable",
    "full_report",
]

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


def _psd_nullity(m: list[list[int]]) -> Optional[int]:
    """Nullity of a symmetric integer matrix if it is PSD, else None.

    ``m[i]`` holds row i up to the diagonal; the lists are consumed.
    Fraction-free elimination (Bareiss 1968) on the diagonal, last index
    first: pivot p turns each remaining entry into (m_pp m_ij - m_ip m_pj) /
    prev, where prev is the previous nonzero pivot. The division is exact, as
    every entry is a minor of the input, and each pivot has the sign of its
    Schur complement entry. So a negative pivot proves the matrix is not PSD;
    so does a zero pivot with a nonzero row, while a zero row adds one to the
    nullity.
    """
    nullity, prev = 0, 1
    while m:
        top = m.pop()
        piv = top.pop()
        if piv < 0 or (piv == 0 and any(top)):
            return None
        if piv == 0:
            nullity += 1
            continue
        # row i keeps columns 0..i, so zip stops each row at its diagonal
        m = [[(piv * x - f * t) // prev for x, t in zip(row, top)] for row, f in zip(m, top)]
        prev = piv
    return nullity


def sharp_multiplicity(g: Graph, chi: int) -> int:
    """Multiplicity of lambda_N = chi/(chi-1), or 0 if lambda_N exceeds it.

    The only sharpness decision, in integers. With c = chi/(chi-1), (chi-1)
    D^(1/2) (cI - L) D^(1/2) = D + (chi-1)A =: M, so lambda_N <= c exactly
    when M is positive semidefinite, and c has multiplicity nullity(M).
    """
    g.require_min_degree_one()
    lower = [
        [chi - 1 if row >> w & 1 else 0 for w in range(v)] + [d]
        for v, (row, d) in enumerate(zip(g.rows, g.degrees))
    ]
    return _psd_nullity(lower) or 0


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
    """Run every applicable bound and equitability check on one graph.

    ``tol`` groups eigenvalues and is the upper bounds' slack; ``sharp`` is exact.
    """
    if not is_connected(g):
        raise GraphError("connected graph required")
    notes: list[str] = []
    witness = chromatic_coloring(g)
    chi = witness.k
    spec = spectrum(g, tol)
    lam, mult = largest_eigenvalue(spec)
    lower = chi / (chi - 1) if chi > 1 else float("nan")
    gap = lam - lower

    if g.n <= ENUMERATION_CAP:
        # rep, the first coloring, is the upper bounds' input.
        firsts: list[Coloring] = []
        flags: list[bool] = []

        def visit(assignment: list[int], ok: bool) -> None:
            if not flags:
                firsts.append(Coloring(tuple(assignment), chi))
            flags.append(ok)

        complete_enum = _visit_chi_colorings(g, chi, visit, ENUMERATION_BUDGET)
        if not complete_enum:
            notes.append(
                f"more than {ENUMERATION_BUDGET} chi-colorings: "
                f"the first {ENUMERATION_BUDGET} checked"
            )
        rep, equitable = firsts[0], tuple(flags)
    else:
        rep, complete_enum = witness, False
        notes.append(f"n > {ENUMERATION_CAP}: only the chi-coloring that proves chi checked")
        equitable = (is_equitable_DinvA(g, witness),)
    # Every chi-coloring of a sharp graph is equitable: the filter only saves
    # work, and one non-equitable coloring, even in a partial list, rules
    # sharpness out.
    sharp_mult = sharp_multiplicity(g, chi) if all(equitable) else 0
    sharp = sharp_mult > 0
    mult = sharp_mult or mult

    uppers: list[tuple[str, Optional[float], bool, Optional[bool]]] = []
    for name, fn in [
        ("equal_classes_N_over_delta", upper_bound_equal_classes),
        ("general_scaled_multipartite", upper_bound_general),
        ("regular_equitable", upper_bound_regular_equitable),
    ]:
        value = fn(g, rep)
        if value is None:
            uppers.append((name, None, False, None))
        else:
            uppers.append((name, value, True, lam <= value + tol))

    mult_bounds = None
    if sharp:
        mult_bounds = multiplicity_bounds_from_structure(
            g, rep, duplicate_classes(g), twin_classes(g)
        )

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

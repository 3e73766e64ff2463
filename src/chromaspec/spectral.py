"""Normalized Laplacian matrices, spectra, and eigenpair verification.

The eigensolver always works on the symmetric form I - D^{-1/2} A D^{-1/2},
which is similar to I - D^{-1} A and therefore has the same spectrum.
Eigenvalues are grouped into multiplicity clusters by a gap tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, GraphError

__all__ = [
    "DEFAULT_GROUP_TOL",
    "DEFAULT_VERIFY_TOL",
    "Spectrum",
    "EigenPair",
    "normalized_laplacian",
    "symmetrized_laplacian",
    "spectrum",
    "eigensystem",
    "rayleigh_quotient",
    "verify_eigenpair",
    "degree_inner_product",
    "multiplicity_of",
    "largest_eigenvalue",
]

DEFAULT_GROUP_TOL = 1e-8
DEFAULT_VERIFY_TOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Sorted normalized-Laplacian eigenvalues with grouped multiplicities."""

    eigenvalues: tuple[float, ...]
    tol: float
    groups: tuple[tuple[float, int], ...]

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "tol": self.tol,
                "eigenvalues": list(self.eigenvalues),
                "groups": [{"value": v, "mult": m} for v, m in self.groups],
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class EigenPair:
    eigenvalue: float
    function: np.ndarray
    residual: float
    valid: bool


def normalized_laplacian(g: Graph) -> np.ndarray:
    """L = I - D^{-1} A (row v scaled by 1/deg v)."""
    g.require_min_degree_one()
    lap = np.eye(g.n)
    for v, w in g.edges():
        lap[v, w] = -1.0 / g.degrees[v]
        lap[w, v] = -1.0 / g.degrees[w]
    return lap


def symmetrized_laplacian(g: Graph) -> np.ndarray:
    """The symmetric form; each off-diagonal entry computed once and mirrored."""
    g.require_min_degree_one()
    lap = np.eye(g.n)
    for v, w in g.edges():
        x = -1.0 / np.sqrt(g.degrees[v] * g.degrees[w])
        lap[v, w] = x
        lap[w, v] = x
    return lap


def _group(values: np.ndarray, tol: float) -> tuple[tuple[float, int], ...]:
    groups = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tol:
            block = values[start:i]
            groups.append((float(block.mean()), len(block)))
            start = i
    return tuple(groups)


def spectrum(g: Graph, tol: float = DEFAULT_GROUP_TOL) -> Spectrum:
    vals = np.linalg.eigvalsh(symmetrized_laplacian(g))
    vals.sort()
    return Spectrum(tuple(float(v) for v in vals), tol, _group(vals, tol))


def eigensystem(g: Graph, tol: float = DEFAULT_GROUP_TOL) -> tuple[Spectrum, np.ndarray]:
    """Spectrum plus eigenfunctions of L (columns), transported via D^{-1/2}.

    Column j of the returned matrix is an eigenfunction of I - D^{-1} A for
    eigenvalue ``spectrum.eigenvalues[j]``.
    """
    vals, vecs = np.linalg.eigh(symmetrized_laplacian(g))
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    dinv_sqrt = 1.0 / np.sqrt(np.asarray(g.degrees, dtype=float))
    funcs = dinv_sqrt[:, None] * vecs
    return Spectrum(tuple(float(v) for v in vals), tol, _group(vals, tol)), funcs


def _as_function(g: Graph, f) -> np.ndarray:
    arr = np.asarray(f, dtype=float)
    if arr.shape != (g.n,):
        raise GraphError(f"vertex function has shape {arr.shape}, expected ({g.n},)")
    if not np.all(np.isfinite(arr)):
        raise GraphError("vertex function has non-finite values")
    return arr


def rayleigh_quotient(g: Graph, f) -> float:
    """Sum of squared edge differences over the degree-weighted norm of f."""
    arr = _as_function(g, f)
    if not arr.any():
        raise GraphError("Rayleigh quotient of the zero function")
    num = sum((arr[v] - arr[w]) ** 2 for v, w in g.edges())
    den = float(np.dot(np.asarray(g.degrees, dtype=float), arr * arr))
    return num / den


def degree_inner_product(g: Graph, f, h) -> float:
    fa = _as_function(g, f)
    ha = _as_function(g, h)
    return float(np.dot(np.asarray(g.degrees, dtype=float) * fa, ha))


def verify_eigenpair(
    g: Graph, lam: float, f, tol: float = DEFAULT_VERIFY_TOL
) -> EigenPair:
    """Check (1-lam) f(v) = (1/deg v) sum_{w~v} f(w) at every vertex.

    The residual is the max-norm defect relative to the max-norm of f.
    """
    arr = _as_function(g, f)
    scale = float(np.max(np.abs(arr)))
    if scale == 0.0:
        raise GraphError("cannot verify an eigenpair with the zero function")
    g.require_min_degree_one()
    worst = 0.0
    for v in range(g.n):
        avg = sum(arr[w] for w in g.neighbors[v]) / g.degrees[v]
        worst = max(worst, abs((1.0 - lam) * arr[v] - avg))
    residual = worst / scale
    return EigenPair(lam, arr, residual, residual <= tol)


def multiplicity_of(s: Spectrum, lam: float) -> int:
    for value, mult in s.groups:
        if abs(value - lam) <= s.tol:
            return mult
    return 0


def largest_eigenvalue(s: Spectrum) -> tuple[float, int]:
    value, mult = s.groups[-1]
    return value, mult

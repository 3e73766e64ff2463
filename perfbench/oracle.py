"""Independent oracles for the benchmark's outputs.

Nothing here imports chromaspec: graphs are built from the family
definitions directly, chromatic numbers and colorings come from a separate
bitset search, and spectra come from numpy (and networkx for the search
atlas). Each ``check_*`` function returns ``None`` when a command's output is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
import re
from itertools import combinations, product

import numpy as np

# An exact graph is (n, rows): rows[v] is the bitmask of v's neighbours.


def from_edges(n: int, edges) -> tuple[int, list[int]]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return n, rows


def edges_of(rows: list[int]) -> list[tuple[int, int]]:
    return [(v, w) for v, row in enumerate(rows) for w in range(v + 1, len(rows)) if row >> w & 1]


def cycle(n: int) -> tuple[int, list[int]]:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def multipartite(*sizes: int) -> tuple[int, list[int]]:
    part = [p for p, size in enumerate(sizes) for _ in range(size)]
    n = len(part)
    return from_edges(n, [(a, b) for a, b in combinations(range(n), 2) if part[a] != part[b]])


def windmill(blades: int, clique: int) -> tuple[int, list[int]]:
    """`blades` copies of K_clique sharing one hub vertex."""
    edges = []
    for b in range(blades):
        block = [0] + [1 + b * (clique - 1) + i for i in range(clique - 1)]
        edges += list(combinations(block, 2))
    return from_edges(1 + blades * (clique - 1), edges)


def g_ktd(k: int, theta: int, d: int) -> tuple[int, list[int]]:
    """theta classes of k vertices, all cross edges, minus d cross-class columns."""
    n = k * theta
    return from_edges(
        n,
        [
            (a, b)
            for a, b in combinations(range(n), 2)
            if a // k != b // k and not (a % k == b % k and a % k < d)
        ],
    )


# The `report` corpus's family graphs, keyed by the CLI spec that names them.
FAMILY_GRAPHS = {
    "gpetal(5,4)": lambda: windmill(5, 4),
    "petal(6)": lambda: windmill(6, 3),
    "K_14": lambda: multipartite(*[1] * 14),
    "K_{6,7}": lambda: multipartite(6, 7),
    "T(12,3)": lambda: multipartite(4, 4, 4),
    "Gktd(2,5,1)": lambda: g_ktd(2, 5, 1),
    "Gktd(4,4,2)": lambda: g_ktd(4, 4, 2),
    "Gktd(5,5,3)": lambda: g_ktd(5, 5, 3),
    "split(8,5)": lambda: multipartite(8, 1, 1, 1, 1),
}


def colorable(rows: list[int], k: int) -> list[int] | None:
    """A proper coloring with at most k colors, or None (exact DSATUR search)."""
    n = len(rows)
    color = [-1] * n
    classes = [0] * k

    def rec(left: int, used: int) -> bool:
        if not left:
            return True
        best, best_key = -1, None
        for v in range(n):
            if left >> v & 1:
                sat = sum(1 for c in range(used) if rows[v] & classes[c])
                key = (sat, (rows[v] & left).bit_count())
                if best_key is None or key > best_key:
                    best, best_key = v, key
        v = best
        for c in range(min(used + 1, k)):
            if rows[v] & classes[c]:
                continue
            color[v] = c
            classes[c] |= 1 << v
            if rec(left & ~(1 << v), max(used, c + 1)):
                return True
            classes[c] &= ~(1 << v)
        color[v] = -1
        return False

    return list(color) if rec((1 << n) - 1, 0) else None


def chromatic_number(rows: list[int]) -> tuple[int, list[int]]:
    """Exact chi with a proper chi-coloring as witness."""
    k = 1
    while True:
        witness = colorable(rows, k)
        if witness is not None:
            return k, witness
        k += 1


def canonical_colorings(rows: list[int], k: int):
    """Every proper k-coloring using all k colors, classes opened in vertex order."""
    n = len(rows)
    color = [-1] * n

    def rec(v: int, used: int):
        if v == n:
            if used == k:
                yield tuple(color)
            return
        forbidden = {color[w] for w in range(v) if rows[v] >> w & 1}
        for c in range(min(used + 1, k)):
            if c not in forbidden:
                color[v] = c
                yield from rec(v + 1, max(used, c + 1))
        color[v] = -1

    yield from rec(0, 0)


def is_equitable(rows: list[int], coloring: tuple[int, ...], k: int) -> bool:
    """(k-1) * e(v, V_i) == deg v for every class V_i not holding v."""
    classes = [sum(1 << v for v, c in enumerate(coloring) if c == i) for i in range(k)]
    return all(
        (k - 1) * (rows[v] & classes[i]).bit_count() == rows[v].bit_count()
        for v in range(len(rows))
        for i in range(k)
        if i != coloring[v]
    )


def top_eigenvalue(rows: list[int]) -> tuple[float, int]:
    """Largest eigenvalue of I - D^-1/2 A D^-1/2 and its multiplicity (tol 1e-8)."""
    n = len(rows)
    a = np.array([[row >> w & 1 for w in range(n)] for row in rows], dtype=float)
    s = 1.0 / np.sqrt(a.sum(axis=1))
    values = np.linalg.eigvalsh(np.eye(n) - s[:, None] * a * s[None, :])
    top = float(values[-1])
    return top, int(np.sum(values >= top - 1e-8))


def report_expectation(n: int, rows: list[int], odd_cycle: bool = False) -> dict:
    """The fields of a `report` JSON that the oracle pins for one graph."""
    if odd_cycle:
        # chi = 3; the top eigenvalue 1 - cos(2 pi k / n) peaks at k = (n +- 1)/2;
        # a cycle's 3-coloring is equitable only as 0,1,2,0,1,2,... with 3 | n.
        chi, lam, mult = 3, 1 + math.cos(math.pi / n), 2
        colorings, equitable = (2**n - 2) // 6, int(n % 3 == 0)
    else:
        chi, _ = chromatic_number(rows)
        lam, mult = top_eigenvalue(rows)
        found = list(canonical_colorings(rows, chi))
        colorings = len(found)
        equitable = sum(is_equitable(rows, c, chi) for c in found)
    return {
        "n": n,
        "chi": chi,
        "lambda_max": lam,
        "lambda_max_multiplicity": mult,
        "sharp": abs(lam - chi / (chi - 1)) <= 1e-8,
        "colorings": colorings,
        "equitable": equitable,
    }


def check_report(text: str, want: dict) -> str | None:
    rep = json.loads(text)
    for key in ("n", "chi", "lambda_max_multiplicity", "sharp"):
        if rep[key] != want[key]:
            return f"{key} = {rep[key]!r}, expected {want[key]!r}"
    if abs(rep["lambda_max"] - want["lambda_max"]) > 1e-9:
        return f"lambda_max = {rep['lambda_max']!r}, expected {want['lambda_max']!r}"
    if not rep["colorings_complete"]:
        return "colorings_complete is false below the enumeration cap"
    got = (len(rep["equitable"]), sum(rep["equitable"]))
    if got != (want["colorings"], want["equitable"]):
        return f"(colorings, equitable) = {got}, expected {(want['colorings'], want['equitable'])}"
    return None


def check_chi(text: str, n: int, chi: int) -> str | None:
    rep = json.loads(text)
    if (rep["n"], rep["chi"]) != (n, chi):
        return f"(n, chi) = {(rep['n'], rep['chi'])}, expected {(n, chi)}"
    return None


def check_verify(text: str) -> str | None:
    lines = text.splitlines()
    m = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1]) if lines else None
    if not m or m.group(1) != m.group(2) or int(m.group(2)) != len(lines) - 1:
        return f"summary line {lines[-1:]!r}"
    if not all("  PASS  " in line for line in lines[:-1]):
        return "a check row is not PASS"
    return None


class SearchOracle:
    """Sharp connected graphs with n <= max_n, from networkx's graph atlas."""

    def __init__(self, max_n: int):
        import networkx as nx

        self.nx = nx
        self.classes = 0
        self.sharp = []  # (graph, chi, lambda_max, multiplicity)
        for g in nx.graph_atlas_g():
            n = g.number_of_nodes()
            if not 2 <= n <= max_n or not nx.is_connected(g):
                continue
            self.classes += 1
            chi = brute_force_chi(n, list(g.edges()))
            values = np.linalg.eigvalsh(nx.normalized_laplacian_matrix(g).toarray())
            lam = float(values[-1])
            if abs(lam - chi / (chi - 1)) <= 1e-8:
                self.sharp.append((g, chi, lam, int(np.sum(values >= lam - 1e-8))))

    def check(self, text: str, mult: int | None) -> str | None:
        nx = self.nx
        out = json.loads(text)
        want = [s for s in self.sharp if mult is None or s[3] == mult]
        if out["count"] != len(out["hits"]) or out["count"] != len(want):
            return f"count {out['count']}, expected {len(want)}"
        unmatched = list(want)
        for hit in out["hits"]:
            g = nx.empty_graph(hit["n"])
            g.add_edges_from(map(tuple, hit["edges"]))
            match = next((s for s in unmatched if nx.is_isomorphic(s[0], g)), None)
            if match is None:
                return f"hit {hit['edges']} is not a distinct sharp atlas graph"
            unmatched.remove(match)
            if (hit["chi"], hit["multiplicity"]) != (match[1], match[3]):
                return f"hit {hit['edges']}: chi/multiplicity differ from the atlas"
            if abs(hit["lambda_max"] - match[2]) > 1e-9:
                return f"hit {hit['edges']}: lambda_max differs from the atlas"
        return None


def brute_force_chi(n: int, edges: list[tuple[int, int]]) -> int:
    """Least k admitting a proper coloring, by trying every assignment."""
    for k in range(1, n + 1):
        for rest in product(range(k), repeat=n - 1):
            color = (0, *rest)
            if all(color[u] != color[v] for u, v in edges):
                return k
    return n

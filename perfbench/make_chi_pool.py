"""Regenerate perfbench/chi_pool.json, the fixed corpus of the `chi` workload.

Usage (from the repository root):
    python3 perfbench/make_chi_pool.py

The pool is the first POOL_SIZE connected G(n, 1/2) draws with
33 <= n <= 38 from a fixed generator seed; no draw is skipped for its cost.
Each graph's chromatic number is computed here by oracle.chromatic_number (an
exact search that shares no code with chromaspec) and checked once: the
witness coloring must be proper with chi colors, and networkx's maximum
clique must not exceed chi. The benchmark then compares every `report` with
the stored value.
"""

from __future__ import annotations

import json
import time
from itertools import combinations
from pathlib import Path

import networkx as nx
import numpy as np

import oracle

POOL_SEED = 20240214
POOL_SIZE = 48  # about 3 s of `report` per pass on the seed code
N_RANGE = (33, 38)
POOL = Path(__file__).with_name("chi_pool.json")


def draw(rng: np.random.Generator) -> tuple[int, list[int]]:
    while True:
        n = int(rng.integers(N_RANGE[0], N_RANGE[1] + 1))
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        g = nx.empty_graph(n)
        g.add_edges_from(edges)
        if nx.is_connected(g):
            return oracle.from_edges(n, edges)


def main() -> int:
    rng = np.random.default_rng(POOL_SEED)
    graphs = []
    for i in range(POOL_SIZE):
        n, rows = draw(rng)
        start = time.perf_counter()
        chi, witness = oracle.chromatic_number(rows)
        edges = oracle.edges_of(rows)
        if len(set(witness)) != chi or any(witness[u] == witness[v] for u, v in edges):
            raise SystemExit(f"graph {i}: witness is not a proper {chi}-coloring")
        g = nx.empty_graph(n)
        g.add_edges_from(edges)
        omega = len(nx.max_weight_clique(g, weight=None)[0])
        if omega > chi:
            raise SystemExit(f"graph {i}: clique of size {omega} > chi = {chi}")
        print(f"graph {i}: n={n} m={len(edges)} chi={chi} omega={omega} "
              f"({time.perf_counter() - start:.2f} s)", flush=True)
        graphs.append({"n": n, "rows": [format(r, "x") for r in rows], "chi": chi,
                       "omega": omega, "witness": witness})
    header = json.dumps({"seed": POOL_SEED, "p": 0.5, "n_range": N_RANGE})[:-1]
    body = ",\n".join(json.dumps(g) for g in graphs)
    POOL.write_text(f'{header}, "graphs": [\n{body}\n]}}\n')
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

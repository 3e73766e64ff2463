"""The paper's claims as a table, checked over family oracles and seeded corpora.

Each suite lists its claims: a row name, a fixed detail text, a list of
labelled cases and a predicate. ``run_suites`` turns each claim into one
(suite: row name, passed, detail) row, and the CLI exits nonzero if any row
failed. A claim fails at its first case whose predicate is false, and its
detail then ends with ``counterexample: <label>``: a graph as
``chromaspec gen --format json`` prints it, or a tuple of parameters.

The family grid and the seeded random graphs are built once per run. The
``sharp`` and ``bounds`` suites share one corpus, the random graphs followed
by the family graphs, and read one ``bounds.full_report`` per corpus graph,
so their claims check the code that ``chromaspec report`` ships. Corpora are
reproducible from the seed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Callable

import numpy as np

from . import bounds, compose, families
from .certificates import g_ktd_certificates
from .coloring import (
    Coloring,
    chromatic_number,
    enumerate_chi_colorings,
    is_equitable_DinvA,
)
from .graphs import Graph, GraphError, from_edge_list, is_connected, to_json
from .spectral import (
    Spectrum,
    largest_eigenvalue,
    multiplicity_of,
    spectrum,
    verify_eigenpair,
)

__all__ = ["random_connected_graph", "SUITES", "run_suites"]

Row = tuple[str, bool, str]

TOL = 1e-8
SHARP_RANDOM = 500  # random graphs in the shared corpus unless `random` is given
RANDOM_CAP = 5000  # the most random graphs a run accepts: `verify --max-n 100`
ONESUM_PAIRS = 200
EDU_TRIALS = 100


def random_connected_graph(rng: np.random.Generator, n_max: int = 10) -> Graph:
    """Connected G(n, p) sample; resamples until connected."""
    while True:
        n = int(rng.integers(2, n_max + 1))
        p = float(rng.uniform(0.2, 0.9))
        edges = [
            (i, j) for i, j in combinations(range(n), 2) if rng.random() < p
        ]
        g = from_edge_list(n, edges)
        if is_connected(g):
            return g


def _label(x: object) -> str:
    if isinstance(x, Graph):
        return to_json(x)
    if isinstance(x, tuple):
        return "(" + ", ".join(map(_label, x)) + ")"
    return str(x)


def _row(
    suite: str, name: str, detail: str, cases: list[tuple[object, tuple]], holds: Callable
) -> Row:
    """The row of one claim; each case is (label, the predicate's arguments)."""
    for label, args in cases:
        if not holds(*args):
            found = f"counterexample: {_label(label)}"
            return f"{suite}: {name}", False, f"{detail}; {found}" if detail else found
    return f"{suite}: {name}", True, detail


def _family_grid() -> list[tuple[Graph, families.ExactSpectrum]]:
    items: list[tuple[Graph, families.ExactSpectrum]] = []
    for n in range(2, 15):
        items.append((families.complete(n), families.oracle_spectrum_complete(n)))
    for a in range(1, 12):
        for b in range(1, 13 - a):
            items.append(
                (families.complete_bipartite(a, b), families.oracle_spectrum_bipartite(a, b))
            )
    for n in range(4, 13):
        for k in range(2, n + 1):
            if n % k == 0:
                items.append((families.turan(n, k), families.oracle_spectrum_turan(n, k)))
    for m in range(1, 7):
        items.append((families.petal(m), families.oracle_spectrum_petal(m)))
    for k in range(2, 6):
        for theta in range(2, 6):
            for d in range(0, k + 1):
                try:
                    oracle = families.oracle_spectrum_g_ktd(k, theta, d)
                except GraphError:
                    continue
                items.append((families.g_ktd(k, theta, d), oracle))
    return items


class _Corpora:
    """The inputs that several suites of one run share, each built on first use."""

    def __init__(self, seed: int, random: int | None) -> None:
        if random is not None and random > RANDOM_CAP:
            raise GraphError(f"{random} random graphs asked for, above the cap {RANDOM_CAP}")
        self.seed = seed
        self.random = random

    @cached_property
    def random_graphs(self) -> list[Graph]:
        """The first `random or SHARP_RANDOM` graphs of the seeded random stream."""
        rng = np.random.default_rng(self.seed)
        return [random_connected_graph(rng) for _ in range(self.random or SHARP_RANDOM)]

    @cached_property
    def grid(self) -> list[tuple[Graph, families.ExactSpectrum]]:
        return _family_grid()

    @cached_property
    def family_graphs(self) -> list[Graph]:
        return [g for g, _ in self.grid if g.n <= 25]

    @cached_property
    def reports(self) -> list[tuple[Graph, bounds.BoundReport]]:
        """(graph, its full report) for the random graphs, then the family graphs."""
        return [(g, bounds.full_report(g)) for g in self.random_graphs + self.family_graphs]


def _lambda_max(g: Graph) -> float:
    return largest_eigenvalue(spectrum(g))[0]


def _spectra_match(g: Graph, oracle: families.ExactSpectrum) -> bool:
    got = list(spectrum(g, TOL).groups)
    want = oracle.sorted_groups()
    return len(got) == len(want) and all(
        abs(gv - float(wv)) <= TOL and gm == wm
        for (gv, gm), (wv, wm) in zip(got, want)
    )


def _transpose_isomorphic(k: int, theta: int) -> bool:
    g1 = families.g_ktd(k, theta, k)
    g2 = families.g_ktd(theta, k, theta)
    # v_j^i -> v_i^j
    perm = {
        (i - 1) * k + (j - 1): (j - 1) * theta + (i - 1)
        for i in range(1, theta + 1)
        for j in range(1, k + 1)
    }
    return {tuple(sorted((perm[a], perm[b]))) for a, b in g1.edges()} == set(g2.edges())


def _case_table_matches(g: Graph, k: int, theta: int, d: int) -> bool:
    lam, mult, _case = families.g_ktd_lambda_max_case(k, theta, d)
    got_lam, got_mult = largest_eigenvalue(spectrum(g))
    return abs(got_lam - float(lam)) <= TOL and got_mult == mult


def _families(shared: _Corpora) -> list[tuple]:
    grid = shared.grid
    gktd = {
        (k, theta, d): families.g_ktd(k, theta, d)
        for k in range(2, 6)
        for theta in range(2, 6)
        for d in range(0, k + 1)
        if not (d == k and k < theta)
    }
    small = [(g, (g, k, theta, d)) for (k, theta, d), g in gktd.items() if k <= 4 and theta <= 4]
    splits = {
        (t, chi): families.complete_split(t, chi) for t in range(1, 9) for chi in range(2, 6)
    }
    return [
        ("family spectra match exact oracles", f"{len(grid)} instances",
         [(g, (g, oracle)) for g, oracle in grid], _spectra_match),
        ("g_ktd(k,t,k) isomorphic to g_ktd(t,k,t)", "index transpose map",
         [((k, t), (k, t)) for k in range(2, 5) for t in range(2, k + 1)], _transpose_isomorphic),
        ("g_ktd chromatic number equals theta", "grid k,theta<=4",
         small, lambda g, k, theta, d: chromatic_number(g) == theta),
        ("g_ktd with d<k has a unique chi-coloring", "",
         small, lambda g, k, theta, d:
         d == k or len(enumerate_chi_colorings(g, theta)) == 1),
        ("g_ktd canonical coloring is equitable", "",
         small, lambda g, k, theta, d: is_equitable_DinvA(
             g, Coloring(tuple(v // k for v in range(g.n)), theta))),
        ("g_ktd eigenfunction certificates verify", "residual <= 1e-9",
         [(g, (g, k, theta, d)) for (k, theta, d), g in gktd.items() if 0 < d < k],
         lambda g, k, theta, d: all(
             verify_eigenpair(g, float(lam), f, 1e-9).valid
             for lam, f in g_ktd_certificates(k, theta, d))),
        ("g_ktd largest-eigenvalue case table", "six corollary cases",
         [(g, (g, *ktd)) for ktd, g in gktd.items() if ktd[2] and ktd != (2, 2, 2)],
         _case_table_matches),
        ("complete split lambda_max = 1 + t/(N-1)", "t<=8, chi<=5",
         [(g, (g, t, chi)) for (t, chi), g in splits.items()],
         lambda g, t, chi: abs(
             _lambda_max(g) - float(families.oracle_lambda_max_complete_split(t, chi))
         ) <= TOL),
    ]


def _sharp(shared: _Corpora) -> list[tuple]:
    every = [(g, (rep,)) for g, rep in shared.reports]
    # (report, multiplicity of chi/(chi-1)) per sharp graph. Sharpness comes
    # from sharp_multiplicity, not rep.sharp: the report tests only graphs
    # whose colorings are all equitable, which would make that row vacuous.
    each_sharp = [
        (g, (rep, mult))
        for g, rep in shared.reports
        if (mult := bounds.sharp_multiplicity(g, rep.chi))
    ]
    return [
        ("lambda_N >= chi/(chi-1) on corpus", f"{len(every)} graphs",
         every, lambda rep: rep.lambda_max >= rep.chi / (rep.chi - 1) - TOL),
        ("non-complete non-bipartite lambda_N >= (N+1)/(N-1)", "",
         every, lambda rep: rep.chi in (2, rep.n)
         or rep.lambda_max >= (rep.n + 1) / (rep.n - 1) - TOL),
        ("sharp graphs: all chi-colorings equitable", "",
         each_sharp, lambda rep, mult: rep.colorings_complete and all(rep.equitable)),
        ("sharp graphs: multiplicity >= chi-1", "",
         each_sharp, lambda rep, mult: mult >= rep.chi - 1),
        ("sharp + multiplicity chi-1 implies unique coloring", "",
         each_sharp, lambda rep, mult: mult != rep.chi - 1 or len(rep.equitable) == 1),
    ]


def _multiplicities_floor(s1: Spectrum, s2: Spectrum, s12: Spectrum) -> bool:
    for value, m1 in s1.groups:
        m2 = multiplicity_of(s2, value)
        if m2 and multiplicity_of(s12, value) < m1 + m2 - 1:
            return False
    return True


def _sharp_sum(g1: Graph, m1: int, g2: Graph, m2: int, chi: int) -> bool:
    glued = compose.one_sum(g1, 0, g2, 0).result
    return m1 >= 1 and m2 >= 1 and bounds.sharp_multiplicity(glued, chi) == m1 + m2 - 1


def _petal_law(g: Graph, m: int, n: int) -> bool:
    # lambda_N = n/(n-1) with multiplicity |V| - m: the sharpness test at chi = n
    return bounds.sharp_multiplicity(g, n) == g.n - m


def _mediant(a: int, b: int, c: int, d: int) -> bool:
    mid = Fraction(a + b, c + d)
    lo, hi = sorted([Fraction(a, c), Fraction(b, d)])
    return lo <= mid <= hi and (mid == lo or mid == hi) == (Fraction(a, c) == Fraction(b, d))


def _edu_interlacing(g1: Graph, g2: Graph) -> bool:
    glued = compose.edge_disjoint_union(g1, g2).result
    return _lambda_max(glued) <= max(_lambda_max(g1), _lambda_max(g2)) + TOL


def _union_is_one_sum(g1: Graph, g2: Graph) -> bool:
    # Lay both summands out as the 1-sum does; their union must be the 1-sum.
    expected = compose.one_sum(g1, g1.n - 1, g2, 0)
    emb1, emb2 = expected.embeddings
    n = expected.result.n
    a = from_edge_list(n, [(emb1[v], emb1[w]) for v, w in g1.edges()])
    b = from_edge_list(n, [(emb2[v], emb2[w]) for v, w in g2.edges()])
    return compose.edge_disjoint_union(a, b).result == expected.result


def _onesum(shared: _Corpora) -> list[tuple]:
    # One rng for the whole suite, drawn from in this order: pairs, mediant
    # fractions, edge-disjoint overlays, shared-vertex pairs.
    rng = np.random.default_rng(shared.seed)
    pairs = []
    for _ in range(ONESUM_PAIRS):
        g1 = random_connected_graph(rng)
        g2 = random_connected_graph(rng)
        x1 = int(rng.integers(g1.n))
        x2 = int(rng.integers(g2.n))
        glued = compose.one_sum(g1, x1, g2, x2).result
        pairs.append(
            ((g1, x1, g2, x2), (g1, g2, glued, spectrum(g1), spectrum(g2), spectrum(glued)))
        )

    pool = []  # (graph, chi, multiplicity of chi/(chi-1))
    for g in [
        families.complete(3),
        families.complete(4),
        families.turan(6, 3),
        families.turan(8, 4),
        families.petal(2),
        families.petal(3),
        compose.one_sum(families.complete(3), 0, families.complete(3), 0).result,
    ]:
        chi = chromatic_number(g)
        pool.append((g, chi, bounds.sharp_multiplicity(g, chi)))
    petals = {(m, n): families.generalized_petal(m, n) for n in (2, 3, 4) for m in range(1, 6)}
    fractions = [tuple(int(rng.integers(1, 50)) for _ in range(4)) for _ in range(500)]

    overlays = []
    for _ in range(EDU_TRIALS):
        g1 = random_connected_graph(rng, int(rng.integers(4, 11)))
        # overlay a random edge-disjoint graph on the same labels
        free = [(i, j) for i, j in combinations(range(g1.n), 2) if not g1.has_edge(i, j)]
        rng.shuffle(free)
        if free:
            g2 = from_edge_list(g1.n, free[: max(1, len(free) // 2)])
            if is_connected(g2):
                overlays.append(((g1, g2), (g1, g2)))
    shared_vertex = []
    for _ in range(20):
        g1 = random_connected_graph(rng, 6)
        g2 = random_connected_graph(rng, 6)
        shared_vertex.append(((g1, g2), (g1, g2)))

    return [
        ("1-sum interlacing lambda_max(sum) <= max", f"{ONESUM_PAIRS} pairs",
         pairs, lambda g1, g2, glued, s1, s2, s12: largest_eigenvalue(s12)[0]
         <= max(largest_eigenvalue(s1)[0], largest_eigenvalue(s2)[0]) + TOL),
        ("chi(1-sum) = max(chi_1, chi_2)", "",
         pairs, lambda g1, g2, glued, s1, s2, s12: chromatic_number(glued)
         == max(chromatic_number(g1), chromatic_number(g2))),
        ("m_sum(lambda) >= m_1 + m_2 - 1 for common groups", "",
         pairs, lambda g1, g2, glued, s1, s2, s12: _multiplicities_floor(s1, s2, s12)),
        ("sharp (+) sharp with equal chi stays sharp, m1+m2-1", "",
         [((g1, g2), (g1, m1, g2, m2, chi1))
          for g1, chi1, m1 in pool for g2, chi2, m2 in pool if chi1 == chi2],
         _sharp_sum),
        ("generalized petal law lambda = n/(n-1), mult = |V|-m", "",
         [(g, (g, m, n)) for (m, n), g in petals.items()], _petal_law),
        ("mediant lemma: min <= (a+b)/(c+d) <= max", "exact rationals",
         [(f, f) for f in fractions], _mediant),
        ("edge-disjoint union interlacing", "", overlays, _edu_interlacing),
        ("single shared vertex: union equals 1-sum", "", shared_vertex, _union_is_one_sum),
    ]


def _equal_classes_tight(g: Graph, k: int) -> bool:
    classes = Coloring(tuple(v // (g.n // k) for v in range(g.n)), k)
    return abs(bounds.upper_bound_equal_classes(g, classes) - _lambda_max(g)) <= TOL


def _bounds(shared: _Corpora) -> list[tuple]:
    reports = [(g, (rep,)) for g, rep in shared.reports]
    turans = {
        (n, k): families.turan(n, k) for n in range(4, 13) for k in range(2, 5) if n % k == 0
    }
    return [
        ("all applicable upper bounds hold", f"{len(reports)} graphs",
         reports, lambda rep: all(
             satisfied for _name, _value, applicable, satisfied in rep.upper_bounds
             if applicable)),
        ("Hoffman bound is a valid chi lower bound", "",
         reports, lambda rep: not rep.chi + TOL < rep.hoffman),
        ("N/delta bound tight on Turan graphs", "",
         [(g, (g, k)) for (_n, k), g in turans.items()], _equal_classes_tight),
    ]


# Suite name -> builder of its claims, each (row name, detail, cases, predicate).
SUITES = {
    "families": _families,
    "sharp": _sharp,
    "onesum": _onesum,
    "bounds": _bounds,
}


def run_suites(names: list[str], seed: int = 0, random: int | None = None) -> list[Row]:
    """One row per claim of the named suites, in table order.

    `random` replaces the default number of seeded random graphs (500) in
    the corpus that the `sharp` and `bounds` suites share; above
    `RANDOM_CAP` it raises GraphError before any graph is built.
    """
    shared = _Corpora(seed, random)
    return [_row(name, *claim) for name in names for claim in SUITES[name](shared)]

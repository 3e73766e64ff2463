"""Acceptance suite: one test per acceptance criterion, numbered 1-11.

Where a criterion's graphs and predicate are a claim of the ``verify`` table,
the test reads that claim's cases and predicate from the table, checks that
the cases cover the criterion's instances, and runs every case. Checks that
no claim makes are written out here, each with its tolerance. The random
corpora are seeded so every run checks the identical set of graphs.
"""

from fractions import Fraction
from itertools import combinations
from typing import Callable

import numpy as np
import pytest

from chromaspec import verify
from chromaspec.bounds import (
    duplicate_classes,
    twin_classes,
    upper_bound_equal_classes,
    upper_bound_regular_equitable,
)
from chromaspec.certificates import g_ktd_certificates
from chromaspec.coloring import (
    Coloring,
    chromatic_number,
    class_indicator_pm,
    enumerate_chi_colorings,
    is_equitable_DinvA,
    pair_pm,
)
from chromaspec.compose import edge_disjoint_union, glue_eigenbasis, one_sum
from chromaspec.families import (
    complete,
    complete_bipartite,
    complete_split,
    g_ktd,
    g_ktd_lambda_max_case,
    oracle_lambda_max_complete_split,
    petal,
    turan,
)
from chromaspec.graphs import Graph, from_edge_list, is_regular, write_edge_list
from chromaspec.search import graph_from_mask, search_sharp
from chromaspec.spectral import (
    eigensystem,
    largest_eigenvalue,
    multiplicity_of,
    spectrum,
    verify_eigenpair,
)

from conftest import bowtie

VALUE_TOL = 1e-8
RESIDUAL_TOL = 1e-9

Claim = tuple[list[tuple[object, tuple]], Callable[..., bool]]


def claims(suite: str, corpora: verify._Corpora) -> dict[str, Claim]:
    """One suite of the verify claim table: row name -> (cases, predicate)."""
    table = verify.SUITES[suite](corpora)
    return {name: (cases, holds) for name, _detail, cases, holds in table}


def assert_claim(claim: Claim) -> None:
    """Every case holds; a case is (label, the predicate's arguments)."""
    cases, holds = claim
    assert cases
    for label, args in cases:
        assert holds(*args), label


def parameters(claim: Claim) -> set[tuple]:
    """The family parameters of each case, whose arguments are (graph, *params)."""
    return {tuple(args[1:]) for _, args in claim[0]}


def family_instances() -> list[Graph]:
    """Every K_n, K_{a,b}, T(N,k) and petal instance named by the acceptance grid."""
    out = [complete(n) for n in range(2, 13)]
    out += [complete_bipartite(a, b) for a in range(1, 12) for b in range(1, 13 - a)]
    out += [turan(n, k) for n in range(2, 13) for k in range(2, n + 1) if n % k == 0]
    out += [petal(m) for m in range(1, 7)]
    return out


@pytest.fixture(scope="module")
def family_claims():
    return claims("families", verify._Corpora(0, None))


@pytest.fixture(scope="module")
def corpus():
    """The seeded corpus, 500 random graphs plus the families, and its sharp claims."""
    corpora = verify._Corpora(20260823, None)
    return corpora, claims("sharp", corpora)


def test_criterion_01_family_spectra(family_claims):
    claim = family_claims["family spectra match exact oracles"]
    assert set(family_instances()) <= {g for g, _ in claim[0]}
    assert_claim(claim)


def test_criterion_02_g_ktd_spectra(family_claims):
    claim = family_claims["family spectra match exact oracles"]
    instances = [
        g_ktd(k, theta, d)
        for k in range(2, 6)
        for theta in range(2, 6)
        for d in range(1, k + 1)
        if d < k or (k >= theta and k * theta > 4)
    ]
    assert len(instances) == 4 * (1 + 2 + 3 + 4) + 9  # d < k grid plus the d = k cases
    assert set(instances) <= {g for g, _ in claim[0]}
    assert_claim(claim)


def test_criterion_03_case_table(family_claims):
    claim = family_claims["g_ktd largest-eigenvalue case table"]
    assert parameters(claim) == {
        (k, theta, d)
        for k in range(2, 6)
        for theta in range(2, 6)
        for d in range(1, k + 1)
        if (k, theta, d) != (2, 2, 2) and not d == k < theta
    }
    assert_claim(claim)
    assert {g_ktd_lambda_max_case(*ktd)[2] for ktd in parameters(claim)} == {1, 2, 3, 4, 5, 6}
    # the case-5 counterexample: lambda_max exceeds chi/(chi-1)
    lam, mult, case = g_ktd_lambda_max_case(2, 5, 1)
    assert (lam, mult, case) == (Fraction(3, 2), 1, 5)
    g = g_ktd(2, 5, 1)
    chi = chromatic_number(g)
    assert chi == 5 and lam > Fraction(chi, chi - 1) == Fraction(5, 4)
    measured, _ = largest_eigenvalue(spectrum(g))
    assert abs(measured - 1.5) <= VALUE_TOL


def test_criterion_04_lower_bound_universality(corpus):
    corpora, sharp = corpus
    assert len(corpora.random_graphs) == 500
    claim = sharp["lambda_N >= chi/(chi-1) on corpus"]
    assert set(family_instances() + corpora.random_graphs) <= {g for g, _ in claim[0]}
    assert_claim(claim)
    assert_claim(sharp["non-complete non-bipartite lambda_N >= (N+1)/(N-1)"])


def test_criterion_05_equitable_necessity(corpus):
    _, sharp = corpus
    claim = sharp["sharp graphs: all chi-colorings equitable"]
    assert_claim(claim)
    # the corpus must actually contain sharp graphs
    assert sum(len(rep.equitable) for _, (rep, _mult) in claim[0]) > 100
    # The float test |lambda_N - chi/(chi-1)| <= 1e-8 picks the same sharp
    # graphs, with the same multiplicities, as the table's exact decision.
    exact = {g: mult for g, (_rep, mult) in claim[0]}
    for g, (rep,) in sharp["lambda_N >= chi/(chi-1) on corpus"][0]:
        lam, mult = largest_eigenvalue(spectrum(g))
        float_sharp = abs(lam - rep.chi / (rep.chi - 1)) <= VALUE_TOL
        assert (mult if float_sharp else 0) == exact.get(g, 0), g


def test_criterion_06_multiplicity_floor(corpus):
    _, sharp = corpus
    assert_claim(sharp["sharp graphs: multiplicity >= chi-1"])
    assert_claim(sharp["sharp + multiplicity chi-1 implies unique coloring"])


def test_criterion_07_one_sum_calculus():
    onesum = claims("onesum", verify._Corpora(7, None))
    # (a) interlacing and (b) chromatic number over 200 seeded random pairs
    interlacing = onesum["1-sum interlacing lambda_max(sum) <= max"]
    assert len(interlacing[0]) == 200
    assert_claim(interlacing)
    assert_claim(onesum["chi(1-sum) = max(chi_1, chi_2)"])

    # (c) sharp + sharp with equal chi stays sharp with multiplicity m1+m2-1
    pools = {
        2: [complete(2), turan(4, 2), turan(6, 2)],
        3: [complete(3), turan(6, 3), turan(9, 3), petal(2), petal(3), bowtie()],
        4: [complete(4), turan(8, 4), turan(12, 4)],
    }
    for chi, pool in pools.items():
        target = chi / (chi - 1)
        for g1, g2 in combinations(pool, 2):
            m1 = multiplicity_of(spectrum(g1), target)
            m2 = multiplicity_of(spectrum(g2), target)
            glued = one_sum(g1, 0, g2, g2.n - 1).result
            s = spectrum(glued)
            lam, mult = largest_eigenvalue(s)
            assert abs(lam - target) <= VALUE_TOL
            assert mult == m1 + m2 - 1

    # (d) generalized petal law
    petal_law = onesum["generalized petal law lambda = n/(n-1), mult = |V|-m"]
    assert parameters(petal_law) == {(m, n) for n in (2, 3, 4) for m in range(1, 6)}
    assert_claim(petal_law)


def test_criterion_08_edge_disjoint_union():
    rng = np.random.default_rng(8)
    done = 0
    while done < 100:
        n = int(rng.integers(4, 11))
        g1 = verify.random_connected_graph(rng, n_max=n)
        if g1.n != n:
            g1 = from_edge_list(n, list(g1.edges()))  # pad to the shared space
        forbidden = set(g1.edges())
        candidates = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if (i, j) not in forbidden
        ]
        if len(candidates) < 2:
            continue
        take = rng.choice(len(candidates), size=min(4, len(candidates)), replace=False)
        g2 = from_edge_list(n, [candidates[i] for i in take])
        glued = edge_disjoint_union(g1, g2)
        if 0 in glued.result.degrees:
            continue
        lam, _ = largest_eigenvalue(spectrum(glued.result))
        lams = []
        for g in (g1, g2):
            live = [v for v in range(n) if g.degrees[v] > 0]
            sub = from_edge_list(len(live), [
                (live.index(v), live.index(w)) for v, w in g.edges()
            ])
            lams.append(largest_eigenvalue(spectrum(sub))[0])
        assert lam <= max(lams) + VALUE_TOL
        done += 1

    # single shared vertex: byte-for-byte agreement with one_sum
    for g1, x1, g2, x2 in [
        (complete(3), 0, complete(3), 0),
        (petal(2), 3, complete(4), 1),
        (turan(6, 3), 5, bowtie(), 2),
    ]:
        expected = one_sum(g1, x1, g2, x2)
        emb1, emb2 = expected.embeddings
        n = expected.result.n
        a = from_edge_list(n, [(emb1[v], emb1[w]) for v, w in g1.edges()])
        b = from_edge_list(n, [(emb2[v], emb2[w]) for v, w in g2.edges()])
        overlay = edge_disjoint_union(a, b)
        assert write_edge_list(overlay.result) == write_edge_list(expected.result)


def test_criterion_09_eigenfunction_certificates(family_claims):
    # f_ij on equitable colorings at k/(k-1)
    equitable_cases = [
        (turan(9, 3), [[0, 1, 2], [3, 4, 5], [6, 7, 8]]),
        (turan(12, 4), [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(4)]),
        (petal(3), [[0], [1, 2, 3], [4, 5, 6]]),
        (g_ktd(2, 5, 1), [[2 * i, 2 * i + 1] for i in range(5)]),
    ]
    for g, classes in equitable_cases:
        c = Coloring.from_classes(g.n, classes)
        assert is_equitable_DinvA(g, c)
        k = c.k
        for i in range(1, k):
            f = class_indicator_pm(g, c, 0, i)
            pair = verify_eigenpair(g, k / (k - 1), f, tol=RESIDUAL_TOL)
            assert pair.valid

    # f_{v,w} for twins at (d+1)/d and duplicates at 1
    for g in (complete(5), petal(4), bowtie()):
        for vs in twin_classes(g):
            v, w = vs[0], vs[1]
            d = g.degrees[v]
            assert verify_eigenpair(g, (d + 1) / d, pair_pm(g, v, w), tol=RESIDUAL_TOL).valid
    for g in (complete_bipartite(3, 2), turan(9, 3), complete_split(4, 3)):
        for vs in duplicate_classes(g):
            v, w = vs[0], vs[1]
            assert verify_eigenpair(g, 1.0, pair_pm(g, v, w), tol=RESIDUAL_TOL).valid

    # the six g_ktd certificate families
    certificates = family_claims["g_ktd eigenfunction certificates verify"]
    assert parameters(certificates) == {
        (k, theta, d) for k in range(2, 6) for theta in range(2, 6) for d in range(1, k)
    }
    for k, theta, d in parameters(certificates):
        assert len(g_ktd_certificates(k, theta, d)) == k * theta - 1
    assert_claim(certificates)

    # glued eigenbases on 1-sums
    def top_basis(g, lam):
        s, funcs = eigensystem(g)
        cols = [j for j, v in enumerate(s.eigenvalues) if abs(v - lam) <= 1e-8]
        return funcs[:, cols].T

    for g1, g2, lam in [
        (complete(3), complete(3), 1.5),
        (petal(2), turan(6, 3), 1.5),
        (complete(4), complete(4), 4 / 3),
    ]:
        out = glue_eigenbasis(g1, 0, top_basis(g1, lam), g2, 0, top_basis(g2, lam), lam)
        glued = one_sum(g1, 0, g2, 0).result
        assert out
        for f in out:
            assert verify_eigenpair(glued, lam, f, tol=RESIDUAL_TOL).valid


def test_criterion_10_upper_bounds(family_claims, corpus):
    # N/delta with equality on Turan graphs
    for n in range(4, 13):
        for k in range(2, n):
            if n % k != 0:
                continue
            g = turan(n, k)
            size = n // k
            c = Coloring.from_classes(
                n, [list(range(size * i, size * (i + 1))) for i in range(k)]
            )
            bound = upper_bound_equal_classes(g, c)
            lam, _ = largest_eigenvalue(spectrum(g))
            assert bound is not None and abs(lam - bound) <= VALUE_TOL

    # The general and N/delta bounds on the corpus of criterion 4: each report
    # checks them, within 1e-8, on its first chi-coloring, which is
    # enumerate_chi_colorings(g, chi)[0].
    corpora, sharp = corpus
    upper = claims("bounds", corpora)["all applicable upper bounds hold"]
    lower = sharp["lambda_N >= chi/(chi-1) on corpus"]
    assert [g for g, _ in upper[0]] == [g for g, _ in lower[0]]
    assert all(
        applicable
        for _, (rep,) in upper[0]
        for name, _value, applicable, _satisfied in rep.upper_bounds
        if name == "general_scaled_multipartite"
    )
    assert_claim(upper)

    # the regular-equitable bound on every chi-coloring of the regular graphs
    regular_equitable_seen = 0
    for g, (rep,) in upper[0]:
        if is_regular(g) is None:
            continue
        for c in enumerate_chi_colorings(g, rep.chi):
            reg = upper_bound_regular_equitable(g, c)
            if reg is not None:
                assert rep.lambda_max <= reg + VALUE_TOL
                regular_equitable_seen += 1
    assert regular_equitable_seen > 0

    # complete split formula
    split = family_claims["complete split lambda_max = 1 + t/(N-1)"]
    assert parameters(split) == {(t, chi) for t in range(1, 9) for chi in range(2, 6)}
    for _, (g, t, chi) in split[0]:
        assert oracle_lambda_max_complete_split(t, chi) == 1 + Fraction(t, g.n - 1)
    assert_claim(split)


def test_criterion_11_search_ground_truth():
    hits = search_sharp(5)
    five = [h for h in hits if h.n == 5]

    mult4 = [h for h in five if h.multiplicity == 4]
    assert len(mult4) == 1
    assert graph_from_mask(5, mult4[0].mask).rows == complete(5).rows

    mult3 = [h for h in five if h.multiplicity == 3]
    assert len(mult3) == 1
    hit = mult3[0]
    assert hit.chi == 3 and abs(hit.lambda_max - 1.5) <= VALUE_TOL
    got = graph_from_mask(5, hit.mask)
    # bowtie up to isomorphism: degree sequence and spectrum pin it at n = 5
    assert sorted(got.degrees) == [2, 2, 2, 2, 4]
    for (gv, gm), (bv, bm) in zip(spectrum(got).groups, spectrum(bowtie()).groups):
        assert abs(gv - bv) <= VALUE_TOL and gm == bm

from fractions import Fraction

import pytest

from chromaspec.coloring import chromatic_number
from chromaspec.families import (
    ExactSpectrum,
    complete,
    complete_bipartite,
    complete_split,
    g_ktd,
    g_ktd_lambda_max_case,
    generalized_petal,
    oracle_lambda_max_complete_split,
    oracle_spectrum_bipartite,
    oracle_spectrum_complete,
    oracle_spectrum_g_ktd,
    oracle_spectrum_petal,
    oracle_spectrum_turan,
    parse_family,
    petal,
    turan,
)
from chromaspec.graphs import GraphError, from_edge_list, is_independent_set
from chromaspec.spectral import largest_eigenvalue, spectrum

from conftest import bowtie


def assert_matches_oracle(g, oracle: ExactSpectrum, tol=1e-8):
    groups = spectrum(g).groups
    expected = oracle.sorted_groups()
    assert len(groups) == len(expected)
    for (got_v, got_m), (exp_v, exp_m) in zip(groups, expected):
        assert abs(got_v - float(exp_v)) <= tol
        assert got_m == exp_m


class TestGenerators:
    def test_turan_is_k333(self):
        g = turan(9, 3)
        assert g.num_edges == 27
        for c in range(3):
            assert is_independent_set(g, range(3 * c, 3 * c + 3))
        assert set(g.degrees) == {6}

    def test_petal1_is_triangle(self):
        assert petal(1).rows == complete(3).rows

    def test_star_as_complete_bipartite(self):
        g = complete_bipartite(4, 1)
        assert sorted(g.degrees) == [1, 1, 1, 1, 4]

    def test_generalized_petal_bowtie(self):
        g = generalized_petal(2, 3)
        assert g.n == 5 and sorted(g.degrees) == sorted(bowtie().degrees)
        assert spectrum(g).groups == spectrum(bowtie()).groups

    def test_generalized_petal_single_block(self):
        assert generalized_petal(1, 4).rows == complete(4).rows

    def test_generalized_petal_matches_petal(self):
        # explicit isomorphism: petal's (v_i, w_i) is block i of gpetal(m, 3)
        m = 4
        p, gp = petal(m), generalized_petal(m, 3)
        perm = {0: 0}
        for i in range(1, m + 1):
            perm[i] = 2 * i - 1
            perm[m + i] = 2 * i
        mapped = {(min(perm[v], perm[w]), max(perm[v], perm[w])) for v, w in p.edges()}
        assert mapped == set(gp.edges())

    def test_flying_kite_size(self):
        assert generalized_petal(4, 4).n == 13

    def test_g_ktd_d0_is_turan(self):
        assert g_ktd(3, 4, 0).rows == turan(12, 4).rows

    def test_g_ktd_231(self):
        g = g_ktd(2, 3, 1)
        assert g.n == 6 and g.num_edges == 12 - 3  # K_{2x3} minus one 3-clique
        assert chromatic_number(g) == 3

    def test_g_ktd_dk_isomorphism(self):
        # v_j^i -> v_i^j identifies g_ktd(k, theta, k) with g_ktd(theta, k, theta)
        k, theta = 3, 4
        g1, g2 = g_ktd(k, theta, k), g_ktd(theta, k, theta)

        def to2(a):
            i, j = divmod(a, k)  # class i, column j (0-based) in g1
            return j * theta + i

        mapped = {(min(to2(v), to2(w)), max(to2(v), to2(w))) for v, w in g1.edges()}
        assert mapped == set(g2.edges())

    def test_complete_split_structure(self):
        g = complete_split(4, 3)
        assert g.n == 6
        assert is_independent_set(g, range(4))
        assert g.degrees[4] == g.degrees[5] == 5
        assert chromatic_number(g) == 3

    def test_domain_errors(self):
        for bad in (
            lambda: complete(0),
            lambda: complete_bipartite(0, 2),
            lambda: turan(7, 3),
            lambda: petal(0),
            lambda: generalized_petal(1, 1),
            lambda: g_ktd(2, 2, 3),
            lambda: complete_split(0, 3),
        ):
            with pytest.raises(GraphError):
                bad()


class TestOracles:
    def test_complete(self):
        assert oracle_spectrum_complete(5).groups == (
            (Fraction(0), 1),
            (Fraction(5, 4), 4),
        )
        assert_matches_oracle(complete(5), oracle_spectrum_complete(5))

    def test_bipartite(self):
        oracle = oracle_spectrum_bipartite(3, 2)
        assert oracle.sorted_groups() == [
            (Fraction(0), 1),
            (Fraction(1), 3),
            (Fraction(2), 1),
        ]
        assert_matches_oracle(complete_bipartite(3, 2), oracle)

    def test_petal(self):
        oracle = oracle_spectrum_petal(6)
        assert oracle.sorted_groups() == [
            (Fraction(0), 1),
            (Fraction(1, 2), 5),
            (Fraction(3, 2), 7),
        ]
        assert_matches_oracle(petal(6), oracle)

    def test_petal1_merges_into_complete(self):
        assert oracle_spectrum_petal(1).groups == oracle_spectrum_complete(3).groups

    def test_turan(self):
        assert_matches_oracle(turan(12, 4), oracle_spectrum_turan(12, 4))

    def test_g_ktd_432_pinned(self):
        assert oracle_spectrum_g_ktd(4, 3, 2).sorted_groups() == [
            (Fraction(0), 1),
            (Fraction(5, 6), 2),
            (Fraction(11, 12), 2),
            (Fraction(1), 3),
            (Fraction(7, 6), 1),
            (Fraction(4, 3), 1),
            (Fraction(3, 2), 2),
        ]
        assert_matches_oracle(g_ktd(4, 3, 2), oracle_spectrum_g_ktd(4, 3, 2))

    def test_g_ktd_231_merged(self):
        # 1 - (k-d)/(k(k-1)(theta-1)) = 3/4 here; the trace check below pins
        # it (the eigenvalues must sum to n = 6, which 3/4 satisfies)
        oracle = oracle_spectrum_g_ktd(2, 3, 1)
        assert oracle.sorted_groups() == [
            (Fraction(0), 1),
            (Fraction(3, 4), 2),
            (Fraction(3, 2), 3),
        ]
        assert sum(v * m for v, m in oracle.groups) == 6
        assert_matches_oracle(g_ktd(2, 3, 1), oracle_spectrum_g_ktd(2, 3, 1))

    def test_g_ktd_333_case_dk(self):
        assert oracle_spectrum_g_ktd(3, 3, 3).sorted_groups() == [
            (Fraction(0), 1),
            (Fraction(3, 4), 4),
            (Fraction(3, 2), 4),
        ]
        assert_matches_oracle(g_ktd(3, 3, 3), oracle_spectrum_g_ktd(3, 3, 3))

    def test_g_ktd_d0_delegates_to_turan(self):
        assert (
            oracle_spectrum_g_ktd(3, 4, 0).groups
            == oracle_spectrum_turan(12, 4).groups
        )

    def test_g_ktd_oracle_domain(self):
        with pytest.raises(GraphError):
            oracle_spectrum_g_ktd(2, 3, 2)  # d = k < theta not covered
        with pytest.raises(GraphError):
            oracle_spectrum_g_ktd(2, 2, 2)  # k * theta <= 4

    def test_oracle_counts_consistent(self):
        for oracle, g in [
            (oracle_spectrum_complete(7), complete(7)),
            (oracle_spectrum_bipartite(4, 5), complete_bipartite(4, 5)),
            (oracle_spectrum_turan(10, 5), turan(10, 5)),
            (oracle_spectrum_petal(4), petal(4)),
            (oracle_spectrum_g_ktd(5, 4, 3), g_ktd(5, 4, 3)),
        ]:
            assert oracle.n == g.n
            assert sum(float(v) * m for v, m in oracle.groups) == pytest.approx(g.n)

    def test_values_outside_range_rejected(self):
        with pytest.raises(GraphError):
            ExactSpectrum(((Fraction(5, 2), 1),))
        with pytest.raises(GraphError):
            ExactSpectrum(((Fraction(1), 1), (Fraction(1), 2)))


class TestCaseTable:
    @pytest.mark.parametrize(
        "k,theta,d,lam,mult,case",
        [
            (4, 3, 2, Fraction(3, 2), 2, 1),
            (3, 3, 2, Fraction(3, 2), 3, 2),
            (3, 3, 1, Fraction(3, 2), 2, 3),
            (3, 4, 1, Fraction(4, 3), 4, 4),
            (2, 5, 1, Fraction(3, 2), 1, 5),
            (3, 5, 2, Fraction(3, 2), 1, 6),
        ],
    )
    def test_case_values(self, k, theta, d, lam, mult, case):
        assert g_ktd_lambda_max_case(k, theta, d) == (lam, mult, case)
        measured, m = largest_eigenvalue(spectrum(g_ktd(k, theta, d)))
        assert measured == pytest.approx(float(lam)) and m == mult

    def test_case5_beats_chromatic_bound(self):
        lam, _, case = g_ktd_lambda_max_case(2, 5, 1)
        assert case == 5
        chi = chromatic_number(g_ktd(2, 5, 1))
        assert chi == 5 and lam > Fraction(chi, chi - 1)

    def test_hypothesis_violations(self):
        with pytest.raises(GraphError):
            g_ktd_lambda_max_case(2, 2, 2)
        with pytest.raises(GraphError):
            g_ktd_lambda_max_case(2, 3, 2)
        with pytest.raises(GraphError):
            g_ktd_lambda_max_case(3, 3, 0)


class TestCompleteSplit:
    def test_t4_chi3(self):
        assert oracle_lambda_max_complete_split(4, 3) == Fraction(9, 5)
        lam, _ = largest_eigenvalue(spectrum(complete_split(4, 3)))
        assert lam == pytest.approx(9 / 5)

    def test_t1_is_complete(self):
        chi = 4
        g = complete_split(1, chi)
        assert g.rows == complete(chi).rows
        assert oracle_lambda_max_complete_split(1, chi) == Fraction(chi, chi - 1)

    def test_monotone_approach_to_two(self):
        values = [oracle_lambda_max_complete_split(t, 3) for t in (10, 100, 1000)]
        assert values[0] < values[1] < values[2] < 2


class TestParseFamily:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("K_5", complete(5)),
            ("K_{3,2}", complete_bipartite(3, 2)),
            ("T(9,3)", turan(9, 3)),
            ("petal(3)", petal(3)),
            ("gpetal(2,3)", generalized_petal(2, 3)),
            ("Gktd(2,5,1)", g_ktd(2, 5, 1)),
            ("split(4,3)", complete_split(4, 3)),
        ],
    )
    def test_round_trip(self, spec, expected):
        assert parse_family(spec).rows == expected.rows

    # Each spec form at its largest n within the cap, and one past it.
    @pytest.mark.parametrize(
        "within,beyond",
        [
            ("K_64", "K_65"),
            ("K_{32,32}", "K_{32,33}"),
            ("T(64,4)", "T(65,5)"),
            ("petal(31)", "petal(32)"),
            ("gpetal(63,2)", "gpetal(32,3)"),
            ("Gktd(8,8,1)", "Gktd(5,13,1)"),
            ("split(60,5)", "split(60,6)"),
        ],
    )
    def test_vertex_cap(self, within, beyond):
        assert parse_family(within).n in (63, 64)
        with pytest.raises(GraphError, match="n = 65, above the cap 64"):
            parse_family(beyond)

    def test_malformed(self):
        for bad in ("K5", "petal", "T(9;3)", "frob(2)"):
            with pytest.raises(GraphError):
                parse_family(bad)

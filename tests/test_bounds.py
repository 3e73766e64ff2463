import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chromaspec.bounds import (
    BoundReport,
    chromatic_lower_bound_from_spectrum,
    duplicate_classes,
    full_report,
    hoffman_bound,
    _psd_nullity,
    multiplicity_bounds_from_structure,
    sharp_multiplicity,
    twin_classes,
    upper_bound_equal_classes,
    upper_bound_general,
    upper_bound_regular_equitable,
)
from chromaspec.coloring import (
    ENUMERATION_BUDGET,
    Coloring,
    chromatic_number,
    enumerate_chi_colorings,
    is_equitable_DinvA,
)
from chromaspec.families import (
    complete,
    complete_bipartite,
    complete_split,
    g_ktd,
    parse_family,
    petal,
    turan,
)
from chromaspec.graphs import GraphError, from_edge_list
from chromaspec.spectral import largest_eigenvalue, multiplicity_of, spectrum
from chromaspec.verify import _family_grid

from conftest import brute_psd_nullity, chi_pool, cycle


def canonical_coloring(g, sizes):
    classes, start = [], 0
    for s in sizes:
        classes.append(list(range(start, start + s)))
        start += s
    return Coloring.from_classes(g.n, classes)


class TestSpectralChromaticBound:
    def test_bipartite_value(self):
        assert chromatic_lower_bound_from_spectrum(2.0) == pytest.approx(2.0)

    def test_three_halves(self):
        assert chromatic_lower_bound_from_spectrum(1.5) == pytest.approx(3.0)

    def test_complete_value(self):
        for n in (4, 9):
            assert chromatic_lower_bound_from_spectrum(n / (n - 1)) == pytest.approx(n)

    def test_needs_lambda_above_one(self):
        with pytest.raises(GraphError):
            chromatic_lower_bound_from_spectrum(1.0)


class TestHoffman:
    def test_complete(self):
        assert hoffman_bound(complete(6)) == pytest.approx(6.0)

    def test_c5_closed_form(self):
        # adjacency eigenvalues of C_5 are 2cos(2 pi k / 5)
        expected = 1 - 2 / (2 * math.cos(4 * math.pi / 5))
        assert hoffman_bound(cycle(5)) == pytest.approx(expected)
        assert chromatic_number(cycle(5)) >= hoffman_bound(cycle(5))

    def test_regular_graphs_match_spectral_form(self):
        # on regular graphs the Hoffman bound and lambda_N/(lambda_N - 1) agree
        for g in (cycle(5), complete(4), turan(6, 3)):
            lam, _ = largest_eigenvalue(spectrum(g))
            assert hoffman_bound(g) == pytest.approx(lam / (lam - 1))

    def test_edgeless_rejected(self):
        with pytest.raises(GraphError):
            hoffman_bound(from_edge_list(3, []))


class TestStructureClasses:
    def test_twins_of_complete(self):
        assert twin_classes(complete(4)) == [[0, 1, 2, 3]]

    def test_duplicates_of_bipartite(self):
        got = sorted(map(sorted, duplicate_classes(complete_bipartite(3, 2))))
        assert got == [[0, 1, 2], [3, 4]]

    def test_petal_twins(self):
        got = sorted(map(sorted, twin_classes(petal(3))))
        assert got == [[1, 4], [2, 5], [3, 6]]


class TestMultiplicityBounds:
    def test_turan_duplicates_tight_upper(self):
        g = turan(9, 3)
        c = canonical_coloring(g, [3, 3, 3])
        dups = duplicate_classes(g)
        lower, upper = multiplicity_bounds_from_structure(g, c, dups, [])
        assert upper == 2
        assert multiplicity_of(spectrum(g), 1.5) == 2
        assert lower <= 2 <= upper

    def test_complete_graph_twins_tight_lower(self):
        n = 6
        g = complete(n)
        c = canonical_coloring(g, [1] * n)
        lower, upper = multiplicity_bounds_from_structure(g, c, [], [list(range(n))])
        assert lower == n - 1
        assert multiplicity_of(spectrum(g), n / (n - 1)) == n - 1

    def test_petal_lower_bound_holds(self):
        m = 3
        g = petal(m)
        c = Coloring.from_classes(
            g.n, [[0], list(range(1, m + 1)), list(range(m + 1, 2 * m + 1))]
        )
        twins = [[i, m + i] for i in range(1, m + 1)]
        lower, upper = multiplicity_bounds_from_structure(g, c, [], twins)
        measured = multiplicity_of(spectrum(g), 1.5)
        assert measured == m + 1
        assert lower <= measured <= upper

    def test_wrong_kind_rejected(self):
        g = turan(9, 3)
        c = canonical_coloring(g, [3, 3, 3])
        with pytest.raises(GraphError):
            multiplicity_bounds_from_structure(g, c, [], [[0, 1]])  # duplicates, not twins


class TestUpperBounds:
    def test_turan_n_over_delta_tight(self):
        g = turan(9, 3)
        bound = upper_bound_equal_classes(g, canonical_coloring(g, [3, 3, 3]))
        assert bound == pytest.approx(1.5)
        lam, _ = largest_eigenvalue(spectrum(g))
        assert lam == pytest.approx(bound)

    def test_g_ktd_equal_classes(self):
        g = g_ktd(4, 3, 2)
        c = Coloring.from_classes(12, [[4 * i + j for j in range(4)] for i in range(3)])
        bound = upper_bound_equal_classes(g, c)
        assert bound == pytest.approx(12 / 6)
        lam, _ = largest_eigenvalue(spectrum(g))
        assert lam <= bound + 1e-8

    def test_complete_graph(self):
        n = 7
        g = complete(n)
        bound = upper_bound_equal_classes(g, canonical_coloring(g, [1] * n))
        assert bound == pytest.approx(n / (n - 1))

    def test_unequal_classes_not_applicable(self):
        g = complete_split(4, 3)
        c = Coloring.from_classes(6, [[0, 1, 2, 3], [4], [5]])
        assert upper_bound_equal_classes(g, c) is None

    def test_general_bound_on_turan(self):
        g = turan(12, 4)
        bound = upper_bound_general(g, canonical_coloring(g, [3] * 4))
        assert bound == pytest.approx(4 / 3)

    def test_general_bound_on_complete_split(self):
        g = complete_split(4, 3)
        c = Coloring.from_classes(6, [[0, 1, 2, 3], [4], [5]])
        bound = upper_bound_general(g, c)
        lam, _ = largest_eigenvalue(spectrum(g))
        assert lam == pytest.approx(9 / 5)
        assert bound >= lam - 1e-8

    def test_regular_equal_classes_reduce_to_n_over_delta(self):
        g = turan(8, 2)
        c = canonical_coloring(g, [4, 4])
        general = upper_bound_general(g, c)
        equal = upper_bound_equal_classes(g, c)
        assert general == pytest.approx(equal)

    def test_regular_equitable_turan(self):
        g = turan(9, 3)
        bound = upper_bound_regular_equitable(g, canonical_coloring(g, [3, 3, 3]))
        assert bound == pytest.approx(1.5)

    def test_regular_equitable_g_ktd(self):
        g = g_ktd(3, 3, 3)
        c = Coloring.from_classes(9, [[3 * i + j for j in range(3)] for i in range(3)])
        bound = upper_bound_regular_equitable(g, c)
        assert bound is not None
        lam, _ = largest_eigenvalue(spectrum(g))
        assert lam == pytest.approx(1.5) and lam <= bound + 1e-8

    def test_regular_equitable_inapplicable_on_petal(self):
        g = petal(2)
        c = Coloring.from_classes(5, [[0], [1, 2], [3, 4]])
        assert upper_bound_regular_equitable(g, c) is None


class TestFullReport:
    def test_petal3(self):
        rep = full_report(petal(3))
        assert rep.chi == 3 and rep.sharp
        assert rep.lambda_max == pytest.approx(1.5)
        assert rep.lambda_max_multiplicity == 4
        assert all(rep.equitable) and rep.colorings_complete
        assert rep.multiplicity_bounds is not None
        lo, hi = rep.multiplicity_bounds
        assert lo <= 4 <= hi

    def test_g_ktd_251_counterexample(self):
        rep = full_report(g_ktd(2, 5, 1))
        assert rep.chi == 5
        assert rep.lambda_max == pytest.approx(1.5)
        assert rep.gap == pytest.approx(0.25)
        assert not rep.sharp
        assert rep.equitable and all(rep.equitable)

    def test_c5(self):
        rep = full_report(cycle(5))
        assert rep.chi == 3
        assert rep.lambda_max == pytest.approx(1 - math.cos(4 * math.pi / 5))
        assert not rep.sharp and rep.multiplicity_bounds is None

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="connected"):
            full_report(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_json_schema(self):
        rep = full_report(complete(4))
        data = json.loads(rep.to_json())
        assert data["schema"] == 1
        assert data["sharp"] is True
        assert data["n"] == 4 and data["chi"] == 4
        assert {u["name"] for u in data["upper_bounds"]} == {
            "equal_classes_N_over_delta",
            "general_scaled_multipartite",
            "regular_equitable",
        }
        for u in data["upper_bounds"]:
            if u["applicable"]:
                assert u["satisfied"] is True

    def test_satisfied_flags_consistent(self):
        for g in (petal(2), turan(6, 3), complete_split(3, 4), g_ktd(3, 3, 2)):
            rep = full_report(g)
            for _, value, applicable, satisfied in rep.upper_bounds:
                if applicable:
                    assert satisfied == (rep.lambda_max <= value + 1e-8)

    @pytest.mark.parametrize(
        "spec",
        ["gpetal(5,4)", "petal(6)", "K_14", "K_{6,7}", "T(12,3)", "Gktd(2,5,1)",
         "Gktd(4,4,2)", "Gktd(5,5,3)", "split(8,5)", "C13"],
    )
    def test_flags_match_a_check_of_each_coloring(self, spec):
        # The benchmark's family specs, and an odd cycle with many colorings.
        g = cycle(13) if spec == "C13" else parse_family(spec)
        rep = full_report(g)
        assert rep.colorings_complete and not rep.notes
        assert list(rep.equitable) == [
            is_equitable_DinvA(g, c) for c in enumerate_chi_colorings(g, rep.chi)
        ]

    def test_enumeration_budget_on_c31(self):
        # C_31 has (2^31 - 2) / 6, about 3.6e8, canonical 3-colorings.
        assert ENUMERATION_BUDGET == 2**18
        rep = full_report(cycle(31))
        assert len(rep.equitable) == ENUMERATION_BUDGET
        assert rep.colorings_complete is False and rep.sharp is False
        assert rep.notes == ("more than 262144 chi-colorings: the first 262144 checked",)

    def test_checks_the_witness_above_the_cap(self):
        for g, chi in chi_pool():
            rep = full_report(g)
            assert rep.chi == chi and not rep.colorings_complete
            assert len(rep.equitable) == 1
            general = {name: (app, sat) for name, _, app, sat in rep.upper_bounds}
            assert general["general_scaled_multipartite"] == (True, True)


class TestSharpMultiplicity:
    def test_matches_exact_family_oracles(self):
        grid = [(g, oracle) for g, oracle in _family_grid() if g.n <= 25]
        sharp = 0
        for g, oracle in grid:
            chi = chromatic_number(g)
            top, mult = oracle.lambda_max()
            want = mult if top == Fraction(chi, chi - 1) else 0
            assert sharp_multiplicity(g, chi) == want, (g.n, list(g.edges()))
            sharp += want > 0
        assert 0 < sharp < len(grid)
        assert sharp_multiplicity(g_ktd(2, 5, 1), 5) == 0

    def test_isolated_vertex_rejected(self):
        with pytest.raises(GraphError, match="degree 0"):
            sharp_multiplicity(from_edge_list(3, [(0, 1)]), 2)

    @pytest.mark.parametrize(
        "m, want",
        [
            ([[0, 1], [1, 0]], None),  # zero diagonal, nonzero off-diagonal
            ([[1, 2], [2, 1]], None),  # negative second pivot
            ([[1, 1], [1, 1]], 1),
            ([[2, -1], [-1, 2]], 0),
            ([[0, 0], [0, 0]], 2),
            ([[0, 0, 0], [0, 1, 1], [0, 1, 1]], 2),
        ],
    )
    def test_elimination_cases(self, m, want):
        assert _psd_nullity([row[: i + 1] for i, row in enumerate(m)]) == want

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_elimination_matches_definitions(self, data):
        n = data.draw(st.integers(1, 5))
        # B^T B is PSD with the nullity of B; adding a symmetric part breaks it
        # sometimes, so both answers occur.
        b = [data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)) for _ in range(n)]
        m = [[sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        if data.draw(st.booleans()):
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            shift = data.draw(st.integers(-3, 3))
            m[i][j] += shift
            if i != j:
                m[j][i] += shift
        assert _psd_nullity([row[: i + 1] for i, row in enumerate(m)]) == brute_psd_nullity(m)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chromaspec.coloring import class_indicator_pm, pair_pm
from chromaspec.coloring import Coloring
from chromaspec.families import complete, complete_bipartite, petal
from chromaspec.graphs import GraphError, connected_components, from_edge_list
from chromaspec.spectral import (
    degree_inner_product,
    eigensystem,
    largest_eigenvalue,
    multiplicity_of,
    normalized_laplacian,
    rayleigh_quotient,
    spectrum,
    symmetrized_laplacian,
    verify_eigenpair,
)

from conftest import bowtie, brute_spectrum, cycle, path, star


class TestMatrices:
    def test_k2_laplacian(self):
        lap = normalized_laplacian(complete(2))
        assert np.array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])

    def test_p3_center_row(self):
        lap = normalized_laplacian(path(3))
        assert list(lap[1]) == [-0.5, 1.0, -0.5]

    def test_k3_off_diagonal(self):
        lap = normalized_laplacian(complete(3))
        off = lap[~np.eye(3, dtype=bool)]
        assert np.all(off == -0.5)

    def test_regular_graph_symmetrized_equals_laplacian(self):
        g = cycle(6)
        assert np.array_equal(symmetrized_laplacian(g), normalized_laplacian(g))

    def test_star_symmetrized_entry(self):
        lap = symmetrized_laplacian(star(3))
        assert lap[0, 1] == pytest.approx(-1.0 / math.sqrt(3))

    def test_k2_symmetrized(self):
        g = complete(2)
        assert np.array_equal(symmetrized_laplacian(g), normalized_laplacian(g))

    def test_isolated_vertex_rejected(self):
        with pytest.raises(GraphError):
            normalized_laplacian(from_edge_list(3, [(0, 1)]))


class TestSpectrum:
    def test_k5(self):
        groups = spectrum(complete(5)).groups
        assert len(groups) == 2
        assert groups[0][0] == pytest.approx(0.0, abs=1e-12) and groups[0][1] == 1
        assert groups[1][0] == pytest.approx(1.25) and groups[1][1] == 4

    def test_k32(self):
        groups = spectrum(complete_bipartite(3, 2)).groups
        assert [m for _, m in groups] == [1, 3, 1]
        assert [v for v, _ in groups] == pytest.approx([0.0, 1.0, 2.0])

    def test_petal6(self):
        groups = spectrum(petal(6)).groups
        assert [m for _, m in groups] == [1, 5, 7]
        assert [v for v, _ in groups] == pytest.approx([0.0, 0.5, 1.5])

    def test_cycle_closed_form(self):
        # normalized-Laplacian eigenvalues of C_n are 1 - cos(2 pi k / n)
        n = 7
        expected = sorted(1 - math.cos(2 * math.pi * k / n) for k in range(n))
        assert list(spectrum(cycle(n)).eigenvalues) == pytest.approx(expected)


class TestRayleigh:
    def test_bipartition_indicator(self):
        g = complete_bipartite(3, 4)
        c = Coloring.from_classes(7, [[0, 1, 2], [3, 4, 5, 6]])
        f = class_indicator_pm(g, c, 0, 1)
        assert rayleigh_quotient(g, f) == pytest.approx(2.0)

    def test_constant(self):
        assert rayleigh_quotient(complete(4), np.ones(4)) == pytest.approx(0.0)

    def test_pair_on_complete(self):
        g = complete(6)
        assert rayleigh_quotient(g, pair_pm(g, 0, 5)) == pytest.approx(6 / 5)

    def test_zero_function_rejected(self):
        with pytest.raises(GraphError):
            rayleigh_quotient(complete(3), np.zeros(3))


class TestVerifyEigenpair:
    def test_constant_is_zero_eigenfunction(self):
        pair = verify_eigenpair(petal(2), 0.0, np.ones(5))
        assert pair.valid and pair.residual == 0.0

    def test_pair_function_on_complete(self):
        g = complete(5)
        assert verify_eigenpair(g, 5 / 4, pair_pm(g, 1, 3)).valid

    def test_duplicate_pair_at_one(self):
        g = complete_bipartite(2, 3)
        assert verify_eigenpair(g, 1.0, pair_pm(g, 0, 1)).valid

    def test_wrong_eigenvalue_invalid(self):
        g = complete(5)
        assert not verify_eigenpair(g, 1.2, pair_pm(g, 0, 1)).valid

    def test_zero_function_rejected(self):
        with pytest.raises(GraphError):
            verify_eigenpair(complete(3), 1.0, np.zeros(3))


class TestInnerProduct:
    def test_constants_on_k3(self):
        g = complete(3)
        assert degree_inner_product(g, np.ones(3), np.ones(3)) == pytest.approx(6.0)

    def test_balanced_bipartite_orthogonality(self):
        g = cycle(4)  # regular bipartite, equal classes {0,2}, {1,3}
        f = np.array([1.0, -1.0, 1.0, -1.0])
        assert degree_inner_product(g, f, np.ones(4)) == pytest.approx(0.0)

    def test_positive_definite(self):
        g = petal(2)
        f = np.array([0.0, 1e-3, 0.0, 0.0, 0.0])
        assert degree_inner_product(g, f, f) > 0


class TestGroupQueries:
    def test_k5_multiplicity(self):
        assert multiplicity_of(spectrum(complete(5)), 5 / 4) == 4

    def test_k32_multiplicity(self):
        assert multiplicity_of(spectrum(complete_bipartite(3, 2)), 1.0) == 3

    def test_off_tolerance_is_zero(self):
        s = spectrum(complete(5))
        assert multiplicity_of(s, 0.9999 * 1.25) == 0

    def test_largest_k5(self):
        assert largest_eigenvalue(spectrum(complete(5))) == (pytest.approx(1.25), 4)

    def test_largest_bipartite(self):
        lam, mult = largest_eigenvalue(spectrum(complete_bipartite(4, 3)))
        assert lam == pytest.approx(2.0) and mult == 1

    def test_largest_bowtie(self):
        lam, mult = largest_eigenvalue(spectrum(bowtie()))
        assert lam == pytest.approx(1.5) and mult == 3

    def test_zero_multiplicity_components(self):
        g = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert multiplicity_of(spectrum(g), 0.0) == len(connected_components(g)) == 2


@st.composite
def connected_graphs(draw, n_min=2, n_max=8):
    n = draw(st.integers(n_min, n_max))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    spanning = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    extra = draw(st.lists(st.sampled_from(possible), max_size=len(possible)))
    return from_edge_list(n, spanning + extra)


@settings(max_examples=60, deadline=None)
@given(g=connected_graphs())
def test_spectrum_matches_nonsymmetric_solver(g):
    assert list(spectrum(g).eigenvalues) == pytest.approx(
        list(brute_spectrum(g)), abs=1e-8
    )


@settings(max_examples=60, deadline=None)
@given(g=connected_graphs())
def test_spectrum_invariants(g):
    s = spectrum(g)
    vals = np.asarray(s.eigenvalues)
    assert np.all(vals >= -1e-9) and np.all(vals <= 2 + 1e-9)
    assert float(vals.sum()) == pytest.approx(g.n)  # trace of I - D^{-1}A
    assert sum(m for _, m in s.groups) == g.n
    assert multiplicity_of(s, 0.0) == 1  # connected


@settings(max_examples=30, deadline=None)
@given(g=connected_graphs(n_max=7))
def test_eigensystem_columns_verify(g):
    s, funcs = eigensystem(g)
    for j, lam in enumerate(s.eigenvalues):
        assert verify_eigenpair(g, lam, funcs[:, j], tol=1e-8).valid

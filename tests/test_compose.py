import numpy as np
import pytest

from chromaspec.compose import (
    disjoint_union,
    edge_disjoint_union,
    glue_eigenbasis,
    glue_functions,
    join,
    one_sum,
    one_sum_many,
    one_sum_multiplicity_prediction,
)
from chromaspec.coloring import chromatic_number
from chromaspec.families import complete, complete_bipartite, generalized_petal, petal
from chromaspec.graphs import GraphError, from_edge_list, write_edge_list
from chromaspec.spectral import (
    degree_inner_product,
    eigensystem,
    largest_eigenvalue,
    multiplicity_of,
    spectrum,
    verify_eigenpair,
)

from conftest import bowtie, path


def top_eigenbasis(g, lam):
    s, funcs = eigensystem(g)
    cols = [j for j, v in enumerate(s.eigenvalues) if abs(v - lam) <= 1e-8]
    return funcs[:, cols].T


class TestOneSum:
    def test_k3_k3_is_bowtie(self):
        glued = one_sum(complete(3), 0, complete(3), 0)
        g = glued.result
        assert g.n == 5 and g.degrees[0] == 4
        assert sorted(g.degrees) == sorted(bowtie().degrees)
        assert spectrum(g).groups == spectrum(bowtie()).groups

    def test_k2_k2_is_path(self):
        g = one_sum(complete(2), 0, complete(2), 0).result
        assert sorted(g.degrees) == sorted(path(3).degrees)

    def test_depends_on_glue_choice(self):
        p = path(3)
        end = one_sum(p, 0, complete(3), 0).result
        mid = one_sum(p, 1, complete(3), 0).result
        assert sorted(end.degrees) != sorted(mid.degrees)

    def test_embeddings_deterministic(self):
        glued = one_sum(complete(3), 1, complete(4), 2)
        assert glued.shared == (0,)
        assert glued.embeddings[0] == {1: 0, 0: 1, 2: 2}
        assert glued.embeddings[1] == {2: 0, 0: 3, 1: 4, 3: 5}

    def test_many_copies_of_k3_is_generalized_petal(self):
        glued = one_sum_many([(complete(3), 0)] * 3)
        assert glued.result.rows == generalized_petal(3, 3).rows

    def test_single_summand_identity(self):
        g = petal(2)
        assert one_sum_many([(g, 0)]).result.rows == g.rows

    def test_flying_kite(self):
        glued = one_sum_many([(complete(4), 0)] * 4)
        assert glued.result.n == 13
        assert glued.result.rows == generalized_petal(4, 4).rows

    def test_bad_glue_vertex(self):
        with pytest.raises(GraphError):
            one_sum(complete(3), 5, complete(3), 0)


class TestJoin:
    def test_hub_join_blocks_is_generalized_petal(self):
        blocks = disjoint_union(complete(2), complete(2))
        blocks = disjoint_union(blocks, complete(2))
        g = join(from_edge_list(1, []), blocks)
        assert g.rows == generalized_petal(3, 3).rows

    def test_join_completes(self):
        assert join(complete(2), complete(3)).rows == complete(5).rows

    def test_join_empty_graphs_is_bipartite(self):
        g = join(from_edge_list(2, []), from_edge_list(3, []))
        assert g.rows == complete_bipartite(2, 3).rows


class TestEdgeDisjointUnion:
    def test_disjoint_supports(self):
        g1 = from_edge_list(4, [(0, 1)])
        g2 = from_edge_list(4, [(2, 3)])
        assert edge_disjoint_union(g1, g2).result.rows == from_edge_list(
            4, [(0, 1), (2, 3)]
        ).rows

    def test_matchings_make_c4(self):
        g1 = from_edge_list(4, [(0, 1), (2, 3)])
        g2 = from_edge_list(4, [(1, 2), (0, 3)])
        g = edge_disjoint_union(g1, g2).result
        assert set(g.degrees) == {2} and chromatic_number(g) == 2

    def test_overlapping_edge_rejected(self):
        g = complete(3)
        with pytest.raises(GraphError, match=r"\(0, 1\)"):
            edge_disjoint_union(g, from_edge_list(3, [(0, 1)]))

    def test_single_shared_vertex_equals_one_sum(self):
        # relabel two triangles into one_sum's index layout, overlay them,
        # and compare serialized results byte for byte
        g1, x1, g2, x2 = complete(3), 2, complete(3), 0
        expected = one_sum(g1, x1, g2, x2)
        emb1, emb2 = expected.embeddings
        n = expected.result.n
        a = from_edge_list(n, [(emb1[v], emb1[w]) for v, w in g1.edges()])
        b = from_edge_list(n, [(emb2[v], emb2[w]) for v, w in g2.edges()])
        overlay = edge_disjoint_union(a, b)
        assert write_edge_list(overlay.result) == write_edge_list(expected.result)


class TestGlueFunctions:
    def test_constants(self):
        glued = one_sum(complete(3), 0, complete(3), 0)
        out = glue_functions(np.ones(3), np.ones(3), glued)
        assert np.array_equal(out, np.ones(5))

    def test_agreeing_eigenfunctions(self):
        g = complete(3)
        glued = one_sum(g, 0, g, 0)
        f = np.array([1.0, -0.5, -0.5])  # top eigenfunction of K_3, nonzero at 0
        out = glue_functions(f, f, glued)
        assert verify_eigenpair(glued.result, 3 / 2, out).valid

    def test_zero_extension(self):
        g = complete(3)
        glued = one_sum(g, 0, g, 0)
        f = np.array([0.0, 1.0, -1.0])  # vanishes at the glue vertex
        out = glue_functions(f, np.zeros(3), glued)
        assert verify_eigenpair(glued.result, 3 / 2, out).valid

    def test_disagreement_rejected(self):
        glued = one_sum(complete(3), 0, complete(3), 0)
        with pytest.raises(GraphError):
            glue_functions(np.ones(3), 2 * np.ones(3), glued)


class TestInterlacing:
    def test_k3_k4(self):
        lam, _ = largest_eigenvalue(spectrum(one_sum(complete(3), 0, complete(4), 0).result))
        bound = max(largest_eigenvalue(spectrum(g))[0] for g in (complete(3), complete(4)))
        assert lam <= bound + 1e-8
        assert lam == pytest.approx(1.5) and bound == pytest.approx(1.5)

    def test_k3_k3(self):
        lam, _ = largest_eigenvalue(spectrum(one_sum(complete(3), 0, complete(3), 0).result))
        assert lam <= largest_eigenvalue(spectrum(complete(3)))[0] + 1e-8
        assert lam == pytest.approx(1.5)

    def test_two_clique_sum_counterexamples(self):
        # gluing two triangles along an edge instead of a vertex breaks the
        # interlacing bound: the results are C_4 or K_4 minus an edge
        c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        k4_minus_e = from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        lam_c4, _ = largest_eigenvalue(spectrum(c4))
        lam_k4e, _ = largest_eigenvalue(spectrum(k4_minus_e))
        assert abs(lam_c4 - 2.0) <= 1e-10
        assert abs(lam_k4e - 5 / 3) <= 1e-10
        assert lam_c4 > 1.5 and lam_k4e > 1.5


class TestMultiplicityPrediction:
    def test_bowtie(self):
        assert one_sum_multiplicity_prediction(2, 2, both_glue_zero=False) == 3
        g = one_sum(complete(3), 0, complete(3), 0).result
        assert multiplicity_of(spectrum(g), 1.5) == 3

    def test_lower_bound_can_be_strict(self):
        # petal(2) has eigenvalue 1/2 with multiplicity 1 although each K_3
        # summand has multiplicity 0 there: 1 >= 0 + 0 - 1 strictly
        g = petal(2)
        assert multiplicity_of(spectrum(g), 0.5) == 1
        assert multiplicity_of(spectrum(complete(3)), 0.5) == 0

    def test_both_glue_zero_adds(self):
        assert one_sum_multiplicity_prediction(2, 2, both_glue_zero=True) == 4


class TestGlueEigenbasis:
    def test_k3_k3_full_rank(self):
        g = complete(3)
        basis = top_eigenbasis(g, 1.5)
        glued_graph = one_sum(g, 0, g, 0)
        out = glue_eigenbasis(g, 0, basis, g, 0, basis, 1.5)
        assert len(out) == 3
        for f in out:
            assert verify_eigenpair(glued_graph.result, 1.5, f).valid
        gram = np.array(
            [[degree_inner_product(glued_graph.result, a, b) for b in out] for a in out]
        )
        assert np.linalg.matrix_rank(gram, tol=1e-8) == 3

    def test_one_side_empty(self):
        g1, g2 = complete(3), complete(4)
        basis1 = top_eigenbasis(g1, 1.5)  # K_4 has no eigenvalue 3/2
        out = glue_eigenbasis(g1, 0, basis1, g2, 0, np.zeros((0, 4)), 1.5)
        # only the glue-vanishing part of basis1 survives as zero-extensions
        assert len(out) == 1
        glued = one_sum(g1, 0, g2, 0).result
        assert verify_eigenpair(glued, 1.5, out[0]).valid
        assert out[0][0] == 0.0

    def test_both_vanish_at_glue(self):
        # stars glued at their centers: every eigenfunction for 1 vanishes at
        # the center, so the multiplicities add
        g = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        basis = top_eigenbasis(g, 1.0)
        assert basis.shape[0] == 2
        out = glue_eigenbasis(g, 0, basis, g, 0, basis, 1.0)
        assert len(out) == 4
        glued = one_sum(g, 0, g, 0).result
        for f in out:
            assert verify_eigenpair(glued, 1.0, f).valid
        assert multiplicity_of(spectrum(glued), 1.0) == 5

    def test_invalid_basis_rejected(self):
        g = complete(3)
        with pytest.raises(GraphError):
            glue_eigenbasis(g, 0, np.ones((1, 3)), g, 0, np.zeros((0, 3)), 1.5)

import time
from functools import cache
from itertools import combinations

import numpy as np
import pytest

from chromaspec.families import complete, complete_bipartite, turan
from chromaspec.graphs import GraphError, from_edge_list, is_connected
from chromaspec.search import (
    SEARCH_CAP,
    canonical_mask,
    connected_classes,
    graph_from_mask,
    search_sharp,
)

from conftest import bowtie, brute_chromatic, cycle

# labeled connected graphs on n vertices (OEIS A001187)
CONNECTED_LABELED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}
# connected graphs up to isomorphism (OEIS A001349)
CONNECTED_UNLABELED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def mask_of(n, edges):
    """Mask in the search layout: bit e is the e-th pair of combinations(range(n), 2)."""
    index = {p: e for e, p in enumerate(combinations(range(n), 2))}
    mask = 0
    for v, w in edges:
        mask |= 1 << index[min(v, w), max(v, w)]
    return mask


def relabelled(n, edges, perm):
    return mask_of(n, [(perm[v], perm[w]) for v, w in edges])


@cache
def labelled_connected_masks(n):
    """Every labelled connected graph on n vertices: all masks, filtered."""
    pairs = list(combinations(range(n), 2))
    return [
        mask
        for mask in range(1 << len(pairs))
        if is_connected(from_edge_list(n, [p for e, p in enumerate(pairs) if (mask >> e) & 1]))
    ]


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edge_list(10, outer + spokes + inner)


def prism():
    """Two triangles joined by a perfect matching: 3-regular on 6 vertices."""
    return from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


@pytest.fixture(scope="module")
def classes7():
    return dict(connected_classes(7))


class TestCanonicalMask:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_labelled_oracle_counts(self, n):
        assert len(labelled_connected_masks(n)) == CONNECTED_LABELED[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_isomorphism_class_counts(self, n):
        classes = {canonical_mask(n, m) for m in labelled_connected_masks(n)}
        assert len(classes) == CONNECTED_UNLABELED[n]

    def test_invariant_under_permutation(self):
        rng = np.random.default_rng(1)
        for mask in rng.choice(labelled_connected_masks(5), size=20, replace=False):
            g = graph_from_mask(5, int(mask))
            permuted = relabelled(5, g.edges(), rng.permutation(5))
            assert canonical_mask(5, permuted) == canonical_mask(5, int(mask))

    def test_mask_round_trip(self):
        g = bowtie()
        assert graph_from_mask(5, mask_of(5, g.edges())).rows == g.rows

    def test_regular_graphs_refinement_cannot_split(self):
        # both 3-regular on 6 vertices: degree refinement leaves one cell
        k33 = complete_bipartite(3, 3)
        assert canonical_mask(6, mask_of(6, k33.edges())) != canonical_mask(
            6, mask_of(6, prism().edges())
        )

    @pytest.mark.parametrize(
        "graph",
        [complete(9), cycle(9), turan(9, 3), petersen()],
        ids=["K9", "C9", "K333", "petersen"],
    )
    def test_symmetric_graphs_invariant(self, graph):
        n, edges = graph.n, list(graph.edges())
        want = canonical_mask(n, mask_of(n, edges))
        rng = np.random.default_rng(20)
        for _ in range(20):
            assert canonical_mask(n, relabelled(n, edges, rng.permutation(n))) == want

    def test_complete_graph_does_not_walk_all_leaves(self):
        # 9! leaves would take minutes; one leaf per level takes milliseconds
        start = time.perf_counter()
        canonical_mask(9, (1 << 36) - 1)
        assert time.perf_counter() - start < 1.0


class TestConnectedClasses:
    def test_class_counts(self, classes7):
        assert {n: len(masks) for n, masks in classes7.items()} == CONNECTED_UNLABELED

    def test_every_class_is_connected_and_canonical(self, classes7):
        for n, masks in classes7.items():
            for mask in masks:
                assert is_connected(graph_from_mask(n, mask))
                assert canonical_mask(n, mask) == mask

    def test_matches_networkx_atlas(self, classes7):
        nx = pytest.importorskip("networkx")
        atlas: dict[int, set[int]] = {n: set() for n in range(2, 8)}
        for g in nx.graph_atlas_g():
            n = g.number_of_nodes()
            if n >= 2 and nx.is_connected(g):
                atlas[n].add(canonical_mask(n, mask_of(n, g.edges())))
        assert atlas == {n: set(classes7[n]) for n in range(2, 8)}


@pytest.fixture(scope="module")
def hits5():
    return search_sharp(5)


class TestSearchSharp:
    def test_k5_unique_with_multiplicity_4(self, hits5):
        mult4 = [h for h in hits5 if h.n == 5 and h.multiplicity == 4]
        assert len(mult4) == 1
        hit = mult4[0]
        assert hit.chi == 5 and len(hit.edges) == 10
        assert graph_from_mask(5, hit.mask).rows == complete(5).rows

    def test_bowtie_unique_with_multiplicity_3(self, hits5):
        mult3 = [h for h in hits5 if h.n == 5 and h.multiplicity == 3]
        assert len(mult3) == 1
        hit = mult3[0]
        assert hit.chi == 3 and hit.lambda_max == pytest.approx(1.5)
        assert canonical_mask(5, hit.mask) == canonical_mask(5, mask_of(5, bowtie().edges()))

    def test_complete_graphs_are_the_mult_n_minus_1_hits(self, hits5):
        for n in range(2, 6):
            hits = [h for h in hits5 if h.n == n and h.multiplicity == n - 1]
            # K_2 is bipartite: its top multiplicity is 1 = n - 1 as well
            complete_hits = [
                h for h in hits if graph_from_mask(n, h.mask).rows == complete(n).rows
            ]
            assert len(complete_hits) == 1

    def test_mult_filter(self, hits5):
        filtered = search_sharp(5, mult=4)
        assert [h.mask for h in filtered] == [
            h.mask for h in hits5 if h.multiplicity == 4
        ]

    def test_hits_sorted_and_deduplicated(self, hits5):
        keys = [(h.n, h.mask) for h in hits5]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_all_hits_are_sharp(self, hits5):
        for h in hits5:
            assert h.lambda_max == pytest.approx(h.chi / (h.chi - 1))

    def test_edges_are_the_mask_graph(self, hits5):
        for h in hits5:
            assert h.edges == tuple(graph_from_mask(h.n, h.mask).edges())

    def test_max_n_7_matches_atlas(self):
        nx = pytest.importorskip("networkx")
        hits = search_sharp(7)
        assert len(hits) == 83
        assert sum(h.n <= 6 for h in hits) == 34
        assert sum(h.n == 7 for h in hits) == 49
        atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() >= 2 and nx.is_connected(g)]
        matched = set()
        for h in hits:
            g = nx.Graph(h.edges)
            i = next(i for i, a in enumerate(atlas) if nx.is_isomorphic(a, g))
            assert i not in matched
            matched.add(i)
            a = atlas[i]
            assert h.chi == brute_chromatic(from_edge_list(h.n, a.edges()))
            values = np.linalg.eigvalsh(nx.normalized_laplacian_matrix(a).toarray())
            assert abs(h.lambda_max - values[-1]) <= 1e-9
            assert h.multiplicity == int(np.sum(values >= values[-1] - 1e-8))

    def test_cap_enforced(self):
        with pytest.raises(GraphError):
            search_sharp(SEARCH_CAP + 1)

    def test_min_size(self):
        with pytest.raises(GraphError):
            search_sharp(1)

    def test_to_dict(self, hits5):
        d = hits5[0].to_dict()
        assert set(d) == {"n", "edges", "chi", "lambda_max", "multiplicity"}

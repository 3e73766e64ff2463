import time

import pytest
from hypothesis import given, strategies as st

from chromaspec.families import complete, complete_bipartite, petal, turan
from chromaspec.graphs import (
    Graph,
    GraphError,
    classify_pair,
    connected_components,
    edge_count_between,
    from_edge_list,
    induced_subgraph,
    is_connected,
    is_independent_set,
    is_regular,
    min_degree,
    read_edge_list,
    to_dot,
    write_edge_list,
)

from conftest import cycle, star


class TestConstruction:
    def test_triangle(self):
        g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
        assert g.n == 3 and g.num_edges == 3
        assert g.degrees == (2, 2, 2)

    def test_single_edge_degrees(self):
        g = from_edge_list(2, [(0, 1)])
        assert g.degrees == (1, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list(2, [(0, 2)])

    def test_duplicate_edges_merged(self):
        g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, (0b10, 0b00), ((1,), ()), (1, 0))


class TestConnectivity:
    def test_triangle_connected(self):
        assert is_connected(complete(3))

    def test_two_disjoint_edges_not_connected(self):
        assert not is_connected(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_single_vertex_connected(self):
        assert is_connected(from_edge_list(1, []))

    def test_large_edgeless_graph_in_linear_time(self):
        # Building rows and finding components walk set bits: no O(n^2) scan.
        start = time.perf_counter()
        g = from_edge_list(20000, [])
        assert not is_connected(g) and len(connected_components(g)) == 20000
        assert time.perf_counter() - start < 2.0

    def test_components_partition(self):
        g = from_edge_list(5, [(0, 1), (2, 3)])
        comps = connected_components(g)
        assert sorted(v for comp in comps for v in comp) == list(range(5))
        assert sorted(map(sorted, comps)) == [[0, 1], [2, 3], [4]]


class TestEdgeCountBetween:
    def test_k4_split(self):
        assert edge_count_between(complete(4), [0, 1], [2, 3]) == 4

    def test_turan_class_is_independent(self):
        g = turan(6, 3)
        assert edge_count_between(g, [0, 1], [0, 1]) == 0

    def test_star_center_to_leaves(self):
        g = star(4)
        assert edge_count_between(g, [0], [1, 2, 3, 4]) == 4

    def test_overlapping_sets_count_each_edge_once(self):
        g = complete(3)
        assert edge_count_between(g, [0, 1, 2], [0, 1, 2]) == 3

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(GraphError):
            edge_count_between(complete(3), [0], [3])
        with pytest.raises(GraphError):
            edge_count_between(complete(3), [-1], [0])


class TestIndependentSet:
    def test_bipartite_class(self):
        assert is_independent_set(complete_bipartite(3, 3), [0, 1, 2])

    def test_adjacent_pair(self):
        assert not is_independent_set(complete(3), [0, 1])

    def test_empty_set(self):
        assert is_independent_set(complete(3), [])


class TestClassifyPair:
    def test_complete_graph_twins(self):
        g = complete(5)
        assert classify_pair(g, 0, 3) == "twin"

    def test_bipartite_same_side_duplicates(self):
        g = complete_bipartite(2, 3)
        assert classify_pair(g, 0, 1) == "duplicate"

    def test_cycle_edge_neither(self):
        assert classify_pair(cycle(5), 0, 1) == "neither"

    def test_same_vertex_rejected(self):
        with pytest.raises(GraphError):
            classify_pair(complete(3), 1, 1)


class TestInducedSubgraph:
    def test_k5_to_k3(self):
        sub, relabel = induced_subgraph(complete(5), [0, 2, 4])
        assert sub.n == 3 and sub.num_edges == 3
        assert relabel == {0: 0, 2: 1, 4: 2}

    def test_turan_two_classes_is_k33(self):
        sub, _ = induced_subgraph(turan(9, 3), range(6))
        k33 = complete_bipartite(3, 3)
        assert sub.n == 6 and sub.num_edges == 9
        assert sorted(sub.degrees) == sorted(k33.degrees)
        assert is_independent_set(sub, [0, 1, 2]) and is_independent_set(sub, [3, 4, 5])

    def test_petal_triangle(self):
        # one petal of petal(2): hub 0, v_1 = 1, w_1 = 3
        sub, _ = induced_subgraph(petal(2), [0, 1, 3])
        assert sub.num_edges == 3


class TestDegrees:
    def test_k4_regular(self):
        g = complete(4)
        assert min_degree(g) == 3 and is_regular(g) == 3

    def test_star_not_regular(self):
        g = star(4)
        assert min_degree(g) == 1 and is_regular(g) is None

    def test_petal3_degrees(self):
        g = petal(3)
        assert min_degree(g) == 2 and is_regular(g) is None
        assert g.degrees[0] == 6


class TestEdgeListFormat:
    def test_round_trip(self):
        g = petal(3)
        assert read_edge_list(write_edge_list(g)).rows == g.rows

    def test_header_mismatch(self):
        with pytest.raises(GraphError):
            read_edge_list("2 2\n0 1\n")

    def test_bad_header(self):
        with pytest.raises(GraphError):
            read_edge_list("nope\n")

    def test_empty(self):
        with pytest.raises(GraphError):
            read_edge_list("")

    def test_header_n_capped(self):
        assert read_edge_list("64 0\n").n == 64
        with pytest.raises(GraphError, match="above the cap 64"):
            read_edge_list("65 0\n")

    def test_to_dot(self):
        text = to_dot(from_edge_list(2, [(0, 1)]))
        assert text.startswith("graph G {") and "0 -- 1;" in text


@given(
    n=st.integers(2, 8),
    data=st.data(),
)
def test_edge_list_round_trip_property(n, data):
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(possible), unique=True))
    g = from_edge_list(n, edges)
    assert read_edge_list(write_edge_list(g)).rows == g.rows
    assert g.num_edges == len(edges)


@given(
    n=st.integers(1, 9),
    kind=st.sampled_from(["overlapping", "disjoint", "identical"]),
    data=st.data(),
)
def test_edge_count_between_matches_edge_scan(n, kind, data):
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    g = from_edge_list(n, edges)
    u1 = data.draw(st.sets(st.integers(0, n - 1)))
    if kind == "identical":
        u2 = set(u1)
    elif kind == "disjoint":
        rest = sorted(set(range(n)) - u1)
        u2 = data.draw(st.sets(st.sampled_from(rest))) if rest else set()
    else:
        u2 = data.draw(st.sets(st.integers(0, n - 1)))
        if u1:
            u2.add(data.draw(st.sampled_from(sorted(u1))))
    expected = sum(
        1 for v, w in g.edges() if (v in u1 and w in u2) or (w in u1 and v in u2)
    )
    assert edge_count_between(g, u1, u2) == expected

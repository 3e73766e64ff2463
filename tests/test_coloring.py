import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chromaspec.coloring import (
    CHROMATIC_CAP,
    Coloring,
    _visit_chi_colorings,
    chromatic_coloring,
    chromatic_number,
    class_indicator_pm,
    dsatur,
    enumerate_chi_colorings,
    greedy_clique,
    is_equitable_A,
    is_equitable_DinvA,
    is_proper,
    pair_pm,
    plus_minus_check,
    restricted_eigenvalue_prediction,
    support_rq_decomposition,
)
from chromaspec.families import complete, complete_bipartite, g_ktd, petal, turan
from chromaspec.graphs import GraphError, from_edge_list
from chromaspec.spectral import largest_eigenvalue, spectrum, verify_eigenpair

from conftest import (
    brute_canonical_colorings,
    brute_chromatic,
    brute_equitable_DinvA,
    chi_pool,
    cycle,
    mycielskian,
    path,
    star,
)

C5_EDGES = [(i, (i + 1) % 5) for i in range(5)]
GROTZSCH = mycielskian(5, C5_EDGES)
PETERSEN = (
    10,
    C5_EDGES
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, 5 + i) for i in range(5)],
)
# Hub 7 over the rim C_7.
ODD_WHEEL_7 = (8, [(i, (i + 1) % 7) for i in range(7)] + [(7, i) for i in range(7)])


def k4_minus_edge():
    return from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


class TestColoringType:
    def test_classes_round_trip(self):
        c = Coloring.from_classes(4, [[0, 2], [1], [3]])
        assert c.assignment == (0, 1, 0, 2)
        assert c.classes() == [[0, 2], [1], [3]]

    def test_canonical_orders_by_least_vertex(self):
        c = Coloring((1, 0, 1), 2).canonical()
        assert c.assignment == (0, 1, 0)

    def test_unused_color_rejected(self):
        with pytest.raises(GraphError):
            Coloring((0, 0, 2), 3)

    def test_overlapping_classes_rejected(self):
        with pytest.raises(GraphError):
            Coloring.from_classes(2, [[0, 1], [1]])


class TestProper:
    def test_bipartition(self):
        g = complete_bipartite(3, 3)
        assert is_proper(g, Coloring.from_classes(6, [[0, 1, 2], [3, 4, 5]]))

    def test_constant_on_edge(self):
        g = complete(2)
        assert not is_proper(g, Coloring((0, 0), 1))


class TestChromaticNumber:
    def test_complete(self):
        assert chromatic_number(complete(7)) == 7

    def test_petal(self):
        for m in (1, 2, 4):
            assert chromatic_number(petal(m)) == 3

    def test_g_ktd(self):
        assert chromatic_number(g_ktd(4, 3, 2)) == 3

    def test_edgeless(self):
        assert chromatic_number(from_edge_list(3, [])) == 1

    def test_odd_cycle(self):
        assert chromatic_number(cycle(7)) == 3

    def test_cap(self):
        g = from_edge_list(CHROMATIC_CAP + 1, [(0, 1)])
        with pytest.raises(GraphError):
            chromatic_number(g)
        with pytest.raises(GraphError):
            dsatur(g)

    def test_dsatur_upper_clique_lower(self):
        g = petal(3)
        assert dsatur(g).k >= 3
        assert len(greedy_clique(g)) <= 3

    @pytest.mark.parametrize("n", [1, 5])
    def test_edgeless_witness(self, n):
        g = from_edge_list(n, [])
        c = chromatic_coloring(g)
        assert c.k == 1 and is_proper(g, c)

    @pytest.mark.parametrize(
        "n, edges, chi",
        [
            pytest.param(*GROTZSCH, 4, id="grotzsch"),
            pytest.param(*mycielskian(*GROTZSCH), 5, id="mycielski-M5"),
            pytest.param(*PETERSEN, 3, id="petersen"),
            pytest.param(*ODD_WHEEL_7, 4, id="odd-wheel-W7"),
            pytest.param(25, [(i, (i + 1) % 25) for i in range(25)], 3, id="C25"),
        ],
    )
    def test_known_chi_above_greedy_clique(self, n, edges, chi):
        g = from_edge_list(n, edges)
        assert len(greedy_clique(g)) < chi
        assert chromatic_number(g) == chi

    def test_mycielski_m5_size(self):
        n, edges = mycielskian(*GROTZSCH)
        assert (n, len(edges)) == (23, 71)

    def test_parts_apart_from_the_colored_vertices_are_solved_apart(self):
        # The odd wheel W_21 beside K_6: the greedy clique is a rim triangle,
        # and the rim saturates before K_6 does. Branching over both at once
        # would refute K_6 once for each of the rim's many 4-colorings.
        rim = 21
        edges = [(0, i) for i in range(1, rim + 1)]
        edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
        edges += [(rim + 1 + i, rim + 1 + j) for i in range(6) for j in range(i + 1, 6)]
        g = from_edge_list(rim + 7, edges)
        assert len(greedy_clique(g)) == 3
        start = time.perf_counter()
        assert chromatic_number(g) == 6
        assert time.perf_counter() - start < 2.0


class TestEnumeration:
    def test_complete_unique(self):
        assert len(enumerate_chi_colorings(complete(6), 6)) == 1

    def test_g_ktd_unique(self):
        assert len(enumerate_chi_colorings(g_ktd(3, 3, 2), 3)) == 1

    def test_c5_matches_brute_force(self):
        g = cycle(5)
        got = {c.canonical().assignment for c in enumerate_chi_colorings(g, 3)}
        expected = brute_canonical_colorings(g, 3)
        assert got == expected
        assert len(got) == 5

    def test_wrong_chi_rejected(self):
        with pytest.raises(GraphError):
            enumerate_chi_colorings(complete(3), 2)

    # too small with no larger clique (no coloring is found), and too large
    @pytest.mark.parametrize(
        "g,chi", [(cycle(5), 2), (cycle(5), 4), (complete(3), 4)], ids=["C5-2", "C5-4", "K3-4"]
    )
    def test_chi_below_or_above_rejected(self, g, chi):
        with pytest.raises(GraphError, match="not the chromatic number"):
            enumerate_chi_colorings(g, chi)

    # Mycielski's M5: 23 vertices, chi 5, greedy clique 2, so chi = 4 is
    # refuted only by the chromatic-number branch and bound
    @pytest.mark.parametrize("chi", [4, 6])
    def test_wrong_chi_rejected_on_mycielski_m5(self, chi):
        g = from_edge_list(*mycielskian(*GROTZSCH))
        with pytest.raises(GraphError, match="not the chromatic number"):
            enumerate_chi_colorings(g, chi)


class TestEquitable:
    def test_turan_canonical(self):
        g = turan(9, 3)
        c = Coloring.from_classes(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        assert is_equitable_DinvA(g, c)

    def test_path3_bipartition(self):
        c = Coloring.from_classes(3, [[0, 2], [1]])
        assert is_equitable_DinvA(path(3), c)

    def test_g_ktd_canonical(self):
        g = g_ktd(2, 5, 1)
        classes = [[i * 2, i * 2 + 1] for i in range(5)]
        assert is_equitable_DinvA(g, Coloring.from_classes(10, classes))

    def test_odd_cycle_not_equitable(self):
        g = cycle(5)
        for c in enumerate_chi_colorings(g, 3):
            assert not is_equitable_DinvA(g, c)

    def test_improper_rejected(self):
        with pytest.raises(GraphError):
            is_equitable_DinvA(complete(2), Coloring((0, 0), 1))

    def test_improper_rejected_even_where_equitability_fails_first(self):
        # Vertex 0 already fails equitability; the edge (3, 4) is monochromatic.
        with pytest.raises(GraphError):
            is_equitable_DinvA(path(5), Coloring((0, 1, 2, 1, 1), 3))

    def test_size_mismatch_rejected(self):
        with pytest.raises(GraphError):
            is_equitable_DinvA(path(3), Coloring((0, 1), 2))


class TestEquitableA:
    def test_turan(self):
        g = turan(6, 3)
        c = Coloring.from_classes(6, [[0, 1], [2, 3], [4, 5]])
        assert is_equitable_A(g, c)

    def test_star_bipartition(self):
        g = star(3)
        c = Coloring.from_classes(4, [[0], [1, 2, 3]])
        assert is_equitable_A(g, c)

    def test_k4_minus_edge(self):
        # the two degree-2 vertices form one class and send one edge each to
        # both singleton classes, so every per-class count is constant
        g = k4_minus_edge()
        c = Coloring.from_classes(4, [[2, 3], [0], [1]])
        assert is_proper(g, c) and is_equitable_A(g, c)

    def test_paw_graph_false(self):
        # triangle 0-1-2 with a pendant at 0: in class {2,3} the counts into
        # class {1} differ (1 vs 0)
        g = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        c = Coloring.from_classes(4, [[0], [1], [2, 3]])
        assert is_proper(g, c) and not is_equitable_A(g, c)


class TestIndicatorFunctions:
    def test_bipartite_indicator_eigenpair(self):
        g = complete_bipartite(2, 5)
        c = Coloring.from_classes(7, [[0, 1], [2, 3, 4, 5, 6]])
        f = class_indicator_pm(g, c, 0, 1)
        assert verify_eigenpair(g, 2.0, f).valid

    def test_equitable_coloring_gives_eigenpair(self):
        g = turan(12, 4)
        c = Coloring.from_classes(12, [list(range(3 * i, 3 * i + 3)) for i in range(4)])
        for i in range(1, 4):
            f = class_indicator_pm(g, c, 0, i)
            assert verify_eigenpair(g, 4 / 3, f).valid

    def test_singleton_classes_reduce_to_pair(self):
        g = complete(3)
        c = Coloring.from_classes(3, [[0], [1], [2]])
        assert np.array_equal(class_indicator_pm(g, c, 0, 2), pair_pm(g, 0, 2))

    def test_same_class_rejected(self):
        g = complete(3)
        c = Coloring.from_classes(3, [[0], [1], [2]])
        with pytest.raises(GraphError):
            class_indicator_pm(g, c, 1, 1)


class TestPairFunctions:
    def test_twins(self):
        g = petal(3)  # v_1 = 1 and w_1 = 4 are adjacent twins of degree 2
        assert verify_eigenpair(g, 3 / 2, pair_pm(g, 1, 4)).valid

    def test_duplicates(self):
        g = complete_bipartite(3, 2)
        assert verify_eigenpair(g, 1.0, pair_pm(g, 0, 1)).valid

    def test_neither_invalid_for_both(self):
        g = cycle(5)
        d = g.degrees[0]
        assert not verify_eigenpair(g, (d + 1) / d, pair_pm(g, 0, 1)).valid
        assert not verify_eigenpair(g, 1.0, pair_pm(g, 0, 1)).valid


class TestPlusMinusCheck:
    def test_equitable_classes(self):
        # two classes of an equitably colored graph -> k/(k-1)
        assert plus_minus_check(turan(9, 3), [0, 1, 2], [3, 4, 5]) == Fraction(3, 2)

    def test_twins(self):
        g = petal(2)
        assert plus_minus_check(g, [1], [3]) == Fraction(3, 2)

    def test_cycle_has_no_pm_eigenfunction(self):
        g = cycle(5)
        verts = range(5)
        from itertools import combinations

        for a in range(1, 5):
            for plus in combinations(verts, a):
                rest = [v for v in verts if v not in plus]
                for b in range(1, len(rest) + 1):
                    for minus in combinations(rest, b):
                        assert plus_minus_check(g, plus, minus) is None

    def test_empty_side_rejected(self):
        with pytest.raises(GraphError):
            plus_minus_check(complete(3), [0], [])

    def test_overlap_rejected(self):
        with pytest.raises(GraphError):
            plus_minus_check(complete(3), [0], [0, 1])


class TestSupportDecomposition:
    def test_identity_on_all_classes(self):
        g = turan(6, 3)
        c = Coloring.from_classes(6, [[0, 1], [2, 3], [4, 5]])
        f = class_indicator_pm(g, c, 0, 1)
        lhs, rhs = support_rq_decomposition(g, c, f, [0, 1, 2])
        assert lhs == pytest.approx(rhs)

    def test_turan_two_classes(self):
        g = turan(9, 3)
        c = Coloring.from_classes(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        f = class_indicator_pm(g, c, 0, 1)
        lhs, rhs = support_rq_decomposition(g, c, f, [0, 1])
        assert lhs == pytest.approx(1.5) and rhs == pytest.approx(1.5)

    def test_single_class_support(self):
        g = turan(9, 3)
        c = Coloring.from_classes(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        f = np.zeros(9)
        f[0], f[1] = 1.0, -1.0
        lhs, rhs = support_rq_decomposition(g, c, f, [0])
        assert rhs == pytest.approx(1.0)
        assert lhs == pytest.approx(1.0)

    def test_leaking_support_rejected(self):
        g = turan(6, 3)
        c = Coloring.from_classes(6, [[0, 1], [2, 3], [4, 5]])
        f = class_indicator_pm(g, c, 0, 2)
        with pytest.raises(GraphError):
            support_rq_decomposition(g, c, f, [0, 1])


class TestRestrictedPrediction:
    def test_top_eigenvalue(self):
        for k in (3, 4, 5):
            for i_size in range(2, k + 1):
                pred = restricted_eigenvalue_prediction(k / (k - 1), k, i_size)
                assert pred == pytest.approx(i_size / (i_size - 1))

    def test_fixed_point_one(self):
        assert restricted_eigenvalue_prediction(1.0, 5, 3) == pytest.approx(1.0)

    def test_bipartite_restriction(self):
        # restricting the top eigenfunction of T(6,3) to 2 classes predicts 2,
        # matching lambda_max of the bipartite restricted graph K_{2,2}
        assert restricted_eigenvalue_prediction(1.5, 3, 2) == pytest.approx(2.0)
        sub = complete_bipartite(2, 2)
        lam, _ = largest_eigenvalue(spectrum(sub))
        assert lam == pytest.approx(2.0)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 7))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True))
    return from_edge_list(n, edges)


@settings(max_examples=40, deadline=None)
@given(g=small_graphs())
def test_chromatic_number_matches_brute_force(g):
    assert chromatic_number(g) == brute_chromatic(g)


@settings(max_examples=25, deadline=None)
@given(g=small_graphs())
def test_enumeration_matches_brute_force(g):
    chi = chromatic_number(g)
    got = {c.canonical().assignment for c in enumerate_chi_colorings(g, chi)}
    assert got == brute_canonical_colorings(g, chi)
    for c in enumerate_chi_colorings(g, chi):
        assert is_proper(g, c) and c.k == chi


@settings(max_examples=40, deadline=None)
@given(g=small_graphs())
def test_equitability_matches_brute_force_on_every_chi_coloring(g):
    chi = brute_chromatic(g)
    for assignment in brute_canonical_colorings(g, chi):
        assert is_equitable_DinvA(g, Coloring(assignment, chi)) == (
            brute_equitable_DinvA(g, assignment, chi)
        )


@settings(max_examples=60, deadline=None)
@given(g=small_graphs(), data=st.data())
def test_equitability_of_any_coloring(g, data):
    raw = data.draw(st.lists(st.integers(0, g.n - 1), min_size=g.n, max_size=g.n))
    relabel: dict[int, int] = {}
    assignment = tuple(relabel.setdefault(x, len(relabel)) for x in raw)
    c = Coloring(assignment, len(relabel))
    if any(assignment[v] == assignment[w] for v, w in g.edges()):
        with pytest.raises(GraphError):
            is_equitable_DinvA(g, c)
    else:
        assert is_equitable_DinvA(g, c) == brute_equitable_DinvA(g, assignment, c.k)


def test_visited_colorings_and_flags_match_brute_force_on_atlas():
    # Order and flags of the one enumerator: its colorings in lexicographic
    # order, each flag the definition of D^-1 A equitability.
    nx = pytest.importorskip("networkx")
    graphs = [
        from_edge_list(a.number_of_nodes(), list(a.edges()))
        for a in nx.graph_atlas_g()
        if 1 <= a.number_of_nodes() <= 7 and nx.is_connected(a)
    ]
    assert len(graphs) == 996
    for g in graphs + [cycle(13)]:
        chi = chromatic_number(g)
        seen: list[tuple[tuple[int, ...], bool]] = []
        assert _visit_chi_colorings(g, chi, lambda a, ok: seen.append((tuple(a), ok)))
        assert [a for a, _ in seen] == sorted(brute_canonical_colorings(g, chi)), g.edges()
        for a, ok in seen:
            assert ok == brute_equitable_DinvA(g, a, chi), (g.edges(), a)


@pytest.mark.parametrize("budget", [0, 1, 5, 21])
def test_visit_budget(budget):
    # P_5, C_5 and C_7 have 1, 5 and 21 canonical chi-colorings. The visit
    # stops after the budget, and reports it only when colorings remain.
    for g, chi in [(path(5), 2), (cycle(5), 3), (cycle(7), 3)]:
        every = [c.assignment for c in enumerate_chi_colorings(g, chi)]
        seen: list[tuple[int, ...]] = []
        done = _visit_chi_colorings(g, chi, lambda a, _: seen.append(tuple(a)), budget)
        assert done == (len(every) <= budget)
        assert seen == every[:budget]


def test_chromatic_number_matches_brute_force_on_atlas():
    nx = pytest.importorskip("networkx")
    graphs = [
        a
        for a in nx.graph_atlas_g()
        if 1 <= a.number_of_nodes() <= 6 and nx.is_connected(a)
    ]
    assert len(graphs) == 143
    for a in graphs:
        g = from_edge_list(a.number_of_nodes(), list(a.edges()))
        chi = brute_chromatic(g)
        assert chromatic_number(g) == chi, list(a.edges())
        witness = chromatic_coloring(g)
        assert is_proper(g, witness) and witness.k == chi, list(a.edges())
        upper = dsatur(g)
        assert is_proper(g, upper) and upper.k >= chi, list(a.edges())


def test_chromatic_coloring_on_chi_pool():
    # Above the enumeration cap; the stored chi is the benchmark's oracle.
    pool = chi_pool()
    assert len(pool) == 48
    for g, chi in pool:
        witness = chromatic_coloring(g)
        assert is_proper(g, witness) and witness.k == chi
        upper = dsatur(g)
        assert is_proper(g, upper) and upper.k >= chi

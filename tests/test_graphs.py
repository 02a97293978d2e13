from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, cycle_graph, path_graph
from sdpcolor.graphs import (
    Coloring,
    Graph,
    GraphParseError,
    chromatic_oracle,
    count_colorings,
    edge_list_text,
    enumerate_cliques,
    enumerate_colorings,
    find_clique,
    generate_ktree,
    is_ktree,
    iter_plantri_ascii,
    parse_edge_list,
    parse_plantri_ascii,
    plantri_line,
    validate_coloring,
    validate_trace,
)


class TestPlantriParsing:
    def test_triangle(self):
        (g,) = parse_plantri_ascii("3 bc,ac,ab")
        assert g.n == 3 and g.edges == complete_graph(3).edges

    def test_k4(self):
        (g,) = parse_plantri_ascii("4 bcd,acd,abd,abc")
        assert g.edges == complete_graph(4).edges

    def test_multiple_lines_and_blanks(self):
        graphs = parse_plantri_ascii("3 bc,ac,ab\n\n4 bcd,acd,abd,abc\n")
        assert [g.n for g in graphs] == [3, 4]

    def test_asymmetric_rejected_with_line_number(self):
        text = "3 bc,ac,ab\n5 bcd,acde,abde,abce,abcd"
        with pytest.raises(GraphParseError) as err:
            parse_plantri_ascii(text)
        assert "line 2" in str(err.value)

    def test_lines_are_parsed_as_they_are_drawn(self):
        graphs = iter_plantri_ascii(iter(["3 bc,ac,ab", "3 bc,ac,az"]))
        assert next(graphs).n == 3  # the bad second line is not read yet
        with pytest.raises(GraphParseError) as err:
            next(graphs)
        assert "line 2" in str(err.value)

    def test_bad_letter(self):
        with pytest.raises(GraphParseError):
            parse_plantri_ascii("3 bc,ac,az")

    def test_wrong_group_count(self):
        with pytest.raises(GraphParseError):
            parse_plantri_ascii("4 bc,ac,ab")

    def test_round_trip(self):
        g = complete_graph(5)
        (back,) = parse_plantri_ascii(plantri_line(g))
        assert back.edges == g.edges

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 12), st.data())
    def test_round_trip_random(self, n, data):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        g = Graph.from_edges(n, chosen)
        (back,) = parse_plantri_ascii(plantri_line(g))
        assert back.n == g.n and back.edges == g.edges


class TestEdgeListParsing:
    def test_triangle(self):
        g = parse_edge_list("3 3\n1 2\n2 3\n1 3")
        assert g.edges == complete_graph(3).edges

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError) as err:
            parse_edge_list("2 1\n1 1")
        assert "self-loop" in str(err.value)

    def test_count_mismatch(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("3 3\n1 2\n2 3")

    def test_out_of_range(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("3 1\n1 4")

    def test_comments_and_duplicates(self):
        g = parse_edge_list("# a triangle\n3 3\n1 2\n2 3\n# again\n2 3")
        assert g.edges == {(1, 2), (2, 3)}
        assert len(g.edges) == 2

    def test_fig3_fixture(self, fig3):
        assert fig3.n == 12 and len(fig3.edges) == 30
        assert find_clique(fig3, 4) == (2, 5, 6, 7)

    def test_round_trip(self, fig4):
        assert parse_edge_list(edge_list_text(fig4)).edges == fig4.edges


class TestCliques:
    def test_k4(self):
        assert find_clique(complete_graph(4), 4) == (1, 2, 3, 4)

    def test_path_has_no_triangle(self):
        assert find_clique(path_graph(3), 3) is None

    def test_deterministic(self, fig3):
        assert find_clique(fig3, 4) == find_clique(fig3, 4)

    def test_enumerate_matches_brute_force(self, fig3):
        from itertools import combinations

        brute = [
            c
            for c in combinations(range(1, 13), 4)
            if all(fig3.has_edge(a, b) for a, b in combinations(c, 2))
        ]
        assert enumerate_cliques(fig3, 4) == brute

    def test_single_vertex(self):
        assert find_clique(Graph(1, frozenset()), 1) == (1,)


class TestKTrees:
    def test_smallest_is_complete(self):
        g, trace = generate_ktree(4, 4, seed=0)
        assert g.edges == complete_graph(4).edges
        assert trace.attach_sets == ()

    def test_edge_count_formula(self):
        g, _ = generate_ktree(4, 20, seed=123)
        assert len(g.edges) == (2 * 20 - 4) * 3 // 2 == 54

    def test_triangle_count_formula(self):
        g, _ = generate_ktree(3, 10, seed=5)
        assert len(enumerate_cliques(g, 3)) == (3 * 10 - 2 * 3) * 2 * 1 // 6 == 8

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_counts_match_formulas(self, k):
        for n in range(k, 31, 7):
            g, trace = generate_ktree(k, n, seed=n * 13 + k)
            assert len(g.edges) == (2 * n - k) * (k - 1) // 2
            assert len(enumerate_cliques(g, 3)) == (3 * n - 2 * k) * (k - 1) * (k - 2) // 6
            assert validate_trace(g, trace)

    def test_reproducible(self):
        g1, _ = generate_ktree(4, 15, seed=9)
        g2, _ = generate_ktree(4, 15, seed=9)
        assert g1.edges == g2.edges

    def test_recognition_round_trip(self):
        g, _ = generate_ktree(4, 12, seed=2)
        trace = is_ktree(g, 4)
        assert trace is not None and validate_trace(g, trace)

    def test_k4_trace(self):
        trace = is_ktree(complete_graph(4), 4)
        assert trace is not None and trace.attach_sets == ()

    @pytest.mark.parametrize("n", [4, 5, 6, 8])
    def test_cycles_rejected(self, n):
        assert is_ktree(cycle_graph(n), 3) is None

    def test_non_ktree_rejected(self, fig3):
        assert is_ktree(fig3, 4) is None


class TestOracles:
    def test_k4(self):
        chi, coloring = chromatic_oracle(complete_graph(4))
        assert chi == 4 and validate_coloring(complete_graph(4), coloring)

    def test_c5(self):
        chi, _ = chromatic_oracle(cycle_graph(5))
        assert chi == 3

    def test_single_vertex(self):
        assert chromatic_oracle(Graph(1, frozenset()))[0] == 1

    def test_maximal_planar_with_k4(self, corpora):
        g = next(h for h in corpora[7] if find_clique(h, 4))
        assert chromatic_oracle(g)[0] == 4

    def test_k4_uniquely_colorable(self):
        assert count_colorings(complete_graph(4), 4) == 1

    def test_ktree_uniquely_colorable(self):
        for k in (2, 3, 4):
            g, _ = generate_ktree(k, 10, seed=k)
            assert count_colorings(g, k) == 1

    def test_count_limit(self):
        assert count_colorings(cycle_graph(6), 3, limit=2) == 2
        with pytest.raises(ValueError, match="at least 1"):
            count_colorings(cycle_graph(6), 3, limit=0)

    def test_c5_with_three_colors(self):
        # partitions of C_5 into <= 3 independent sets: pick the doubled-up
        # pair layout; exactly 5 rotations of {1,3},{2,4},{5} shape
        assert count_colorings(cycle_graph(5), 3) == 5

    def test_enumerate_matches_count(self):
        g = cycle_graph(6)
        cols = enumerate_colorings(g, 3)
        assert len(cols) == count_colorings(g, 3)
        assert len({c.partition() for c in cols}) == len(cols)
        assert all(validate_coloring(g, c) for c in cols)

    def test_witness_at_chi_exists(self, fig5):
        chi, coloring = chromatic_oracle(fig5)
        assert chi == 4
        assert validate_coloring(fig5, coloring)


class TestColoringType:
    def test_partition_quotient(self):
        a = Coloring(3, (1, 2, 1))
        b = Coloring(3, (2, 1, 2))
        assert a.partition() == b.partition()

    def test_classes_sorted(self):
        c = Coloring(4, (2, 1, 2, 1, 2))
        assert c.classes() == [[2, 4], [1, 3, 5]]

    def test_palette_validation(self):
        with pytest.raises(ValueError):
            Coloring(2, (1, 3))

    def test_improper_detected(self):
        g = complete_graph(3)
        assert not validate_coloring(g, Coloring(3, (1, 1, 2)))

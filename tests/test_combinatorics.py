"""Partitions, the oscillating Young graph, paths, and dimensions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmwtower import combinatorics as comb

partitions = st.lists(
    st.integers(1, 5), min_size=0, max_size=4
).map(lambda rows: tuple(sorted(rows, reverse=True)))


class TestPartitions:
    def test_parse_format_roundtrip(self):
        for text in ["", "1", "3,1", "2,2,1"]:
            assert comb.format_partition(comb.parse_partition(text)) == text

    def test_parse_rejects_increasing(self):
        with pytest.raises(ValueError):
            comb.parse_partition("1,2")


class TestAddableRemovable:
    def test_empty(self):
        add, rem = comb.addable_boxes(()), comb.removable_boxes(())
        assert {b.content for b in add} == {0}
        assert rem == []

    def test_two_one(self):
        add, rem = comb.addable_boxes((2, 1)), comb.removable_boxes((2, 1))
        assert {b.content for b in add} == {2, 0, -2}
        assert {b.content for b in rem} == {1, -1}

    def test_row_of_three(self):
        add, rem = comb.addable_boxes((3,)), comb.removable_boxes((3,))
        assert {b.content for b in add} == {3, -1}
        assert {b.content for b in rem} == {2}

    @settings(max_examples=80, deadline=None)
    @given(partitions)
    def test_structure(self, lam):
        add, rem = comb.addable_boxes(lam), comb.removable_boxes(lam)
        assert len(add) == len(rem) + 1
        add_c = [b.content for b in add]
        rem_c = [b.content for b in rem]
        assert len(set(add_c)) == len(add_c)
        assert len(set(rem_c)) == len(rem_c)
        assert not set(add_c) & set(rem_c)
        # total corner count is odd: the size of the coupled block at this
        # diagram, which is why even-size coupled blocks never occur
        assert (len(add) + len(rem)) % 2 == 1

    @settings(max_examples=50, deadline=None)
    @given(partitions)
    def test_add_remove_inverse(self, lam):
        add, rem = comb.addable_boxes(lam), comb.removable_boxes(lam)
        for b in add:
            assert comb.remove_box(comb.add_box(lam, b.row), b.row) == lam


class TestGraph:
    def test_level_2_vertices(self):
        g = comb.build_graph(2)
        assert set(g.levels[2]) == {(), (2,), (1, 1)}

    def test_level_3_vertices(self):
        g = comb.build_graph(3)
        assert set(g.levels[3]) == {(1,), (3,), (2, 1), (1, 1, 1)}

    def test_level_0(self):
        g = comb.build_graph(0)
        assert g.levels == [[()]] or list(g.levels[0]) == [()]
        assert not g.edges

    def test_low_levels_singletons(self):
        g = comb.build_graph(1)
        assert list(g.levels[0]) == [()]
        assert list(g.levels[1]) == [(1,)]

    def test_edges_change_one_box(self):
        g = comb.build_graph(4)
        for (k, lam, mu) in g.edges:
            assert abs(sum(lam) - sum(mu)) == 1


class TestPaths:
    def test_one_at_3(self):
        paths = comb.enumerate_paths((1,), 3)
        middles = {p[2] for p in paths}
        assert len(paths) == 3
        assert middles == {(), (2,), (1, 1)}

    def test_two_one_at_3(self):
        assert len(comb.enumerate_paths((2, 1), 3)) == 2

    def test_parity_error(self):
        with pytest.raises(comb.NotAVertex):
            comb.enumerate_paths((1,), 2)

    def test_all_paths_start_correctly(self):
        for p in comb.enumerate_paths((), 4):
            assert p[0] == ()
            assert p[1] == (1,)


class TestDim:
    def test_level_3_sum_of_squares(self):
        dims = [comb.dim(lam, 3) for lam in comb.build_graph(3).levels[3]]
        assert sorted(dims) == [1, 1, 2, 3]
        assert sum(d * d for d in dims) == 15

    def test_single_row(self):
        assert comb.dim((3,), 3) == 1

    def test_empty_at_4(self):
        assert comb.dim((), 4) == 3

    def test_matches_path_count(self):
        for n in range(1, 6):
            for lam in comb.build_graph(n).levels[n]:
                assert comb.dim(lam, n) == len(comb.enumerate_paths(lam, n))

    def test_neighbor_sum_recursion(self):
        g = comb.build_graph(6)
        for n in range(2, 7):
            for lam in g.levels[n]:
                total = sum(
                    comb.dim(mu, n - 1)
                    for mu in comb.neighbors(lam)
                    if mu in set(g.levels[n - 1])
                )
                assert comb.dim(lam, n) == total

    def test_dimension_identity_through_7(self):
        for n in range(1, 8):
            total = sum(
                comb.dim(lam, n) ** 2 for lam in comb.build_graph(n).levels[n]
            )
            assert total == comb.double_factorial(2 * n - 1)


class TestExports:
    def test_dims_table_flags(self):
        table = comb.dims_table(5)
        assert all(row["identity_holds"] for row in table)
        assert table[5]["sum_of_squares"] == 945

    def test_dot_output(self):
        dot = comb.graph_dot(comb.build_graph(2))
        assert dot.startswith("digraph")
        assert '"0:"' in dot or "0:" in dot
        assert "+0" in dot

    def test_dot_flip_negates(self):
        dot = comb.graph_dot(comb.build_graph(2), flip=True)
        # the edge (1) -> (2) adds content +1, flipped to -1
        assert "-1" in dot

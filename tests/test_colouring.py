"""Colouring containers and constraint checkers.

Checkers are validated against independent definitions from oracles.py
(per-vertex monochromatic degree count, component-size scan) on random
colourings of random graphs, plus directed cases for violation payloads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxchrom.colouring import (
    ADJACENT_SAME_COLOUR,
    CLUSTER_TOO_LARGE,
    FOLD_SET_WRONG_SIZE,
    IMPROPER_DEGREE_EXCEEDED,
    BFoldColouring,
    Colouring,
    Mode,
    _component_masks,
    check_bfold,
    check_clustered,
    check_improper,
    lift_colouring,
)
from boxchrom.graphs import (
    Graph,
    bowtie_graph,
    complete_graph,
    cycle_graph,
    iter_bits,
    path_graph,
    strong_product,
)
from oracles import colour_multiset, component_sizes_ok, graphs, mono_degree_ok


@st.composite
def coloured_graphs(draw, max_n=9, max_colours=4):
    g = draw(graphs(min_n=1, max_n=max_n))
    cols = draw(
        st.lists(
            st.integers(min_value=1, max_value=max_colours),
            min_size=g.n,
            max_size=g.n,
        )
    )
    return g, Colouring(tuple(cols))


class TestColouring:
    def test_rejects_nonpositive_colour(self):
        with pytest.raises(ValueError):
            Colouring((1, 0, 2))

    @pytest.mark.parametrize("colour", [True, 1.0, 1.5, "1"])
    def test_rejects_a_colour_that_is_not_an_int(self, colour):
        with pytest.raises(ValueError):
            Colouring((colour, 2))

    def test_from_list_converts_to_int(self):
        assert Colouring.from_list([True, 2.0]).to_json() == [1, 2]

    def test_palette_sorted_unique(self):
        c = Colouring((3, 1, 3, 7))
        assert c.palette() == (1, 3, 7)
        assert c.num_colours == 3

    def test_canonical_renumbers_by_first_use(self):
        c = Colouring((5, 2, 5, 9, 2))
        assert c.canonical().colours == (1, 2, 1, 3, 2)

    def test_from_list_and_json(self):
        c = Colouring.from_list([2, 2, 1])
        assert c.to_json() == [2, 2, 1]


class TestCheckImproper:
    @given(coloured_graphs(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=120, deadline=None)
    def test_matches_direct_definition(self, gc, d):
        g, c = gc
        ok = check_improper(g, c, d) is None
        assert ok == mono_degree_ok(g, c.colours, d)

    def test_adjacent_same_colour_payload(self):
        v = check_improper(path_graph(2), Colouring((1, 1)), 0)
        assert v is not None and v.kind == ADJACENT_SAME_COLOUR
        assert set(v.vertices) == {0, 1} and v.colour == 1 and v.limit == 0

    def test_degree_exceeded_payload(self):
        g = complete_graph(3)
        v = check_improper(g, Colouring((1, 1, 1)), 1)
        assert v is not None and v.kind == IMPROPER_DEGREE_EXCEEDED
        assert len(v.vertices) == 1 and v.limit == 1
        assert v.to_json()["kind"] == IMPROPER_DEGREE_EXCEEDED

    def test_reports_the_smallest_violating_vertex(self):
        # colour 1 appears first but breaks only at vertex 3; colour 2 breaks at 1
        g = Graph.from_edges(5, [(1, 2), (3, 4)])
        c = Colouring((1, 2, 2, 1, 1))
        v = check_improper(g, c, 0)
        assert (v.kind, v.vertices, v.colour) == (ADJACENT_SAME_COLOUR, (1, 2), 2)
        v = check_clustered(g, c, 1)
        assert (v.kind, v.vertices, v.colour) == (CLUSTER_TOO_LARGE, (1, 2), 2)

    def test_rejects_negative_d(self):
        with pytest.raises(ValueError):
            check_improper(path_graph(2), Colouring((1, 2)), -1)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            check_improper(path_graph(3), Colouring((1, 2)), 1)


class TestMonoComponents:
    @given(coloured_graphs())
    @settings(max_examples=80, deadline=None)
    def test_partition_property(self, gc):
        g, c = gc
        comps = list(_component_masks(g, c))
        seen = sorted(v for _, comp in comps for v in iter_bits(comp))
        assert seen == list(range(g.n))
        for colour, comp in comps:
            assert all(c.colours[v] == colour for v in iter_bits(comp))

    def test_connectivity_within_class(self):
        # C6 coloured 1,1,2,1,1,2 splits colour 1 into {0,1} and {3,4}
        comps = list(_component_masks(cycle_graph(6), Colouring((1, 1, 2, 1, 1, 2))))
        assert comps == [(1, 0b11), (2, 0b100), (1, 0b11000), (2, 0b100000)]


class TestCheckClustered:
    @given(coloured_graphs(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=120, deadline=None)
    def test_matches_direct_definition(self, gc, t):
        g, c = gc
        ok = check_clustered(g, c, t) is None
        assert ok == component_sizes_ok(g, c.colours, t)

    @given(coloured_graphs(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=80, deadline=None)
    def test_clustered_implies_improper(self, gc, t):
        # a component of <= t vertices caps monochromatic degree at t - 1
        g, c = gc
        if check_clustered(g, c, t) is None:
            assert check_improper(g, c, t - 1) is None

    def test_violation_payload(self):
        v = check_clustered(path_graph(3), Colouring((1, 1, 1)), 2)
        assert v is not None and v.kind == CLUSTER_TOO_LARGE
        assert v.vertices == (0, 1, 2) and v.limit == 2

    def test_rejects_t_zero(self):
        with pytest.raises(ValueError):
            check_clustered(path_graph(2), Colouring((1, 2)), 0)


class TestMode:
    def test_validation(self):
        with pytest.raises(ValueError):
            Mode("improper")
        with pytest.raises(ValueError):
            Mode("clustered", 0)
        with pytest.raises(ValueError):
            Mode("proper", 1)
        with pytest.raises(ValueError):
            Mode("fancy", 1)


class TestBFold:
    def test_rejects_wrong_set_size(self):
        c = BFoldColouring.from_sets([(1, 2), (1,)])
        v = check_bfold(path_graph(2), c, 2, Mode.proper())
        assert v is not None and v.kind == FOLD_SET_WRONG_SIZE
        assert v.vertices == (1,)

    def test_proper_fold_on_c4(self):
        # 4 colours suffice for a proper 2-fold colouring of C4
        c = BFoldColouring.from_sets([(1, 2), (3, 4), (1, 2), (3, 4)])
        assert check_bfold(cycle_graph(4), c, 2, Mode.proper()) is None

    def test_improper_fold_violation(self):
        c = BFoldColouring.from_sets([(1,), (1,), (1,)])
        v = check_bfold(complete_graph(3), c, 1, Mode.improper(1))
        assert v is not None and v.kind == IMPROPER_DEGREE_EXCEEDED

    def test_clustered_fold(self):
        c = BFoldColouring.from_sets([(1,), (1,), (2,)])
        assert check_bfold(path_graph(3), c, 1, Mode.clustered(2)) is None
        v = check_bfold(path_graph(3), c, 1, Mode.clustered(1))
        assert v is not None and v.kind == CLUSTER_TOO_LARGE

    def test_container_validation(self):
        with pytest.raises(ValueError):
            BFoldColouring.from_sets([(0,)])
        with pytest.raises(ValueError):
            BFoldColouring.from_sets([(1, 1)])

    @pytest.mark.parametrize("colour", [True, 1.0, 1.5])
    def test_rejects_a_colour_that_is_not_an_int(self, colour):
        with pytest.raises(ValueError):
            BFoldColouring(((colour,), (2,)))
        with pytest.raises(ValueError):
            BFoldColouring(((colour, 3), (2, 3)))

    def test_from_sets_converts_to_int(self):
        assert BFoldColouring.from_sets([(2.0, True), (3,)]).to_json() == [[1, 2], [3]]


class TestLift:
    @given(coloured_graphs(max_n=5), st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_lift_is_clustered_when_base_proper(self, gc, t):
        # a proper base colouring lifts to a t-clustered one on the product
        g, c = gc
        if check_improper(g, c, 0) is not None:
            return
        prod = strong_product(g, complete_graph(t))
        lifted = lift_colouring(c, t)
        assert check_clustered(prod, lifted, t) is None

    def test_lift_layout(self):
        lifted = lift_colouring(Colouring((2, 1)), 3)
        assert lifted.colours == (2, 2, 2, 1, 1, 1)

    def test_colour_multiset(self):
        c = Colouring((1, 2, 2, 3, 3, 3))
        assert colour_multiset(c, 3, 0) == {1: 1, 2: 2}
        assert colour_multiset(c, 3, 1) == {3: 3}
        with pytest.raises(ValueError):
            colour_multiset(c, 4, 0)
        with pytest.raises(ValueError):
            colour_multiset(c, 3, 2)

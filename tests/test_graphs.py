"""Graph model, products, named families, and the two text formats."""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxchrom.graphs import (
    Graph,
    Graph6Error,
    _to_json,
    _trusted,
    _twin_classes,
    bowtie_graph,
    complement,
    complete_bipartite,
    complete_graph,
    component_mask,
    cycle_graph,
    disjoint_union,
    emit_graph6,
    empty_graph,
    iter_bits,
    join,
    line_graph,
    matching_graph,
    named_graph,
    paley9_graph,
    parse_edgelist,
    parse_graph6,
    path_graph,
    petersen_graph,
    strong_product,
)
from boxchrom.smallgraphs import canonical_form
from oracles import (
    component_set,
    emit_edgelist,
    graphs,
    induced_subgraph,
    lexicographic_product,
    loop_strong_product,
    twin_graphs,
)


class TestGraphModel:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, (0b01, 0b10))

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            Graph(2, (0b100, 0b000))

    def test_from_edges_dedupes(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_edge_count_is_cached_outside_equality(self):
        g, h = petersen_graph(), _trusted(petersen_graph().adj)
        assert g.edge_count == 15 and "edge_count" in vars(g) and "edge_count" not in vars(h)
        assert g == h and hash(g) == hash(h)
        assert h.edge_count == 15 and g == h

    def test_hash_is_cached_and_equal_across_builds(self):
        g = cycle_graph(6)
        built = [Graph(6, g.adj), Graph.from_edges(6, g.edges()), _trusted(g.adj),
                 _trusted(g.adj, (g, 1)), Graph(6, g.adj, "other name")]
        assert all(b == g and hash(b) == hash(g) == hash((6, g.adj)) for b in built)
        assert all(vars(b)["_hash"] == hash(g) for b in built)

    @pytest.mark.parametrize("g", [petersen_graph(), strong_product(cycle_graph(5), complete_graph(3))],
                             ids=["petersen", "c5xk3"])
    def test_cached_hash_survives_a_pickle_round_trip(self, g):
        # the pooled sweep pickles graphs to its workers, and tuples of ints hash
        # alike in every process, so the cached value stays the hash of the copy
        h = hash(g)
        copy = pickle.loads(pickle.dumps(g))
        assert vars(copy)["_hash"] == h and copy == g
        assert hash(copy) == hash(Graph(copy.n, copy.adj)) == hash((g.n, g.adj))
        assert {g: 1}[copy] == 1

    def test_edges_sorted(self):
        g = cycle_graph(4)
        assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_degree_and_neighbours(self):
        g = bowtie_graph()
        assert g.degree(4) == 4
        assert g.neighbours(4) == (0, 1, 2, 3)
        assert g.degree_sequence() == (4, 2, 2, 2, 2)

    def test_connectivity(self):
        assert cycle_graph(5).is_connected()
        assert not matching_graph(2).is_connected()
        assert complete_graph(1).is_connected()

    @given(graphs(max_n=10), st.data())
    @settings(max_examples=80, deadline=None)
    def test_component_mask_matches_bfs(self, g, data):
        seed = data.draw(st.integers(0, g.n - 1))
        within = data.draw(st.integers(0, (1 << g.n) - 1))
        expected = sum(1 << v for v in component_set(g, seed, within))
        assert component_mask(g.adj, seed, within) == expected

    @given(st.one_of(graphs(max_n=9), twin_graphs()))
    @settings(max_examples=80, deadline=None)
    def test_twin_classes_match_the_pairwise_definition(self, g):
        # u, w are twins iff N(u) - w = N(w) - u; each class is named by its least vertex
        cls = _twin_classes(g)
        for u in range(g.n):
            twins = [w for w in range(g.n)
                     if g.adj[u] & ~(1 << w) == g.adj[w] & ~(1 << u)]
            assert cls[u] == min(twins)
            assert all(cls[w] == cls[u] for w in twins)

    def test_iter_bits(self):
        assert list(iter_bits(0b10110)) == [1, 2, 4]

    def test_name_not_part_of_equality(self):
        assert Graph(2, (2, 1), "a") == Graph(2, (2, 1), "b")


class TestProducts:
    def test_strong_product_sizes(self):
        g = strong_product(cycle_graph(5), complete_graph(2))
        assert g.n == 10
        # fibre mate + 2 same-layer neighbours + 2 cross neighbours = 5
        assert all(g.degree(v) == 5 for v in range(10))

    def test_strong_product_identity_factor(self):
        pet = petersen_graph()
        assert strong_product(complete_graph(1), pet).adj == pet.adj
        assert strong_product(pet, complete_graph(1)).adj == pet.adj

    def test_strong_product_complete_graphs(self):
        g = strong_product(complete_graph(3), complete_graph(4))
        assert g.adj == complete_graph(12).adj

    @given(graphs(max_n=5), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_strong_product_degree_law(self, g, k):
        prod = strong_product(g, complete_graph(k))
        for u in range(g.n):
            for i in range(k):
                assert prod.degree(u * k + i) == (g.degree(u) + 1) * k - 1

    def test_lexicographic_contains_strong(self):
        g, h = cycle_graph(4), path_graph(3)
        strong = set(strong_product(g, h).edges())
        lex = set(lexicographic_product(g, h).edges())
        assert strong <= lex
        assert lex - strong  # P3 is not complete, so containment is strict

    def test_lexicographic_equals_strong_for_complete_inner(self):
        g = cycle_graph(5)
        assert (
            lexicographic_product(g, complete_graph(3)).adj
            == strong_product(g, complete_graph(3)).adj
        )

    def test_join_and_union_counts(self):
        a, b = matching_graph(2), cycle_graph(3)
        u = disjoint_union(a, b)
        j = join(a, b)
        assert u.n == j.n == 7
        assert u.edge_count == 5
        assert j.edge_count == 5 + 4 * 3

    def test_complement_involution(self):
        g = bowtie_graph()
        assert complement(complement(g)).adj == g.adj

    def test_line_graph_of_triangle(self):
        assert line_graph(complete_graph(3)).adj == complete_graph(3).adj

    def test_line_graph_of_path(self):
        assert line_graph(path_graph(4)).adj == path_graph(3).adj

    def test_line_graph_needs_edges(self):
        with pytest.raises(ValueError):
            line_graph(empty_graph(3))

    @given(graphs(max_n=5), graphs(max_n=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_unchecked_outputs_pass_the_checks(self, g, h, data):
        # strong_product, canonical_form and complement skip Graph's validation
        prod = strong_product(g, h)
        vs = data.draw(st.permutations(range(prod.n)))[:data.draw(st.integers(0, prod.n))]
        sub = induced_subgraph(prod, vs)
        outs = (prod, canonical_form(Graph(g.n, g.adj, "g")), canonical_form(sub),
                complement(g), complement(prod), complement(sub), complement(Graph(0, ())))
        for out in outs:
            copy = Graph(out.n, out.adj)
            assert copy == out and hash(copy) == hash(out)
        assert outs[1].name == "g"

    @given(graphs(max_n=5), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_products_with_complete_factors_keep_their_base(self, g, t):
        prod = strong_product(g, complete_graph(t))
        assert prod._base == (g, t)
        copy = Graph(prod.n, prod.adj)
        assert copy._base is None
        assert copy == prod and hash(copy) == hash(prod)

    @pytest.mark.parametrize("h", [complete_graph(1), complete_graph(2), complete_graph(3),
                                   complete_graph(4), cycle_graph(4), path_graph(3),
                                   empty_graph(2), complete_bipartite(2, 2)],
                             ids=["k1", "k2", "k3", "k4", "c4", "p3", "2k1", "k22"])
    def test_strong_product_matches_the_loop_oracle(self, h, connected_catalogue):
        complete = h == complete_graph(h.n)
        for n in range(1, 6):
            for g in connected_catalogue[n]:
                prod = strong_product(g, h)
                assert prod.adj == loop_strong_product(g, h), (g.adj, h.adj)
                assert prod._base == ((g, h.n) if complete else None)

    def test_other_products_keep_no_base(self):
        assert strong_product(cycle_graph(4), path_graph(3))._base is None
        assert strong_product(cycle_graph(4), empty_graph(2))._base is None


class TestNamedFamilies:
    def test_catalogue_dispatch(self):
        assert named_graph("cycle", (6,)).adj == cycle_graph(6).adj
        assert named_graph("petersen").n == 10
        with pytest.raises(ValueError):
            named_graph("nosuch")
        with pytest.raises(ValueError):
            named_graph("cycle", (3, 4))
        with pytest.raises(ValueError):
            named_graph("cycle", (2,))

    def test_petersen_shape(self):
        pet = petersen_graph()
        assert pet.n == 10 and pet.edge_count == 15
        assert all(pet.degree(v) == 3 for v in range(10))
        # girth 5: no triangles, no 4-cycles
        for u, v in pet.edges():
            common = [w for w in pet.neighbours(u) if pet.adjacent(w, v)]
            assert not common

    def test_paley9_is_srg(self):
        g = paley9_graph()
        assert g.n == 9 and all(g.degree(v) == 4 for v in range(9))
        for u in range(9):
            for v in range(u + 1, 9):
                common = sum(
                    1 for w in g.neighbours(u) if g.adjacent(w, v)
                )
                assert common == (1 if g.adjacent(u, v) else 2)

    def test_bowtie(self):
        g = bowtie_graph()
        assert g.n == 5 and g.edge_count == 6

    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert g.edge_count == 6
        assert g.degree_sequence() == (3, 3, 2, 2, 2)


class TestGraph6:
    def test_single_vertex(self):
        assert emit_graph6(Graph(1, (0,))) == "@"

    def test_known_star(self):
        g = parse_graph6("D?{")
        assert g.n == 5
        assert g.degree_sequence() == (4, 1, 1, 1, 1)

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<D?{").n == 5

    @given(graphs(max_n=20))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, g):
        assert parse_graph6(emit_graph6(g)).adj == g.adj

    def test_large_size_field(self):
        g = empty_graph(70)
        assert parse_graph6(emit_graph6(g)).n == 70

    def test_bad_byte_reports_offset(self):
        with pytest.raises(Graph6Error) as e:
            parse_graph6("D?\x01")
        assert e.value.offset == 2

    def test_truncated_body(self):
        with pytest.raises(Graph6Error):
            parse_graph6("D?")

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error):
            parse_graph6("D?{?")

    def test_nonzero_padding_rejected(self):
        body = emit_graph6(empty_graph(2))
        assert body == "A?"
        assert parse_graph6("A_").edge_count == 1
        with pytest.raises(Graph6Error):
            parse_graph6("A@")  # low padding bit set


class TestEdgeList:
    def test_round_trip(self):
        g = bowtie_graph()
        assert parse_edgelist(emit_edgelist(g)).adj == g.adj

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError):
            parse_edgelist("0 1\n1 2\n")

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(ValueError):
            parse_edgelist("3 2\n0 1\n")

    def test_rejects_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            parse_edgelist("2 1\n0 5\n")


class _Pair(NamedTuple):
    second: int
    first: tuple[int, ...]


@dataclass(frozen=True)
class _Record:
    z: str
    pairs: tuple[_Pair, ...]
    extra: dict
    missing: None = None


class _Custom:
    def to_json(self):
        return "custom"


class TestJsonRule:
    def test_fields_in_declaration_order(self):
        out = _to_json(_Record("a", (_Pair(2, (1, 0)),), {"k": (1,)}))
        assert list(out) == ["z", "pairs", "extra", "missing"]
        assert out == {"z": "a", "pairs": [{"second": 2, "first": [1, 0]}],
                       "extra": {"k": (1,)}, "missing": None}

    def test_to_json_wins_and_sequences_become_lists(self):
        assert _to_json((_Custom(), [(1, 2)], 3.5, None)) == ["custom", [[1, 2]], 3.5, None]

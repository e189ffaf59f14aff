"""Canonical forms, exhaustive generation, and seeded random graphs.

The canonical labelling is checked for invariance under random relabelling
and against a brute-force search over every class-respecting order, and the
generator is pinned to the known counts of unlabelled graphs and to
the exact graph6 lists it has always produced.  The orbit pruning is checked
against the generator that canonicalises every augmentation, and its
generators against a brute-force automorphism search.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxchrom import smallgraphs
from boxchrom.graphs import (
    Graph,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    emit_graph6,
    empty_graph,
    matching_graph,
    petersen_graph,
    strong_product,
)
from boxchrom.smallgraphs import (
    _refinement_classes,
    all_graphs,
    canonical_form,
    connected_graphs,
    random_connected_graph,
    random_graph,
)
from oracles import (
    brute_automorphisms,
    brute_canonical_columns,
    canonical_certificate,
    columns,
    every_augmentation_graph6,
    graphs,
    signature_refinement_classes,
    twin_graphs,
)

# unlabelled simple graphs and connected ones, n = 1..8
ALL_COUNTS = [1, 2, 4, 11, 34, 156, 1044, 12346]
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853, 11117]
# sha256 of "\n".join(graph6 of all_graphs(n)), n = 1..8, as generated by
# canonicalising every augmentation; later speed-ups must keep them
ALL_GRAPH6_SHA256 = [
    "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1",
    "f78b1e961185bb637907c0c3de52876ceb3eb2fee4073e88b23fc8308cee8ad4",
    "dab260d3a982994a03c9f8dd70c9abd8e47ba43abb270c1a9b8f982fb67c451e",
    "ba6b2702ab1d647a7964e0bb2815cb74b90f811b2cbc759e36bc8ad37c4c4bfb",
    "a3c0be81f949312e42271323fbf63d26ea9c17eb62bc28b00a1df42c41213ab8",
    "cf43d74eea2e83dd129ee163ab4ba9c0f95efd52978be61a3b45e8d9557307a0",
    "3e503c8c6bec0555cca2382d86a1bb2ede4f18a9e854b4caed44bad3415cacb5",
]


def permuted(g: Graph, perm: list[int]) -> Graph:
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    return Graph.from_edges(g.n, edges)


class TestCanonicalForm:
    @given(graphs(min_n=1, max_n=8), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_invariant_under_relabelling(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_certificate(permuted(g, perm)) == canonical_certificate(g)

    @given(graphs(min_n=1, max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_canonical_form_is_isomorphic_fixed_point(self, g):
        cf = canonical_form(g)
        assert cf.n == g.n and cf.edge_count == g.edge_count
        assert sorted(cf.degree_sequence()) == sorted(g.degree_sequence())
        assert canonical_form(cf).adj == cf.adj

    @given(st.one_of(graphs(min_n=1, max_n=7), twin_graphs()))
    @settings(max_examples=40, deadline=None)
    def test_least_columns_match_brute_force(self, g):
        cf = canonical_form(g)
        assert columns(cf, range(g.n)) == brute_canonical_columns(g, _refinement_classes(g))

    @pytest.mark.parametrize("g", [
        complete_graph(7),
        empty_graph(7),
        complete_bipartite(3, 3),
        disjoint_union(complete_graph(3), complete_graph(3)),
        complement(matching_graph(3)),  # K_{2,2,2}
        strong_product(cycle_graph(4), complete_graph(2)),
    ], ids=["K7", "E7", "K3,3", "2K3", "K2,2,2", "C4xK2"])
    def test_twin_heavy_graphs_match_brute_force(self, g):
        cf = canonical_form(g)
        assert columns(cf, range(g.n)) == brute_canonical_columns(g, _refinement_classes(g))

    @given(st.one_of(graphs(max_n=10), twin_graphs()))
    @settings(max_examples=80, deadline=None)
    def test_refinement_matches_signature_refinement(self, g):
        # same classes in the same order: the canonical forms depend on both
        assert _refinement_classes(g) == signature_refinement_classes(g)

    def test_refinement_matches_on_named_and_all_7_vertex_graphs(self):
        named = [Graph(0, ()), petersen_graph(), complement(petersen_graph()),
                 strong_product(cycle_graph(5), complete_graph(2))]
        for g in (*named, *all_graphs(7)):
            assert _refinement_classes(g) == signature_refinement_classes(g)

    def test_self_complementary_five_cycle(self):
        c5 = cycle_graph(5)
        assert canonical_certificate(complement(c5)) == canonical_certificate(c5)

    def test_distinguishes_non_isomorphic(self):
        # two 6-vertex 2-regular graphs: one hexagon vs two triangles
        hexagon = cycle_graph(6)
        triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert canonical_certificate(hexagon) != canonical_certificate(triangles)

    def test_petersen_vertex_transitive_relabelling(self):
        g = petersen_graph()
        rot = [(v + 1) % 5 if v < 5 else 5 + (v + 1) % 5 for v in range(10)]
        assert canonical_certificate(permuted(g, rot)) == canonical_certificate(g)


class TestGeneration:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_graph_counts(self, n):
        assert len(all_graphs(n)) == ALL_COUNTS[n - 1]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_connected_counts(self, n):
        assert len(connected_graphs(n)) == CONNECTED_COUNTS[n - 1]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_graph6_list_is_pinned(self, n):
        text = "\n".join(emit_graph6(g) for g in all_graphs(n))
        assert hashlib.sha256(text.encode()).hexdigest() == ALL_GRAPH6_SHA256[n - 1]

    def test_connected_order_is_pinned(self):
        # the benchmark's sweep sample indexes into this tuple
        assert emit_graph6(connected_graphs(7)[476]) == "FLr~w"

    @pytest.mark.parametrize("n", range(1, 8))
    def test_orbit_pruning_matches_every_augmentation(self, n):
        assert tuple(emit_graph6(g) for g in all_graphs(n)) == every_augmentation_graph6(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_each_graph_is_accepted_exactly_once(self, n):
        # the canonical-parent test replaces a dedupe dict: every accepted
        # child is kept, so a second copy of a graph would show up here
        gs = all_graphs(n)
        assert len({g.adj for g in gs}) == len(gs) == ALL_COUNTS[n - 1]

    def test_one_canonical_form_per_orbit(self, monkeypatch):
        # 3,131 labellings canonicalise every max-degree augmentation for n <= 7;
        # one per Aut-orbit of attach masks took 1,639; the refinement filter
        # leaves 1,253 for 1,251 graphs on 2..7 vertices
        calls = []
        labelling = smallgraphs._labelling
        monkeypatch.setattr(smallgraphs, "_ALL_CACHE", {})
        monkeypatch.setattr(smallgraphs, "_labelling",
                            lambda g, classes: calls.append(g) or labelling(g, classes))
        all_graphs(7)
        assert len(calls) == 1253

    def test_one_canonical_search_per_canonical_form(self, monkeypatch):
        # a parent's generators come from the search that canonicalised it as a
        # child, so no graph is searched again when it becomes a parent; for
        # n <= 6 every labelled child is accepted
        searches, forms = [], []
        least_orders, labelling = smallgraphs._least_orders, smallgraphs._labelling
        monkeypatch.setattr(smallgraphs, "_ALL_CACHE", {})
        monkeypatch.setattr(smallgraphs, "_least_orders",
                            lambda g, classes: searches.append(g) or least_orders(g, classes))
        monkeypatch.setattr(smallgraphs, "_labelling",
                            lambda g, classes: forms.append(g) or labelling(g, classes))
        for n in range(1, 7):
            all_graphs(n)
            assert len(searches) == len(forms)
        assert len(forms) == 207 == sum(ALL_COUNTS[1:6])

    @given(st.one_of(graphs(min_n=1, max_n=8), twin_graphs()))
    @settings(max_examples=60, deadline=None)
    def test_generators_are_automorphisms(self, g):
        cf, _, gens = smallgraphs._labelling(g, _refinement_classes(g))
        edges = set(cf.edges())
        for image in gens:
            assert sorted(image) == list(range(g.n))
            assert {tuple(sorted((image[u], image[v]))) for u, v in edges} == edges

    @given(st.one_of(graphs(min_n=1, max_n=6), twin_graphs()))
    @settings(max_examples=40, deadline=None)
    def test_generators_generate_the_automorphism_group(self, g):
        g, _, gens = smallgraphs._labelling(g, _refinement_classes(g))
        group = {tuple(range(g.n))}
        stack = list(group)
        while stack:
            p = stack.pop()
            for image in gens:
                q = tuple(image[p[v]] for v in range(g.n))
                if q not in group:
                    group.add(q)
                    stack.append(q)
        assert group == brute_automorphisms(g)

    def test_output_is_canonical_and_deduplicated(self):
        gs = all_graphs(5)
        certs = [canonical_certificate(g) for g in gs]
        assert len(set(certs)) == len(certs)
        assert certs == sorted(certs)
        assert all(canonical_form(g).adj == g.adj for g in gs)

    def test_cap(self):
        with pytest.raises(ValueError):
            all_graphs(9)
        with pytest.raises(ValueError):
            all_graphs(0)


class TestRandomGraphs:
    def test_deterministic_for_seed(self):
        a = random_graph(10, 0.4, 123)
        b = random_graph(10, 0.4, 123)
        assert a.adj == b.adj
        assert random_graph(10, 0.4, 124).adj != a.adj

    @given(st.integers(1, 12), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_connected_variant_connects(self, n, seed):
        g = random_connected_graph(n, 0.2, seed)
        assert g.is_connected()

    def test_connected_variant_preserves_dense_draws(self):
        # when the binomial draw is already connected it is returned as is
        g = random_graph(8, 0.9, 5)
        if g.is_connected():
            assert random_connected_graph(8, 0.9, 5).adj == g.adj

    def test_extreme_probabilities(self):
        assert random_graph(6, 0.0, 1).edge_count == 0
        assert random_graph(6, 1.0, 1).edge_count == 15

"""Equality diagnostics for the spectral chromatic bound.

Covers the class-degree tables of a colouring (against the
one-neighbour-at-a-time loops of ``oracles``), the Perron-weighted quotient
matrix (row-sum identity plus Cauchy interlacing against the host spectrum),
the full diagnosis on colourings known to meet the bound, and lifting tight
proper colourings through clique blow-ups.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxchrom import hoffman, spectra
from boxchrom.colouring import Colouring
from boxchrom.graphs import (
    Graph,
    bowtie_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    line_graph,
    paley9_graph,
    path_graph,
    petersen_graph,
    strong_product,
)
from boxchrom.hoffman import (
    _count_colourings_up_to_symmetry,
    class_degree_table,
    diagnose_hoffman,
    is_equitable,
    lift_tight_colouring,
    quotient_matrix,
    weighted_class_degrees,
)
from boxchrom.solvers import chromatic_improper
from boxchrom.spectra import perron_vector, spectrum
from oracles import (
    brute_count_colourings,
    colour_classes,
    dense_quotient,
    graphs,
    is_weight_regular,
    lexicographic_product,
    loop_class_degrees,
    loop_weighted_class_degrees,
)

# the two triangle 2-factors of K5 read off its line graph's edge order
LINE_K5_CLASSES = Colouring((1, 2, 2, 1, 1, 2, 2, 1, 2, 1))


def coordinate_halves(block: int, copies: int) -> Colouring:
    """Colour lifted fibres by the parity of their base position."""
    return Colouring(tuple(1 + (v // block) % 2 for v in range(block * copies)))


class TestColourClasses:
    def test_rows_follow_sorted_colour_order(self):
        # on the path 0-1-2-3, colour 1 is {1}, colour 2 is {0, 2}, colour 3 is {3}
        g = path_graph(4)
        table = class_degree_table(g, Colouring((2, 1, 2, 3)))
        assert table.tolist() == [[1, 0, 0], [0, 2, 0], [1, 0, 1], [0, 1, 0]]
        renamed = Colouring((20, 10, 20, 30))
        assert np.array_equal(class_degree_table(g, renamed), table)
        assert np.array_equal(quotient_matrix(g, renamed),
                              quotient_matrix(g, Colouring((2, 1, 2, 3))))

    def test_length_mismatch_raises(self):
        # a colouring must cover exactly the graph's vertices, in every table
        g = cycle_graph(5)
        for colours in ((1,), (1, 2, 1, 2, 3, 1)):
            for table in (class_degree_table, is_equitable, weighted_class_degrees,
                          quotient_matrix):
                with pytest.raises(ValueError, match=f"covers {len(colours)} vertices"):
                    table(g, Colouring(colours))


class TestDegreeTables:
    def test_bowtie_hub_partition_is_equitable(self):
        g = bowtie_graph()
        p = Colouring((1, 1, 1, 1, 2))
        table = class_degree_table(g, p)
        assert table.tolist() == [[1, 1], [1, 1], [1, 1], [1, 1], [4, 0]]
        assert is_equitable(g, p)

    def test_path_mixed_part_not_equitable(self):
        assert not is_equitable(path_graph(3), Colouring((1, 1, 2)))

    def test_path_end_middle_weighted_degrees(self):
        # Perron weights of P3 are (1, sqrt(2), 1)/2; the middle vertex sees
        # weighted degree 2/sqrt(2) = sqrt(2) towards the end class
        g = path_graph(3)
        p = Colouring((1, 2, 1))
        table = weighted_class_degrees(g, p)
        assert abs(table[1][0] - math.sqrt(2)) < 1e-9
        assert table[1][1] == 0.0
        assert is_weight_regular(g, p)
        assert is_equitable(g, p)

    @given(graphs(min_n=2, max_n=8, connected=True))
    @settings(max_examples=30, deadline=None)
    def test_equitable_implies_weight_regular_on_regular(self, g):
        # constant Perron weights make the two notions coincide
        if len(set(g.degree_sequence())) != 1 or g.edge_count == 0:
            return
        p = Colouring(tuple(1 + v % 2 for v in range(g.n)))
        if is_equitable(g, p):
            assert is_weight_regular(g, p)


@st.composite
def graph_with_colouring(draw):
    g = draw(graphs(min_n=2, max_n=8, connected=True))
    colours = draw(st.lists(st.integers(1, 3), min_size=g.n, max_size=g.n))
    return g, Colouring(tuple(colours))


class TestClassSumTable:
    @given(graph_with_colouring())
    @settings(max_examples=60, deadline=None)
    def test_tables_match_the_loop_oracles(self, gp):
        g, p = gp
        assert np.array_equal(class_degree_table(g, p), loop_class_degrees(g, p))
        w = perron_vector(g)
        assert np.allclose(weighted_class_degrees(g, p),
                           loop_weighted_class_degrees(g, p, w), rtol=0, atol=1e-12)
        assert np.allclose(quotient_matrix(g, p), dense_quotient(g, p, w),
                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("g,colours", [
        (bowtie_graph(), (1, 1, 1, 1, 2)),
        (petersen_graph(), (1, 2, 1, 2, 3, 2, 3, 3, 1, 1)),
    ])
    def test_degree_table_is_integer(self, g, colours):
        p = Colouring(colours)
        table = class_degree_table(g, p)
        assert table.dtype.kind == "i"
        assert table.tolist() == loop_class_degrees(g, p).tolist()


class TestQuotientMatrix:
    def test_hoffman_colouring_quotient_shape(self):
        # tight classes produce dI + (d - lam_n)(J - I); here d=2, lam_n=-2
        g = line_graph(complete_graph(5))
        q = quotient_matrix(g, LINE_K5_CLASSES)
        assert np.allclose(q, [[2.0, 4.0], [4.0, 2.0]], atol=1e-9)

    @given(graph_with_colouring())
    @settings(max_examples=40, deadline=None)
    def test_row_sums_and_interlacing(self, gp):
        g, p = gp
        if g.edge_count == 0:
            return
        q = quotient_matrix(g, p)
        lam1 = spectrum(g).largest
        assert np.allclose(q.sum(axis=1), lam1, atol=1e-7 * (1 + abs(lam1)))
        # symmetrise by class norms: similar matrix, so same eigenvalues,
        # and Cauchy interlacing against the host graph applies
        w = perron_vector(g)
        norms = np.array([
            math.sqrt(sum(w[v] ** 2 for v in members)) for members in colour_classes(p)
        ])
        b = q * norms[:, None] / norms[None, :]
        beta = np.sort(np.linalg.eigvalsh((b + b.T) / 2))[::-1]
        host = spectrum(g).values
        m, n = len(beta), g.n
        for i in range(m):
            assert host[i] >= beta[i] - 1e-7
            assert beta[i] >= host[n - m + i] - 1e-7

    def test_disconnected_rejected(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        with pytest.raises(ValueError, match="quotient matrix needs a connected graph"):
            quotient_matrix(g, Colouring((1, 1, 2, 2)))

    def test_one_connectivity_test(self, monkeypatch):
        # the Perron vector's own connectivity test is the quotient's
        g = petersen_graph()
        p = chromatic_improper(g, 0).witness
        before = quotient_matrix(g, p)
        tests, real_test = [], Graph.is_connected
        monkeypatch.setattr(Graph, "is_connected", lambda h: tests.append(h) or real_test(h))
        assert np.array_equal(quotient_matrix(g, p), before)
        assert tests == [g]


class TestDiagnoseHoffman:
    def test_line_k5_two_factorisation_is_tight(self):
        g = line_graph(complete_graph(5))
        diag = diagnose_hoffman(g, 2, LINE_K5_CLASSES, check_uniqueness=True)
        assert diag.is_tight
        assert abs(diag.bound - 2.0) < 1e-9
        assert diag.smallest_multiplicity >= 1
        assert diag.multiplicity_sufficient
        assert diag.classes_d_regular
        assert diag.weight_regular
        assert diag.equitable and diag.cross_degrees_match
        assert diag.all_equality_conditions()
        # K5 has several triangle 2-factorisations, so no uniqueness claim
        assert diag.unique_colouring is False

    def test_product_with_bipartite_fibres_is_tight(self):
        # the spectral bound evaluates to exactly 2 here and both halves of
        # the vertex set realise it
        g = strong_product(cycle_graph(4), complete_bipartite(2, 2))
        c = coordinate_halves(4, 4)
        diag = diagnose_hoffman(g, 2, c)
        assert abs(diag.bound - 2.0) < 1e-9
        assert diag.is_tight
        assert diag.all_equality_conditions()
        assert chromatic_improper(g, 2).value == 2

    def test_odd_cycle_not_tight(self):
        diag = diagnose_hoffman(cycle_graph(5), 0, Colouring((1, 2, 1, 2, 3)))
        assert not diag.is_tight
        assert diag.num_classes == 3 and diag.bound < 3

    def test_irregular_graph_skips_equitable_conditions(self):
        diag = diagnose_hoffman(bowtie_graph(), 1, Colouring((1, 2, 2, 2, 1)))
        assert diag.equitable is None and diag.cross_degrees_match is None

    def test_rejects_invalid_colouring(self):
        with pytest.raises(ValueError):
            diagnose_hoffman(complete_graph(3), 0, Colouring((1, 1, 2)))

    def test_rejects_disconnected_and_edgeless(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        with pytest.raises(ValueError):
            diagnose_hoffman(g, 0, Colouring((1, 2, 1, 2)))
        with pytest.raises(ValueError):
            diagnose_hoffman(empty_graph(1), 0, Colouring((1,)))

    def test_one_eigensolve_per_graph(self, monkeypatch):
        # the spectrum, the Perron vector and the quotient's eigenvalue all
        # read one decomposition of the adjacency matrix
        shapes = []

        def counting(m):
            shapes.append(m.shape[0])
            return real(m)

        real = spectra.eigensolve
        monkeypatch.setattr(spectra, "eigensolve", counting)
        spectra._spectrum_cached.cache_clear()
        for g in (paley9_graph(), petersen_graph()):
            diagnose_hoffman(g, 0, chromatic_improper(g, 0).witness)
        assert shapes == [9, 10]

    def test_one_perron_vector_and_one_connectivity_test(self, monkeypatch):
        # the quotient reuses the vector of the weighted class degrees, and the
        # vector's own connectivity test is the diagnosis's
        g = petersen_graph()
        colouring = chromatic_improper(g, 0).witness
        before = diagnose_hoffman(g, 0, colouring)
        vectors, tests = [], []
        real_vector, real_test = hoffman.perron_vector, Graph.is_connected
        monkeypatch.setattr(hoffman, "perron_vector",
                            lambda h: vectors.append(h) or real_vector(h))
        monkeypatch.setattr(Graph, "is_connected", lambda h: tests.append(h) or real_test(h))
        for rounds in (1, 2):
            assert diagnose_hoffman(g, 0, colouring) == before
            assert len(vectors) == len(tests) == rounds

    def test_uniqueness_cap(self):
        g = strong_product(cycle_graph(4), complete_bipartite(2, 2))
        with pytest.raises(ValueError):
            diagnose_hoffman(g, 2, coordinate_halves(4, 4), check_uniqueness=True)

    def test_unique_case_sharpens_multiplicity(self):
        # K4 has one proper 4-colouring up to names: multiplicity is exactly 3
        diag = diagnose_hoffman(
            complete_graph(4), 0, Colouring((1, 2, 3, 4)), check_uniqueness=True
        )
        assert diag.unique_colouring is True
        assert diag.multiplicity_exact is True

    @pytest.mark.parametrize("g,d", [
        (strong_product(path_graph(2), complete_graph(2)), 1),
        (strong_product(cycle_graph(4), complete_graph(2)), 1),
        (strong_product(path_graph(3), complete_graph(3)), 2),
        (lexicographic_product(complete_graph(3), empty_graph(2)), 0),
        (lexicographic_product(path_graph(3), empty_graph(2)), 1),
    ])
    def test_uniqueness_counts_every_twin_permutation(self, g, d):
        # fibres are twin classes; the counter must not skip their permutations
        # the way the colouring search does
        colouring = chromatic_improper(g, d).witness
        m = colouring.num_colours
        count = brute_count_colourings(g, d, m)
        assert _count_colourings_up_to_symmetry(g, d, m, stop_at=count + 1) == count
        diag = diagnose_hoffman(g, d, colouring, check_uniqueness=True)
        assert diag.unique_colouring is (count == 1)

    @pytest.mark.parametrize("g,d", [(path_graph(4), 0), (cycle_graph(5), 1)])
    def test_counts_only_colourings_with_exactly_m_colours(self, g, d):
        for m in range(1, g.n + 1):
            count = brute_count_colourings(g, d, m)
            assert _count_colourings_up_to_symmetry(g, d, m, stop_at=count + 1) == count


class TestLift:
    @pytest.mark.parametrize("d", [1, 2])
    def test_triangle_lifts_tight(self, d):
        lift = lift_tight_colouring(complete_graph(3), Colouring((1, 2, 3)), d)
        assert lift.base_classes == 3
        assert abs(lift.product_bound - lift.base_bound) < 1e-9
        assert lift.product_diagnosis.is_tight
        assert lift.product_diagnosis.classes_d_regular
        payload = lift.to_json()
        assert payload["d"] == d and len(payload["lifted"]) == 3 * (d + 1)

    def test_bipartite_lifts_tight(self):
        lift = lift_tight_colouring(complete_bipartite(2, 2), Colouring((1, 1, 2, 2)), 1)
        assert lift.product_diagnosis.is_tight

    def test_refuses_non_tight_base(self):
        # chi(C5) = 3 strictly above the spectral bound
        with pytest.raises(ValueError):
            lift_tight_colouring(cycle_graph(5), Colouring((1, 2, 1, 2, 3)), 1)

    def test_refuses_d_zero(self):
        with pytest.raises(ValueError):
            lift_tight_colouring(complete_graph(3), Colouring((1, 2, 3)), 0)

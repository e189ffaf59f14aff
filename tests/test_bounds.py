"""Spectral lower bounds: values, validation, and soundness.

The headline checks are the closed-form identities for strong products with
complete graphs and an exhaustive soundness sweep (every bound's ceiling is
at most the exact optimum on all small connected graphs).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxchrom.bounds import (
    BoundReport,
    WeightedCompatibleMatrix,
    bound_report,
    ceil_lower,
    combinatorial_bounds,
    hoffman_bilu,
    inertia_alpha_bound,
    inertia_chromatic_bound,
    inertia_counts,
    wocjan_elphick,
)
from boxchrom.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    join,
    matching_graph,
    path_graph,
    petersen_graph,
    strong_product,
)
from boxchrom.smallgraphs import connected_graphs, random_connected_graph
from boxchrom.solvers import alpha_d, chromatic_improper
from boxchrom.spectra import MatrixKind, graph_matrix, spectrum
from oracles import graphs

JOIN_WEIGHTS_TEXT = """8
0 1 0 0 1 1 -0.99 1
1 0 0 0 1 1 1 1
0 0 0 1 -1 1 1 1
0 0 1 0 -1 0.99 1 1
1 1 -1 -1 0 -1 0 0
1 1 1 0.99 -1 0 0 0
-0.99 1 1 1 0 0 0 1
1 1 1 1 0 0 1 0
"""


def double_matching_join():
    return join(matching_graph(2), matching_graph(2))


class TestCeilLower:
    def test_protects_against_upward_noise(self):
        assert ceil_lower(2.0000001) == 2
        assert ceil_lower(3.0) == 3
        assert ceil_lower(2.1) == 3
        assert ceil_lower(2.9999995) == 3
        assert ceil_lower(-0.5) == 0


class TestHoffman:
    def test_pinned_values(self):
        assert abs(hoffman_bilu(petersen_graph(), 0) - 2.5) < 1e-9
        assert abs(hoffman_bilu(complete_graph(7), 0) - 7.0) < 1e-9
        assert abs(hoffman_bilu(cycle_graph(4), 1) - 4 / 3) < 1e-9

    def test_rejects_edgeless(self):
        with pytest.raises(ValueError):
            hoffman_bilu(empty_graph(3), 0)

    def test_rejects_negative_d(self):
        with pytest.raises(ValueError):
            hoffman_bilu(path_graph(2), -1)

    @given(graphs(min_n=2, max_n=8, connected=True), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_product_identity(self, g, d):
        # blowing up by K_{d+1} rescales the bound to 1 - lam1/lamn of the base
        if g.edge_count == 0:
            return
        spec = spectrum(g)
        prod = strong_product(g, complete_graph(d + 1))
        expected = 1 - spec.largest / spec.smallest
        assert abs(hoffman_bilu(prod, d) - expected) < 1e-7


class TestWeightedMatrix:
    def test_adjacency_constructor(self):
        w = WeightedCompatibleMatrix.adjacency(cycle_graph(4))
        assert w.matrix[0, 1] == 1.0 and w.matrix[0, 2] == 0.0

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            WeightedCompatibleMatrix(path_graph(3), np.zeros((2, 2)))

    def test_rejects_asymmetric(self):
        m = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            WeightedCompatibleMatrix(path_graph(2), m)

    def test_rejects_large_entries(self):
        m = np.array([[0.0, 1.5], [1.5, 0.0]])
        with pytest.raises(ValueError):
            WeightedCompatibleMatrix(path_graph(2), m)

    def test_rejects_weight_on_non_edge(self):
        m = np.zeros((3, 3))
        m[0, 2] = m[2, 0] = 0.5
        with pytest.raises(ValueError):
            WeightedCompatibleMatrix(path_graph(3), m)

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("at", [(0, 1), (0, 0)], ids=["edge", "diagonal"])
    def test_rejects_non_finite_entries(self, entry, at):
        # NaN passes every `x > tol` range check, and reached eigensolve
        m = np.zeros((2, 2))
        m[at] = m[at[::-1]] = entry
        with pytest.raises(ValueError, match="finite"):
            WeightedCompatibleMatrix(path_graph(2), m)

    def test_diagonal_weights_allowed(self):
        m = np.diag([0.5, -0.5])
        w = WeightedCompatibleMatrix(matching_graph(1), m + np.array([[0, 1], [1, 0]]) * 0.25)
        assert w.matrix[0, 0] == 0.5

    def test_from_text_round_trip(self):
        w = WeightedCompatibleMatrix.from_text(double_matching_join(), JOIN_WEIGHTS_TEXT)
        assert w.matrix[0, 6] == -0.99

    def test_from_text_errors(self):
        g = path_graph(2)
        with pytest.raises(ValueError):
            WeightedCompatibleMatrix.from_text(g, "")
        with pytest.raises(ValueError):
            WeightedCompatibleMatrix.from_text(g, "2\n0 1\n")
        with pytest.raises(ValueError):
            WeightedCompatibleMatrix.from_text(g, "2\n0 1 0\n1 0 0\n")
        with pytest.raises(ValueError):
            WeightedCompatibleMatrix.from_text(g, "2\n0 x\nx 0\n")


class TestInertia:
    def test_weighted_join_instance(self):
        # hand-tuned weights certify alpha^1 <= 4 on the 8-vertex double join
        w = WeightedCompatibleMatrix.from_text(double_matching_join(), JOIN_WEIGHTS_TEXT)
        vals = sorted(w.spectrum().values)
        expected = [-2.61434, -2.36510, -1.50854, -1.00001, -0.27300,
                    1.16723, 2.57562, 4.01815]
        assert all(abs(a - b) < 1e-5 for a, b in zip(vals, expected))
        assert inertia_counts(w, 1) == (3, 4)
        assert inertia_alpha_bound(w, 1) == 4
        assert inertia_chromatic_bound(w, 1) == 2
        # and the certified bound is attained by the exact solver
        assert chromatic_improper(double_matching_join(), 1).value == 2
        assert alpha_d(double_matching_join(), 1).value == 4

    def test_weights_sharpen_alpha_bound(self):
        # the plain adjacency matrix only certifies alpha^1 <= 7 on this graph
        g = double_matching_join()
        assert inertia_alpha_bound(g, 1) == 7

    def test_strict_margin_at_threshold(self):
        # C4 spectrum is {2, 0, 0, -2}: values equal to +-d never count
        above, below = inertia_counts(cycle_graph(4), 2)
        assert (above, below) == (0, 0)
        above, below = inertia_counts(cycle_graph(4), 0)
        assert (above, below) == (1, 1)

    def test_zero_matrix(self):
        assert inertia_counts(empty_graph(4), 1) == (0, 0)

    def test_degenerate_bound_errors(self):
        # all eigenvalues escape [-d, d]: diagonal weights on an edgeless graph
        w = WeightedCompatibleMatrix(empty_graph(2), np.diag([0.5, 0.5]))
        with pytest.raises(ArithmeticError):
            inertia_chromatic_bound(w, 0)

    @given(graphs(min_n=1, max_n=8), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_alpha_bound_sound(self, g, d):
        assert inertia_alpha_bound(g, d) >= alpha_d(g, d).value

    @given(graphs(min_n=1, max_n=10), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_plain_graph_matches_explicit_adjacency_weights(self, g, d):
        # a plain graph takes the memoised spectrum() path, explicit weights
        # their own eigensolve: both must give the same inertia values
        w = WeightedCompatibleMatrix(g, graph_matrix(g))
        assert inertia_counts(g, d) == inertia_counts(w, d)
        assert inertia_chromatic_bound(g, d) == inertia_chromatic_bound(w, d)
        assert inertia_alpha_bound(g, d) == inertia_alpha_bound(w, d)


class TestWocjanElphick:
    @given(graphs(min_n=2, max_n=8), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_m_one_adjacency_equals_hoffman(self, g, d):
        if g.edge_count == 0:
            return
        we = wocjan_elphick(g, d, 1)
        if we.adjacency_sum is not None:
            assert abs(we.adjacency_sum - hoffman_bilu(g, d)) < 1e-9

    @given(graphs(min_n=2, max_n=7, connected=True), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_product_closed_forms(self, g, d):
        # m=1 on the blown-up product: the Laplacian-denominator bound becomes
        # 1 + lam1/(mu1 - lam1) of the base graph, the signless one
        # 1 + lam1/(lam1 + mu1 - theta1)
        if g.edge_count == 0:
            return
        lam1 = spectrum(g).largest
        mu1 = spectrum(g, MatrixKind.LAPLACIAN).largest
        th1 = spectrum(g, MatrixKind.SIGNLESS_LAPLACIAN).largest
        prod = strong_product(g, complete_graph(d + 1))
        we = wocjan_elphick(prod, d, 1)
        if mu1 - lam1 > 1e-9:
            assert abs(we.laplacian_sum - (1 + lam1 / (mu1 - lam1))) < 1e-7
        if lam1 + mu1 - th1 > 1e-9:
            assert abs(we.signless_sum - (1 + lam1 / (lam1 + mu1 - th1))) < 1e-7

    def test_reversed_variant_transfer_condition(self):
        # the reversed signless bound transfers to the product exactly when
        # theta_n <= min degree - 1; a K5 with a pendant vertex violates that
        pendant = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2),
                                       (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
                                       (4, 5)])
        th_n = spectrum(pendant, MatrixKind.SIGNLESS_LAPLACIAN).smallest
        assert th_n > pendant.min_degree() - 1
        for g in (cycle_graph(5), petersen_graph(), complete_graph(4)):
            th_n = spectrum(g, MatrixKind.SIGNLESS_LAPLACIAN).smallest
            assert th_n <= g.min_degree() - 1 + 1e-9

    def test_vacuous_denominator_is_none(self):
        # at d=0 and m=n the adjacency denominator is minus the whole trace,
        # which is exactly zero: the bound carries no information
        we = wocjan_elphick(cycle_graph(4), 0, 4)
        assert we.adjacency_sum is None
        assert we.laplacian_sum is not None

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            wocjan_elphick(path_graph(3), 1, 0)
        with pytest.raises(ValueError):
            wocjan_elphick(path_graph(3), 1, 4)


class TestSoundness:
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_all_lower_bounds_below_exact(self, d, connected_catalogue):
        # exhaustive over connected graphs up to 6 vertices
        for n in range(2, 7):
            for g in connected_catalogue[n]:
                exact = chromatic_improper(g, d).value
                report = bound_report(g, d)
                for entry in report.entries:
                    if entry.ceiling is None:
                        continue
                    if entry.kind == "lower":
                        assert entry.ceiling <= exact, (g.adj, entry)
                    else:
                        assert entry.ceiling >= exact
                assert report.best_lower <= exact


class TestBoundReport:
    def test_structure(self):
        rep = bound_report(petersen_graph(), 0, m_max=2)
        names = [e.name for e in rep.entries]
        assert names.count("wocjan_adjacency") == 2
        assert "hoffman_bilu" in names and "clique" in names
        assert rep.best_lower >= 3  # chi(Petersen) = 3 and hoffman gives 2.5 -> 3
        payload = rep.to_json()
        assert payload["n"] == 10 and len(payload["entries"]) == len(rep.entries)

    def test_edgeless_vacuous(self):
        rep = bound_report(empty_graph(3), 1)
        spectral = [e for e in rep.entries if e.name.startswith(("hoffman", "wocjan"))]
        assert all(e.value is None for e in spectral)
        assert rep.best_lower == 1

    def test_supplied_weights_included(self):
        w = WeightedCompatibleMatrix.from_text(double_matching_join(), JOIN_WEIGHTS_TEXT)
        rep = bound_report(double_matching_join(), 1, weights=w)
        by_name = {e.name: e for e in rep.entries}
        assert by_name["inertia_supplied"].ceiling == 2
        assert rep.best_lower == 2

    def test_rejects_foreign_weights(self):
        w = WeightedCompatibleMatrix.adjacency(path_graph(3))
        with pytest.raises(ValueError):
            bound_report(path_graph(4), 0, weights=w)

    def test_combinatorial_values(self):
        lower, upper = combinatorial_bounds(petersen_graph(), 1)
        assert abs(lower - 1.0) < 1e-9  # omega = 2, d + 1 = 2
        assert upper == 2  # ceil((3 + 1) / 2)

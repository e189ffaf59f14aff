"""Eigensolver and spectrum table tests.

eigensolve (LAPACK via numpy.linalg.eigh) is cross-checked against the
independent cyclic Jacobi oracle on random symmetric matrices, and its
residual and orthonormality checks are shown to reject a corrupted
factorisation.  The derived quantities (cached graph spectra, Perron vectors,
product spectrum predictions) are pinned on hand-computed examples.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxchrom import spectra
from boxchrom.graphs import (
    Graph,
    bowtie_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    line_graph,
    paley9_graph,
    path_graph,
    petersen_graph,
    strong_product,
    disjoint_union,
)
from boxchrom.spectra import (
    MULT_TOL,
    MatrixKind,
    Spectrum,
    eigensolve,
    graph_matrix,
    perron_vector,
    spectrum,
)
from oracles import graphs, jacobi_eigh, product_spectrum_identity_check


@st.composite
def symmetric_matrices(draw, max_n=16):
    n = draw(st.integers(min_value=1, max_value=max_n))
    flat = draw(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=n * n,
            max_size=n * n,
        )
    )
    m = np.array(flat).reshape(n, n)
    return (m + m.T) / 2


class TestEigensolve:
    @given(symmetric_matrices())
    @settings(max_examples=60, deadline=None)
    def test_matches_jacobi_oracle(self, m):
        spec, vecs = eigensolve(m)
        expected = np.sort(jacobi_eigh(m)[0])[::-1]
        scale = 1.0 + float(np.abs(m).max())
        assert np.allclose(spec.values, expected, atol=1e-9 * scale)
        # eigensolve already certifies the factorisation; spot-check anyway
        assert np.allclose(m @ vecs, vecs * np.array(spec.values), atol=1e-8 * scale)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eigensolve(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite(self, entry):
        with pytest.raises(ValueError, match="non-finite"):
            eigensolve(np.array([[0.0, entry], [entry, 0.0]]))

    @pytest.mark.parametrize("corrupt", ["values", "vectors"])
    def test_nan_factorisation_fails_the_residual_check(self, monkeypatch, corrupt):
        # every check reads `not err <= tol`, which NaN fails
        real_eigh = np.linalg.eigh

        def poisoned(m):
            w, v = real_eigh(m)
            if corrupt == "values":
                return np.full_like(w, np.nan), v
            return w, np.full_like(v, np.nan)
        monkeypatch.setattr("boxchrom.spectra.np.linalg.eigh", poisoned)
        with pytest.raises(ArithmeticError, match="residual"):
            eigensolve(graph_matrix(cycle_graph(5)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigensolve(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            eigensolve(np.zeros((0, 0)))

    def test_descending_order(self):
        spec, _ = eigensolve(np.diag([3.0, -1.0, 7.0]))
        assert spec.values == (7.0, 3.0, -1.0)

    def test_rejects_perturbed_eigenvectors(self, monkeypatch):
        real_eigh = np.linalg.eigh

        def perturbed(m):
            w, v = real_eigh(m)
            return w, v + 1e-6
        monkeypatch.setattr("boxchrom.spectra.np.linalg.eigh", perturbed)
        with pytest.raises(ArithmeticError, match="residual"):
            eigensolve(graph_matrix(cycle_graph(5)))

    def test_rejects_non_orthonormal_eigenvectors(self, monkeypatch):
        # an exact eigenpair residual with one eigenvector scaled away from unit length
        real_eigh = np.linalg.eigh

        def scaled(m):
            w, v = real_eigh(m)
            v = v.copy()
            v[:, 0] *= 2.0
            return w, v
        monkeypatch.setattr("boxchrom.spectra.np.linalg.eigh", scaled)
        with pytest.raises(ArithmeticError, match="orthonormal"):
            eigensolve(np.diag([3.0, -1.0, 7.0]))


class TestSpectrumObject:
    def test_groups_and_multiplicity(self):
        s = Spectrum((2.0 + 1e-9, 2.0, 0.0, -1.0, -1.0, -1.0))
        g = s.groups()
        assert [m for _, m in g] == [2, 1, 3]
        assert s.multiplicity(-1.0) == 3
        assert s.multiplicity(5.0) == 0
        assert abs(s.largest - 2.0) < 1e-8
        assert s.smallest == -1.0

    def test_requires_descending(self):
        with pytest.raises(ValueError):
            Spectrum((0.0, 1.0))

    @pytest.mark.parametrize("values", [(1.0, math.nan), (math.nan, 0.0)])
    def test_rejects_nan(self, values):
        with pytest.raises(ValueError):
            Spectrum(values)


class TestGraphSpectra:
    def test_complete_graph(self):
        s = spectrum(complete_graph(5))
        assert abs(s.largest - 4.0) < 1e-9
        assert s.multiplicity(-1.0) == 4

    def test_cycle_four(self):
        s = spectrum(cycle_graph(4))
        assert [round(v, 9) for v in s.values] == [2.0, 0.0, 0.0, -2.0]

    def test_petersen(self):
        s = spectrum(petersen_graph())
        assert s.multiplicity(3.0) == 1
        assert s.multiplicity(1.0) == 5
        assert s.multiplicity(-2.0) == 4

    def test_paley9(self):
        s = spectrum(paley9_graph())
        assert s.multiplicity(4.0) == 1
        assert s.multiplicity(1.0) == 4
        assert s.multiplicity(-2.0) == 4

    def test_line_graph_of_paley9(self):
        s = spectrum(line_graph(paley9_graph()))
        assert s.multiplicity(6.0) == 1
        assert s.multiplicity(3.0) == 4
        assert s.multiplicity(0.0) == 4
        assert s.multiplicity(-2.0) == 9

    def test_bowtie_pinned(self):
        s = spectrum(bowtie_graph())
        got = [round(v, 6) for v in s.values]
        # (1 + sqrt(17)) / 2, 1, -1 twice, (1 - sqrt(17)) / 2
        assert got == [2.561553, 1.0, -1.0, -1.0, -1.561553]

    def test_bipartite_symmetry(self):
        s = spectrum(complete_bipartite(2, 3))
        assert abs(s.largest - math.sqrt(6)) < 1e-9
        assert abs(s.smallest + math.sqrt(6)) < 1e-9

    @given(graphs(min_n=1, max_n=10))
    @settings(max_examples=40, deadline=None)
    def test_trace_identities(self, g):
        adj = spectrum(g, MatrixKind.ADJACENCY)
        lap = spectrum(g, MatrixKind.LAPLACIAN)
        sig = spectrum(g, MatrixKind.SIGNLESS_LAPLACIAN)
        assert abs(sum(adj.values)) < 1e-8
        assert abs(sum(lap.values) - 2 * g.edge_count) < 1e-8
        assert abs(sum(sig.values) - 2 * g.edge_count) < 1e-8
        assert abs(lap.smallest) < 1e-8
        assert sig.smallest > -1e-8

    def test_empty_graph_rejected(self):
        from boxchrom.graphs import Graph

        with pytest.raises(ValueError):
            spectrum(Graph(0, ()))

    def test_cache_returns_equal_results(self):
        a = spectrum(cycle_graph(5))
        b = spectrum(cycle_graph(5))
        assert a.values == b.values


class TestPerronVector:
    def test_path_three(self):
        v = perron_vector(path_graph(3))
        assert abs(v[1] - math.sqrt(2) * v[0]) < 1e-9
        assert abs(v[0] - v[2]) < 1e-9

    @given(graphs(min_n=2, max_n=9, connected=True))
    @settings(max_examples=30, deadline=None)
    def test_positive_unit_eigenvector(self, g):
        v = perron_vector(g)
        assert np.all(v > 0)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9
        a = graph_matrix(g)
        lam = spectrum(g).largest
        assert np.allclose(a @ v, lam * v, atol=1e-8)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            perron_vector(disjoint_union(complete_graph(2), complete_graph(2)))

    @given(graphs(min_n=1, max_n=7, connected=True), st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_product_vector_matches_direct(self, g, t):
        # the copy has no provenance, so its vector is diagonalised
        prod = strong_product(g, complete_graph(t))
        direct = perron_vector(Graph(prod.n, prod.adj))
        assert np.allclose(perron_vector(prod), direct, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("g", [paley9_graph(), petersen_graph(), cycle_graph(7)],
                             ids=["paley9", "petersen", "c7"])
    def test_products_diagonalise_only_their_base(self, g, monkeypatch):
        shapes = []

        def counting(m):
            shapes.append(m.shape[0])
            return eigensolve(m)

        monkeypatch.setattr(spectra, "eigensolve", counting)
        spectra._spectrum_cached.cache_clear()
        for t in range(1, 5):
            prod = strong_product(g, complete_graph(t))
            v = perron_vector(prod)
            direct = eigensolve(graph_matrix(prod))[1][:, 0]
            assert np.allclose(v, np.abs(direct), rtol=0, atol=1e-12)
        assert shapes == [g.n]

    @pytest.mark.parametrize("g", [paley9_graph(), petersen_graph()], ids=["paley9", "petersen"])
    def test_spectrum_and_vector_share_one_eigensolve(self, g, monkeypatch):
        shapes = []

        def counting(m):
            shapes.append(m.shape[0])
            return eigensolve(m)

        monkeypatch.setattr(spectra, "eigensolve", counting)
        for cached in vars(spectra).values():  # every memo of the module, however many
            getattr(cached, "cache_clear", lambda: None)()
        s = spectrum(g)
        v = perron_vector(g)
        assert shapes == [g.n]
        assert np.allclose(graph_matrix(g) @ v, s.largest * v, rtol=0, atol=1e-9)
        # each call hands out a new array
        v[0] = -1.0
        assert perron_vector(g)[0] > 0
        assert shapes == [g.n]


class TestProductSpectrumIdentity:
    @given(
        graphs(min_n=1, max_n=8),
        st.integers(min_value=1, max_value=4),
        st.sampled_from(list(MatrixKind)),
    )
    @settings(max_examples=40, deadline=None)
    def test_closed_form_matches_direct(self, g, k, kind):
        assert product_spectrum_identity_check(g, k, kind)
        # the copy has no provenance, so its spectrum is diagonalised
        prod = strong_product(g, complete_graph(k))
        copy = Graph(prod.n, prod.adj)
        assert copy == prod and hash(copy) == hash(prod)
        assert np.allclose(spectrum(prod, kind).values, spectrum(copy, kind).values,
                           rtol=0, atol=MULT_TOL)

    def test_products_diagonalise_only_their_base(self, monkeypatch):
        shapes = []

        def counting(m):
            shapes.append(m.shape[0])
            return eigensolve(m)

        monkeypatch.setattr(spectra, "eigensolve", counting)
        spectra._spectrum_cached.cache_clear()
        g = cycle_graph(5)
        for kind in MatrixKind:
            spectrum(strong_product(g, complete_graph(3)), kind)
        assert shapes == [5, 5, 5]
        # a non-complete factor leaves no provenance: the product is diagonalised
        spectrum(strong_product(g, path_graph(3)))
        assert shapes == [5, 5, 5, 15]

    def test_direct_instance(self):
        # C5 x K3 adjacency spectrum: {3*lam + 2} plus -1 ten times
        g = cycle_graph(5)
        prod = strong_product(g, complete_graph(3))
        s = spectrum(prod)
        predicted = sorted(
            [3 * lam + 2 for lam in spectrum(g).values] + [-1.0] * 10, reverse=True
        )
        assert np.allclose(s.values, predicted, atol=1e-8)

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            product_spectrum_identity_check(cycle_graph(4), 0)

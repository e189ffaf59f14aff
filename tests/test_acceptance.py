"""End-to-end acceptance checks.

Eleven numbered criteria, each with a stated numeric tolerance and a wall
clock budget.  Every test prints a single [PASS]/[FAIL] line through the
capture-disabled channel so the verdicts survive into piped output.

Criterion 11 checks a tight product case: the strong product of the four-cycle
with K_{2,2} at improperness 2.  Both factors have spectrum {2, 0, 0, -2}, and
strong-product eigenvalues are (1 + lambda)(1 + mu) - 1, so lambda_1 = 8 and
lambda_n = -4.  The ratio bound is (8 - (-4)) / (2 - (-4)) = 12/6 = 2.0; it is
attained by a 2-improper 2-colouring and every equality condition holds.  An
earlier reference value of 1.2 was a sign slip in the denominator (12/10).
"""

import time

import numpy as np

from boxchrom.bounds import (
    WeightedCompatibleMatrix,
    bound_report,
    hoffman_bilu,
    inertia_chromatic_bound,
    inertia_counts,
    wocjan_elphick,
)
from boxchrom.cli import SweepSpec, run_sweep
from boxchrom.colouring import Colouring, Mode, check_clustered, check_improper
from boxchrom.graphs import (
    Graph,
    bowtie_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    join,
    line_graph,
    matching_graph,
    paley9_graph,
    strong_product,
)
from boxchrom.hoffman import diagnose_hoffman
from boxchrom.smallgraphs import connected_graphs, random_connected_graph
from boxchrom.solvers import (
    chromatic_clustered,
    chromatic_improper,
    fractional_chromatic,
)
from boxchrom.spectra import MatrixKind, spectrum
from boxchrom.transfer import descend
from oracles import lexicographic_product

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


def _random_corpus(size=200):
    """Deterministic corpus of random connected graphs on 2..8 vertices."""
    return [
        random_connected_graph(2 + s % 7, (0.3, 0.5, 0.7)[s % 3], s)
        for s in range(size)
    ]


def _verdict(capsys, num, budget, text, body):
    t0 = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - t0
        assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"
    except BaseException:
        with capsys.disabled():
            print(f"\n[FAIL] criterion {num:2d}: {text}")
        raise
    with capsys.disabled():
        print(f"\n[PASS] criterion {num:2d} ({elapsed:7.2f}s): {text}")


def test_01_bowtie_spectrum(capsys):
    def body():
        values = spectrum(bowtie_graph()).values
        expected = (2.561553, 1.0, -1.0, -1.0, -1.561553)
        assert len(values) == 5
        for got, want in zip(values, expected):
            assert abs(got - want) < 1e-5, (got, want)

    _verdict(capsys, 1, 1.0, "bowtie adjacency spectrum to six decimals", body)


def test_02_weighted_inertia_join(capsys):
    def body():
        g = join(matching_graph(2), matching_graph(2))
        w = WeightedCompatibleMatrix.from_text(g, JOIN_WEIGHTS_TEXT)
        values = w.spectrum().values
        expected = (4.01815, 2.57562, 1.16723, -0.27300,
                    -1.00001, -1.50854, -2.36510, -2.61434)
        assert len(values) == 8
        for got, want in zip(values, expected):
            assert abs(got - want) < 1e-5, (got, want)
        assert inertia_counts(w, 1)[1] == 4
        assert inertia_chromatic_bound(w, 1) == 2
        assert chromatic_improper(g, 1).value == 2

    _verdict(capsys, 2, 5.0,
             "weighted compatible matrix on the double-matching join", body)


def test_03_line_graph_of_paley9(capsys):
    def body():
        g = line_graph(paley9_graph())
        groups = spectrum(g).groups()
        expected = ((6.0, 1), (3.0, 4), (0.0, 4), (-2.0, 9))
        assert len(groups) == 4
        for (got, gm), (want, wm) in zip(groups, expected):
            assert abs(got - want) < 1e-8 and gm == wm, (got, gm, want, wm)
        assert all(abs(v + 1.0) > 1e-6 for v in spectrum(g).values)
        assert abs(hoffman_bilu(g, 2) - 2.0) < 1e-8
        res = chromatic_clustered(g, 3)
        assert res.value == 2
        assert check_clustered(g, res.witness, 3) is None

    _verdict(capsys, 3, 30.0,
             "line graph of Paley(9): spectrum, ratio bound, clustered optimum",
             body)


def test_04_hoffman_product_identity(capsys):
    def body():
        for g in _random_corpus():
            spec = spectrum(g)
            expected = 1 - spec.largest / spec.smallest
            for d in (1, 2, 3):
                prod = strong_product(g, complete_graph(d + 1))
                assert abs(hoffman_bilu(prod, d) - expected) <= 1e-7
                # the same bound from a diagonalised copy without provenance
                copy = Graph(prod.n, prod.adj)
                assert abs(hoffman_bilu(copy, d) - expected) <= 1e-7
                assert np.allclose(spectrum(prod).values, spectrum(copy).values,
                                   rtol=0, atol=1e-7)

    _verdict(capsys, 4, 60.0,
             "ratio bound on 200 random clique blow-ups matches the base formula",
             body)


def test_05_eigenvalue_sum_consistency(capsys):
    def body():
        for g in _random_corpus():
            lam1 = spectrum(g).largest
            mu1 = spectrum(g, MatrixKind.LAPLACIAN).largest
            th1 = spectrum(g, MatrixKind.SIGNLESS_LAPLACIAN).largest
            for d in (1, 2, 3):
                we = wocjan_elphick(g, d, 1)
                assert we.adjacency_sum is not None
                assert abs(we.adjacency_sum - hoffman_bilu(g, d)) <= 1e-9
                prod = strong_product(g, complete_graph(d + 1))
                wep = wocjan_elphick(prod, d, 1)
                if mu1 - lam1 > 1e-9:
                    assert abs(wep.laplacian_sum - (1 + lam1 / (mu1 - lam1))) <= 1e-7
                if lam1 + mu1 - th1 > 1e-9:
                    assert abs(wep.signless_sum
                               - (1 + lam1 / (lam1 + mu1 - th1))) <= 1e-7

    _verdict(capsys, 5, 60.0,
             "single-eigenvalue sums agree with the ratio bound and product forms",
             body)


def test_06_bound_soundness_sweep(capsys):
    def body():
        violations = []
        for n in range(1, 7):
            for g in connected_graphs(n):
                for d in (0, 1, 2):
                    exact = chromatic_improper(g, d).value
                    for e in bound_report(g, d).entries:
                        if e.ceiling is None:
                            continue
                        ok = (e.ceiling <= exact if e.kind == "lower"
                              else e.ceiling >= exact)
                        if not ok:
                            violations.append((n, d, e.name, e.ceiling, exact))
        assert not violations, violations

    _verdict(capsys, 6, 600.0,
             "all bounds sound on every connected graph up to 6 vertices", body)


def test_07_descent_correctness(capsys):
    def body():
        for n in range(1, 7):
            for g in connected_graphs(n):
                chi = chromatic_improper(g, 0).value
                for t in (2, 3):
                    prod = strong_product(g, complete_graph(t))
                    res = chromatic_clustered(prod, t)
                    assert res.value == chi, (n, t, res.value, chi)
                    out = descend(g, res.witness, t, 1)
                    assert check_improper(g, out.colouring, 0) is None
                    assert len(set(out.colouring.colours)) == chi

    _verdict(capsys, 7, 900.0,
             "clustered product optimum always descends to a proper colouring",
             body)


def test_08_conjecture_sweep(capsys):
    def body():
        graphs = tuple(g for n in range(1, 6) for g in connected_graphs(n))
        payload = run_sweep(SweepSpec("acceptance", graphs, (1, 2), 60.0, 1))
        assert payload["instances"] == 62
        assert payload["counterexamples"] == 0
        assert payload["timeouts"] == 0

    _verdict(capsys, 8, 1200.0,
             "no counterexamples over all connected graphs up to 5 vertices",
             body)


def test_09_fractional_equalities(capsys):
    def body():
        assert abs(float(fractional_chromatic(cycle_graph(5)).value) - 2.5) <= 1e-6
        c5k2 = strong_product(cycle_graph(5), complete_graph(2))
        assert abs(float(fractional_chromatic(c5k2, Mode.improper(1)).value)
                   - 2.5) <= 1e-6
        c4k2 = strong_product(cycle_graph(4), complete_graph(2))
        clus = float(fractional_chromatic(c4k2, Mode.clustered(2)).value)
        base = float(fractional_chromatic(cycle_graph(4)).value)
        assert abs(clus - 2.0) <= 1e-6 and abs(base - 2.0) <= 1e-6

    _verdict(capsys, 9, 60.0,
             "fractional values transfer across the strong product", body)


def test_10_lexicographic_blowup(capsys):
    def body():
        assert chromatic_improper(
            strong_product(complete_graph(6), complete_graph(3)), 2).value == 6
        lex = lexicographic_product(complete_graph(6), empty_graph(3))
        cols = []
        for v in range(lex.n):
            i, j = divmod(v, 3)
            cols.append(i // 2 + 1 if j < 2 else (4 if i < 3 else 5))
        witness = Colouring.from_list(cols)
        assert check_improper(lex, witness, 2) is None
        assert len(set(cols)) == 5

    _verdict(capsys, 10, 300.0,
             "empty-blow-up of K6 beats the clique blow-up by one colour", body)


def test_11_equality_diagnostics(capsys):
    def body():
        # two Hamilton cycles of K5 partition its edges; each class induces a
        # 2-regular subgraph of the line graph, a tight 2-improper 2-colouring
        k5_edges = complete_graph(5).edges()
        first_cycle = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
        cols = [1 if e in first_cycle else 2 for e in k5_edges]
        lk5 = line_graph(complete_graph(5))
        diag = diagnose_hoffman(lk5, 2, Colouring.from_list(cols))
        assert diag.is_tight
        assert diag.multiplicity_sufficient
        assert diag.classes_d_regular and diag.weight_regular
        assert diag.equitable and diag.cross_degrees_match

        h = strong_product(cycle_graph(4), complete_bipartite(2, 2))
        res = chromatic_improper(h, 2)
        assert res.value == 2
        diag2 = diagnose_hoffman(h, 2, res.witness)
        # eigenvalues of H straight from its edge list, independent of the
        # spectra module: lambda_1 = 8 and lambda_n = -4
        adj = np.zeros((h.n, h.n))
        for u, v in h.edges():
            adj[u, v] = adj[v, u] = 1.0
        eig = np.linalg.eigh(adj)[0]
        lam1, lamn = float(eig[-1]), float(eig[0])
        assert abs(lam1 - 8.0) <= 1e-6 and abs(lamn + 4.0) <= 1e-6, (lam1, lamn)
        expected = (lam1 - lamn) / (2 - lamn)
        assert abs(diag2.bound - expected) <= 1e-6, (diag2.bound, expected)
        assert abs(diag2.bound - 2.0) <= 1e-6, diag2.bound
        assert diag2.is_tight is True
        assert abs(diag2.smallest_eigenvalue + 4.0) <= 1e-6
        assert diag2.smallest_multiplicity >= 1
        assert diag2.all_equality_conditions()

    _verdict(capsys, 11, 30.0,
             "equality diagnostics on the line graph of K5 and a product case",
             body)

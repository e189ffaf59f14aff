"""Exact solver tests.

Every optimiser is checked against the exponential brute-force oracles in
oracles.py on random small graphs, then against pinned hand-verified values,
structural identities between the invariants, and the failure paths (caps,
timeouts, bad witnesses).
"""

import sys
from fractions import Fraction
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from boxchrom import solvers
from boxchrom.colouring import Colouring, Mode, check_bfold, check_clustered, check_improper
from boxchrom.graphs import (
    Graph,
    _relabel,
    bowtie_graph,
    complement,
    parse_graph6,
    complete_graph,
    cycle_graph,
    empty_graph,
    iter_bits,
    matching_graph,
    path_graph,
    petersen_graph,
    strong_product,
)
from boxchrom.smallgraphs import random_connected_graph, random_graph
from boxchrom.solvers import (
    SolverCapError,
    Timeout,
    WeightedSet,
    _branch_order,
    _Clock,
    _admissible_walk,
    _finished_clique,
    _lower_bound,
    _maximal_admissible_sets,
    _narrowing,
    _search,
    _simplex_packing,
    alpha_d,
    chromatic_bfold,
    chromatic_clustered,
    chromatic_improper,
    clique_number,
    fractional_chromatic,
)
from oracles import (
    _admission,
    admissible,
    brute_alpha_d,
    brute_bfold,
    brute_chromatic_clustered,
    brute_chromatic_improper,
    brute_clique,
    graphs,
    lexicographic_product,
    loop_simplex_packing,
    maximal_admissible_sets,
    recursive_alpha,
    recursive_clique,
    recursive_search,
    twin_graphs,
)

# graphs with and without twin classes, for the twin-pruned searches
SEARCH_INPUTS = st.one_of(graphs(max_n=6), twin_graphs())


class TestChromaticImproper:
    @given(SEARCH_INPUTS, st.integers(min_value=0, max_value=2))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g, d):
        res = chromatic_improper(g, d)
        assert res.status == "optimal"
        assert res.value == brute_chromatic_improper(g, d)
        if g.n:
            assert check_improper(g, res.witness, d) is None
            assert res.witness.num_colours == res.value

    def test_pinned_values(self):
        assert chromatic_improper(bowtie_graph(), 1).value == 2
        assert chromatic_improper(petersen_graph(), 0).value == 3
        assert chromatic_improper(complete_graph(18), 2).value == 6
        assert chromatic_improper(cycle_graph(5), 1).value == 2

    def test_lower_bound_certificate(self):
        res = chromatic_improper(complete_graph(6), 0)
        assert res.value == 6
        assert res.lower_bound == 6 and res.lower_bound_source == "clique"

    def test_rejects_negative_d(self):
        with pytest.raises(ValueError):
            chromatic_improper(path_graph(2), -1)

    def test_cap(self):
        with pytest.raises(SolverCapError):
            chromatic_improper(matching_graph(25), 0)

    def test_empty_graph(self):
        res = chromatic_improper(Graph(0, ()), 0)
        assert res.value == 0

    def test_upper_witness_must_be_feasible(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            chromatic_improper(g, 0, upper_witness=Colouring((1, 1, 2)))

    def test_upper_witness_accepted(self):
        g = cycle_graph(5)
        res = chromatic_improper(g, 0, upper_witness=Colouring((1, 2, 1, 2, 3)))
        assert res.value == 3

    def test_timeout_reports_bounds(self):
        # the greedy incumbent survives the timeout as witness and upper bound
        g = random_connected_graph(20, 0.6, 11)
        res = chromatic_improper(g, 2, timeout=1e-4)
        assert res.status == "timeout"
        assert res.value is None
        assert check_improper(g, res.witness, 2) is None
        assert res.lower_bound >= 1 and res.upper_bound == res.witness.num_colours <= g.n
        assert res.lower_bound < res.upper_bound

    def test_greedy_incumbent_meeting_the_lower_bound_ends_the_solve(self):
        # the ratio bound gives 3 and the greedy pass 3 colours, so no search
        # runs: every vertex tries at most 3 colours
        res = chromatic_improper(petersen_graph(), 0)
        assert (res.value, res.lower_bound_source, res.upper_bound) == (3, "hoffman", 3)
        assert res.nodes <= 3 * 10
        assert check_improper(petersen_graph(), res.witness, 0) is None


class TestChromaticClustered:
    @given(SEARCH_INPUTS, st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g, t):
        res = chromatic_clustered(g, t)
        assert res.status == "optimal"
        assert res.value == brute_chromatic_clustered(g, t)
        if g.n:
            assert check_clustered(g, res.witness, t) is None

    def test_pinned_values(self):
        assert chromatic_clustered(petersen_graph(), 3).value == 2
        assert chromatic_clustered(cycle_graph(5), 1).value == 3
        prod = strong_product(cycle_graph(5), complete_graph(2))
        assert chromatic_clustered(prod, 2).value == 3

    @given(st.one_of(graphs(max_n=9), st.integers(0, 4).map(lambda s: random_graph(24, 0.5, s))))
    @settings(max_examples=40, deadline=None)
    def test_t_two_is_one_improper(self, g):
        # max degree <= 1 iff every component has <= 2 vertices, so the kernel
        # admits clustered(2) by the improper(1) rule and the searches coincide
        # from the same lower bound, so the payloads agree
        clustered = chromatic_clustered(g, 2).to_json()
        improper = chromatic_improper(g, 1).to_json()
        del clustered["millis"], improper["millis"]
        assert clustered == improper
        assert check_clustered(g, Colouring(tuple(improper["witness"])), 2) is None

    def test_t_one_is_proper(self):
        # both admit by the proper rule and are bounded by the clique and the
        # ratio bound at d = 0 (Petersen: 3 > omega = 2), so the payloads agree
        extra = [petersen_graph(), cycle_graph(5), empty_graph(4)]
        for g in [random_connected_graph(7, 0.5, seed) for seed in range(6)] + extra:
            clustered = chromatic_clustered(g, 1).to_json()
            proper = chromatic_improper(g, 0).to_json()
            del clustered["millis"], proper["millis"]
            assert clustered == proper

    @given(graphs(max_n=9, connected=True), st.integers(1, 3), st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_t(self, g, t, extra):
        # allowing larger components can only reduce the palette
        lo = chromatic_clustered(g, t).value
        hi = chromatic_clustered(g, t + extra).value
        assert hi <= lo

    def test_rejects_t_zero(self):
        with pytest.raises(ValueError):
            chromatic_clustered(path_graph(2), 0)


ALL_MODES = [Mode.proper(), Mode.improper(0), Mode.improper(1), Mode.improper(2),
             Mode.clustered(1), Mode.clustered(2), Mode.clustered(3), Mode.clustered(4)]


class TestAdmission:
    """The one-vertex admission oracle decides as the mode's definition, and ``_narrowing`` as it."""

    @given(SEARCH_INPUTS, st.sampled_from(ALL_MODES), st.data())
    @settings(max_examples=80, deadline=None)
    def test_admits_decides_as_the_oracle(self, g, mode, data):
        # grow and shrink one class under `mode` the way the search does: a vertex
        # joins when admitted, and the last to join leaves first.  At each step every
        # mode whose rule the class obeys is asked about every vertex outside it.
        admits = {m: _admission(g.adj, m) for m in ALL_MODES}
        mask = 0
        joined = []
        for _ in range(data.draw(st.integers(0, 4 * g.n))):
            outside = [v for v in range(g.n) if not mask >> v & 1]
            if joined and (not outside or data.draw(st.integers(0, 3)) == 0):
                mask ^= 1 << joined.pop()
                continue
            for m in ALL_MODES:
                if admissible(g, mask, m):
                    for u in outside:
                        assert admits[m](u, mask) == admissible(g, mask | 1 << u, m)
            v = data.draw(st.sampled_from(outside))
            if admits[mode](v, mask):
                mask |= 1 << v
                joined.append(v)
        assert admissible(g, mask, mode)

    @given(st.one_of(graphs(max_n=7), twin_graphs()))
    @settings(max_examples=60, deadline=None)
    def test_narrowing_decides_as_admission_vertex_by_vertex(self, g):
        # every class of every mode, and every vertex u it admits: one narrowing
        # of the other vertices it admits keeps exactly those that the class with
        # u admits, asked one at a time.  Each vertex is decided on its own, so
        # the whole admitted set stands for every subset of it.
        for mode in ALL_MODES:
            admits = _admission(g.adj, mode)
            narrow = _narrowing(g.adj, mode)
            for mask in range(1 << g.n):
                if not admissible(g, mask, mode):
                    continue
                admitted = sum(1 << v for v in range(g.n) if not mask >> v & 1 and admits(v, mask))
                for u in iter_bits(admitted):
                    live = admitted ^ 1 << u
                    grown = mask | 1 << u
                    assert narrow(grown, u, live) == sum(1 << v for v in iter_bits(live)
                                                         if admits(v, grown))


class TestTwinPruning:
    """The twin floor must keep every feasible k feasible, at every k tried."""

    @given(SEARCH_INPUTS, st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_improper_search_decides_every_k(self, g, d):
        order, prev = _branch_order(g)
        adj, pos = _relabel(g.adj, order)
        value = brute_chromatic_improper(g, d)
        for k in range(1, value + 1):
            raw = _search(adj, k, Mode.improper(d), pos, prev, _Clock(None))
            assert (raw is None) == (k < value)
            if raw is not None:
                assert check_improper(g, Colouring(tuple(raw)), d) is None

    @given(SEARCH_INPUTS, st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_clustered_search_decides_every_k(self, g, t):
        order, prev = _branch_order(g)
        adj, pos = _relabel(g.adj, order)
        value = brute_chromatic_clustered(g, t)
        for k in range(1, value + 1):
            raw = _search(adj, k, Mode.clustered(t), pos, prev, _Clock(None))
            assert (raw is None) == (k < value)
            if raw is not None:
                assert check_clustered(g, Colouring(tuple(raw)), t) is None

    @given(twin_graphs())
    @settings(max_examples=30, deadline=None)
    def test_twin_classes_are_contiguous(self, g):
        def twins(u, w):
            return g.adj[u] & ~(1 << w) == g.adj[w] & ~(1 << u)

        order, prev = _branch_order(g)
        assert sorted(order) == list(range(g.n))
        position = {v: i for i, v in enumerate(order)}
        for u in range(g.n):
            block = sorted(position[w] for w in range(g.n) if twins(u, w))
            assert block == list(range(block[0], block[-1] + 1))
        for i, p in enumerate(prev):
            assert p == (i - 1 if i and twins(order[i], order[i - 1]) else -1)

    def test_twin_free_order_is_degree_then_index(self):
        g = petersen_graph()
        order, prev = _branch_order(g)
        assert order == list(range(10)) and prev == [-1] * 10
        g = path_graph(5)
        assert _branch_order(g) == ([1, 2, 3, 0, 4], [-1] * 5)

    def test_product_fibres_prune_the_search(self):
        # chi(FLr~w) = 5 is reached by no bound, so k = 4 is refuted by search;
        # without the twin floor each refutation took over 350,000 nodes
        prod = strong_product(parse_graph6("FLr~w"), complete_graph(3))
        improper = chromatic_improper(prod, 2)
        clustered = chromatic_clustered(prod, 3)
        assert improper.value == 5 and improper.lower_bound_source == "search"
        assert clustered.value == 5 and clustered.lower_bound_source == "search"
        assert improper.nodes == clustered.nodes == 2_848


KERNEL_MODES = [Mode.improper(0), Mode.improper(1), Mode.improper(2),
                Mode.clustered(2), Mode.clustered(3), Mode.clustered(4)]


@st.composite
def kernel_layouts(draw):
    """(graph, order, prev, step) as the three callers lay out the kernel's blocks.

    Twin blocks from ``_branch_order`` (the minimum-colour solves), singleton
    blocks in index order (the uniqueness count in ``hoffman``), and the fibres
    of G x K_b under a strict floor (``chromatic_bfold``).  The shuffled
    layout, a random order cut into random runs under either floor, is none of
    these: the kernel runs on the graph relabelled into that order and maps
    colours back, and a fault there shows only when the order is not the
    identity.
    """
    layout = draw(st.sampled_from(["twin", "singleton", "fibre", "shuffled"]))
    if layout == "fibre":
        base, b = draw(graphs(max_n=4)), draw(st.integers(1, 3))
        order = [v * b + i for v in _branch_order(base)[0] for i in range(b)]
        prev = [i - 1 if i % b else -1 for i in range(base.n * b)]
        return strong_product(base, complete_graph(b)), order, prev, 1
    g = draw(SEARCH_INPUTS)
    if layout == "singleton":
        return g, list(range(g.n)), [-1] * g.n, 0
    if layout == "shuffled":
        order = draw(st.permutations(range(g.n)))
        prev = [i - 1 if i and draw(st.booleans()) else -1 for i in range(g.n)]
        return g, order, prev, draw(st.integers(0, 1))
    return g, *_branch_order(g), 0


class TestExplicitStackKernel:
    """The loop kernel walks the recursive reference's tree node for node."""

    @given(kernel_layouts(), st.sampled_from(KERNEL_MODES), st.sampled_from([None, 1, 2, 3]))
    @settings(max_examples=80, deadline=None)
    def test_follows_the_recursive_reference(self, layout, mode, stop):
        g, order, prev, step = layout
        adj, pos = _relabel(g.adj, order)
        for k in range(1, g.n + 1):
            runs = []
            for search in (_search, recursive_search):
                calls = []

                def leaf(used, calls=calls):
                    calls.append(used)
                    return len(calls) == stop

                clock = _Clock(None)
                raw = search(adj, k, mode, pos, prev, clock, None if stop is None else leaf, step)
                runs.append((None if raw is None else list(raw), clock.nodes, calls))
            assert runs[0] == runs[1]

    def test_timeout_at_the_first_poll(self):
        # refuting k = 4 takes far more than one poll period; the deadline of
        # _Clock(0.0) has passed by the first poll, as under _Clock.tick
        g = random_graph(30, 0.5, 0)
        mode = Mode.clustered(3)
        order, prev = _branch_order(g)
        adj, pos = _relabel(g.adj, order)
        for search in (_search, recursive_search):
            clock = _Clock(0.0)
            with pytest.raises(Timeout):
                search(adj, 4, mode, pos, prev, clock)
            assert clock.nodes == _Clock.POLL == 2048

    def test_ladder_timeout_keeps_the_first_fit(self):
        g = random_graph(30, 0.5, 0)
        mode = Mode.clustered(3)
        order, prev = _branch_order(g)
        adj, pos = _relabel(g.adj, order)
        first = _Clock(None)
        raw = _search(adj, g.n, mode, pos, prev, first)
        res = chromatic_clustered(g, 3, timeout=0.0)
        assert res.status == "timeout" and res.value is None
        assert res.witness == Colouring(tuple(raw))
        assert check_clustered(g, res.witness, 3) is None
        assert (res.lower_bound, res.lower_bound_source) == _lower_bound(g, mode, 1)
        assert res.upper_bound == max(raw) > res.lower_bound
        assert res.nodes == (first.nodes // _Clock.POLL + 1) * _Clock.POLL


def mycielskian(g):
    n = g.n
    edges = [(n + v, 2 * n) for v in range(n)]
    for u, v in g.edges():
        edges += [(u, v), (u, n + v), (v, n + u)]
    return Graph.from_edges(2 * n + 1, edges)


class TestPinnedNodeCounts:
    """Search order is part of the output: these counts must not drift."""

    def test_mycielskian_of_grotzsch(self):
        res = chromatic_improper(mycielskian(mycielskian(cycle_graph(5))), 0)
        assert (res.value, res.nodes, res.lower_bound_source) == (5, 3_681, "search")

    def test_clustered_fold_of_c7(self):
        res = chromatic_bfold(cycle_graph(7), 2, Mode.clustered(2))
        assert (res.value, res.nodes) == (4, 83)

    def test_improper_fold_of_petersen(self):
        res = chromatic_bfold(petersen_graph(), 2, Mode.improper(1))
        assert (res.value, res.nodes) == (4, 94)

    def test_proper_3_fold_of_petersen(self):
        # the benchmark's fold solve; trying every colour set took 596,791 nodes
        res = chromatic_bfold(petersen_graph(), 3, Mode.proper())
        assert (res.value, res.nodes) == (8, 572)
        # the clique bound is 3 * 2 = 6; the search refuted 6 and 7
        assert (res.lower_bound, res.lower_bound_source) == (8, "search")

    def test_alpha_1_of_sparse_random_graph(self):
        res = alpha_d(random_graph(40, 0.25, 1), 1)
        assert (res.value, res.nodes) == (16, 37_777)

    def test_3_clustered_random_graph(self):
        # the benchmark's clustered solve: the one large t >= 3 search order
        res = chromatic_clustered(random_graph(30, 0.5, 0), 3)
        assert (res.value, res.nodes, res.lower_bound_source) == (5, 240_629, "search")
        assert res.witness.colours == (2, 4, 3, 5, 5, 3, 4, 1, 5, 4, 5, 4, 1, 1, 2, 2, 5, 3, 4, 3,
                                       4, 5, 2, 5, 3, 3, 3, 2, 3, 4)

    def test_1_improper_random_graph(self):
        res = chromatic_improper(random_graph(34, 0.5, 2), 1)
        assert (res.value, res.nodes, res.lower_bound_source) == (6, 27_454, "search")
        assert res.witness.colours == (3, 1, 5, 1, 3, 1, 6, 3, 2, 6, 4, 6, 4, 1, 4, 5, 4, 3, 2, 2,
                                       2, 5, 5, 4, 6, 1, 4, 6, 3, 5, 4, 5, 4, 6)


class TestAlphaAndClique:
    @given(graphs(max_n=7), st.integers(min_value=0, max_value=2))
    @settings(max_examples=60, deadline=None)
    def test_alpha_matches_brute_force(self, g, d):
        res = alpha_d(g, d)
        assert res.value == brute_alpha_d(g, d)
        if res.value:
            chosen = set(res.witness)
            assert all(
                sum(1 for u in g.neighbours(v) if u in chosen) <= d for v in chosen
            )

    @given(graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_clique_matches_brute_force(self, g):
        res = clique_number(g)
        assert res.value == brute_clique(g)

    def test_pinned(self):
        assert alpha_d(bowtie_graph(), 1).value == 4
        assert alpha_d(petersen_graph(), 0).value == 4
        assert clique_number(petersen_graph()).value == 2
        assert clique_number(bowtie_graph()).value == 3

    def test_cap(self):
        with pytest.raises(SolverCapError):
            alpha_d(matching_graph(25), 0)
        with pytest.raises(SolverCapError):
            clique_number(matching_graph(25))
        # the product is capped even though its base would not be
        with pytest.raises(SolverCapError):
            clique_number(strong_product(cycle_graph(14), complete_graph(3)))

    @given(graphs(max_n=8), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_clique_of_product_from_base(self, g, t):
        prod = strong_product(g, complete_graph(t))
        res = clique_number(prod)
        assert res.value == clique_number(Graph(prod.n, prod.adj)).value == t * clique_number(g).value
        assert len(res.witness) == res.value
        assert all(prod.adjacent(u, v) for u, v in combinations(res.witness, 2))

    def test_clique_of_product_timeout_scales_base_bounds(self):
        # the base search needs 5,740 nodes, so the clock is read past its deadline
        prod = strong_product(complement(matching_graph(10)), complete_graph(2))
        res = clique_number(prod, timeout=0.0)
        assert res.status == "timeout" and res.value is None
        assert res.lower_bound % 2 == 0 and 0 < res.lower_bound <= 20 and res.upper_bound == 40
        # the incumbent survives: the fibres of the base clique found so far
        assert len(res.witness) == res.lower_bound
        assert all(prod.adjacent(u, v) for u, v in combinations(res.witness, 2))

    def test_clique_memo_keeps_only_finished_searches(self):
        base = complement(matching_graph(10))
        prod = strong_product(base, complete_graph(2))
        _finished_clique.cache_clear()
        # a timeout is not stored: the untimed call after it searches and finishes
        assert clique_number(prod, timeout=0.0).status == "timeout"
        first = clique_number(base)
        assert first.value == 10 and _finished_clique.cache_info().misses == 1
        # the product and a repeat of the base read the base's finished search
        res = clique_number(prod)
        again = clique_number(base)
        assert _finished_clique.cache_info().hits == 2
        assert res.value == 20 and res.witness == tuple(v for u in first.witness for v in (2 * u, 2 * u + 1))
        assert (again.value, again.witness, again.nodes) == (first.value, first.witness, first.nodes)
        # a stored search never answers a timed call
        assert clique_number(prod, timeout=0.0).status == "timeout"

    def test_repeated_clique_calls_reuse_the_checked_witness(self, monkeypatch):
        prod = strong_product(petersen_graph(), complete_graph(3))
        built = []
        real = solvers._clique

        def counting(g, t, timeout):
            built.append((g.n, t, timeout))
            return real(g, t, timeout)

        monkeypatch.setattr(solvers, "_clique", counting)
        _finished_clique.cache_clear()
        first, second, third = (clique_number(prod) for _ in range(3))
        # the product's witness and the base's search were each built once
        assert built == [(30, 3, None), (10, 1, None)]
        assert first is not second and second is not third
        assert (first.value, first.witness, first.nodes) == (second.value, second.witness, second.nodes)
        assert first.value == 6 and len(first.witness) == 6
        # a plain copy is equal to the product but searches itself, and a timed call runs afresh
        clique_number(Graph(prod.n, prod.adj))
        clique_number(prod, timeout=60.0)
        assert built[2:] == [(30, 1, None), (30, 3, 60.0)]

    def test_alpha_timeout_returns_incumbent(self):
        # the search needs far more than 2,048 nodes, so the clock is read past its deadline
        g = random_graph(40, .25, 1)
        res = alpha_d(g, 1, timeout=0.0)
        assert res.status == "timeout" and res.value is None
        assert 0 < res.lower_bound == len(res.witness) and res.upper_bound == 40
        chosen = set(res.witness)
        assert all(sum(1 for u in g.neighbours(v) if u in chosen) <= 1 for v in chosen)


class TestAdmissibleWalk:
    """alpha_d and clique_number walk the recursive references' trees node for node."""

    @given(graphs(max_n=10), st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_alpha_follows_the_recursive_reference(self, g, d):
        res = alpha_d(g, d)
        clock, best = _Clock(None), [0, 0]
        recursive_alpha(g, d, clock, best)
        assert (res.value, res.witness, res.nodes) == (best[0], tuple(iter_bits(best[1])), clock.nodes)

    @given(graphs(max_n=10))
    @settings(max_examples=100, deadline=None)
    def test_clique_follows_the_recursive_reference(self, g):
        clock, best = _Clock(None), [0, 0]
        recursive_clique(g, clock, best)
        ref = (best[0], tuple(iter_bits(best[1])), clock.nodes)
        # the memoised search and a timed one, which runs afresh
        for res in (clique_number(g), clique_number(g, timeout=3600.0)):
            assert (res.value, res.witness, res.nodes) == ref

    def test_timeout_at_the_first_poll(self):
        # both searches need far more than 2,048 nodes: 37,777 and 5,740
        g, base = random_graph(40, 0.25, 1), complement(matching_graph(10))
        for res, reference in ((alpha_d(g, 1, timeout=0.0), partial(recursive_alpha, g, 1)),
                               (clique_number(base, timeout=0.0), partial(recursive_clique, base))):
            clock, best = _Clock(0.0), [0, 0]
            with pytest.raises(Timeout):
                reference(clock, best)
            assert res.status == "timeout"
            assert res.nodes == clock.nodes == _Clock.POLL == 2048
            assert res.witness == tuple(iter_bits(best[1])) and res.lower_bound == best[0] > 0

    def test_runs_near_the_recursion_limit(self):
        # the walk keeps its branches on a list, so it needs a few frames
        # whatever the depth of its tree
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 20)
        try:
            res = alpha_d(random_graph(40, 0.25, 1), 1)
        finally:
            sys.setrecursionlimit(limit)
        assert (res.value, res.nodes) == (16, 37_777)


class TestBFold:
    @given(graphs(max_n=5), st.integers(1, 3), st.sampled_from(ALL_MODES))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g, b, mode):
        res = chromatic_bfold(g, b, mode)
        assert res.status == "optimal"
        assert res.value == brute_bfold(g, b, mode)
        assert check_bfold(g, res.witness, b, mode) is None
        assert len(res.witness.palette()) == res.value

    def test_timeout_returns_incumbent(self):
        # the greedy pass on the product survives the timeout as witness and upper bound
        g = random_graph(30, 0.5, 0)
        res = chromatic_bfold(g, 3, Mode.improper(1), timeout=0.5)
        assert res.status == "timeout" and res.value is None
        assert check_bfold(g, res.witness, 3, Mode.improper(1)) is None
        assert res.upper_bound == len(res.witness.palette())
        assert res.lower_bound < res.upper_bound

    def test_pinned_improper_fold(self):
        # 1-improper 2-fold palette of C4 needs 4 colours, not 3
        res = chromatic_bfold(cycle_graph(4), 2, Mode.improper(1))
        assert res.value == 4
        assert check_bfold(cycle_graph(4), res.witness, 2, Mode.improper(1)) is None

    def test_fold_one_reduces_to_ordinary(self):
        for seed in range(5):
            g = random_connected_graph(6, 0.5, seed)
            assert chromatic_bfold(g, 1, Mode.proper()).value == \
                chromatic_improper(g, 0).value

    def test_fold_one_takes_the_ratio_bound(self):
        # a 1-fold solve is the plain solve, so it starts at the ratio bound 3 on C5
        res = chromatic_bfold(cycle_graph(5), 1, Mode.proper())
        plain = chromatic_improper(cycle_graph(5), 0)
        assert (res.value, res.lower_bound_source, res.nodes) == (3, "hoffman", 9)
        assert (plain.lower_bound_source, plain.nodes) == ("hoffman", 9)

    @pytest.mark.parametrize("b", [2, 3])
    def test_fold_equals_product_chromatic(self, b):
        # a b-fold proper palette of G is a proper colouring of the product
        for g in (path_graph(4), cycle_graph(5), bowtie_graph()):
            prod = strong_product(g, complete_graph(b))
            assert chromatic_bfold(g, b, Mode.proper()).value == \
                chromatic_improper(prod, 0).value

    @pytest.mark.parametrize("b,t", [(1, 2), (2, 2), (2, 3)])
    def test_clustered_fold_identity(self, b, t):
        # the clustered product palette collapses back to the base fold number
        for g in (path_graph(3), cycle_graph(5), bowtie_graph()):
            prod = strong_product(g, complete_graph(t))
            assert chromatic_bfold(prod, b, Mode.clustered(t)).value == \
                chromatic_bfold(g, b, Mode.proper()).value

    def test_rejects_bad_b(self):
        with pytest.raises(ValueError):
            chromatic_bfold(path_graph(2), 0, Mode.proper())


def independent_maximal_sets(g, mode):
    """Enumerate maximal admissible sets from first principles (test oracle)."""

    def admissible(subset):
        if mode.kind in ("proper", "improper"):
            d = 0 if mode.kind == "proper" else mode.param
            return all(
                sum(1 for u in g.neighbours(v) if u in subset) <= d for v in subset
            )
        seen, limit = set(), mode.param
        for start in subset:
            if start in seen:
                continue
            stack, comp = [start], set()
            while stack:
                v = stack.pop()
                if v in comp:
                    continue
                comp.add(v)
                stack.extend(u for u in g.neighbours(v) if u in subset)
            seen |= comp
            if len(comp) > limit:
                return False
        return True

    sets = []
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            s = set(subset)
            if admissible(s) and not any(
                admissible(s | {v}) for v in range(g.n) if v not in s
            ):
                sets.append(s)
    return sets


class TestMaximalAdmissibleSets:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_only_the_maximal_set_walk_keeps_skipped_vertices(self, mode):
        g = random_graph(9, .4, 3)
        seen = {}
        for keep in (False, True):
            skipped = seen[keep] = []

            def leaf(chosen: int, count: int, skipped_now: int) -> int:
                skipped.append(skipped_now)
                return -1

            _admissible_walk(g.adj, mode, _Clock(None), leaf, _skipped=keep)
        # the same leaves either way; only the maximal-set walk reads what was skipped
        assert len(seen[False]) == len(seen[True]) and set(seen[False]) == {0}
        assert any(seen[True])

    @given(graphs(max_n=7), st.sampled_from(ALL_MODES))
    @settings(max_examples=80, deadline=None)
    def test_matches_full_scan(self, g, mode):
        assert _maximal_admissible_sets(g, mode) == maximal_admissible_sets(g, mode)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_matches_full_scan_on_every_labelled_graph_on_five_vertices(self, mode):
        # the walk takes vertices in label order; e.g. the star centred at 0
        # at t = 3 needs a vertex next to u's component, not to u, re-asked
        pairs = list(combinations(range(5), 2))
        for edges in range(1 << len(pairs)):
            g = Graph.from_edges(5, [p for i, p in enumerate(pairs) if edges >> i & 1])
            assert _maximal_admissible_sets(g, mode) == maximal_admissible_sets(g, mode)


def lp_cover_value(g, sets):
    cols = len(sets)
    a = np.zeros((g.n, cols))
    for j, s in enumerate(sets):
        for v in s:
            a[v, j] = 1.0
    res = linprog(np.ones(cols), A_ub=-a, b_ub=-np.ones(g.n), method="highs")
    assert res.success
    return res.fun


@st.composite
def incidence_systems(draw):
    """0/1 set systems over n vertices as bitmasks, repeated and empty sets included."""
    n = draw(st.integers(1, 7))
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=14)), n


class TestSimplexPacking:
    """The array scans must pivot exactly as the scalar loop does."""

    @given(incidence_systems())
    @settings(max_examples=200, deadline=None)
    def test_follows_the_scalar_loop(self, system):
        incidence, n = system
        try:
            expected = loop_simplex_packing(incidence, n)
        except ArithmeticError as e:  # a vertex in no set leaves the LP unbounded
            with pytest.raises(ArithmeticError, match=str(e)):
                _simplex_packing(incidence, n)
            return
        assert _simplex_packing(incidence, n) == expected

    def test_maximal_sets_of_random_graphs_follow_the_scalar_loop(self):
        for seed in range(6):
            g = random_graph(12, 0.5, seed)
            for mode in (Mode.proper(), Mode.improper(1), Mode.clustered(3)):
                sets = _maximal_admissible_sets(g, mode)
                assert _simplex_packing(sets, g.n) == loop_simplex_packing(sets, g.n)


class TestFractional:
    def test_exact_pins(self):
        assert fractional_chromatic(cycle_graph(5)).value == Fraction(5, 2)
        assert fractional_chromatic(petersen_graph()).value == Fraction(5, 2)
        assert fractional_chromatic(complete_graph(4)).value == 4

    @given(graphs(min_n=1, max_n=6))
    @settings(max_examples=25, deadline=None)
    def test_proper_matches_scipy(self, g):
        if g.n == 0:
            return
        res = fractional_chromatic(g)
        oracle = lp_cover_value(g, independent_maximal_sets(g, Mode.proper()))
        assert abs(float(res.value) - oracle) < 1e-6

    @given(graphs(min_n=2, max_n=6), st.sampled_from([Mode.improper(1), Mode.clustered(2)]))
    @settings(max_examples=20, deadline=None)
    def test_relaxed_modes_match_scipy(self, g, mode):
        res = fractional_chromatic(g, mode)
        oracle = lp_cover_value(g, independent_maximal_sets(g, mode))
        assert abs(float(res.value) - oracle) < 1e-6

    def test_witness_is_fractional_cover(self):
        res = fractional_chromatic(cycle_graph(7))
        cover = {v: 0.0 for v in range(7)}
        total = 0.0
        assert all(isinstance(ws, WeightedSet) for ws in res.witness)
        for vertices, weight in res.witness:
            assert weight > 0
            total += weight
            for v in vertices:
                cover[v] += weight
        assert all(w >= 1 - 1e-6 for w in cover.values())
        assert abs(total - float(res.value)) < 1e-6

    def test_a_cover_that_misses_a_vertex_is_refused(self, monkeypatch):
        # weight only on the maximal independent sets {0,2} and {0,3} of C5:
        # vertices 1 and 4 are uncovered, and the lowest is reported
        def through_zero(sets, n):
            return 2.0, [1.0 if s & 1 else 0.0 for s in sets], 0

        monkeypatch.setattr(solvers, "_simplex_packing", through_zero)
        with pytest.raises(ArithmeticError, match="^fractional cover misses vertex 1$"):
            fractional_chromatic(cycle_graph(5))

    def test_cap(self):
        with pytest.raises(SolverCapError):
            fractional_chromatic(matching_graph(9))


class TestOrderings:
    @given(graphs(max_n=9), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_improper_monotone_in_d(self, g, d, extra):
        assert chromatic_improper(g, d + extra).value <= chromatic_improper(g, d).value

    @given(graphs(max_n=8, connected=True), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_clustered_dominates_improper(self, g, t):
        # components of size <= t force monochromatic degree <= t - 1
        assert chromatic_clustered(g, t).value >= chromatic_improper(g, t - 1).value

    @given(graphs(min_n=2, max_n=5, connected=True), st.integers(1, 2))
    @settings(max_examples=15, deadline=None)
    def test_product_sandwich(self, g, d):
        # chi(G) = clustered palette of the blown-up product, which dominates
        # the improper one, which dominates the fold average, which dominates
        # the fractional relaxation
        prod = strong_product(g, complete_graph(d + 1))
        chi = chromatic_improper(g, 0).value
        clus = chromatic_clustered(prod, d + 1).value
        impr = chromatic_improper(prod, d).value
        fold = chromatic_bfold(g, d + 1, Mode.proper()).value
        frac = float(fractional_chromatic(g).value)
        assert chi == clus
        assert clus >= impr
        assert impr >= fold / (d + 1) - 1e-9
        assert fold / (d + 1) >= frac - 1e-9

    @pytest.mark.parametrize("inner,k", [(empty_graph(2), 2), (path_graph(3), 3)])
    def test_lexicographic_blowup_identity(self, inner, k):
        # clustered palettes only see the inner factor's size once t >= k
        for seed in range(4):
            g = random_connected_graph(5, 0.5, seed)
            lex = lexicographic_product(g, inner)
            prod = strong_product(g, complete_graph(k))
            for t in (k, k + 1):
                assert chromatic_clustered(lex, t).value == \
                    chromatic_clustered(prod, t).value

"""Descent pipeline tests.

A hand-built cyclic instance exercises one surgery step in detail; the rest
drives solver witnesses through the full descent on exhaustive and random
inputs, replaying every trace to confirm the recorded rewrites reproduce the
output exactly.  A few deterministic descents are pinned by the digest of
their output colouring and trace.  The girth, the girth-first cycle search
and the live-mask round loop are held to their brute-force, full-search and
induced-subgraph oracles in ``oracles.py``, and the component lists that
cycle elimination and the rounds keep are held to a rebuild from scratch
after every surgery and on every round.
"""

import dataclasses
import hashlib
import json
from collections import Counter

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from boxchrom import transfer
from boxchrom.colouring import (
    Colouring,
    _component_masks,
    check_clustered,
    colour_multiset,
    lift_colouring,
)
from boxchrom.graphs import (
    Graph,
    component_mask,
    complete_graph,
    cycle_graph,
    iter_bits,
    path_graph,
    petersen_graph,
    strong_product,
)
from boxchrom.smallgraphs import connected_graphs, random_connected_graph
from boxchrom.solvers import chromatic_clustered, chromatic_improper
from boxchrom.transfer import (
    TransferInvariantError,
    _girth,
    _is_forest,
    _smallest_cycle,
    build_incidence,
    descend,
    eliminate_cycles,
    find_small_component,
    replay_trace,
)

from oracles import (
    brute_girth,
    descend_by_induced_subgraph,
    graphs as graph_strategy,
    live_components,
    smallest_cycle,
)

# On C4 x K2, palettes (1,2),(1,2),(3,3),(4,4) chain components 1 and 2
# through two base vertices each: the incidence contains a 4-cycle.
CYCLIC_C4 = Colouring((1, 2, 1, 2, 3, 3, 4, 4))


def _product(g, t):
    return strong_product(g, complete_graph(t))


def _first_fit(product, cap, order):
    """First fit with monochromatic components <= cap, visiting product vertices in order."""
    classes: dict[int, int] = {}
    colours = [0] * product.n
    for v in order:
        c = 1
        while component_mask(product.adj, v, classes.get(c, 0) | 1 << v).bit_count() > cap:
            c += 1
        classes[c] = classes.get(c, 0) | 1 << v
        colours[v] = c
    return Colouring(tuple(colours))


@st.composite
def first_fit_descents(draw):
    """(g, c, t, ell): an ell*t-clustered first fit of g * K_t in a random order.

    Random orders mix colours inside fibres, so about half the incidences
    have cycles, some longer than 4.
    """
    g = draw(graph_strategy(min_n=2, max_n=7))
    t = draw(st.integers(2, 3))
    ell = draw(st.integers(1, 2))
    order = draw(st.permutations(range(g.n * t)))
    return g, _first_fit(_product(g, t), ell * t, order), t, ell


@st.composite
def sparse_graphs(draw):
    """A random tree on 3..10 vertices plus up to three chords, relabelled.

    Girths run from 3 to 10, odd and even, where the dense random graphs
    mostly have triangles.
    """
    n = draw(st.integers(3, 10))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            edges.add((u, v))
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _incidence_of(descent):
    g, c, t, _ = descent
    return build_incidence(_product(g, t), c, t)


def _edge_incidence(g):
    """g's vertex/edge incidence: bipartite and simple, and every cycle of g doubled."""
    edges = g.edges()
    adj = [[] for _ in range(g.n + len(edges))]
    for node, (u, v) in enumerate(edges, start=g.n):
        adj[u].append(node)
        adj[v].append(node)
        adj[node] += [u, v]
    return tuple(tuple(sorted(row)) for row in adj)


class TestIncidence:
    def test_structure_of_cyclic_instance(self):
        inc = build_incidence(_product(cycle_graph(4), 2), CYCLIC_C4, 2)
        assert inc.n_base == 4
        covers = sorted((c.colour, c.cover) for c in inc.components)
        assert covers == [(1, (0, 1)), (2, (0, 1)), (3, (2,)), (4, (3,))]
        assert inc.colouring == CYCLIC_C4
        assert inc.cycle is not None and len(inc.cycle) == 4

    def test_lifted_colourings_are_acyclic(self):
        # one component per colour, and distinct colours per base vertex
        lifted = lift_colouring(Colouring((1, 2, 1, 2, 3)), 2)
        assert build_incidence(_product(cycle_graph(5), 2), lifted, 2).cycle is None

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_incidence(_product(cycle_graph(4), 2), Colouring((1, 2)), 2)

    def test_bad_t_rejected(self):
        with pytest.raises(ValueError):
            build_incidence(_product(cycle_graph(4), 2), CYCLIC_C4, 0)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_forest_test_matches_full_search(self, data):
        # random covers, one colour each, so no base vertex is covered twice
        n = data.draw(st.integers(1, 8))
        covers = data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=6))
        comps = [(colour, tuple(sorted(cover))) for colour, cover in enumerate(covers, start=1)]
        adj = [[] for _ in range(n + len(comps))]
        for node, (_, cover) in enumerate(comps, start=n):
            for v in cover:
                adj[v].append(node)
                adj[node].append(v)
        adj = tuple(tuple(sorted(row)) for row in adj)
        assert _is_forest(n, comps) == (smallest_cycle(adj) is None)

    def test_forest_test_rejects_a_double_cover(self):
        # a cycle or not, a second component of colour 1 at vertex 1 raises
        for second in [(1, (1,)), (1, (1, 2))]:
            with pytest.raises(TransferInvariantError, match="vertex 1 is covered by two"):
                _is_forest(3, [(1, (0, 1)), (2, (0, 2)), second])

    @given(first_fit_descents())
    @settings(max_examples=200, deadline=None)
    def test_cycle_is_the_full_search_cycle(self, descent):
        inc = _incidence_of(descent)
        assert inc.cycle == smallest_cycle(inc.adj)

    @given(graph_strategy(min_n=3, max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_cycle_matches_full_search_without_4_cycles(self, g):
        # g's vertex-edge incidence is bipartite and simple with no 4-cycle, so
        # the search runs to its end and the tie-break between longer cycles shows
        adj = _edge_incidence(g)
        assert _smallest_cycle(adj) == smallest_cycle(adj)

    @given(st.one_of(graph_strategy(min_n=1, max_n=8), sparse_graphs()))
    @settings(max_examples=300, deadline=None)
    def test_girth_is_the_brute_force_girth(self, g):
        # general graphs have odd girths, so the depth cut is tested off the
        # bipartite case; the doubled incidence tests the stop at 4
        girth = brute_girth(g)
        assert _girth(tuple(g.neighbours(v) for v in range(g.n))) == girth
        assert _girth(_edge_incidence(g), 4) == (girth and 2 * girth)

    def test_first_fit_draws_long_cycles(self):
        # girths above 4 run the girth search past its stop at 4
        inc = _incidence_of(find(first_fit_descents(),
                                 lambda d: len(_incidence_of(d).cycle or ()) > 4))
        assert len(inc.cycle) > 4 and inc.cycle == smallest_cycle(inc.adj)


class TestEliminateCycles:
    def test_single_surgery_on_c4(self):
        prod = _product(cycle_graph(4), 2)
        inc, steps = eliminate_cycles(prod, CYCLIC_C4, 2, cluster_cap=4)
        out = inc.colouring
        assert len(steps) == 1
        step = steps[0]
        assert step.transfer_count == 1
        assert sorted(step.base_vertices) == [0, 1]
        assert sorted(step.colours) == [1, 2]
        assert inc.cycle is None
        assert build_incidence(prod, out, 2).cycle is None
        # global colour usage is conserved by the cyclic shift
        assert sorted(out.colours) == sorted(CYCLIC_C4.colours)
        # each vertex keeps a sub-multiset of its original fibre palette
        for v in range(4):
            before = colour_multiset(CYCLIC_C4, 2, v)
            after = colour_multiset(out, 2, v)
            assert set(after) <= set(before)

    def test_acyclic_input_is_untouched(self):
        lifted = lift_colouring(Colouring((1, 2, 1, 2, 3)), 2)
        inc, steps = eliminate_cycles(_product(cycle_graph(5), 2), lifted, 2, cluster_cap=2)
        assert steps == ()
        assert inc.colouring.colours == lifted.colours

    @staticmethod
    def _kept_lists(product, c, t, cap):
        """Each component list an incidence is built from, with its colouring, and the steps."""
        built, real = [], transfer._incidence

        def incidence(n_base, comps, colouring):
            built.append((list(comps), colouring))
            return real(n_base, comps, colouring)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transfer, "_incidence", incidence)
            inc, steps = eliminate_cycles(product, c, t, cap)
        assert len(built) == len(steps) + 1 and built[-1][1] == inc.colouring
        return built, steps

    @staticmethod
    def _rebuilt(product, colouring, t):
        return [(colour, mask, tuple(sorted({pv // t for pv in iter_bits(mask)})))
                for colour, mask in _component_masks(product, colouring)]

    @given(first_fit_descents())
    @settings(max_examples=100, deadline=None)
    def test_kept_components_match_a_rebuild_after_every_surgery(self, descent):
        g, c, t, ell = descent
        product = _product(g, t)
        for comps, colouring in self._kept_lists(product, c, t, ell * t)[0]:
            assert [tuple(comp) for comp in comps] == self._rebuilt(product, colouring, t)

    @pytest.mark.parametrize("g, t, ell, stride, surgeries", [
        (petersen_graph(), 3, 2, 7, 5),
        (random_connected_graph(8, 0.3, 0), 3, 2, 7, 7),
        (cycle_graph(7), 3, 1, 5, 2),
    ], ids=["petersen", "random8", "c7"])
    def test_kept_components_on_the_pinned_descents(self, g, t, ell, stride, surgeries):
        product = _product(g, t)
        c = _first_fit_clustered(product, ell * t, stride)
        built, steps = self._kept_lists(product, c, t, ell * t)
        assert len(steps) == surgeries
        for comps, colouring in built:
            assert [tuple(comp) for comp in comps] == self._rebuilt(product, colouring, t)

    def test_rejects_overfull_clusters(self):
        # all-ones on C4 x K2 is one component of 8 > cap
        with pytest.raises(ValueError):
            eliminate_cycles(_product(cycle_graph(4), 2), Colouring((1,) * 8), 2, cluster_cap=4)


class TestFindSmallComponent:
    def test_requires_acyclic(self):
        inc = build_incidence(_product(cycle_graph(4), 2), CYCLIC_C4, 2)
        with pytest.raises(TransferInvariantError):
            find_small_component(inc, 1)

    def test_finds_cover_after_elimination(self):
        inc, _ = eliminate_cycles(_product(cycle_graph(4), 2), CYCLIC_C4, 2, cluster_cap=4)
        comp = find_small_component(inc, 2)
        assert len(comp.cover) <= 2


def _splitter(mask_of):
    """``graphs._components`` with ``mask_of`` in place of ``component_mask``."""
    def split(adj, within):
        while within:
            comp = mask_of(adj, (within & -within).bit_length() - 1, within)
            within &= ~comp
            yield comp
    return split


class TestDescend:
    def test_cyclic_instance_descends_to_proper(self):
        g = cycle_graph(4)
        res = descend(g, CYCLIC_C4, 2, 1)
        assert check_clustered(g, res.colouring, 1) is None
        # every base colour was present on the original fibre
        for v in range(4):
            assert res.colouring.colours[v] in colour_multiset(CYCLIC_C4, 2, v)

    def test_lifted_witness_descends_to_itself(self):
        base = Colouring((1, 2, 1, 2, 3))
        res = descend(cycle_graph(5), lift_colouring(base, 3), 3, 1)
        assert res.colouring.colours == base.colours

    @pytest.mark.parametrize("t", [2, 3])
    def test_exhaustive_small_graphs(self, t, connected_catalogue):
        for n in range(2, 6):
            for g in connected_catalogue[n]:
                prod = strong_product(g, complete_graph(t))
                solved = chromatic_clustered(prod, t)
                res = descend(g, solved.witness, t, 1)
                assert check_clustered(g, res.colouring, 1) is None
                assert res.colouring.num_colours <= solved.value

    @given(
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=0, max_value=400),
        st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_graphs_descend(self, n, seed, params):
        t, ell = params
        g = random_connected_graph(n, 0.45, seed)
        prod = strong_product(g, complete_graph(t))
        solved = chromatic_clustered(prod, ell * t)
        res = descend(g, solved.witness, t, ell)
        assert check_clustered(g, res.colouring, ell) is None
        assert res.colouring.num_colours <= solved.value

    def test_descended_palette_within_fibres(self):
        g = random_connected_graph(6, 0.5, 17)
        prod = strong_product(g, complete_graph(2))
        solved = chromatic_clustered(prod, 2)
        res = descend(g, solved.witness, 2, 1)
        for v in range(g.n):
            assert res.colouring.colours[v] in colour_multiset(solved.witness, 2, v)

    def test_rejects_non_clustered_input(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError):
            descend(g, Colouring((1,) * 8), 2, 1)

    @given(first_fit_descents())
    @settings(max_examples=60, deadline=None)
    def test_rounds_match_the_induced_subgraph_loop(self, descent):
        g, c, t, ell = descent
        res = descend(g, c, t, ell)
        colouring, trace = descend_by_induced_subgraph(g, c, t, ell)
        assert res.colouring == colouring
        assert res.trace.to_json() == trace.to_json()

    @given(first_fit_descents())
    @settings(max_examples=60, deadline=None)
    def test_kept_components_match_a_rebuild_every_round(self, descent):
        g, c, t, ell = descent
        colouring, calls = [], []
        real_eliminate, real_clear = transfer.eliminate_cycles, transfer._clear

        def eliminate(*args):
            inc, steps = real_eliminate(*args)
            colouring.append(inc.colouring)
            return inc, steps

        def clear(product, comps, live, dead, t):
            kept = real_clear(product, comps, live, dead, t)
            calls.append((product, comps, live | dead, kept, live))
            return kept

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transfer, "eliminate_cycles", eliminate)
            mp.setattr(transfer, "_clear", clear)
            res = descend(g, c, t, ell)
        assert len(calls) == len(res.trace.rounds)
        for product, before, live_before, after, live in calls:
            for comps, mask in ((before, live_before), (after, live)):
                got = [(colour, tuple(iter_bits(comp)), cover) for colour, comp, cover in comps]
                assert got == live_components(product, colouring[0], t, mask)

    def test_a_later_round_rejects_a_double_cover(self, monkeypatch):
        # P3 with palettes (1,1),(1,2),(2,2): the split leaves colour 2 on
        # vertices 4 and 5, one fibre; reported as two pieces they double-cover it
        g, c = path_graph(3), Colouring((1, 1, 1, 2, 2, 2))
        assert len(descend(g, c, 2, 2).trace.rounds) == 2
        monkeypatch.setattr(transfer, "_components", _splitter(lambda adj, seed, within: 1 << seed))
        with pytest.raises(TransferInvariantError, match="covered by two components of colour 2"):
            descend(g, c, 2, 2)

    def test_a_later_round_rejects_a_cycle(self, monkeypatch):
        # P4 with palettes (1,1),(1,2),(2,3),(3,3): colours 1, 2, 3 cover {0,1},
        # {1,2}, {2,3}.  Picking colour 1 splits colour 2 down to vertex 4; if
        # that piece wrongly grows by fibre 3 (vertices 6, 7), it covers {2,3}
        # as colour 3 does, and the two close a 4-cycle
        g, c = path_graph(4), Colouring((1, 1, 1, 2, 2, 3, 3, 3))
        assert len(descend(g, c, 2, 2).trace.rounds) == 3
        grown = _splitter(lambda adj, seed, within: component_mask(adj, seed, within) | 0b11 << 6)
        monkeypatch.setattr(transfer, "_components", grown)
        with pytest.raises(TransferInvariantError, match="still has a cycle"):
            descend(g, c, 2, 2)

    def test_one_product_and_no_induced_subgraph(self, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(transfer, "strong_product", counting("product", strong_product))
        for g, t, ell, stride in [(petersen_graph(), 3, 2, 7), (cycle_graph(7), 3, 1, 5)]:
            c = _first_fit_clustered(_product(g, t), ell * t, stride)
            calls.clear()
            res = descend(g, c, t, ell)
            assert len(res.trace.rounds) > 1
            assert calls == {"product": 1}


class TestReplay:
    def test_replay_reproduces_output(self):
        for seed in range(8):
            g = random_connected_graph(6, 0.5, seed)
            prod = strong_product(g, complete_graph(2))
            solved = chromatic_clustered(prod, 2)
            res = descend(g, solved.witness, 2, 1)
            replayed = replay_trace(g, solved.witness, 2, res.trace)
            assert replayed.colours == res.colouring.colours

    def test_replay_of_cyclic_instance(self):
        g = cycle_graph(4)
        res = descend(g, CYCLIC_C4, 2, 1)
        replayed = replay_trace(g, CYCLIC_C4, 2, res.trace)
        assert replayed.colours == res.colouring.colours

    def test_replay_rejects_foreign_start(self):
        g = cycle_graph(4)
        res = descend(g, CYCLIC_C4, 2, 1)
        # permuted colour names break the recorded old-value checks
        other = Colouring((4, 3, 4, 3, 2, 2, 1, 1))
        with pytest.raises(TransferInvariantError):
            replay_trace(g, other, 2, res.trace)

    def test_replay_checks_the_traced_ell(self):
        g, c = path_graph(3), Colouring((1, 2, 1, 2, 1, 2))
        res = descend(g, c, 2, 2)
        assert replay_trace(g, c, 2, res.trace) == res.colouring
        assert check_clustered(g, res.colouring, 1) is not None
        with pytest.raises(TransferInvariantError):
            replay_trace(g, c, 2, dataclasses.replace(res.trace, ell=1))

    def test_replay_rejects_a_wrong_length(self):
        res = descend(cycle_graph(4), CYCLIC_C4, 2, 1)
        with pytest.raises(ValueError):
            replay_trace(cycle_graph(4), Colouring(CYCLIC_C4.colours + (1, 1)), 2, res.trace)

    def test_replay_rejects_a_foreign_t(self):
        # 8 vertices at t = 1 match the colouring's length; only t differs
        res = descend(cycle_graph(4), CYCLIC_C4, 2, 1)
        with pytest.raises(ValueError):
            replay_trace(cycle_graph(8), CYCLIC_C4, 1, res.trace)

    def test_trace_serialises(self):
        g = cycle_graph(4)
        res = descend(g, CYCLIC_C4, 2, 1)
        payload = res.trace.to_json()
        assert payload["t"] == 2 and payload["ell"] == 1
        assert payload["rounds"], "descent must record at least one round"
        first = payload["rounds"][0]
        assert "pick" in first and "eliminations" in first


def _first_fit_clustered(product, cap, stride):
    """First fit with components <= cap, visiting product vertices by (v * stride) mod n.

    The stride scatters each fibre's copies through the order, so fibres mix
    colours and the incidence has cycles to eliminate.
    """
    n = product.n
    return _first_fit(product, cap, sorted(range(n), key=lambda v: v * stride % n))


class TestPinnedTraces:
    """Descent output is part of the contract: these digests must not drift.

    Each digest is the sha256 of the JSON list [colouring, trace.to_json()].
    Eliminations happen only in the first round (deleting a footprint from an
    acyclic incidence cannot close a cycle), so the larger instances pin
    several eliminations followed by several rounds of picks.
    """

    @staticmethod
    def _digest(res):
        payload = json.dumps([list(res.colouring.colours), res.trace.to_json()])
        return hashlib.sha256(payload.encode()).hexdigest()

    def test_cyclic_c4(self):
        res = descend(cycle_graph(4), CYCLIC_C4, 2, 1)
        assert self._digest(res) == "4d62b45e3c2334509d5392484cdfec4ab87a205e4652e8cf32bbb0db91100f80"

    @pytest.mark.parametrize("g, t, ell, stride, shape, digest", [
        (petersen_graph(), 3, 2, 7, (7, 5),
         "4ccc84e8a288905ac552abb7c3def866e500f422d9b33abcec116f007e951ddf"),
        (random_connected_graph(8, 0.3, 0), 3, 2, 7, (6, 7),
         "34afef5446147b5d80ad557c7dde4c0cc7657eba1ccf56ee65f5cdc55f2c57e5"),
        (cycle_graph(7), 3, 1, 5, (7, 2),
         "637b8e581ba38d0bf576cdab68a92fe7dc488dd06d69a2e022364deb54f4bd3f"),
    ], ids=["petersen", "random8", "c7"])
    def test_first_fit_descents(self, g, t, ell, stride, shape, digest):
        c = _first_fit_clustered(_product(g, t), ell * t, stride)
        res = descend(g, c, t, ell)
        rounds = res.trace.rounds
        assert (len(rounds), sum(len(elims) for elims, _ in rounds)) == shape
        assert self._digest(res) == digest

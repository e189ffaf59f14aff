"""The three benchmark workloads: inputs built from a seed, and checked operations.

Each workload has a `*_inputs(seed)` function, run before the timed section,
and a `*_ops(inputs)` generator, iterated inside it.  The generator yields
`(label, thunk)` pairs; a thunk performs one operation through the public API
of boxchrom, re-checks its output, raises `CheckFailed` on a wrong result and
returns the values that go into the workload digest.  An operation made of
several solves yields a tuple of thunks, its parts.  Work a generator does
between yields (corpus generation in `sweep`) is timed but belongs to no
operation.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import time
import traceback
from fractions import Fraction

from boxchrom.bounds import bound_report, hoffman_bilu, wocjan_elphick
from boxchrom.cli import SweepSpec, run_sweep
from boxchrom.colouring import (
    Colouring,
    Mode,
    check_bfold,
    check_clustered,
    check_improper,
)
from boxchrom.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    emit_graph6,
    iter_bits,
    line_graph,
    paley9_graph,
    petersen_graph,
    strong_product,
)
from boxchrom.hoffman import diagnose_hoffman, lift_tight_colouring
from boxchrom.smallgraphs import connected_graphs, random_connected_graph, random_graph
from boxchrom.solvers import (
    SolverCapError,
    alpha_d,
    chromatic_bfold,
    chromatic_clustered,
    chromatic_improper,
    fractional_chromatic,
)
from boxchrom.spectra import spectrum
from boxchrom.transfer import descend, replay_trace

SOLVE_TIMEOUT = 30.0
GAUGE_EVERY_S = 0.25  # host-speed gauge between operations at most this often
FLOAT_DIGITS = 6  # digest precision: survives a change of eigensolver


class CheckFailed(Exception):
    """An operation returned a result that fails the benchmark's checks."""


def need(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def relabel(g: Graph, rng: random.Random) -> tuple[Graph, list[int]]:
    """g with its vertices renamed in descending-degree order, ties at random.

    Returns the new graph and the new label of each old vertex.  The colouring
    searches branch in this order whatever the labels are; alpha_d branches
    in label order, and a uniformly random order makes its run time swing
    threefold between seeds.
    """
    key = {v: (-g.degree(v), rng.random()) for v in range(g.n)}
    position = [0] * g.n
    for i, v in enumerate(sorted(range(g.n), key=key.__getitem__)):
        position[v] = i
    adj = [0] * g.n
    for u, v in g.edges():
        adj[position[u]] |= 1 << position[v]
        adj[position[v]] |= 1 << position[u]
    return Graph(g.n, tuple(adj)), position


def relabel_colouring(c: Colouring, position: list[int], t: int = 1) -> Colouring:
    """A colouring of g * K_t carried over to the relabelled g * K_t."""
    colours = [0] * c.n
    for v, new in enumerate(position):
        colours[new * t:(new + 1) * t] = c.colours[v * t:(v + 1) * t]
    return Colouring(tuple(colours))


def indicator(n: int, members) -> Colouring:
    """Colour 1 on members, a fresh colour on every other vertex."""
    inside = set(members)
    fresh = iter(range(2, n + 2))
    return Colouring(tuple(1 if v in inside else next(fresh) for v in range(n)))


def greedy_colours(g: Graph) -> int:
    """Colours used by first-fit proper colouring in index order: at least chi(g)."""
    colours: list[int] = []
    for v in range(g.n):
        taken = {colours[u] for u in iter_bits(g.adj[v]) if u < v}
        colours.append(next(c for c in range(1, g.n + 2) if c not in taken))
    return max(colours, default=0)


def _component(adj: tuple[int, ...], start: int, members: int) -> int:
    comp = frontier = 1 << start
    while frontier:
        nxt = 0
        for u in iter_bits(frontier):
            nxt |= adj[u] & members
        frontier = nxt & ~comp
        comp |= frontier
    return comp


def greedy_clustered(g: Graph, cap: int, rng: random.Random) -> Colouring:
    """First-fit colouring in random order, monochromatic components <= cap.

    On a product G * K_t this mixes colours inside fibres, which is what makes
    the descent eliminate incidence cycles.
    """
    order = list(range(g.n))
    rng.shuffle(order)
    masks = [0]
    colours = [0] * g.n
    for v in order:
        c = 1
        while True:
            if c == len(masks):
                masks.append(0)
            if _component(g.adj, v, masks[c] | 1 << v).bit_count() <= cap:
                break
            c += 1
        masks[c] |= 1 << v
        colours[v] = c
    return Colouring(tuple(colours))


def _rounded(x: float | None) -> float | None:
    return None if x is None else round(x, FLOAT_DIGITS)


# -- sweep -------------------------------------------------------------------

SWEEP_DS = (1, 2)
SWEEP_SAMPLE_7 = 100
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853)  # connected graphs on 1..7 vertices


# Every sample holds connected_graphs(7)[476], FLr~w: chi = 5, which no lower
# bound reaches, so its instances search.  It costs about 20 times the median
# 7-vertex graph, and whether a random sample hit it moved wall_s by 9%.
SWEEP_HARD_7 = 476


def sweep_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    others = [i for i in range(CONNECTED_COUNTS[-1]) if i != SWEEP_HARD_7]
    return {"pick": sorted([SWEEP_HARD_7, *rng.sample(others, SWEEP_SAMPLE_7 - 1)])}


def _sweep_instance(g: Graph, d: int) -> list:
    payload = run_sweep(SweepSpec("bench", (g,), (d,), SOLVE_TIMEOUT, 1))
    need(payload["instances"] == 1, "sweep of one instance reported another count")
    need(payload["counterexamples"] == 0, "counterexample to chi(G) = chi^d(G * K_{d+1})")
    need(payload["timeouts"] == 0, "sweep instance timed out")
    r = payload["records"][0]
    need(r["status"] == "verified", f"status {r['status']}")
    need(r["chi_clustered_product"] == r["chi"], "clustered product value differs from chi")
    need(r["chi_improper_product"] <= r["chi"], "improper product value exceeds chi")
    need(r["best_lower"] <= r["chi_improper_product"], "best lower bound exceeds chi^d")
    return [r["chi"], r["chi_improper_product"], r["chi_clustered_product"],
            r["best_lower"], r["best_lower_name"], r["annotations"]]


def sweep_ops(inputs: dict):
    corpus = [connected_graphs(n) for n in range(1, len(CONNECTED_COUNTS) + 1)]
    sizes = tuple(len(gs) for gs in corpus)
    need(sizes == CONNECTED_COUNTS, f"connected graph counts {sizes}")
    graphs = [g for gs in corpus[:-1] for g in gs] + [corpus[-1][i] for i in inputs["pick"]]
    for g in graphs:
        for d in SWEEP_DS:
            yield f"sweep {emit_graph6(g)} d={d}", lambda g=g, d=d: _sweep_instance(g, d)


# -- exact ---------------------------------------------------------------------


def mycielskian(g: Graph) -> Graph:
    n = g.n
    edges = [(n + v, 2 * n) for v in range(n)]
    for u, v in g.edges():
        edges += [(u, v), (u, n + v), (v, n + u)]
    return Graph.from_edges(2 * n + 1, edges)


# Base graphs are fixed so that instance hardness does not swing with the
# seed.  The seed relabels each random base graph EXACT_LABELLINGS times, and
# one operation solves every labelling: the search order changes with the
# labels, and one labelling's node count moves by up to 25% between seeds.
# The values are isomorphism invariants, so every labelling must reproduce
# them.  G(36,.5)#5 is certified by its clique bound; the search-certified #9
# took as long as the Petersen operation, and the median operation flipped
# between the two from seed to seed.
EXACT_LABELLINGS = 4
EXACT_RANDOM = (  # (label, n, p, base seed, problem, parameter, value)
    ("chi1 G(34,.5)#2", 34, 0.5, 2, "improper", 1, 6),
    ("clustered3 G(30,.5)#0", 30, 0.5, 0, "clustered", 3, 5),
    ("chi G(36,.5)#5", 36, 0.5, 5, "improper", 0, 8),
    ("alpha1 G(40,.25)#1", 40, 0.25, 1, "alpha", 1, 16),
)


def exact_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "random": [(label, [relabel(random_graph(n, p, base), rng)[0]
                            for _ in range(EXACT_LABELLINGS)], problem, param, value)
                   for label, n, p, base, problem, param, value in EXACT_RANDOM],
        "g16": relabel(random_graph(16, 0.5, 0), rng)[0],
        "grotzsch2": mycielskian(mycielskian(cycle_graph(5))),
        "petersen": petersen_graph(),
    }


def _min_colours(g: Graph, kind: str, param: int, expected: int) -> list:
    if kind == "improper":
        r = chromatic_improper(g, param, timeout=SOLVE_TIMEOUT)
        check = check_improper
    else:
        r = chromatic_clustered(g, param, timeout=SOLVE_TIMEOUT)
        check = check_clustered
    need(r.status == "optimal", f"status {r.status}")
    need(r.value == expected, f"value {r.value}, expected {expected}")
    need(r.lower_bound == r.value, "optimum not certified by its lower bound")
    need(check(g, r.witness, param) is None, "witness fails its check")
    need(r.witness.num_colours == r.value, "witness uses another number of colours")
    return [r.value]


def _alpha(g: Graph, d: int, expected: int) -> list:
    r = alpha_d(g, d, timeout=SOLVE_TIMEOUT)
    need(r.status == "optimal", f"status {r.status}")
    need(r.value == expected, f"value {r.value}, expected {expected}")
    need(len(r.witness) == r.value, "witness size differs from value")
    need(check_improper(g, indicator(g.n, r.witness), d) is None, "witness set fails its check")
    return [r.value]


def _bfold(g: Graph, b: int, expected: int) -> list:
    r = chromatic_bfold(g, b, Mode.proper(), timeout=SOLVE_TIMEOUT)
    need(r.status == "optimal", f"status {r.status}")
    need(r.value == expected, f"value {r.value}, expected {expected}")
    need(check_bfold(g, r.witness, b, Mode.proper()) is None, "witness fails its check")
    need(len(r.witness.palette()) == r.value, "witness palette differs from value")
    return [r.value]


def _fractional(g: Graph, t: int, expected: Fraction) -> list:
    r = fractional_chromatic(g, Mode.clustered(t))
    need(r.value == expected, f"value {r.value}, expected {expected}")
    cover = [0.0] * g.n
    for members, weight in r.witness:
        need(check_clustered(g, indicator(g.n, members), t) is None, "cover uses a bad set")
        for v in members:
            cover[v] += weight
    need(min(cover) >= 1.0 - 1e-6, "fractional cover misses a vertex")
    need(abs(sum(w for _, w in r.witness) - float(r.value)) <= 1e-6, "cover weight differs from value")
    return [str(r.value)]


def _labellings(graphs: list[Graph], problem: str, param: int, value: int) -> tuple:
    """One part per labelling, so the gauge can run between the solves."""
    if problem == "alpha":
        return tuple(functools.partial(_alpha, g, param, value) for g in graphs)
    return tuple(functools.partial(_min_colours, g, problem, param, value) for g in graphs)


def exact_ops(inputs: dict):
    for label, graphs, problem, param, value in inputs["random"]:
        yield label, _labellings(graphs, problem, param, value)
    yield "chi M(Grotzsch)", lambda: _min_colours(inputs["grotzsch2"], "improper", 0, 5)
    yield "3-fold chi Petersen", lambda: _bfold(inputs["petersen"], 3, 8)
    yield "fractional clustered2 G(16,.5)#0", lambda: _fractional(inputs["g16"], 2, Fraction(39, 14))


# -- certify -------------------------------------------------------------------

DESCENTS = ((20, 2, 1), (24, 3, 2), (30, 2, 3), (34, 3, 1), (40, 2, 2), (40, 3, 1))  # (n, t, ell)
DESCENT_P = 0.15
REPORTS = ((12, 2), (10, 3), (16, 2), (13, 3), (20, 2))  # (n, t): products of 24..40 vertices
OVER_CAP_REPORTS = ((21, 2), (14, 3))  # 42-vertex products, above the clique solver's cap
REPORT_P = 0.3
SPECTRAL = (27, 3)  # an 81-vertex product


def certify_inputs(seed: int) -> dict:
    """Fixed base instances (base seed = position in its table), relabelled by the seed.

    Fixed bases keep each operation's cost steady across seeds; with fresh
    random graphs and colourings the median operation moved by a third.
    """
    rng = random.Random(seed)
    descents = []
    for base, (n, t, ell) in enumerate(DESCENTS):
        g = random_connected_graph(n, DESCENT_P, base)
        c = greedy_clustered(strong_product(g, complete_graph(t)), ell * t, random.Random(base))
        g, position = relabel(g, rng)
        descents.append((g, t, ell, relabel_colouring(c, position, t)))
    paley = relabel(paley9_graph(), rng)[0]
    lk5, position = relabel(line_graph(complete_graph(5)), rng)
    hamilton = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    lk5_colouring = Colouring(tuple(1 if e in hamilton else 2 for e in complete_graph(5).edges()))
    return {
        "descents": descents,
        "paley": paley,
        "paley_proper": chromatic_improper(paley, 0).witness,
        "lk5": lk5,
        "lk5_colouring": relabel_colouring(lk5_colouring, position),
        "c4k22": relabel(strong_product(cycle_graph(4), complete_bipartite(2, 2)), rng)[0],
        "reports": [(relabel(random_connected_graph(n, REPORT_P, base), rng)[0], t)
                    for base, (n, t) in enumerate(REPORTS)],
        "over_cap": [(relabel(random_connected_graph(n, REPORT_P, base), rng)[0], t)
                     for base, (n, t) in enumerate(OVER_CAP_REPORTS)],
        "spectral": relabel(random_connected_graph(SPECTRAL[0], REPORT_P, 0), rng)[0],
    }


def _descend(g: Graph, t: int, ell: int, c: Colouring) -> list:
    """`descend`, then `replay_trace` of its trace against the same input."""
    res = descend(g, c, t, ell)
    need(check_clustered(g, res.colouring, ell) is None, "descent output not ell-clustered")
    for v, col in enumerate(res.colouring.colours):
        need(col in c.colours[v * t:(v + 1) * t], f"vertex {v} coloured outside its fibre")
    need(replay_trace(g, c, t, res.trace) == res.colouring, "replay differs from the descent")
    return [res.colouring.num_colours, len(res.trace.rounds),
            sum(len(elims) for elims, _ in res.trace.rounds)]


def _diagnose(g: Graph, d: int, c: Colouring | None, uniqueness: bool = False) -> list:
    if c is None:  # the CLI `diagnose` path: solve, then audit the witness
        r = chromatic_improper(g, d, timeout=SOLVE_TIMEOUT)
        need(r.status == "optimal", f"status {r.status}")
        c = r.witness
    need(check_improper(g, c, d) is None, "diagnosed colouring fails its check")
    diag = diagnose_hoffman(g, d, c, check_uniqueness=uniqueness)
    need(diag.is_tight, f"{diag.num_classes} classes against bound {diag.bound}")
    need(diag.all_equality_conditions(), "tight colouring breaks an equality condition")
    if uniqueness:
        need(diag.unique_colouring is not None and diag.multiplicity_exact is not False,
             "uniqueness check inconsistent with the multiplicity")
    return [diag.num_classes, _rounded(diag.bound), diag.smallest_multiplicity,
            diag.equitable, diag.unique_colouring]


def _lift(g: Graph, proper: Colouring, d: int) -> list:
    lift = lift_tight_colouring(g, proper, d)
    product = strong_product(g, complete_graph(d + 1))
    need(check_improper(product, lift.lifted, d) is None, "lifted colouring fails its check")
    need(lift.product_diagnosis.is_tight, "lifted colouring is not tight")
    need(abs(lift.product_bound - lift.base_bound) <= 1e-6, "product bound differs from base bound")
    return [lift.base_classes, _rounded(lift.product_bound)]


def _report(g: Graph, t: int) -> list:
    rep = bound_report(strong_product(g, complete_graph(t)), t - 1)
    # chi^{t-1}(G * K_t) <= chi(G) <= greedy: no sound lower bound may exceed it
    ub = greedy_colours(g)
    need(1 <= rep.best_lower <= ub, f"best lower bound {rep.best_lower} above {ub}")
    for e in rep.entries:
        if e.kind == "lower" and e.ceiling is not None:
            need(e.ceiling <= ub, f"{e.name} ceiling {e.ceiling} above {ub}")
    return [rep.best_lower, rep.best_lower_name,
            [[e.name, _rounded(e.value)] for e in rep.entries]]


def _report_over_cap(g: Graph, t: int) -> list:
    """An over-cap report either fails at the clique step or must be sound."""
    try:
        return _report(g, t)
    except SolverCapError as e:
        return ["SolverCapError", str(e)]


def _product_extremes(g: Graph, t: int) -> tuple[float, float]:
    """Largest and smallest adjacency eigenvalue of G * K_t from G's spectrum."""
    s = spectrum(g)
    return t * s.largest + t - 1, min(t * s.smallest + t - 1, -1.0)


def _spectral_hoffman(g: Graph, t: int) -> list:
    d = t - 1
    value = hoffman_bilu(strong_product(g, complete_graph(t)), d)
    top, bottom = _product_extremes(g, t)
    closed = (top - bottom) / (d - bottom)
    need(abs(value - closed) <= 1e-6 * max(1.0, closed), f"ratio bound {value}, closed form {closed}")
    need(value <= greedy_colours(g) + 1e-6, "ratio bound exceeds a colouring")
    return [_rounded(value)]


def _spectral_wocjan(g: Graph, t: int) -> list:
    we = wocjan_elphick(strong_product(g, complete_graph(t)), t - 1, 3)
    ub = greedy_colours(g)
    for x in we.as_tuple():
        need(x is None or x <= ub + 1e-6, f"sum-of-eigenvalues bound {x} exceeds {ub}")
    return [_rounded(x) for x in we.as_tuple()]


def certify_ops(inputs: dict):
    for g, t, ell, c in inputs["descents"]:
        yield f"descend n={g.n} t={t} l={ell}", lambda g=g, t=t, ell=ell, c=c: _descend(g, t, ell, c)
    paley, proper = inputs["paley"], inputs["paley_proper"]
    yield "diagnose paley9 d=0", lambda: _diagnose(paley, 0, proper, uniqueness=True)
    yield "lift paley9 d=1", lambda: _lift(paley, proper, 1)
    yield "lift paley9 d=2", lambda: _lift(paley, proper, 2)
    yield "diagnose L(K5) d=2", lambda: _diagnose(inputs["lk5"], 2, inputs["lk5_colouring"])
    yield "diagnose C4*K22 d=2", lambda: _diagnose(inputs["c4k22"], 2, None)
    for g, t in inputs["reports"]:
        yield f"bound_report n={g.n * t}", lambda g=g, t=t: _report(g, t)
    for g, t in inputs["over_cap"]:
        yield f"bound_report n={g.n * t}", lambda g=g, t=t: _report_over_cap(g, t)
    g, t = inputs["spectral"], SPECTRAL[1]
    yield f"hoffman_bilu n={g.n * t}", lambda: _spectral_hoffman(g, t)
    yield f"wocjan_elphick n={g.n * t}", lambda: _spectral_wocjan(g, t)


WORKLOADS = {
    "sweep": (sweep_inputs, sweep_ops),
    "exact": (exact_inputs, exact_ops),
    "certify": (certify_inputs, certify_ops),
}


def run_ops(ops, gauge) -> dict:
    """Run one workload's operations; a failure is counted and never ends the run.

    `gauge()` times the host-speed gauge (bench/gauge.py).  It runs before
    the first operation, after the last, and between two operations or two
    parts of one once GAUGE_EVERY_S has passed since it last ran.  Every
    stretch of work is also measured in gauges: its time over the mean of the
    two gauges around it.  run.py scales these to a host of fixed speed.
    Gauge time is not in wall_s.
    """
    failures, values = [], []
    gauges = [gauge()]
    pieces = []  # (operation index, or -1 between operations; ms; index of the gauge after it)
    attempted = 0
    gauge_time = 0.0
    start = last_gauge = time.perf_counter()

    def piece(index: int, t0: float) -> float:
        """Record the work of operation `index` since t0, gauge if due, and
        return the time the next piece of work starts."""
        nonlocal last_gauge, gauge_time
        t1 = time.perf_counter()
        pieces.append((index, (t1 - t0) * 1e3, len(gauges)))
        if t1 - last_gauge >= GAUGE_EVERY_S:
            gauges.append(gauge())
            last_gauge = time.perf_counter()
            gauge_time += last_gauge - t1
        return time.perf_counter()

    t = start
    try:
        for label, work in ops:
            t = piece(-1, t)
            index = attempted
            attempted += 1
            parts = work if isinstance(work, tuple) else (work,)
            results = []
            try:
                for part in parts:
                    try:
                        results.append(part())
                    finally:
                        t = piece(index, t)
            except CheckFailed as e:
                failures.append([label, f"check failed: {e}"])
            except Exception as e:  # a crashing operation must not end the run
                traceback.print_exc()
                failures.append([label, f"{type(e).__name__}: {e}"])
            else:
                values.append([label, results if isinstance(work, tuple) else results[0]])
        piece(-1, t)
    except Exception as e:  # the workload failed between operations
        traceback.print_exc()
        attempted += 1
        failures.append(["workload", f"{type(e).__name__}: {e}"])
    wall = time.perf_counter() - start - gauge_time
    gauges.append(gauge())

    operations = 1 + max((index for index, _, _ in pieces), default=-1)
    latencies, in_gauges = [0.0] * operations, [0.0] * operations
    between_gauges = 0.0
    for index, ms, after in pieces:
        relative = ms / ((gauges[after - 1] + gauges[after]) / 2 * 1e3)
        if index < 0:
            between_gauges += relative
        else:
            latencies[index] += ms
            in_gauges[index] += relative
    digest = hashlib.sha256(json.dumps(values, default=str).encode()).hexdigest()
    return {"wall_s": wall, "latencies_ms": latencies, "op_gauges": in_gauges,
            "between_gauges": between_gauges, "gauges_ms": [g * 1e3 for g in gauges],
            "failures": failures, "attempted": attempted, "digest": digest}

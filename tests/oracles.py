"""Hypothesis strategies and brute-force oracles shared across tests."""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from functools import lru_cache, partial
from itertools import combinations, permutations, product

import numpy as np
from hypothesis import strategies as st

from boxchrom.bounds import bound_report, hoffman_bilu
from boxchrom.cli import ConjectureRecord, SweepInvariantError
from boxchrom.colouring import Colouring, Mode, check_improper, lift_colouring
from boxchrom.graphs import (
    Graph,
    complete_graph,
    emit_graph6,
    empty_graph,
    iter_bits,
    parse_graph6,
    strong_product,
)
from boxchrom.hoffman import weighted_class_degrees
from boxchrom.smallgraphs import canonical_form, random_connected_graph, random_graph
from boxchrom.solvers import (
    Timeout,
    _Clock,
    _rule_mode,
    chromatic_clustered,
    chromatic_improper,
    clique_number,
)
from boxchrom.spectra import (MULT_TOL, SNAP_TOL, STRICT_MARGIN, MatrixKind, eigensolve, graph_matrix,
                              spectrum)
from boxchrom.transfer import (
    ComponentPick,
    TransferTrace,
    build_incidence,
    eliminate_cycles,
    find_small_component,
)


def lexicographic_product(g: Graph, h: Graph) -> Graph:
    """Lexicographic product g[h]; (u, i) ~ (v, j) iff u ~ v, or u = v and i ~ j."""
    n = g.n * h.n
    full_h = (1 << h.n) - 1
    adj = [0] * n
    for u in range(g.n):
        for i in range(h.n):
            mask = h.adj[i] << (u * h.n)
            for v in iter_bits(g.adj[u]):
                mask |= full_h << (v * h.n)
            adj[u * h.n + i] = mask
    return Graph(n, tuple(adj))


def emit_edgelist(g: Graph) -> str:
    """Plain text: a "n m" header line then one "u v" line per edge."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8, connected: bool = False):
    """Seeded random graphs; shrinking moves through sizes and seeds."""
    n = draw(st.integers(min_n, max_n))
    p = draw(st.sampled_from([0.2, 0.35, 0.5, 0.7]))
    seed = draw(st.integers(0, 2**20))
    if connected:
        return random_connected_graph(n, p, seed)
    return random_graph(n, p, seed)


@st.composite
def twin_graphs(draw, max_n: int = 6):
    """Relabelled blow-ups with twin classes of size t <= 3, at most ``max_n`` vertices.

    ``G x K_t`` makes every fibre a class of closed twins; the lexicographic
    product ``G[E_t]`` makes every fibre a class of open twins.
    """
    t = draw(st.integers(2, 3))
    base = draw(graphs(max_n=max_n // t))
    if draw(st.booleans()):
        g = strong_product(base, complete_graph(t))
    else:
        g = lexicographic_product(base, empty_graph(t))
    # scatter the fibres so twins are not adjacent in index order
    perm = draw(st.permutations(range(g.n)))
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def mono_degree_ok(g: Graph, colours: tuple[int, ...], d: int) -> bool:
    """Direct definition of d-improper, independent of the library checker."""
    for v in range(g.n):
        same = sum(1 for u in g.neighbours(v) if colours[u] == colours[v])
        if same > d:
            return False
    return True


def component_sizes_ok(g: Graph, colours: tuple[int, ...], t: int) -> bool:
    """Direct definition of t-clustered via DFS over same-colour edges."""
    seen = [False] * g.n
    for start in range(g.n):
        if seen[start]:
            continue
        stack, members = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            members.append(v)
            for u in g.neighbours(v):
                if not seen[u] and colours[u] == colours[v]:
                    seen[u] = True
                    stack.append(u)
        if len(members) > t:
            return False
    return True


def brute_min_colours(g: Graph, valid) -> int:
    """Smallest k admitting an assignment accepted by ``valid``; exponential."""
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for assignment in product(range(1, k + 1), repeat=g.n):
            if len(set(assignment)) == k and valid(assignment):
                return k
    raise AssertionError("no colouring found")


def brute_chromatic_improper(g: Graph, d: int) -> int:
    return brute_min_colours(g, lambda cs: mono_degree_ok(g, cs, d))


def brute_chromatic_clustered(g: Graph, t: int) -> int:
    return brute_min_colours(g, lambda cs: component_sizes_ok(g, cs, t))


def brute_count_colourings(g: Graph, d: int, m: int) -> int:
    """d-improper colourings using exactly m colours, counted up to renaming."""
    seen = set()
    for assignment in product(range(1, m + 1), repeat=g.n):
        if len(set(assignment)) == m and mono_degree_ok(g, assignment, d):
            names: dict[int, int] = {}
            seen.add(tuple(names.setdefault(c, len(names)) for c in assignment))
    return len(seen)


def brute_alpha_d(g: Graph, d: int) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for subset in combinations(range(g.n), size):
            chosen = set(subset)
            if all(
                sum(1 for u in g.neighbours(v) if u in chosen) <= d for v in subset
            ):
                return size
    return best


def brute_clique(g: Graph) -> int:
    for size in range(g.n, 1, -1):
        for subset in combinations(range(g.n), size):
            if all(g.adjacent(u, v) for u, v in combinations(subset, 2)):
                return size
    return 1 if g.n else 0


def product_spectrum_identity_check(g: Graph, n: int,
                                    kind: MatrixKind = MatrixKind.ADJACENCY) -> bool:
    """Check the closed-form spectrum of g * K_n against a direct diagonalisation.

    ``spectrum`` of the product takes the closed form of ``_product_spectrum``;
    the check compares it, value by value, with ``eigensolve`` of the
    product's matrix, within ``MULT_TOL``.
    """
    if n < 1:
        raise ValueError("factor size must be at least 1")
    product = strong_product(g, complete_graph(n))
    pred = spectrum(product, kind).values
    actual = eigensolve(graph_matrix(product, kind))[0].values
    if len(pred) != len(actual):
        return False
    return all(abs(a - b) <= MULT_TOL for a, b in zip(pred, actual))


def columns(g: Graph, order) -> tuple[tuple[int, ...], ...]:
    """Per position, the adjacency bits of that vertex to every earlier one."""
    return tuple(tuple(g.adj[v] >> u & 1 for u in order[:p]) for p, v in enumerate(order))


def brute_canonical_columns(g: Graph, classes) -> tuple[tuple[int, ...], ...]:
    """Least column sequence over every order that lists ``classes`` in turn."""
    return min(columns(g, [v for part in parts for v in part])
               for parts in product(*(permutations(c) for c in classes)))


def canonical_certificate(g: Graph) -> str:
    """The graph6 string of g's canonical form: equal iff the graphs are isomorphic."""
    return emit_graph6(canonical_form(g))


@lru_cache(maxsize=None)
def every_augmentation_graph6(n: int) -> tuple[str, ...]:
    """Sorted graph6 of every graph on n vertices, canonicalising every augmentation.

    The generator without orbit pruning: each graph on n-1 vertices gains a
    vertex in every way whose new vertex has maximum degree, and every such
    child is canonicalised and deduplicated by its graph6 string.
    """
    if n == 1:
        return ("@",)
    out = set()
    for parent in every_augmentation_graph6(n - 1):
        g = parse_graph6(parent)
        top = g.max_degree()
        top_mask = sum(1 << v for v in range(g.n) if g.degree(v) == top)
        for attach in range(1 << (n - 1)):
            k = attach.bit_count()
            if k < top or (k == top and attach & top_mask):
                continue
            adj = list(g.adj) + [attach]
            for v in iter_bits(attach):
                adj[v] |= 1 << (n - 1)
            out.add(canonical_certificate(Graph(n, tuple(adj))))
    return tuple(sorted(out))


def signature_refinement_classes(g: Graph) -> list[list[int]]:
    """Colour refinement by signatures, the reference for ``_refinement_classes``.

    From one class, each round ranks every vertex by its colour and the
    sorted tuple of its neighbours' colours, until the colouring holds.
    """
    n = g.n
    colour = [0] * n
    masks = [(1 << n) - 1]

    def neighbour_colours(row: int) -> tuple[int, ...]:
        out: tuple[int, ...] = ()
        for c, mask in enumerate(masks):
            out += (c,) * (row & mask).bit_count()
        return out

    for _ in range(max(n, 1)):
        sig = [(colour[v], neighbour_colours(g.adj[v])) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [rank[sig[v]] for v in range(n)]
        if new == colour:
            break
        colour = new
        masks = [0] * len(rank)
        for v in range(n):
            masks[colour[v]] |= 1 << v
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(colour[v], []).append(v)
    return [classes[c] for c in sorted(classes)]


def brute_automorphisms(g: Graph) -> set[tuple[int, ...]]:
    """Every vertex permutation, as images, that maps edges onto edges."""
    edges = set(g.edges())
    return {p for p in permutations(range(g.n))
            if all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in edges)}


def component_set(g: Graph, seed: int, within: int) -> set[int]:
    """Component of ``seed`` in the subgraph induced on ``within``, by set-based BFS."""
    members = {v for v in range(g.n) if within >> v & 1}
    comp, queue = {seed}, [seed]
    while queue:
        v = queue.pop(0)
        for u in g.neighbours(v):
            if u in members and u not in comp:
                comp.add(u)
                queue.append(u)
    return comp


def live_components(g: Graph, c: Colouring, t: int,
                    live: int) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """(colour, vertices, cover) of each monochromatic component of g[live], by smallest vertex.

    Rebuilt from scratch with ``component_set``; covers are base vertices of
    g = base * K_t.
    """
    out = []
    left = {v for v in range(g.n) if live >> v & 1}
    while left:
        v = min(left)
        same = sum(1 << u for u in left if c.colours[u] == c.colours[v])
        comp = component_set(g, v, same)
        left -= comp
        out.append((c.colours[v], tuple(sorted(comp)), tuple(sorted({u // t for u in comp}))))
    return out


def brute_girth(g: Graph) -> int | None:
    """Length of a shortest cycle of g, or None if acyclic.

    Walks every simple path that starts at its least vertex and closes every
    one that can return to the start; no BFS and no depth cut.
    """
    best = None

    def walk(path: list[int]) -> None:
        nonlocal best
        for u in g.neighbours(path[-1]):
            if u == path[0] and len(path) >= 3:
                best = len(path) if best is None else min(best, len(path))
            elif u > path[0] and u not in path:
                walk(path + [u])

    for start in range(g.n):
        walk([start])
    return best


def smallest_cycle(adj) -> tuple[int, ...] | None:
    """Shortest cycle by the full search, canonically rotated, or None if acyclic.

    BFS from every vertex with dict depths and a set of tree edges; every
    non-tree edge closes a candidate through the lowest common ancestor, and
    the first strictly shorter candidate wins.  No early exit.
    """
    best = None
    for root in range(len(adj)):
        depth, parent = {root: 0}, {root: -1}
        queue, tree_edges = [root], set()
        for x in queue:
            for y in adj[x]:
                if y not in depth:
                    depth[y] = depth[x] + 1
                    parent[y] = x
                    tree_edges.add((min(x, y), max(x, y)))
                    queue.append(y)
        for x in depth:
            for y in adj[x]:
                if y < x or (x, y) in tree_edges or y not in depth:
                    continue
                px, py = [x], [y]
                while px[-1] != py[-1]:
                    if depth[px[-1]] >= depth[py[-1]]:
                        px.append(parent[px[-1]])
                    else:
                        py.append(parent[py[-1]])
                cycle = px[:-1] + py[::-1]
                if best is None or len(cycle) < len(best):
                    start = cycle.index(min(cycle))
                    rotated = cycle[start:] + cycle[:start]
                    best = tuple(min(rotated, [rotated[0]] + rotated[1:][::-1]))
    return best


def induced_subgraph(g: Graph, vertices: list[int]) -> Graph:
    """Subgraph induced on ``vertices``, relabelled 0..k-1 in the given order."""
    pos = {v: i for i, v in enumerate(vertices)}
    return Graph.from_edges(len(vertices), [(pos[u], pos[v]) for u, v in g.edges()
                                            if u in pos and v in pos])


def descend_by_induced_subgraph(g: Graph, c: Colouring, t: int,
                                ell: int) -> tuple[Colouring, TransferTrace]:
    """The descent's round loop on shrinking products.

    Each round deletes the picked footprint with ``induced_subgraph``,
    re-slices the colouring to the kept fibres and builds the next incidence
    on the relabelled product; picks map back to g's labels.  Output checks
    are left to the caller.
    """
    product = strong_product(g, complete_graph(t))
    out = [0] * g.n
    labels = tuple(range(g.n))
    inc, elims = eliminate_cycles(product, c, t, ell * t)
    rounds = []
    while labels:
        if rounds:
            inc, elims = build_incidence(product, cur_c, t), ()
        comp = find_small_component(inc, ell)
        pick = ComponentPick(comp.colour, tuple(labels[v] for v in comp.cover))
        for v in pick.base_vertices:
            out[v] = comp.colour
        rounds.append((elims, pick))
        kept = [v for v in range(len(labels)) if v not in comp.cover]
        labels = tuple(labels[v] for v in kept)
        fibres = [v * t + x for v in kept for x in range(t)]
        product = induced_subgraph(product, fibres)
        cur_c = Colouring(tuple(inc.colouring.colours[p] for p in fibres))
    return Colouring(tuple(out)), TransferTrace(t, ell, tuple(rounds))


def admissible(g: Graph, members: int, mode: Mode) -> bool:
    """Whether the vertex set ``members`` induces a class that obeys ``mode``."""
    if mode.kind in ("proper", "improper"):
        d = 0 if mode.kind == "proper" else mode.param
        for v in iter_bits(members):
            if (g.adj[v] & members).bit_count() > d:
                return False
        return True
    t = mode.param
    left = members
    while left:
        low = left & -left
        comp = low
        frontier = comp
        while frontier:
            nxt = 0
            for u in iter_bits(frontier):
                nxt |= g.adj[u] & members
            frontier = nxt & ~comp
            comp |= frontier
        if comp.bit_count() > t:
            return False
        left &= ~comp
    return True


def node_tick(clock: _Clock) -> None:
    """Count one node of a reference search; poll the deadline every ``_Clock.POLL`` nodes."""
    clock.nodes += 1
    if clock.deadline is not None and clock.nodes % clock.POLL == 0 \
            and time.monotonic() > clock.deadline:
        raise Timeout


def recursive_alpha(g: Graph, d: int, clock: _Clock, best: list[int]) -> None:
    """The recursive alpha_d search; best = [size, mask] holds the incumbent.

    Branches on the live candidates in index order, taking each first.  A
    candidate stays live while it has at most d chosen neighbours and no
    chosen neighbour that already has d, kept as degree counters: ``ge[j]``
    holds the vertices with at least j chosen neighbours and ``dead`` the
    neighbours of chosen vertices in ``ge[d]``.  ``solvers.alpha_d`` must walk
    the same tree: the same value, witness and node count.
    """
    adj = g.adj

    def grow(chosen: int, count: int, live: int, dead: int, ge: tuple[int, ...]) -> None:
        if count + live.bit_count() <= best[0]:
            return
        if not live:
            best[0], best[1] = count, chosen
            return
        node_tick(clock)
        low = live & -live
        live ^= low
        row = adj[low.bit_length() - 1]
        more = (-1,) + tuple(ge[j] | ge[j - 1] & row for j in range(1, d + 2))
        grown = dead
        gained = (chosen | low) & more[d] & ~(chosen & ge[d])
        while gained:
            bit = gained & -gained
            gained ^= bit
            grown |= adj[bit.bit_length() - 1]
        grow(chosen | low, count + 1, live & ~(grown | more[d + 1]), grown, more)
        grow(chosen, count, live, dead, ge)

    grow(0, 0, (1 << g.n) - 1, 0, (-1,) + (0,) * (d + 1))


def recursive_clique(g: Graph, clock: _Clock, best: list[int]) -> None:
    """The recursive clique search over candidate masks; best = [size, mask] holds the incumbent.

    ``solvers.clique_number`` on a graph that is not a product must walk the
    same tree: the same value, witness and node count.
    """
    adj = g.adj

    def expand(cand: int, chosen: int, count: int) -> None:
        while cand:
            if count + cand.bit_count() <= best[0]:
                return
            node_tick(clock)
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            expand(cand & adj[v], chosen | low, count + 1)
        if count > best[0]:
            best[0], best[1] = count, chosen

    expand((1 << g.n) - 1 if g.n else 0, 0, 0)


def _admission(adj: tuple[int, ...], mode: Mode) -> Callable[[int, int], bool]:
    """``admits(v, mask)``: may v join the admissible class ``mask`` (v not in it)?

    One vertex at a time, the reference for ``solvers._narrowing``.  Read off
    the mask alone, by the rule of ``solvers._rule_mode(mode)``:

    - d-improper: ``hit = adj[v] & mask`` has at most d vertices, and no x in
      ``hit`` already has d neighbours in the mask;
    - t-clustered, t >= 3: v is refused at once when it has t neighbours in
      the mask.  Otherwise v's component inside the mask grows one vertex at a
      time, and v is refused once it holds t others.  Every component of the
      class has at most t vertices, so fewer than t * t rows are read.
    """
    mode = _rule_mode(mode)
    d = t = mode.param
    if mode.kind == "improper":

        def admits(v: int, mask: int) -> bool:
            hit = adj[v] & mask
            if hit.bit_count() > d:
                return False
            while hit:
                low = hit & -hit
                hit ^= low
                if (adj[low.bit_length() - 1] & mask).bit_count() == d:
                    return False
            return True
    else:

        def admits(v: int, mask: int) -> bool:
            front = adj[v] & mask
            if front.bit_count() >= t:
                return False
            comp = 0
            size = 0
            while front:
                low = front & -front
                comp |= low
                size += 1
                if size >= t:
                    return False
                front = (front | adj[low.bit_length() - 1] & mask) & ~comp
            return True
    return admits


def recursive_search(adj: list[int], k: int, mode: Mode, pos: list[int], prev: list[int],
                     clock: _Clock, leaf: Callable[[int], bool] | None = None,
                     step: int = 0) -> list[int] | None:
    """The colouring kernel in recursive form, one frame per coloured vertex.

    Arguments and result are those of ``solvers._search``, which must walk the
    same tree: the same colours, node count and leaf calls.  It asks
    ``_admission`` one vertex at a time where the kernel keeps each class's
    admitted set.
    """
    n = len(adj)
    admits = _admission(adj, mode)
    masks = [0] * (k + 1)  # masks[c]: the members of class c
    colour = [0] * n
    seen = [0] * (k + 1)  # seen[c]: the positions next to class c
    blocks: dict[int, list[int]] = {}
    # key[i] = (distinct colours next to i) * n + n - 1 - i: max picks the block
    key = [n - 1 - i for i in range(n)]
    for i in range(n):
        if prev[i] < 0:
            head = i
            blocks[i] = []
        blocks[head].append(i)
    heads = set(blocks)
    tick = partial(node_tick, clock)

    def place(block: list[int], j: int, max_used: int, done: int, free: int) -> bool:
        if j == len(block):
            if done == n:
                return leaf is None or leaf(max_used)
            h = max(heads, key=key.__getitem__)
            heads.remove(h)
            found = place(blocks[h], 0, max_used, done, free ^ 1 << h)
            heads.add(h)
            return found
        v = block[j]
        row = adj[v]
        for c in range(colour[block[j - 1]] + step if j else 1, min(max_used + 1, k) + 1):
            tick()
            mask = masks[c]
            if not admits(v, mask):
                continue
            masks[c] = mask | 1 << v
            colour[v] = c
            near = seen[c]
            fresh = rest = row & free & ~near  # heads that see colour c for the first time
            while rest:
                low = rest & -rest
                rest ^= low
                key[low.bit_length() - 1] += n
            seen[c] = near | row
            if place(block, j + 1, max(max_used, c), done + 1, free):
                return True
            seen[c] = near
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                key[low.bit_length() - 1] -= n
            masks[c] = mask
        return False

    # the empty block is complete at once, so the first call picks the first block
    found = place([], 0, 0, 0, sum(1 << h for h in heads))
    return [colour[i] for i in pos] if found else None


def brute_bfold(g: Graph, b: int, mode: Mode) -> int:
    """Least palette giving each vertex b colours, each class obeying ``mode``.

    Depth-first over the vertices in index order, for k = b, b + 1, ...: each
    vertex takes a b-subset of 1..k.  Colours are named by first appearance,
    so a vertex takes some colours already used and the next unused ones.  A
    partial class that fails ``admissible`` is pruned, which is sound because
    admissible sets are closed under subsets.
    """

    def place(v: int, k: int, classes: list[int]) -> bool:
        if v == g.n:
            return True
        used = len(classes)
        for fresh in range(min(b, k - used) + 1):
            for old in combinations(range(used), b - fresh):
                grown = classes + [0] * fresh
                for c in old + tuple(range(used, used + fresh)):
                    grown[c] |= 1 << v
                if all(admissible(g, grown[c], mode) for c in old) and place(v + 1, k, grown):
                    return True
        return False

    if g.n == 0:
        return 0
    return next(k for k in range(b, b * g.n + 1) if place(0, k, []))


def maximal_admissible_sets(g: Graph, mode: Mode) -> list[int]:
    """Inclusion-maximal admissible vertex sets, ascending, by a scan of all 2^n sets."""
    out = []
    for members in range(1, 1 << g.n):
        if not admissible(g, members, mode):
            continue
        if any(admissible(g, members | (1 << v), mode)
               for v in range(g.n) if not members >> v & 1):
            continue
        out.append(members)
    return out


def loop_simplex_packing(incidence: list[int], n: int) -> tuple[float, list[float], int]:
    """``solvers._simplex_packing`` with one scalar read per tableau entry.

    The same tableau, Bland's rule and pivots, scanning the objective row
    and the ratio column one entry at a time and updating every column;
    ``_simplex_packing``, which scans them as arrays and updates only the
    columns where the pivot row is non-zero, must return the same optimum,
    duals and pivot count (a zero may differ in sign only, and -0.0 == 0.0).
    """
    m = len(incidence)
    tab = np.zeros((m + 1, n + m + 1))
    for i, members in enumerate(incidence):
        for v in iter_bits(members):
            tab[i, v] = 1.0
        tab[i, n + i] = 1.0
        tab[i, -1] = 1.0
    tab[m, :n] = -1.0
    basis = [n + i for i in range(m)]
    eps = STRICT_MARGIN
    pivots = 0
    while True:
        enter = -1
        for j in range(n + m):
            if tab[m, j] < -eps:
                enter = j
                break
        if enter < 0:
            break
        leave, best_ratio, best_var = -1, None, None
        for i in range(m):
            a = tab[i, enter]
            if a > eps:
                ratio = tab[i, -1] / a
                if best_ratio is None or ratio < best_ratio - eps or \
                        (abs(ratio - best_ratio) <= eps and basis[i] < best_var):
                    leave, best_ratio, best_var = i, ratio, basis[i]
        if leave < 0:
            raise ArithmeticError("packing LP unbounded; every vertex must lie in a set")
        tab[leave] /= tab[leave, enter]
        col = tab[:, enter].copy()
        col[leave] = 0.0
        tab -= np.outer(col, tab[leave])
        basis[leave] = enter
        pivots += 1
        if pivots > 50000:
            raise ArithmeticError("simplex pivot limit exceeded")
    value = float(tab[m, -1])
    duals = [float(tab[m, n + i]) for i in range(m)]
    return value, duals, pivots


def colour_classes(c: Colouring) -> list[list[int]]:
    """The vertices of each colour, one list per colour in ascending colour order."""
    return [[v for v, col in enumerate(c.colours) if col == colour] for colour in c.palette()]


def loop_class_degrees(g: Graph, c: Colouring) -> np.ndarray:
    """Integer table D[v][j] = number of neighbours of v in class j, one neighbour at a time."""
    classes = colour_classes(c)
    part_of = {v: j for j, members in enumerate(classes) for v in members}
    table = np.zeros((g.n, len(classes)), dtype=int)
    for u in range(g.n):
        for v in g.neighbours(u):
            table[u][part_of[v]] += 1
    return table


def loop_weighted_class_degrees(g: Graph, c: Colouring, w: np.ndarray) -> np.ndarray:
    """W[v][j] = sum(w_u : u ~ v, u in class j) / w_v, one neighbour at a time."""
    classes = colour_classes(c)
    part_of = {v: j for j, members in enumerate(classes) for v in members}
    table = np.zeros((g.n, len(classes)), dtype=float)
    for u in range(g.n):
        for v in g.neighbours(u):
            table[u][part_of[v]] += w[v]
        table[u] /= w[u]
    return table


def is_weight_regular(g: Graph, c: Colouring) -> bool:
    """True when Perron-weighted class degrees are constant, to ``SNAP_TOL``, on each class."""
    table = weighted_class_degrees(g, c)
    return all(float(np.abs(table[v] - table[members[0]]).max(initial=0.0)) <= SNAP_TOL
               for members in colour_classes(c) for v in members)


def dense_quotient(g: Graph, c: Colouring, w: np.ndarray) -> np.ndarray:
    """C[i][j] = x_i^T A x_j / |x_i|^2, with x_i the weights w restricted to colour class i."""
    a = np.zeros((g.n, g.n))
    for u in range(g.n):
        for v in g.neighbours(u):
            a[u][v] = 1.0
    vecs = []
    for members in colour_classes(c):
        x = np.zeros(g.n)
        x[members] = w[members]
        vecs.append(x)
    return np.array([[float(xi @ a @ xj) / float(xi @ xi) for xj in vecs] for xi in vecs])


def jacobi_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi eigendecomposition, independent of LAPACK; slow, O(n^3) per sweep.

    Returns (w, V) with m = V diag(w) V^T, eigenvalues in no particular order.
    """
    a = np.array(m, dtype=float, copy=True)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v
    target = 1e-12 * max(np.linalg.norm(m), 1.0)
    skip = target / (n * n)
    for _ in range(100):
        off = a - np.diag(np.diagonal(a))
        if math.sqrt(float((off * off).sum())) <= target:
            return a.diagonal().copy(), v
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p].copy(), a[q].copy()
                a[p] = c * rp - s * rq
                a[q] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    raise ArithmeticError("Jacobi iteration failed to converge")


def sweep_instance(g: Graph, d: int, timeout: float = 60.0) -> ConjectureRecord:
    """One (graph, d) conjecture record with every solve run afresh.

    The reference for ``cli.run_sweep``, which solves chi(G) and the
    annotations read off G once per graph and reads the 2-clustered value at
    d = 1 off the 1-improper solve.
    """
    product = strong_product(g, complete_graph(d + 1))
    # one deadline per instance: each later solve gets what the earlier ones left
    deadline = time.monotonic() + timeout
    base = chromatic_improper(g, 0, timeout=timeout)
    # an optimal colouring of G, copied onto each fibre, colours the product
    lifted = lift_colouring(base.witness, d + 1) if base.status == "optimal" else None
    improper = chromatic_improper(product, d, timeout=max(0.0, deadline - time.monotonic()),
                                  upper_witness=lifted)
    clustered = chromatic_clustered(product, d + 1, upper_witness=lifted,
                                    timeout=max(0.0, deadline - time.monotonic()))
    report = bound_report(product, d)
    millis = base.millis + improper.millis + clustered.millis

    if "timeout" in (base.status, improper.status, clustered.status):
        return ConjectureRecord(
            emit_graph6(g), g.n, d, base.value, improper.value, clustered.value,
            report.best_lower, report.best_lower_name, "timeout", (), None, millis,
        )

    # the clustered equality is a proven theorem: a mismatch is a solver bug
    if clustered.value != base.value:
        raise SweepInvariantError(
            f"{emit_graph6(g)} d={d}: clustered {clustered.value} != chi {base.value}")
    if improper.value > base.value:
        raise SweepInvariantError(
            f"{emit_graph6(g)} d={d}: improper {improper.value} > chi {base.value}")

    annotations = []
    if d <= 1:
        annotations.append("proven:d=1")
    if base.value <= 4:
        annotations.append("proven:chi<=4")
    omega = clique_number(g).value
    if omega == base.value:
        annotations.append("proven:perfect-case")
    if g.edge_count:
        if abs(hoffman_bilu(g, 0) - base.value) <= SNAP_TOL:
            annotations.append("proven:hoffman-tight")

    witness = None
    if improper.value < base.value:
        status = "counterexample"
        bad = check_improper(product, improper.witness, d)
        if bad:
            raise SweepInvariantError(
                f"{emit_graph6(g)} d={d}: counterexample witness is not {d}-improper: {bad}")
        witness = improper.witness.to_json()
    else:
        status = "verified"
    return ConjectureRecord(
        emit_graph6(g), g.n, d, base.value, improper.value, clustered.value,
        report.best_lower, report.best_lower_name, status, tuple(annotations),
        witness, millis,
    )

"""Constructive descent from clustered product colourings to base colourings.

Given a colouring of the strong product of a graph with a complete graph K_t
whose monochromatic components have at most ell*t vertices, these routines
produce a colouring of the base graph with components of size at most ell,
using for each vertex only colours already present on its product fibre.
The pipeline is fully checked: every rewrite step re-validates the clustering
cap, palette containment, and a strictly decreasing potential, and the whole
run is recorded in a trace that can be replayed independently.

The engine behind the descent is an incidence structure between base vertices
and monochromatic product components.  Once that structure is acyclic, some
component touches few base vertices; colouring and deleting its footprint
shrinks the graph and the argument repeats.  ``descend`` builds g * K_t once
and deletes footprints by clearing their fibres from a mask of live product
vertices, so every round keeps the original labels; the stages take that
product (base order ``product.n // t``) or the ``Incidence`` built on it,
which carries its colouring and its shortest cycle.

The pick rounds do not rebuild the incidence.  Deleting vertices only splits
monochromatic components and never merges them, so ``descend`` keeps the
list of live components and re-searches only those that meet the cleared
fibres.  A component that misses them keeps every vertex and gains no
neighbour, so it is still a whole component of the live product, with the
same cover.  A component that meets them falls apart into pieces whose
covers are disjoint parts of its old cover, since one fibre's copies of a
colour sit in one component.  In the incidence, a split replaces one
component node by several, each taking some of its edges, and deletes the
edges to dead vertices; a forest stays a forest under both, so a split
cannot close a cycle.

Cycle elimination does not rebuild the incidence either.  A surgery moves
colour copies only between the colours of the components on its cycle: each
base vertex on the cycle gives copies of one of them and receives copies of
the one before it.  So the class of every other colour keeps every vertex,
and its components, which depend only on the class and the product, are
unchanged.  ``eliminate_cycles`` keeps the list of components, re-splits only
the classes of the cycle's colours after each surgery, and builds the next
incidence from that list, which is the list a rebuild from scratch would give.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .colouring import Colouring, _class_masks, _component_masks, check_clustered, colour_multiset
from .graphs import Graph, _components, _fields_json, complete_graph, iter_bits, strong_product

__all__ = [
    "ComponentPick",
    "DescentResult",
    "EliminationStep",
    "Incidence",
    "MonoComponent",
    "RecolourOp",
    "TransferInvariantError",
    "TransferTrace",
    "build_incidence",
    "descend",
    "eliminate_cycles",
    "find_small_component",
    "replay_trace",
]


class TransferInvariantError(RuntimeError):
    """An internal invariant of the descent pipeline failed."""


class MonoComponent(NamedTuple):
    """One monochromatic component of the product, with its base footprint."""

    colour: int
    mask: int  # product vertices, as a bit mask
    cover: tuple[int, ...]  # base vertices touched, ascending


@dataclass(frozen=True)
class Incidence:
    """Bipartite structure: base vertices 0..n-1, then one node per component."""

    n_base: int
    components: tuple[MonoComponent, ...]
    adj: tuple[tuple[int, ...], ...]
    colouring: Colouring  # the product colouring it was built from
    cycle: tuple[int, ...] | None  # a shortest cycle, canonically rotated; None if acyclic


def build_incidence(product: Graph, c: Colouring, t: int) -> Incidence:
    """Component/vertex incidence of a colouring of product = g * K_t.

    Components come in the order of their smallest vertex.  Every fibre is a
    clique, so for a fixed base vertex and colour all product vertices of that
    colour sit in one component; that uniqueness is checked because later
    cycle surgery depends on it.
    """
    if t < 1:
        raise ValueError("t must be positive")
    if product.n % t:
        raise ValueError(f"product order {product.n} is not a multiple of t={t}")
    if c.n != product.n:
        raise ValueError(f"colouring has {c.n} entries, product needs {product.n}")
    comps = [MonoComponent(colour, comp, _cover(comp, t))
             for colour, comp in _component_masks(product, c)]
    return _incidence(product.n // t, comps, c)


def _incidence(n_base: int, comps: list[MonoComponent], c: Colouring) -> Incidence:
    """The incidence of comps, the components of c by smallest vertex, on n_base vertices.

    Each row of adj comes out ascending: a base vertex meets the component
    nodes in the order they are numbered, and covers are ascending.
    """
    forest = _is_forest(n_base, [(comp.colour, comp.cover) for comp in comps])
    adj: list[list[int] | tuple[int, ...]] = [[] for _ in range(n_base)]
    for node, comp in enumerate(comps, start=n_base):
        for v in comp.cover:
            adj[v].append(node)
        adj.append(comp.cover)
    rows = tuple(map(tuple, adj))
    cycle = None if forest else _smallest_cycle(rows)
    return Incidence(n_base, tuple(comps), rows, c, cycle)


def _cover(comp: int, t: int) -> tuple[int, ...]:
    """The base vertices whose fibres meet the product vertex mask comp, ascending."""
    return tuple(dict.fromkeys(pv // t for pv in iter_bits(comp)))


def _split(product: Graph, colour: int, members: int, t: int) -> Iterator[MonoComponent]:
    """The components of product[members], all of one colour, by smallest vertex."""
    for comp in _components(product.adj, members):
        yield MonoComponent(colour, comp, _cover(comp, t))


def _smallest_vertex(comp: MonoComponent) -> int:
    """Sort key putting components, which are disjoint, in order of smallest vertex."""
    return comp.mask & -comp.mask


def _is_forest(n_base: int, comps: list[tuple[int, tuple[int, ...]]]) -> bool:
    """Whether the incidence of comps, given as (colour, cover) pairs, has no cycle.

    One union-find pass over the covers: a component joins the trees of its
    cover vertices, and closes a cycle when two of them already share a tree.
    Every cover is also checked for a base vertex that a component of the
    same colour already covers, which raises, cycle or not.
    """
    root = list(range(n_base))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    seen: set[tuple[int, int]] = set()
    forest = True
    for colour, cover in comps:
        for v in cover:
            if (v, colour) in seen:
                raise TransferInvariantError(
                    f"base vertex {v} is covered by two components of colour {colour}")
            seen.add((v, colour))
        joined = find(cover[0])
        for v in cover[1:]:
            r = find(v)
            if r == joined:
                forest = False
            root[r] = joined
    return forest


def _girth(adj: tuple[tuple[int, ...], ...], least: int = 3) -> int | None:
    """Length of a shortest cycle of the simple graph adj, or None if it has none.

    A BFS from every vertex (Itai and Rodeh, SIAM J. Comput. 7(4), 1978): a
    non-tree edge x-y closes a walk of length depth[x] + depth[y] + 1 through
    the root, which holds a cycle no longer than that, and the BFS from a
    vertex of a shortest cycle closes that cycle with exactly its length.  The
    edges at x close at least 2 * depth[x], because a visited neighbour is at
    most one level above x, so a BFS stops at its first vertex with
    2 * depth >= best.  The scan stops at a cycle of length least, the
    shortest adj can have: 3 in general, 4 if adj is bipartite.
    """
    nv = len(adj)
    best = nv + 1  # longer than any cycle
    for root in range(nv):
        depth = [-1] * nv
        parent = [-1] * nv
        depth[root] = 0
        order = [root]
        for x in order:  # order grows while it is read: a BFS queue
            dx = depth[x]
            if 2 * dx >= best:
                break
            for y in adj[x]:
                if depth[y] < 0:
                    depth[y] = dx + 1
                    parent[y] = x
                    order.append(y)
                elif y != parent[x] and dx + depth[y] + 1 < best:
                    best = dx + depth[y] + 1
        if best <= least:
            break
    return best if best <= nv else None


def _smallest_cycle(adj: tuple[tuple[int, ...], ...]) -> tuple[int, ...] | None:
    """Vertices of a shortest cycle, canonically rotated, or None if acyclic.

    The girth L comes first, from ``_girth``.  Then a BFS from every vertex
    in turn, in ascending order: each non-tree edge, scanned in BFS order and
    ascending adjacency, closes a candidate cycle through the endpoints' lowest
    common tree ancestor, and the first candidate of length L is returned.
    Every candidate is a cycle, so none is shorter than L, and this is the
    candidate a search through every root would keep as the first of least
    length.  adj must be bipartite and simple, as every incidence is
    (``build_incidence`` rejects a second cover of a vertex and colour), so
    the girth search stops at its first 4-cycle.
    """
    length = _girth(adj, 4)
    if length is None:
        return None
    nv = len(adj)
    for root in range(nv):
        depth = [-1] * nv
        parent = [-1] * nv
        depth[root] = 0
        order = [root]
        for x in order:  # a BFS queue, as in _girth
            for y in adj[x]:
                if depth[y] < 0:
                    depth[y] = depth[x] + 1
                    parent[y] = x
                    order.append(y)
        for x in order:
            for y in adj[x]:
                if y < x or parent[y] == x or parent[x] == y:
                    continue
                px = [x]
                py = [y]
                while px[-1] != py[-1]:
                    if depth[px[-1]] >= depth[py[-1]]:
                        px.append(parent[px[-1]])
                    else:
                        py.append(parent[py[-1]])
                cycle = px[:-1] + py[::-1]  # x .. lca .. y, plus closing edge y-x
                if len(cycle) == length:
                    return _canonical_rotation(cycle)
    raise TransferInvariantError(f"no candidate cycle has the girth {length}")


def _canonical_rotation(cycle: list[int]) -> tuple[int, ...]:
    start = cycle.index(min(cycle))
    rotated = cycle[start:] + cycle[:start]
    backwards = [rotated[0]] + rotated[1:][::-1]
    return tuple(min(rotated, backwards))


@dataclass(frozen=True)
class RecolourOp:
    """One product vertex changing colour."""

    product_vertex: int
    old: int
    new: int


@dataclass(frozen=True)
class EliminationStep:
    """One cycle surgery: base vertices, component colours, and the rewrites."""

    base_vertices: tuple[int, ...]
    colours: tuple[int, ...]
    transfer_count: int
    pivot: int
    ops: tuple[RecolourOp, ...]


def eliminate_cycles(product: Graph, c: Colouring, t: int,
                     cluster_cap: int) -> tuple[Incidence, tuple[EliminationStep, ...]]:
    """Rewrite c until the component/vertex incidence on product = g * K_t is acyclic.

    Each round finds a shortest incidence cycle and cyclically shifts a fixed
    number of colour copies along it, chosen so one vertex loses a colour from
    its fibre entirely.  The rewrite preserves the clustering cap and only
    ever shrinks fibre palettes; the total palette size strictly drops, which
    bounds the number of rounds.  Returns the acyclic incidence it stopped
    at, whose ``colouring`` is the rewritten c.

    The components are kept from step to step as a list by smallest vertex.
    A surgery changes only the classes of its cycle's colours (see the module
    docstring), so only those are split again before the next incidence is
    built from the list.
    """
    bad = check_clustered(product, c, cluster_cap)
    if bad:
        raise ValueError(f"input colouring is not {cluster_cap}-clustered on the product: {bad}")
    inc = build_incidence(product, c, t)
    n = inc.n_base
    comps = list(inc.components)
    classes = _class_masks(c)
    steps: list[EliminationStep] = []
    potential = float("inf")  # total fibre palette size: every step must lower it
    for _ in range(product.n + 1):
        cur = inc.colouring
        palettes = sum(len(set(cur.colours[p:p + t])) for p in range(0, product.n, t))
        if palettes >= potential:
            raise TransferInvariantError("palette potential failed to decrease")
        potential = palettes
        cycle = inc.cycle
        if cycle is None:
            return inc, tuple(steps)
        if len(cycle) % 2 or len(cycle) < 4:
            raise TransferInvariantError(f"incidence cycle is not alternating: {cycle}")
        base = cycle[0::2]
        comp_nodes = cycle[1::2]
        if any(v >= n for v in base) or any(cn < n for cn in comp_nodes):
            raise TransferInvariantError(f"cycle does not alternate sides: {cycle}")
        a = [inc.components[cn - n].colour for cn in comp_nodes]
        # base[i] sits between component i-1 and component i, so both colours
        # appear on its fibre; shift count s is the smallest multiplicity of
        # a[i] at base[i], so the pivot fibre sheds colour a[pivot] completely.
        mults = [colour_multiset(cur, t, v)[col] for v, col in zip(base, a)]
        if min(mults) < 1:
            raise TransferInvariantError("cycle colour missing from fibre")
        s = min(mults)
        pivot = mults.index(s)
        colours = list(cur.colours)
        ops: list[RecolourOp] = []
        for i, v in enumerate(base):
            give, receive = a[i], a[i - 1]
            moved = 0
            for x in range(t):
                if moved == s:
                    break
                if colours[v * t + x] == give:
                    colours[v * t + x] = receive
                    ops.append(RecolourOp(v * t + x, give, receive))
                    moved += 1
            if moved != s:
                raise TransferInvariantError("fewer colour copies than the shift count")
        nxt = Colouring(tuple(colours))
        _check_step_invariants(product, cur, nxt, cluster_cap, t, n, base, pivot, a)
        steps.append(EliminationStep(tuple(base), tuple(a), s, pivot, tuple(ops)))
        for op in ops:
            classes[op.old] &= ~(1 << op.product_vertex)
            classes[op.new] |= 1 << op.product_vertex
        touched = set(a)
        comps = [comp for comp in comps if comp.colour not in touched]
        for colour in touched:
            comps += _split(product, colour, classes[colour], t)
        comps.sort(key=_smallest_vertex)
        inc = _incidence(n, comps, nxt)
    raise TransferInvariantError("cycle elimination exceeded its iteration bound")


def _check_step_invariants(product, cur, nxt, cluster_cap, t, n_base, base, pivot, a):
    if Counter(cur.colours) != Counter(nxt.colours):
        raise TransferInvariantError("global colour histogram changed")
    for v in range(n_base):
        old_pal = set(cur.colours[v * t : (v + 1) * t])
        new_pal = set(nxt.colours[v * t : (v + 1) * t])
        if not new_pal <= old_pal:
            raise TransferInvariantError(f"fibre palette of vertex {v} grew")
    pv = base[pivot]
    if a[pivot] in nxt.colours[pv * t : (pv + 1) * t]:
        raise TransferInvariantError("pivot fibre kept the colour it should shed")
    bad = check_clustered(product, nxt, cluster_cap)
    if bad:
        raise TransferInvariantError(f"clustering cap broken by surgery: {bad}")


def find_small_component(inc: Incidence, ell: int) -> MonoComponent:
    """A component covering at most ell base vertices of an acyclic incidence.

    Counting shows such a component must exist: with every fibre of size t and
    components capped at ell*t product vertices, a cover larger than ell forces
    branching that would close a cycle.  Raises when the precondition fails.
    """
    if inc.cycle is not None:
        raise TransferInvariantError("incidence graph still has a cycle")
    return inc.components[_first_small([cc.cover for cc in inc.components], ell)]


def _first_small(covers: list[tuple[int, ...]], ell: int) -> int:
    """Index of the first cover of at most ell base vertices."""
    for i, cover in enumerate(covers):
        if len(cover) <= ell:
            return i
    raise TransferInvariantError(
        f"acyclic incidence but no component covers <= {ell} vertices; "
        f"covers: {[len(cover) for cover in covers]}"
    )


def _clear(product: Graph, comps: list[MonoComponent], live: int, dead: int,
           t: int) -> list[MonoComponent]:
    """The components of product[live] once the product vertices in dead have left it.

    comps are the components before, by smallest vertex, and so is the
    result.  A component that misses dead is
    kept as it is; one that meets it is replaced by the components of its
    surviving vertices.
    """
    kept = []
    for entry in comps:
        colour, comp, _ = entry
        if not comp & dead:
            kept.append(entry)
            continue
        kept += _split(product, colour, comp & live, t)
    kept.sort(key=_smallest_vertex)
    return kept


@dataclass(frozen=True)
class ComponentPick:
    colour: int
    base_vertices: tuple[int, ...]  # original labels


@dataclass(frozen=True)
class TransferTrace:
    t: int
    ell: int
    rounds: tuple[tuple[tuple[EliminationStep, ...], ComponentPick], ...]

    def to_json(self) -> dict:
        out = _fields_json(self)
        # a round is a plain pair, which the rule makes a list: name its two parts
        out["rounds"] = [{"eliminations": elims, "pick": pick} for elims, pick in out["rounds"]]
        return out


@dataclass(frozen=True)
class DescentResult:
    colouring: Colouring
    trace: TransferTrace


def descend(g: Graph, c: Colouring, t: int, ell: int) -> DescentResult:
    """Turn an ell*t-clustered colouring of g * K_t into an ell-clustered one of g.

    Eliminates incidence cycles once, then repeatedly picks the first
    component, by smallest vertex, whose base footprint has at most ell
    vertices; that footprint takes the component's colour and its fibres
    leave the mask of live product vertices.  The components of the live
    vertices are kept from round to round as (colour, vertex mask, cover):
    the untouched ones stay whole components with their covers, and only
    those that met the cleared fibres are split, by ``_clear``, so the list
    is the one a rebuild on the live mask would give, in the same order.
    Deleting a footprint cannot close a cycle (see the module docstring), so
    later rounds eliminate nothing; every round still checks one component
    per base vertex and colour and an acyclic incidence.  The output colours
    each vertex from its original fibre palette, uses no new colours, and is
    verified ell-clustered before returning.
    """
    if t < 1 or ell < 1:
        raise ValueError("t and ell must be positive")
    product = strong_product(g, complete_graph(t))
    original_palettes = [set(c.colours[v * t : (v + 1) * t]) for v in range(g.n)]

    out: list[int | None] = [None] * g.n
    inc, elims = eliminate_cycles(product, c, t, ell * t)
    comps = list(inc.components)
    live = (1 << product.n) - 1
    fibre = (1 << t) - 1  # the copies of base vertex 0
    rounds = []
    while live:
        if not _is_forest(g.n, [(colour, cover) for colour, _, cover in comps]):
            raise TransferInvariantError("incidence graph still has a cycle")
        colour, _, cover = comps[_first_small([entry[2] for entry in comps], ell)]
        dead = 0
        for v in cover:
            if out[v] is not None:  # every round colours new vertices, so the loop ends
                raise TransferInvariantError(f"vertex {v} picked twice")
            out[v] = colour
            dead |= fibre << v * t
        live &= ~dead
        rounds.append((elims, ComponentPick(colour, cover)))
        comps, elims = _clear(product, comps, live, dead, t), ()

    missing = [v for v, col in enumerate(out) if col is None]
    if missing:
        raise TransferInvariantError(f"descent left vertices {missing} uncoloured")
    result = Colouring(tuple(out))  # type: ignore[arg-type]
    for v in range(g.n):
        if result.colours[v] not in original_palettes[v]:
            raise TransferInvariantError(
                f"vertex {v} got colour {result.colours[v]} outside its fibre palette"
            )
    bad = check_clustered(g, result, ell)
    if bad:
        raise TransferInvariantError(f"descent output is not {ell}-clustered: {bad}")
    return DescentResult(result, TransferTrace(t, ell, tuple(rounds)))


def replay_trace(g: Graph, c: Colouring, t: int, trace: TransferTrace) -> Colouring:
    """Re-run a recorded descent against the original colouring.

    Applies every recolour with its expected before-value checked, then the
    component picks; a mismatch means the trace does not belong to (g, c, t).
    The replayed colouring must be ``trace.ell``-clustered on g.
    """
    if t != trace.t:
        raise ValueError(f"trace was recorded at t={trace.t}, not t={t}")
    if c.n != g.n * t:
        raise ValueError(f"colouring has {c.n} entries, g * K_{t} has {g.n * t} vertices")
    colours = list(c.colours)
    out: list[int | None] = [None] * g.n
    for elims, pick in trace.rounds:
        for step in elims:
            for op in step.ops:
                if colours[op.product_vertex] != op.old:
                    raise TransferInvariantError(
                        f"trace mismatch at product vertex {op.product_vertex}: "
                        f"expected {op.old}, found {colours[op.product_vertex]}"
                    )
                colours[op.product_vertex] = op.new
        for v in pick.base_vertices:
            if out[v] is not None:
                raise TransferInvariantError(f"vertex {v} picked twice")
            if pick.colour not in colours[v * t : (v + 1) * t]:
                raise TransferInvariantError(
                    f"pick colour {pick.colour} absent from fibre of vertex {v}"
                )
            out[v] = pick.colour
    if any(col is None for col in out):
        raise TransferInvariantError("trace leaves vertices uncoloured")
    result = Colouring(tuple(out))  # type: ignore[arg-type]
    bad = check_clustered(g, result, trace.ell)
    if bad:
        raise TransferInvariantError(f"replayed colouring is not {trace.ell}-clustered: {bad}")
    return result

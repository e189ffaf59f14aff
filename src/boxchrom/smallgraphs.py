"""Isomorph-free generation of small graphs, canonical forms, random graphs.

Canonical labelling uses colour refinement to split vertices into invariant
classes, then finds the class-respecting labelling whose upper-triangle
bitstring is smallest by a level-by-level search: it keeps every prefix whose
columns so far are least and tries one vertex per twin class at each step.
That is enough to dedupe exhaustive augmentation up to the supported cap of 8
vertices; it is not a general isomorphism engine.

Generation adds one vertex to every graph on n-1 vertices in every way, but
canonicalises only the augmentations whose new vertex has maximum degree.
Every graph has a maximum-degree vertex, and deleting it leaves a graph on
n-1 vertices, so no graph is missed.  Of those, it canonicalises one attach
mask per orbit of the parent's automorphism group (the orbit step of McKay's
canonical augmentation, J. Algorithms 26, 1998).  The generators come from
the search that canonicalised the parent as a child one level down: any two
least orders π_0, π_i give the automorphism π_0[k] -> π_i[k], and every twin
pair gives a transposition, so no graph is searched twice.  An automorphism
of the parent maps one attach mask onto another and extends to an isomorphism
of the two children, so pruning drops only isomorphic duplicates; a smaller
generated group would cost speed, never a graph.  Automorphisms preserve
degrees, so a whole orbit passes or fails the maximum-degree filter together.
The output is sorted by graph6 string.
"""

from __future__ import annotations

import random

from .graphs import Graph, _trusted, _twin_classes, emit_graph6, iter_bits

__all__ = [
    "CanonicalFormError",
    "GENERATION_CAP",
    "all_graphs",
    "canonical_certificate",
    "canonical_form",
    "connected_graphs",
    "random_connected_graph",
    "random_graph",
]

GENERATION_CAP = 8


class CanonicalFormError(RuntimeError):
    """The canonical labelling search ended without a labelling: a search bug."""


def _refinement_classes(g: Graph) -> list[list[int]]:
    """Stable colour-refinement partition, classes in canonical signature order.

    A vertex's signature is its colour and the sorted tuple of its neighbours'
    colours, built from popcounts of its row against each colour's mask.
    """
    n = g.n
    adj = g.adj
    colour = [0] * n
    masks = [(1 << n) - 1]

    def neighbour_colours(row: int) -> tuple[int, ...]:
        out: tuple[int, ...] = ()
        for c, mask in enumerate(masks):
            k = (row & mask).bit_count()
            if k:
                out += (c,) * k
        return out

    for _ in range(max(n, 1)):
        sig = [(colour[v], neighbour_colours(adj[v])) for v in range(n)]
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


def _least_orders(g: Graph) -> tuple[list[tuple[int, ...]], list[int]]:
    """Every class-respecting least order up to twin swaps, and the twin classes.

    An order is least when the column-major triangle bits of g relabelled by
    it are smallest.  The frontier holds every class-respecting prefix whose
    columns so far are least.  Each position extends every frontier prefix by
    the unplaced vertices of that position's refinement class and keeps the
    extensions whose new column is least.  Every prefix extends to a full
    order, so that column is the optimum's.  Swapping two unplaced twins is an
    automorphism fixing the prefix and the classes, so one vertex per twin
    class is tried.
    """
    adj = g.adj
    twin = _twin_classes(g)
    frontier: list[tuple[int, ...]] = [()]
    for block in _refinement_classes(g):
        for _ in block:
            least = -1
            extended: list[tuple[int, ...]] = []
            for prefix in frontier:
                for v in {twin[v]: v for v in block if v not in prefix}.values():
                    # adjacency to the prefix, first placed vertex most significant:
                    # columns of one length compare as ints as the bit tuples would
                    col = 0
                    for u in prefix:
                        col = col << 1 | adj[v] >> u & 1
                    if least < 0 or col < least:
                        least, extended = col, []
                    if col == least:
                        extended.append(prefix + (v,))
            frontier = extended
    if not frontier:
        raise CanonicalFormError(f"no labelling found for {emit_graph6(g)}")
    return frontier, twin


def canonical_form(g: Graph) -> Graph:
    """Isomorphism-invariant relabelling: equal adj tuples iff isomorphic.

    The result carries generators of its automorphism group, read off the
    same search.  Two least orders π_0, π_j relabel g to the same graph, so
    π_0[i] -> π_j[i] is an automorphism of g, which is i -> pos[π_j[i]] in the
    new labels (pos inverts π_0); so is the transposition of two twins.  They
    generate the whole group: an automorphism maps π_0 to a least order, and
    swapping twins position by position turns that order into a frontier
    order.
    """
    orders, twin = _least_orders(g)
    first = orders[0]
    position = [0] * g.n
    for i, v in enumerate(first):
        position[v] = i
    gens = [tuple(position[v] for v in order) for order in orders[1:]]
    for v, cls in enumerate(twin):
        if cls != v:
            image = list(range(g.n))
            image[position[v]], image[position[cls]] = position[cls], position[v]
            gens.append(tuple(image))
    adj = tuple(sum(1 << position[u] for u in iter_bits(g.adj[v])) for v in first)
    return _trusted(adj, name=g.name, automorphisms=tuple(gens))


def canonical_certificate(g: Graph) -> str:
    return emit_graph6(canonical_form(g))


_ALL_CACHE: dict[int, tuple[Graph, ...]] = {}


def all_graphs(n: int) -> tuple[Graph, ...]:
    """Every graph on n unlabelled vertices, one canonical copy each, n <= 8."""
    if not 1 <= n <= GENERATION_CAP:
        raise ValueError(f"exhaustive generation supports 1..{GENERATION_CAP} vertices")
    if n in _ALL_CACHE:
        return _ALL_CACHE[n]
    if n == 1:
        result: tuple[Graph, ...] = (_trusted((0,), automorphisms=()),)
    else:
        out: dict[tuple[int, ...], Graph] = {}
        for g in all_graphs(n - 1):
            gens = g._automorphisms
            degrees = [row.bit_count() for row in g.adj]
            top = max(degrees)
            top_mask = sum(1 << v for v, deg in enumerate(degrees) if deg == top)
            seen: set[int] = set()
            for attach in range(1 << (n - 1)):
                # keep only augmentations whose new vertex has maximum degree,
                # and of those one per orbit of Aut(g)
                k = attach.bit_count()
                if k < top or (k == top and attach & top_mask) or attach in seen:
                    continue
                seen.add(attach)
                stack = [attach]
                while stack:
                    mask = stack.pop()
                    for image in gens:
                        moved = 0
                        for v in iter_bits(mask):
                            moved |= 1 << image[v]
                        if moved not in seen:
                            seen.add(moved)
                            stack.append(moved)
                adj = list(g.adj) + [attach]
                for v in iter_bits(attach):
                    adj[v] |= 1 << (n - 1)
                candidate = canonical_form(_trusted(adj))
                out.setdefault(candidate.adj, candidate)
        result = tuple(sorted(out.values(), key=emit_graph6))
    _ALL_CACHE[n] = result
    return result


def connected_graphs(n: int) -> tuple[Graph, ...]:
    return tuple(g for g in all_graphs(n) if g.is_connected())


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Binomial random graph with a fixed seed."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """Random spanning tree plus binomial edges: connected by construction."""
    if n < 1:
        raise ValueError("need at least one vertex")
    g = random_graph(n, p, seed)
    if n == 1 or g.is_connected():
        return g
    rng = random.Random(seed ^ 0x5EED)
    edges = set(g.edges())
    if n == 2:
        edges.add((0, 1))
    else:
        # decode a uniform random Pruefer sequence into a labelled tree
        seq = [rng.randrange(n) for _ in range(n - 2)]
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        for x in seq:
            for leaf in range(n):
                if degree[leaf] == 1:
                    edges.add((min(leaf, x), max(leaf, x)))
                    degree[leaf] -= 1
                    degree[x] -= 1
                    break
        last = [v for v in range(n) if degree[v] == 1]
        edges.add((min(last), max(last)))
    return Graph.from_edges(n, sorted(edges))

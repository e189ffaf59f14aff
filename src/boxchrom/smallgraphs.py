"""Isomorph-free generation of small graphs, canonical forms, random graphs.

Colour refinement splits the vertices into isomorphism-invariant classes.
Round 1 ranks vertices by degree, ascending.  Each later round ranks them by
(colour, the tuple of -|N(v) & class c| over the classes c in order) and stops
once the class count holds or every class is one vertex.  That is the
partition and class order of the classic signature refinement, which ranks
(colour, sorted tuple of neighbour colours) from one class: its round 1 ranks
by degree too, and after it vertices of one colour have one degree, since
later rounds only split colours.  Two vertices of one colour with a_c and b_c
neighbours in class c then have sorted tuples 0^a_0 1^a_1 ... and
0^b_0 1^b_1 ... of one length; at the first c with a_c != b_c, the one with
more c's holds c where the other holds a larger colour, so it sorts first,
exactly as (-a_0, -a_1, ...) does.  Colour leads both keys and ranks keep
class order, so the class count holds exactly when the colouring does.

Canonical labelling finds the class-respecting labelling whose upper-triangle
bitstring is smallest by a level-by-level search: it keeps every prefix whose
columns so far are least and tries one vertex per twin class at each step.
That is enough up to the supported cap of 8 vertices; it is not a general
isomorphism engine.

Generation is McKay's canonical augmentation (J. Algorithms 26, 1998).  Each
graph P on n-1 vertices, in canonical form, gains a vertex x attached to a
mask A, in three filters, cheapest first:

- orbit step: one mask per orbit of Aut(P), whose generators come from the
  search that canonicalised P as a child one level down and are kept beside P
  in ``_ALL_CACHE`` (any two least orders π_0, π_i give the automorphism
  π_0[k] -> π_i[k], and every twin pair gives a transposition, so no graph is
  searched twice);
- refinement filter: x must lie in the child's last refinement class.  Class
  order starts from degree, so that class holds only maximum-degree vertices,
  and masks with fewer bits than P's maximum degree, or as many bits and a
  top-degree vertex in A, are dropped before the child is built;
- canonical-parent test: the child is labelled, and accepted only when x lies
  in the Aut(child)-orbit of its canonical vertex, the first vertex of the
  last class in canonical order.  The orbit is read from the generators the
  labelling returns, on x's canonical label.

Each graph G on n vertices is accepted exactly once.  Its last class and its
canonical vertex's orbit are isomorphism-invariant.  At least once: G - v, for
v the canonical vertex, is isomorphic to one parent P; the orbit step tries
one mask of the orbit of N(v)'s image, and its child is isomorphic to G by a
map sending x to v, so it passes both later tests.  At most once: if accepted
children P + x (mask A) and P' + x (mask A') are isomorphic by σ, both x lie
in the canonical orbit, so an automorphism τ of P' + x takes σ(x) back to x.
Then τσ restricts to an isomorphism P -> P', so P = P', since each parent is
one canonical copy, and to an automorphism of P taking A onto A', so A and A'
share an orbit and are one mask.  So no dedupe is needed.  Both halves need
the generators to generate all of Aut: a smaller group would repeat graphs at
the orbit step and drop them at the canonical-parent test.  The output is
sorted by graph6 string.
"""

from __future__ import annotations

import random

from .graphs import Graph, _relabel, _trusted, _twin_classes, emit_graph6, iter_bits

__all__ = [
    "CanonicalFormError",
    "GENERATION_CAP",
    "all_graphs",
    "canonical_form",
    "connected_graphs",
    "random_connected_graph",
    "random_graph",
]

GENERATION_CAP = 8

_Generators = tuple[tuple[int, ...], ...]  # automorphisms, each as its vertex images


class CanonicalFormError(RuntimeError):
    """The canonical labelling search ended without a labelling: a search bug."""


def _refinement_classes(g: Graph) -> list[list[int]]:
    """Stable colour-refinement partition, classes in canonical order.

    Round 1 ranks degrees; later rounds rank (colour, -popcount of the row
    against each class mask), as the module docstring derives, written as one
    int whose base-(n+1) digits are the colour, then n minus each popcount, so
    ints compare as the tuples would.  Each class lists its vertices in
    increasing order.
    """
    n, adj = g.n, g.adj
    keys = [row.bit_count() for row in adj]
    count = 1
    while True:
        rank = {key: i for i, key in enumerate(sorted(set(keys)))}
        colour = [rank[key] for key in keys]
        if len(rank) == count or len(rank) == n:
            break
        count = len(rank)
        masks = [0] * count
        for v, c in enumerate(colour):
            masks[c] |= 1 << v
        keys = []
        for c, row in zip(colour, adj):
            for mask in masks:
                c = c * (n + 1) + n - (row & mask).bit_count()
            keys.append(c)
    classes: list[list[int]] = [[] for _ in rank]
    for v, c in enumerate(colour):
        classes[c].append(v)
    return classes


def _least_orders(g: Graph, classes: list[list[int]]
                  ) -> tuple[list[tuple[int, ...]], list[int]]:
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
    for block in classes:
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
    """Isomorphism-invariant relabelling: equal adj tuples iff isomorphic."""
    return _labelling(g, _refinement_classes(g))[0]


def _labelling(g: Graph, classes: list[list[int]]) -> tuple[Graph, list[int], _Generators]:
    """``canonical_form(g)`` from g's refinement classes, each vertex's new label,
    and generators of the form's automorphism group, read off the same search.

    Two least orders π_0, π_j relabel g to the same graph, so π_0[i] -> π_j[i]
    is an automorphism of g, which is i -> pos[π_j[i]] in the new labels (pos
    inverts π_0); so is the transposition of two twins.  They generate the
    whole group: an automorphism maps π_0 to a least order, and swapping twins
    position by position turns that order into a frontier order.
    """
    orders, twin = _least_orders(g, classes)
    adj, position = _relabel(g.adj, orders[0])
    gens = [tuple(position[v] for v in order) for order in orders[1:]]
    for v, cls in enumerate(twin):
        if cls != v:
            image = list(range(g.n))
            image[position[v]], image[position[cls]] = position[cls], position[v]
            gens.append(tuple(image))
    return _trusted(adj, name=g.name), position, tuple(gens)


def _in_orbit(a: int, b: int, gens: _Generators) -> bool:
    """True when some product of the generators maps b to a."""
    orbit, stack = {b}, [b]
    while stack:
        v = stack.pop()
        if v == a:
            return True
        for image in gens:
            if image[v] not in orbit:
                orbit.add(image[v])
                stack.append(image[v])
    return False


# per n: the graphs, and beside each the generators its labelling read off
_ALL_CACHE: dict[int, tuple[tuple[Graph, ...], tuple[_Generators, ...]]] = {}


def all_graphs(n: int) -> tuple[Graph, ...]:
    """Every graph on n unlabelled vertices, one canonical copy each, n <= 8."""
    if not 1 <= n <= GENERATION_CAP:
        raise ValueError(f"exhaustive generation supports 1..{GENERATION_CAP} vertices")
    if n in _ALL_CACHE:
        return _ALL_CACHE[n][0]
    if n == 1:
        out: list[tuple[Graph, _Generators]] = [(_trusted((0,)), ())]
    else:
        out = []
        x = n - 1
        # all_graphs(x) fills _ALL_CACHE[x] before its generators are read
        for g, gens in zip(all_graphs(x), _ALL_CACHE[x][1]):
            degrees = [row.bit_count() for row in g.adj]
            top = max(degrees)
            top_mask = sum(1 << v for v, deg in enumerate(degrees) if deg == top)
            seen: set[int] = set()
            for attach in range(1 << x):
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
                    adj[v] |= 1 << x
                child = _trusted(adj)
                classes = _refinement_classes(child)
                last = classes[-1]
                if last[-1] != x:
                    continue  # x, the largest vertex, is not in the last class
                form, position, form_gens = _labelling(child, classes)
                # canonical-parent test: the canonical vertex has label n - |last|
                if _in_orbit(position[x], n - len(last), form_gens):
                    out.append((form, form_gens))
        out.sort(key=lambda pair: emit_graph6(pair[0]))
    graphs, generators = zip(*out)
    _ALL_CACHE[n] = graphs, generators
    return graphs


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

"""Immutable simple graphs with bitmask adjacency, product constructions and I/O.

Vertices are always 0..n-1.  Each adjacency row is an int used as a bitmask,
which keeps subgraph and neighbourhood tests cheap at desk scale and makes
graphs hashable (so spectra can be memoised).

Every result of the package serialises by one rule, ``_to_json``: a value
with ``to_json`` uses it, a dataclass or named tuple becomes its fields in
declaration order, a tuple or list becomes a list, and anything else is
returned unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Graph",
    "Graph6Error",
    "bowtie_graph",
    "complement",
    "complete_bipartite",
    "complete_graph",
    "component_mask",
    "cycle_graph",
    "empty_graph",
    "matching_graph",
    "paley9_graph",
    "path_graph",
    "petersen_graph",
    "disjoint_union",
    "emit_graph6",
    "iter_bits",
    "join",
    "line_graph",
    "named_graph",
    "parse_edgelist",
    "parse_graph6",
    "strong_product",
]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def component_mask(adj: Sequence[int], seed: int, within: int) -> int:
    """Bitmask of the component of ``seed`` in the subgraph induced on ``within``.

    ``seed`` is in the result whether or not it lies in ``within``.
    """
    comp = frontier = 1 << seed
    while frontier:
        nxt = 0
        for u in iter_bits(frontier):
            nxt |= adj[u]
        frontier = nxt & within & ~comp
        comp |= frontier
    return comp


def _components(adj: Sequence[int], within: int) -> Iterator[int]:
    """Masks of the components of the subgraph induced on ``within``, by smallest vertex."""
    while within:
        comp = component_mask(adj, (within & -within).bit_length() - 1, within)
        within &= ~comp
        yield comp


def _fields_json(value) -> dict:
    """A dataclass or named tuple as its fields in declaration order, each by ``_to_json``."""
    names = value._fields if isinstance(value, tuple) else [f.name for f in fields(value)]
    return {name: _to_json(getattr(value, name)) for name in names}


def _to_json(value):
    """The JSON form of a result value, by the rule in the module docstring."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if is_dataclass(value) or isinstance(value, tuple) and hasattr(value, "_fields"):
        return _fields_json(value)
    if isinstance(value, (tuple, list)):
        return [_to_json(v) for v in value]
    return value


def _twin_classes(g: Graph) -> list[int]:
    """Per vertex, the least vertex of its twin class.

    u and w are twins when N(u) - w = N(w) - u: equal open neighbourhoods
    (equal ``adj`` rows) or equal closed ones (equal ``adj | 1 << v``).  A
    vertex with an open twin is not adjacent to it and one with a closed twin
    is, so no vertex has both kinds and one dict, keyed by the row for open
    twins and by the complemented closed row for closed twins, finds every
    class in one pass.
    """
    first: dict[int, int] = {}
    classes = []
    for v, row in enumerate(g.adj):
        cls = first.get(row)
        if cls is None:
            cls = first.setdefault(~(row | 1 << v), v)
            first[row] = cls
        classes.append(cls)
    return classes


def _relabel(adj: Sequence[int], order: Sequence[int]) -> tuple[list[int], list[int]]:
    """The rows with vertex ``order[i]`` renamed i, and each vertex's new label."""
    position = [0] * len(order)
    for i, v in enumerate(order):
        position[v] = i
    rows = []
    for v in order:
        row, new = adj[v], 0
        while row:  # iter_bits inlined: this runs per generated child and per kernel call
            low = row & -row
            new |= 1 << position[low.bit_length() - 1]
            row ^= low
        rows.append(new)
    return rows, position


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph given by per-vertex neighbourhood bitmasks."""

    n: int
    adj: tuple[int, ...]
    name: str | None = field(default=None, compare=False)
    # (base, t) when this graph is strong_product(base, K_t); not part of equality
    _base: tuple[Graph, int] | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        for v, row in enumerate(self.adj):
            if row < 0 or row >> self.n:
                raise ValueError(f"adjacency row {v} has bits outside 0..{self.n - 1}")
            if row & (1 << v):
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(self.adj):
            for u in iter_bits(row):
                if not self.adj[u] & (1 << v):
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]], name: str | None = None) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj), name)

    # -- basic accessors -------------------------------------------------

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbours(self, v: int) -> tuple[int, ...]:
        return tuple(iter_bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in iter_bits(rest):
                out.append((u, v))
        return out

    @cached_property
    def edge_count(self) -> int:
        # cached in the instance dict, which equality and hashing never read
        return sum(row.bit_count() for row in self.adj) // 2

    @cached_property
    def _hash(self) -> int:
        # dataclass's hash, once; ints hash alike in every process, so a pickled copy's holds
        return hash((self.n, self.adj))

    def __hash__(self) -> int:
        return self._hash

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((row.bit_count() for row in self.adj), reverse=True))

    def max_degree(self) -> int:
        return max((row.bit_count() for row in self.adj), default=0)

    def min_degree(self) -> int:
        return min((row.bit_count() for row in self.adj), default=0)

    def is_connected(self) -> bool:
        full = (1 << self.n) - 1
        return self.n <= 1 or component_mask(self.adj, 0, full) == full

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or f"graph(n={self.n},m={self.edge_count})"
        return f"Graph<{label}>"


# -- constructions -------------------------------------------------------


def _trusted(adj: Sequence[int], base: tuple[Graph, int] | None = None,
             name: str | None = None) -> Graph:
    """A Graph on rows a construction built symmetric and loop-free, unchecked."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", len(adj))
    object.__setattr__(g, "adj", tuple(adj))
    object.__setattr__(g, "name", name)
    object.__setattr__(g, "_base", base)
    return g


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return _trusted([(full & ~row) & ~(1 << v) for v, row in enumerate(g.adj)])


def strong_product(g: Graph, h: Graph) -> Graph:
    """Strong product; (u, i) is flattened to u * h.n + i.

    (u, i) ~ (v, j) iff each coordinate is equal or adjacent, and the pairs
    themselves differ.  When h is complete the result remembers (g, h.n), so
    its spectra and clique number follow from g's.
    """
    adj = []
    for u in range(g.n):
        spread = 0  # one bit at the start of each fibre of N[u]
        for v in iter_bits(g.adj[u] | 1 << u):
            spread |= 1 << v * h.n
        for i, row in enumerate(h.adj):
            # each closed row of h fits in a fibre, so the product's blocks never carry
            adj.append(spread * (row | 1 << i) & ~(1 << (u * h.n + i)))
    complete = h.n and all(row | 1 << i == (1 << h.n) - 1 for i, row in enumerate(h.adj))
    return _trusted(adj, (g, h.n) if complete else None)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    adj = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, tuple(adj))


def join(g: Graph, h: Graph) -> Graph:
    """Join: disjoint union plus all edges between the two sides."""
    hmask = ((1 << h.n) - 1) << g.n
    adj = [row | hmask for row in g.adj] + [row << g.n | (1 << g.n) - 1 for row in h.adj]
    return Graph(g.n + h.n, tuple(adj))


def line_graph(g: Graph) -> Graph:
    """Line graph; vertex i of the result is the i-th edge of g.edges()."""
    edges = g.edges()
    if not edges:
        raise ValueError("line graph of an edgeless graph is undefined here")
    n = len(edges)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            a, b = edges[i], edges[j]
            if a[0] in b or a[1] in b:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj))


# -- named families ------------------------------------------------------


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)), f"K{n}")


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n, f"E{n}")


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)], f"C{n}")


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)], f"P{n}")


def complete_bipartite(a: int, b: int) -> Graph:
    edges = [(u, a + v) for u in range(a) for v in range(b)]
    return Graph.from_edges(a + b, edges, f"K{a},{b}")


def petersen_graph() -> Graph:
    """Kneser graph on the 2-subsets of a 5-set, pairs ordered lexicographically."""
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges = []
    for x in range(10):
        for y in range(x + 1, 10):
            if not set(pairs[x]) & set(pairs[y]):
                edges.append((x, y))
    return Graph.from_edges(10, edges, "petersen")


def paley9_graph() -> Graph:
    """Paley graph on GF(9) = GF(3)[x]/(x^2+1); element a+bx gets label 3a+b."""
    elems = [(a, b) for a in range(3) for b in range(3)]
    # squares of the 8 nonzero elements: (a+bx)^2 = (a^2-b^2) + 2ab x
    squares = set()
    for a, b in elems:
        if (a, b) != (0, 0):
            squares.add(((a * a - b * b) % 3, (2 * a * b) % 3))
    edges = []
    for i, (a, b) in enumerate(elems):
        for j in range(i + 1, 9):
            c, d = elems[j]
            if ((a - c) % 3, (b - d) % 3) in squares:
                edges.append((i, j))
    return Graph.from_edges(9, edges, "paley9")


def bowtie_graph() -> Graph:
    """Two triangles sharing vertex 4."""
    return Graph.from_edges(5, [(0, 1), (0, 4), (1, 4), (2, 3), (2, 4), (3, 4)], "bowtie")


def matching_graph(m: int) -> Graph:
    return Graph.from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m)], f"{m}K2")


_FAMILIES = {
    "complete": (complete_graph, 1),
    "cycle": (cycle_graph, 1),
    "path": (path_graph, 1),
    "empty": (empty_graph, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "petersen": (petersen_graph, 0),
    "paley9": (paley9_graph, 0),
    "bowtie": (bowtie_graph, 0),
    "mK2": (matching_graph, 1),
}


def named_graph(name: str, params: Iterable[int] = ()) -> Graph:
    """Construct a graph from the named family catalogue."""
    if name not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown graph family {name!r}; known: {known}")
    builder, arity = _FAMILIES[name]
    args = tuple(params)
    if len(args) != arity:
        raise ValueError(f"family {name!r} takes {arity} parameter(s), got {len(args)}")
    return builder(*args)


# -- graph6 --------------------------------------------------------------


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


_G6_HEADER = ">>graph6<<"


def _g6_size_bytes(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return chr(126) + chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise ValueError("graph too large for graph6")


def emit_graph6(g: Graph) -> str:
    """Encode in graph6 format (no header, no trailing newline)."""
    bits = []
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            bits.append(col >> i & 1)
    out = [_g6_size_bytes(g.n)]
    for k in range(0, len(bits), 6):
        chunk = bits[k:k + 6]
        chunk += [0] * (6 - len(chunk))
        val = 0
        for b in chunk:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line; raises Graph6Error with a byte offset when malformed."""
    s = text
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    s = s.rstrip("\n")
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    base = len(text) - len(s) if text.startswith(_G6_HEADER) else 0
    for pos, ch in enumerate(s):
        if not (63 <= ord(ch) <= 126):
            raise Graph6Error(f"byte {ch!r} outside graph6 alphabet", base + pos)
    first = ord(s[0]) - 63
    if first < 63:
        n, body_at = first, 1
    else:
        if len(s) >= 2 and ord(s[1]) - 63 == 63:
            if len(s) < 8:
                raise Graph6Error("truncated 8-byte size field", base + len(s))
            n = 0
            for ch in s[2:8]:
                n = n << 6 | (ord(ch) - 63)
            body_at = 8
        else:
            if len(s) < 4:
                raise Graph6Error("truncated 4-byte size field", base + len(s))
            n = 0
            for ch in s[1:4]:
                n = n << 6 | (ord(ch) - 63)
            body_at = 4
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = s[body_at:]
    if len(body) < need:
        raise Graph6Error(f"need {need} body bytes for n={n}, got {len(body)}", base + len(s))
    if len(body) > need:
        raise Graph6Error("trailing bytes after graph body", base + body_at + need)
    bits = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend((val >> k) & 1 for k in (5, 4, 3, 2, 1, 0))
    for k in range(nbits, len(bits)):
        if bits[k]:
            raise Graph6Error("nonzero padding bits", base + body_at + k // 6)
    adj = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    return Graph(n, tuple(adj))


# -- edge-list text format ------------------------------------------------


def parse_edgelist(text: str) -> Graph:
    rows = [ln for ln in (line.strip() for line in text.splitlines()) if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty edge list input")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph.from_edges(n, edges)

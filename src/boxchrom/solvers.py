"""Exact desk-scale solvers for improper, clustered, fold and fractional colouring.

All searches are deterministic: vertices are branched in descending-degree
order, colours are tried ascending, and a brand-new colour is always the last
branch.  Optimality certificates come from exhausting the search at value-1
or from a matching combinatorial/spectral lower bound used to seed the search.

The branch order keeps each twin class contiguous.  u and w are twins when
N(u) - w = N(w) - u, so swapping them is an automorphism; every fibre
{v} x K_{d+1} of G x K_{d+1} is such a class.  The improper and clustered
searches give a vertex no colour below its previous twin's.  Together with
first-appearance colour order this loses no colouring up to symmetry: sort
the colours inside each twin block, then rename colours by first appearance.
The colours new to a block are consecutive and above the old ones, so sorting
the block again keeps first-appearance order.  The fold search uses the same
order without the twin floor.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .bounds import ceil_lower, hoffman_bilu
from .colouring import BFoldColouring, Colouring, Mode, check_bfold, check_clustered, check_improper
from .graphs import Graph, iter_bits

__all__ = [
    "SearchInvariantError",
    "SolveResult",
    "SolverCapError",
    "Timeout",
    "WitnessError",
    "alpha_d",
    "chromatic_bfold",
    "chromatic_clustered",
    "chromatic_improper",
    "clique_number",
    "fractional_chromatic",
]

DEFAULT_CAP = 40
FRACTIONAL_CAP = 16


class SolverCapError(ValueError):
    pass


class Timeout(Exception):
    """Internal signal; surfaced as a SolveResult with status 'timeout'."""


class WitnessError(RuntimeError):
    """A search returned a witness that fails its own definition: a solver bug."""


class SearchInvariantError(RuntimeError):
    """A search exhausted a colour count that is always feasible: a solver bug."""


@dataclass
class SolveResult:
    """Outcome of an exact solve.

    For minimisation problems value-1 is certified infeasible (by exhausted
    search or by the seeded lower bound); for maximisation problems value+1
    is.  A timeout carries the best bounds known instead of a value.
    """

    value: int | float | Fraction | None
    witness: object | None
    nodes: int
    millis: float
    status: str = "optimal"
    lower_bound: int | None = None
    lower_bound_source: str | None = None
    upper_bound: int | None = None

    def to_json(self) -> dict:
        if isinstance(self.value, Fraction):
            val, exact = float(self.value), str(self.value)
        else:
            val, exact = self.value, None
        wit = self.witness
        if isinstance(wit, (Colouring, BFoldColouring)):
            wit = wit.to_json()
        elif isinstance(wit, tuple) and wit and isinstance(wit[0], tuple) and len(wit[0]) == 2 \
                and isinstance(wit[0][1], float):
            wit = [{"set": list(s), "weight": w} for s, w in wit]
        elif isinstance(wit, tuple):
            wit = list(wit)
        return {"value": val, "value_exact": exact, "witness": wit,
                "nodes": self.nodes, "millis": round(self.millis, 3),
                "status": self.status, "lower_bound": self.lower_bound,
                "lower_bound_source": self.lower_bound_source,
                "upper_bound": self.upper_bound}


class _Clock:
    """Wall clock with a cooperative deadline, polled every few thousand nodes."""

    def __init__(self, timeout: float | None):
        self.start = time.monotonic()
        self.deadline = None if timeout is None else self.start + timeout
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.deadline is not None and self.nodes % 2048 == 0:
            if time.monotonic() > self.deadline:
                raise Timeout

    def millis(self) -> float:
        return (time.monotonic() - self.start) * 1e3


def _require_cap(g: Graph, cap: int) -> None:
    if g.n > cap:
        raise SolverCapError(f"graph has {g.n} vertices, solver cap is {cap}")


def _branch_order(g: Graph) -> tuple[list[int], list[int]]:
    """Branch order and, per position, the position of the previous twin (-1 if none).

    u and w are twins when N(u) - w = N(w) - u: equal open neighbourhoods
    (equal ``adj`` rows) or equal closed ones (equal ``adj | 1 << v``).  A
    vertex with an open twin is not adjacent to it and one with a closed twin
    is, so no vertex has both kinds and one dict, keyed by the row for open
    twins and by the complemented closed row for closed twins, finds every
    class in one pass.  Twins have equal degree, so the key (-degree, class,
    v) keeps each class contiguous; a twin-free graph keeps (-degree, v).
    """
    first: dict[int, int] = {}
    keys = []
    for v, row in enumerate(g.adj):
        cls = first.get(row)
        if cls is None:
            cls = first.setdefault(~(row | 1 << v), v)
            first[row] = cls
        keys.append((-row.bit_count(), cls, v))
    keys.sort()
    order = [v for _, _, v in keys]
    prev = [i - 1 if i and keys[i - 1][1] == cls else -1 for i, (_, cls, _) in enumerate(keys)]
    return order, prev


# -- feasibility searches --------------------------------------------------


def _search_improper(g: Graph, k: int, d: int, order: list[int], prev: list[int],
                     clock: _Clock) -> list[int] | None:
    n = g.n
    adj = g.adj
    colour = [0] * n
    masks = [0] * (k + 1)

    def place(i: int, max_used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        row = adj[v]
        p = prev[i]
        for c in range(colour[order[p]] if p >= 0 else 1, min(max_used + 1, k) + 1):
            clock.tick()
            mask = masks[c]
            hit = row & mask
            if hit.bit_count() > d:
                continue
            if d and any((adj[u] & mask).bit_count() >= d for u in iter_bits(hit)):
                continue
            if d == 0 and hit:
                continue
            colour[v] = c
            masks[c] = mask | (1 << v)
            if place(i + 1, max(max_used, c)):
                return True
            masks[c] = mask
            colour[v] = 0
        return False

    return colour if place(0, 0) else None


def _search_clustered(g: Graph, k: int, t: int, order: list[int], prev: list[int],
                      clock: _Clock) -> list[int] | None:
    n = g.n
    adj = g.adj
    colour = [0] * n
    masks = [0] * (k + 1)
    parent = list(range(n))
    size = [1] * n

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def place(i: int, max_used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        row = adj[v]
        p = prev[i]
        for c in range(colour[order[p]] if p >= 0 else 1, min(max_used + 1, k) + 1):
            clock.tick()
            mask = masks[c]
            hit = row & mask
            if hit.bit_count() > t - 1:
                continue
            roots = sorted({find(u) for u in iter_bits(hit)})
            total = 1 + sum(size[r] for r in roots)
            if total > t:
                continue
            # merge the touched components under v, recorded for undo
            for r in roots:
                parent[r] = v
                size[v] += size[r]
            colour[v] = c
            masks[c] = mask | (1 << v)
            if place(i + 1, max(max_used, c)):
                return True
            masks[c] = mask
            colour[v] = 0
            for r in reversed(roots):
                size[v] -= size[r]
                parent[r] = r
        return False

    return colour if place(0, 0) else None


def _lower_bound_chromatic(g: Graph, classes_cap: int, hoffman_d: int,
                           cap: int) -> tuple[int, str]:
    """max(clique bound, generalized Hoffman ceiling), with its provenance."""
    if g.edge_count == 0:
        return (1 if g.n else 0), "trivial"
    omega = clique_number(g, cap=cap).value
    best = max(1, -(-omega // classes_cap))
    source = "clique"
    hb = hoffman_bilu(g, hoffman_d)
    hb_int = ceil_lower(hb)
    if hb_int > best:
        best, source = hb_int, "hoffman"
    return best, source


def _finish(g: Graph, kind: str, param: int, k: int, raw: list[int],
            clock: _Clock, lb: int, src: str) -> SolveResult:
    wit = Colouring(tuple(raw))
    bad = check_improper(g, wit, param) if kind == "improper" else check_clustered(g, wit, param)
    if bad is not None:
        raise WitnessError(f"search produced an invalid witness: {bad}")
    return SolveResult(k, wit, clock.nodes, clock.millis(), "optimal", lb, src, k)


def _solve_min_colours(g: Graph, kind: str, param: int, cap: int,
                       timeout: float | None, upper_witness: Colouring | None) -> SolveResult:
    _require_cap(g, cap)
    clock = _Clock(timeout)
    if g.n == 0:
        return SolveResult(0, Colouring(()), 0, clock.millis(), "optimal", 0, "trivial", 0)
    if kind == "improper":
        lb, src = _lower_bound_chromatic(g, param + 1, param, cap)
        search = _search_improper
        checker = check_improper
    else:
        lb, src = _lower_bound_chromatic(g, param, param - 1, cap) if param > 1 \
            else (max(1, ceil_lower(float(clique_number(g, cap=cap).value))), "clique")
        search = _search_clustered
        checker = check_clustered
    ub = g.n
    if upper_witness is not None:
        if checker(g, upper_witness, param) is not None:
            raise ValueError("upper_witness fails the feasibility check")
        ub = min(ub, upper_witness.num_colours)
    order, prev = _branch_order(g)
    try:
        for k in range(lb, ub):
            raw = search(g, k, param, order, prev, clock)
            if raw is not None:
                return _finish(g, kind, param, k, raw, clock, lb, src)
            lb, src = k + 1, "search"
        if upper_witness is not None and ub == upper_witness.num_colours:
            wit = upper_witness.canonical()
            return SolveResult(ub, wit, clock.nodes, clock.millis(), "optimal", lb, src, ub)
        raw = search(g, ub, param, order, prev, clock)
        if raw is None:
            raise SearchInvariantError("n colours must always be feasible")
        return _finish(g, kind, param, ub, raw, clock, lb, src)
    except Timeout:
        return SolveResult(None, None, clock.nodes, clock.millis(), "timeout", lb, src, ub)


def chromatic_improper(g: Graph, d: int, *, cap: int = DEFAULT_CAP,
                       timeout: float | None = None,
                       upper_witness: Colouring | None = None) -> SolveResult:
    """Least number of colours in a d-improper colouring of g."""
    if d < 0:
        raise ValueError("d must be non-negative")
    return _solve_min_colours(g, "improper", d, cap, timeout, upper_witness)


def chromatic_clustered(g: Graph, t: int, *, cap: int = DEFAULT_CAP,
                        timeout: float | None = None,
                        upper_witness: Colouring | None = None) -> SolveResult:
    """Least number of colours in a colouring with monochromatic components <= t."""
    if t < 1:
        raise ValueError("t must be positive")
    return _solve_min_colours(g, "clustered", t, cap, timeout, upper_witness)


# -- b-fold search ---------------------------------------------------------


class _ColourState:
    """Per-colour incremental state shared by the fold search."""

    def __init__(self, g: Graph, mode: Mode):
        self.g = g
        self.mode = mode
        self.masks: dict[int, int] = {}
        self.uf: dict[int, tuple[list[int], list[int]]] = {}

    def _forest(self, c: int) -> tuple[list[int], list[int]]:
        if c not in self.uf:
            self.uf[c] = (list(range(self.g.n)), [1] * self.g.n)
        return self.uf[c]

    def try_add(self, v: int, c: int) -> list | None:
        """Add v to colour class c if legal; returns an undo token, else None."""
        g, mode = self.g, self.mode
        mask = self.masks.get(c, 0)
        hit = g.adj[v] & mask
        if mode.kind in ("proper", "improper"):
            d = 0 if mode.kind == "proper" else mode.param
            if hit.bit_count() > d:
                return None
            if d and any((g.adj[u] & mask).bit_count() >= d for u in iter_bits(hit)):
                return None
            if d == 0 and hit:
                return None
            self.masks[c] = mask | (1 << v)
            return [c, mask, ()]
        t = mode.param
        if hit.bit_count() > t - 1:
            return None
        parent, size = self._forest(c)

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        roots = sorted({find(u) for u in iter_bits(hit)})
        if 1 + sum(size[r] for r in roots) > t:
            return None
        for r in roots:
            parent[r] = v
            size[v] += size[r]
        self.masks[c] = mask | (1 << v)
        return [c, mask, tuple((r, v) for r in roots)]

    def undo(self, token: list) -> None:
        c, mask, merges = token
        self.masks[c] = mask
        if merges:
            parent, size = self.uf[c]
            for r, v in reversed(merges):
                size[v] -= size[r]
                parent[r] = r


def _candidate_sets(b: int, k: int, max_used: int):
    """All legal size-b colour sets given that colours 1..max_used are in use.

    New colours must be taken as a consecutive block just above max_used, and
    sets with fewer new colours come first, so colour classes stay
    interchangeable only once actually used.
    """
    for fresh in range(0, b + 1):
        if max_used + fresh > k:
            break
        new_part = tuple(range(max_used + 1, max_used + fresh + 1))
        for old_part in combinations(range(1, max_used + 1), b - fresh):
            yield old_part + new_part, max_used + fresh


def _search_bfold(g: Graph, k: int, b: int, mode: Mode, order: list[int],
                  clock: _Clock) -> list[tuple[int, ...]] | None:
    n = g.n
    state = _ColourState(g, mode)
    chosen: list[tuple[int, ...]] = [()] * n

    def place(i: int, max_used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for cset, used in _candidate_sets(b, k, max_used):
            clock.tick()
            tokens = []
            ok = True
            for c in cset:
                tok = state.try_add(v, c)
                if tok is None:
                    ok = False
                    break
                tokens.append(tok)
            if ok:
                chosen[v] = cset
                if place(i + 1, used):
                    return True
                chosen[v] = ()
            for tok in reversed(tokens):
                state.undo(tok)
        return False

    return chosen if place(0, 0) else None


def chromatic_bfold(g: Graph, b: int, mode: Mode, *, cap: int = DEFAULT_CAP,
                    timeout: float | None = None) -> SolveResult:
    """Least palette size admitting a size-b set per vertex under the mode."""
    if b < 1:
        raise ValueError("b must be positive")
    _require_cap(g, cap)
    clock = _Clock(timeout)
    if g.n == 0:
        return SolveResult(0, BFoldColouring(()), 0, clock.millis(), "optimal", 0, "trivial", 0)
    if g.edge_count == 0:
        wit = BFoldColouring.from_sets([tuple(range(1, b + 1))] * g.n)
        return SolveResult(b, wit, 0, clock.millis(), "optimal", b, "trivial", b)
    omega = clique_number(g, cap=cap).value
    if mode.kind == "proper":
        lb = b * omega
    elif mode.kind == "improper":
        lb = max(b, -(-(b * omega) // (mode.param + 1)))
    else:
        lb = max(b, -(-(b * omega) // mode.param))
    order, _ = _branch_order(g)
    ub = b * g.n
    try:
        for k in range(lb, ub + 1):
            raw = _search_bfold(g, k, b, mode, order, clock)
            if raw is not None:
                wit = BFoldColouring.from_sets(raw)
                if check_bfold(g, wit, b, mode) is not None:
                    raise WitnessError("fold search produced an invalid witness")
                return SolveResult(k, wit, clock.nodes, clock.millis(), "optimal",
                                   lb, "clique", k)
        raise SearchInvariantError("disjoint palettes must always be feasible")
    except Timeout:
        return SolveResult(None, None, clock.nodes, clock.millis(), "timeout", lb, "clique", ub)


# -- independence-style and clique solvers ----------------------------------


def alpha_d(g: Graph, d: int, *, cap: int = DEFAULT_CAP,
            timeout: float | None = None) -> SolveResult:
    """Largest vertex set whose induced subgraph has maximum degree <= d."""
    if d < 0:
        raise ValueError("d must be non-negative")
    _require_cap(g, cap)
    clock = _Clock(timeout)
    n = g.n
    adj = g.adj
    best = [0, 0]  # size, mask

    def grow(v: int, chosen: int, count: int) -> None:
        if count + (n - v) <= best[0]:
            return
        if v == n:
            if count > best[0]:
                best[0], best[1] = count, chosen
            return
        clock.tick()
        hit = adj[v] & chosen
        if hit.bit_count() <= d and all((adj[u] & chosen).bit_count() < d for u in iter_bits(hit)):
            grow(v + 1, chosen | (1 << v), count + 1)
        grow(v + 1, chosen, count)

    try:
        grow(0, 0, 0)
    except Timeout:
        return SolveResult(None, None, clock.nodes, clock.millis(), "timeout",
                           best[0], "search", n)
    wit = tuple(iter_bits(best[1]))
    for v in wit:
        if (adj[v] & best[1]).bit_count() > d:
            raise WitnessError(f"alpha_{d} witness vertex {v} has too many chosen neighbours")
    return SolveResult(best[0], wit, clock.nodes, clock.millis(), "optimal",
                       best[0], "search", best[0])


def clique_number(g: Graph, *, cap: int = DEFAULT_CAP,
                  timeout: float | None = None) -> SolveResult:
    """Largest clique, by branch and bound over candidate masks."""
    _require_cap(g, cap)
    clock = _Clock(timeout)
    adj = g.adj
    best = [0, 0]

    def expand(cand: int, chosen: int, count: int) -> None:
        while cand:
            if count + cand.bit_count() <= best[0]:
                return
            clock.tick()
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            expand(cand & adj[v], chosen | low, count + 1)
        if count > best[0]:
            best[0], best[1] = count, chosen

    try:
        expand((1 << g.n) - 1 if g.n else 0, 0, 0)
    except Timeout:
        return SolveResult(None, None, clock.nodes, clock.millis(), "timeout",
                           best[0], "search", g.n)
    wit = tuple(iter_bits(best[1]))
    for u in wit:
        for v in wit:
            if u != v and not g.adjacent(u, v):
                raise WitnessError(f"clique witness misses edge ({u},{v})")
    return SolveResult(best[0], wit, clock.nodes, clock.millis(), "optimal",
                       best[0], "search", best[0])


# -- fractional chromatic number --------------------------------------------


def _admissible(g: Graph, members: int, mode: Mode) -> bool:
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


def _maximal_admissible_sets(g: Graph, mode: Mode) -> list[int]:
    """All inclusion-maximal admissible vertex sets, ascending as bitmasks."""
    n = g.n
    out = []
    for members in range(1, 1 << n):
        if not _admissible(g, members, mode):
            continue
        if any(_admissible(g, members | (1 << v), mode)
               for v in range(n) if not members >> v & 1):
            continue
        out.append(members)
    return out


def _simplex_packing(incidence: list[int], n: int) -> tuple[float, list[float], int]:
    """Maximise sum(x) subject to sum_{v in S} x_v <= 1 per set S, x >= 0.

    Dense tableau simplex with Bland's rule; returns (optimum, dual weights
    per set, pivot count).  The duals are the optimal fractional cover.
    """
    import numpy as np

    m = len(incidence)
    tab = np.zeros((m + 1, n + m + 1))
    for i, members in enumerate(incidence):
        for v in iter_bits(members):
            tab[i, v] = 1.0
        tab[i, n + i] = 1.0
        tab[i, -1] = 1.0
    tab[m, :n] = -1.0
    basis = [n + i for i in range(m)]
    eps = 1e-9
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


def fractional_chromatic(g: Graph, mode: Mode = Mode.proper(), *,
                         cap: int = FRACTIONAL_CAP) -> SolveResult:
    """Fractional relaxation: cheapest fractional cover by admissible sets.

    The LP runs over inclusion-maximal admissible sets only; the float optimum
    is cross-checked by rational reconstruction with denominator <= n.
    """
    if g.n == 0:
        raise ValueError("fractional chromatic number of the empty graph is undefined")
    if g.n > cap:
        raise SolverCapError(f"graph has {g.n} vertices, fractional cap is {cap}")
    t0 = time.monotonic()
    sets = _maximal_admissible_sets(g, mode)
    value, duals, pivots = _simplex_packing(sets, g.n)
    witness = tuple((tuple(iter_bits(s)), w) for s, w in zip(sets, duals) if w > 1e-9)
    # certify the dual cover before reporting it
    for v in range(g.n):
        total = sum(w for s, w in zip(sets, duals) if s >> v & 1)
        if total < 1.0 - 1e-6:
            raise ArithmeticError(f"fractional cover misses vertex {v}")
    if abs(sum(duals) - value) > 1e-6:
        raise ArithmeticError("duality gap in fractional solve")
    exact = Fraction(value).limit_denominator(g.n)
    out: int | float | Fraction
    if abs(float(exact) - value) <= 1e-6:
        out = int(exact) if exact.denominator == 1 else exact
    else:
        out = value
    millis = (time.monotonic() - t0) * 1e3
    lb = ceil_lower(value)
    return SolveResult(out, witness, pivots, millis, "optimal", lb, "lp", None)

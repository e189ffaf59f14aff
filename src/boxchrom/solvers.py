"""Exact desk-scale solvers for improper, clustered, fold and fractional colouring.

All searches are deterministic: colours are tried ascending, and a brand-new
colour is always the last branch.  Optimality certificates come from
exhausting the search at value-1 or from a matching combinatorial/spectral
lower bound used to seed the search.

Every colouring search keeps one bitmask per colour class and asks one
question of it, the admission rule of the mode: may vertex v join this class?
``_narrowing`` states each rule once: when u joins a class, one call cuts the
set the class admitted down to the set the grown class admits.  A graph has
maximum degree at most 1 iff every component has at most 2 vertices, so
2-clustered colouring is decided by the 1-improper rule, and proper and
1-clustered colouring by the 0-improper one (so the conjecture sweep reads its
d = 1 clustered value off the improper solve).  The minimum-colour solves, the
fold solves and the uniqueness count in ``hoffman`` run the kernel
``_search``; ``alpha_d``, ``clique_number`` (omega(G) is alpha_0 of the
complement) and the maximal admissible sets of the fractional LP run
``_admissible_walk``.  Both keep the admitted sets and narrow them, and both
are one loop over an explicit stack, so neither recurses and their speed does
not depend on the caller's stack depth.  Every timed search polls its deadline
every ``_Clock.POLL`` nodes.  The LP is a dense tableau simplex under Bland's
rule that scans the objective row and the ratio column as arrays.

The minimum-colour solves run one colour ladder on G with twin blocks, the
fold solves on G x K_b with fibre blocks.  It first runs the kernel with n
colours, a greedy first fit, since the fresh colour is always admissible and
nothing backtracks.  That colouring is the incumbent: the upper bound, the
answer when it meets the lower bound, and the witness a timeout returns.
Each k from the lower bound up that the kernel refutes raises the bound to
k + 1, with source "search".  With c the most vertices of a clique that one
class may hold (1 proper, d + 1 d-improper, t t-clustered), the lower bound
is max(b, ceil(b * omega / c)), or b on an edgeless graph.  A t-clustered
class is (t - 1)-improper, so every class is (c - 1)-improper, and the plain
solves (b = 1) also take Bilu's ratio bound (l1 - ln) / (d - ln) at d = c - 1.

The kernel colours one twin block at a time.  u and w are twins when
N(u) - w = N(w) - u, so swapping them is an automorphism that fixes every
other vertex; every fibre {v} x K_{d+1} of G x K_{d+1} is such a class.  The
next block is the one whose head sees the most distinct colours on its
coloured neighbours (Brelaz's DSATUR order), ties to the rank from
``_branch_order``, so the choice depends only on the partial colouring up to
renaming colours.  In rank order each block is a run of positions, and one
bitmask per saturation level holds the heads not yet begun, so the kernel
finds that block in O(k) without a scan of the heads.  Inside a block no
member takes a colour below the previous member's (the twin floor).  Together
with first-appearance colour order this loses no colouring up to symmetry.
Take any colouring and follow the search's own path.  At each block it
reaches, sort the colours inside the block; that permutes twins only, so the
blocks already coloured keep their colours.  Then rename colours by first
appearance.  The colours new to the block are consecutive and above the old
ones, so the block stays sorted.  The colouring now agrees with the search on
every block so far, so the search picks the same next block, and the argument
repeats.  Without the floor (singleton blocks, as the uniqueness count uses)
the same walk reaches each colouring up to renaming exactly once.

A b-fold colouring of G is a colouring of G x K_b that gives each fibre
{v} x K_b distinct colours (Stahl, JCTB 20, 1976).  Such a colour class holds
at most one copy of each base vertex, so it induces a copy of the class it
names in G, and admission in the product is fold admission.  The fold solves
run the kernel on the product with the fibres as blocks, ranked by
``_branch_order`` on G, under a strict floor: each member takes a colour
above the previous member's.  Fibre members are closed twins, so the walk
above applies, and sorting a fibre of a fold colouring makes it strictly
increasing.  The blocks are the fibres, not the twin classes of the product:
closed twins u, w of G merge their fibres into one twin class, whose 2b
colours need not be distinct once a class may hold an edge.  A fold node is
one colour tried for one fibre member.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .bounds import ceil_lower, hoffman_bilu
from .colouring import BFoldColouring, Colouring, Mode, check_bfold, check_clustered, check_improper
from .graphs import (Graph, _relabel, _to_json, _twin_classes, complete_graph, iter_bits,
                     strong_product)
from .spectra import SNAP_TOL, STRICT_MARGIN

__all__ = [
    "SearchInvariantError",
    "SolveResult",
    "SolverCapError",
    "Timeout",
    "WeightedSet",
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


class WeightedSet(NamedTuple):
    """One admissible set of a fractional cover and its weight."""

    set: tuple[int, ...]
    weight: float


@dataclass
class SolveResult:
    """Outcome of an exact solve.

    For minimisation problems value-1 is certified infeasible (by exhausted
    search or by the seeded lower bound); for maximisation problems value+1
    is.  A timeout carries the best bounds known instead of a value, and the
    best witness found so far: the incumbent colouring of a minimum-colour
    solve, or the re-checked largest set of ``alpha_d`` or ``clique_number``.
    The witness is a ``Colouring`` or ``BFoldColouring``, a vertex tuple, or
    for the fractional LP a tuple of ``WeightedSet``.
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
        return {"value": val, "value_exact": exact, "witness": _to_json(self.witness),
                "nodes": self.nodes, "millis": round(self.millis, 3),
                "status": self.status, "lower_bound": self.lower_bound,
                "lower_bound_source": self.lower_bound_source,
                "upper_bound": self.upper_bound}


class _Clock:
    """Wall clock with a cooperative deadline, polled every ``POLL`` nodes."""

    POLL = 2048

    def __init__(self, timeout: float | None):
        self.start = time.monotonic()
        self.deadline = None if timeout is None else self.start + timeout
        self.nodes = 0

    def millis(self) -> float:
        return (time.monotonic() - self.start) * 1e3


def _require_cap(g: Graph) -> None:
    if g.n > DEFAULT_CAP:
        raise SolverCapError(f"graph has {g.n} vertices, solver cap is {DEFAULT_CAP}")


def _branch_order(g: Graph) -> tuple[list[int], list[int]]:
    """Branch order and, per position, the position of the previous twin (-1 if none).

    Twins (``graphs._twin_classes``) have equal degree, so the key (-degree,
    class, v) keeps each class contiguous; a twin-free graph keeps (-degree, v).
    """
    twin = _twin_classes(g)
    keys = sorted((-row.bit_count(), twin[v], v) for v, row in enumerate(g.adj))
    order = [v for _, _, v in keys]
    prev = [i - 1 if i and keys[i - 1][1] == cls else -1 for i, (_, cls, _) in enumerate(keys)]
    return order, prev


# -- the colouring-search kernel ---------------------------------------------


def _rule_mode(mode: Mode) -> Mode:
    """The mode whose admission rule decides ``mode``.

    A proper class is a 0-improper one.  A graph has maximum degree at most 1
    iff each of its components has at most 2 vertices, and maximum degree 0
    iff each has 1.  So t-clustered colouring with t <= 2 admits by the
    (t - 1)-improper rule instead of by components.
    """
    if mode.kind == "proper":
        return Mode.improper(0)
    if mode.kind == "clustered" and mode.param <= 2:
        return Mode.improper(mode.param - 1)
    return mode


def _narrowing(adj: tuple[int, ...], mode: Mode) -> Callable[[int, int, int], int]:
    """``narrow(mask, u, live)``: the vertices of ``live`` that the class ``mask`` admits.

    The admission rule of the mode, for a class that u has just joined:
    ``mask`` holds u, and ``mask - u`` admits every vertex of ``live``.  One
    call decides all of them by the rule of ``_rule_mode(mode)``:

    - d-improper: each member that u fills up (u itself, and each neighbour
      of u in the class that now has d neighbours there) refuses its live
      neighbours; then a live neighbour of u is refused when it has more than
      d neighbours in the class.  At d = 0 this is ``live & ~adj[u]``;
    - t-clustered, t >= 3: only live vertices next to comp, u's component in
      the class, can change.  If comp has t vertices they are all refused;
      otherwise the component each one would join grows from comp one vertex
      at a time, and it is refused once that holds t others.
    """
    mode = _rule_mode(mode)
    d = t = mode.param
    if mode.kind == "improper":

        def narrow(mask: int, u: int, live: int) -> int:
            row = adj[u]
            hit = row & mask
            if hit.bit_count() == d:
                live &= ~row
            while hit:
                low = hit & -hit
                hit ^= low
                near = adj[low.bit_length() - 1]
                if (near & mask).bit_count() == d:
                    live &= ~near
            ask = live & row
            while ask:
                low = ask & -ask
                ask ^= low
                if (adj[low.bit_length() - 1] & mask).bit_count() > d:
                    live ^= low
            return live
    else:

        def narrow(mask: int, u: int, live: int) -> int:
            comp = 1 << u
            near = adj[u]  # grows to the vertices next to comp
            front = near & mask
            while front:
                low = front & -front
                comp |= low
                near |= adj[low.bit_length() - 1]
                front = near & mask & ~comp
            size = comp.bit_count()
            if size == t:
                return live & ~near
            ask = live & near
            while ask:
                low = ask & -ask
                ask ^= low
                seen = comp
                grown = size
                front = adj[low.bit_length() - 1] & mask & ~comp
                while front:
                    bit = front & -front
                    seen |= bit
                    grown += 1
                    if grown >= t:
                        live ^= low
                        break
                    front = (front | adj[bit.bit_length() - 1] & mask) & ~seen
            return live
    return narrow


def _search(adj: Sequence[int], k: int, mode: Mode, pos: list[int], prev: list[int],
            clock: _Clock, leaf: Callable[[int], bool] | None = None,
            step: int = 0) -> list[int] | None:
    """Backtracking over colours 1..k in first-appearance order; the colours, or None.

    It runs on positions, built by ``graphs._relabel`` from a branch order:
    ``adj[i]`` holds the positions next to position i, ``pos[v]`` is vertex
    v's, and ``prev[i]`` is ``i - 1`` when position i continues the twin block
    of i - 1 and -1 when it starts a block.  The search colours one block at a
    time, its members in rank order, each with no colour below the previous
    member's plus ``step`` (the twin floor; 1 makes every block rainbow).  The
    next block is the one whose head sees the most distinct colours on its
    coloured neighbours, ties to the lower rank.  Without ``leaf`` the search
    stops at the first complete colouring; with it, each complete colouring is
    passed to ``leaf`` with its number of colours, and the search stops once
    ``leaf`` returns True.

    One loop walks the tree over an explicit stack, one slot per coloured
    vertex, so its speed does not depend on the caller's stack depth; the
    colours are read back through ``pos``.  Admission is the bit test of
    ``ok[c]``, which a placement narrows and backtracking restores from the
    slot.  ``level[j]`` holds the unbegun heads that see j distinct colours,
    so the next block is the lowest bit of the highest non-empty level; a
    placement lifts its fresh heads one level, top level first, and
    backtracking lowers them, bottom level first.  A node is one colour tried
    for one vertex.  The count is kept locally, written back to
    ``clock.nodes`` on every exit, and the deadline is polled every
    ``_Clock.POLL`` nodes.
    """
    n = len(adj)
    narrow = _narrowing(adj, mode)
    masks = [0] * (k + 1)  # masks[c]: the members of class c
    left = (1 << n) - 1  # the uncoloured positions
    ok = [left] * (k + 1)  # ok[c]: the uncoloured positions class c admits
    colour = [0] * n
    seen = [0] * (k + 1)  # seen[c]: the positions next to class c
    starts = sum(1 << i for i, p in enumerate(prev) if p < 0) | 1 << n  # block starts, and n
    level = [0] * (k + 1)
    level[0] = free = starts ^ 1 << n  # the heads of the blocks not yet begun
    # slot s holds the s-th coloured position, the colours used before it,
    # seen[c] and ok[c] before it joined class c, the heads that saw c for the
    # first time through it, and the level its block's head was picked from
    vertex = [0] * n
    used = [0] * n
    near = [0] * n
    held = [0] * n
    fresh = [0] * n
    picked = [0] * n
    nodes = clock.nodes
    deadline = clock.deadline
    period = _Clock.POLL
    poll = -1 if deadline is None else nodes - nodes % period + period
    monotonic = time.monotonic
    max_used = 0
    s = 0
    v = -1
    descend = True
    try:
        while True:
            if descend:
                if s == n:  # complete: the leaf decides, or backtrack from the last slot
                    if leaf is None or leaf(max_used):
                        return [colour[i] for i in pos]
                    descend = False
                    continue
                if starts >> v + 1 & 1:  # v ends its block: begin the next
                    j = max_used
                    while not level[j]:
                        j -= 1
                    heads = level[j]
                    low = heads & -heads
                    level[j] = heads ^ low
                    free ^= low
                    picked[s] = j
                    v = low.bit_length() - 1
                    c = 1
                else:
                    c = colour[v] + step
                    v += 1
                vertex[s] = v
                used[s] = max_used
            else:
                s -= 1
                if s < 0:
                    return None
                v = vertex[s]
                c = colour[v]
                masks[c] ^= 1 << v
                left |= 1 << v
                seen[c] = near[s]
                ok[c] = held[s]
                rest = fresh[s]
                j = 1
                while rest:
                    moved = level[j] & rest
                    if moved:
                        level[j] ^= moved
                        level[j - 1] |= moved
                        rest ^= moved
                    j += 1
                max_used = used[s]
                c += 1
            for c in range(c, (max_used + 1 if max_used < k else k) + 1):
                nodes += 1
                if nodes == poll:
                    poll += period
                    if monotonic() > deadline:
                        raise Timeout
                if ok[c] >> v & 1:
                    break
            else:  # every colour tried: leave the slot, and reopen the block it began
                if starts >> v & 1:
                    level[picked[s]] |= 1 << v
                    free |= 1 << v
                descend = False
                continue
            masks[c] |= 1 << v
            left ^= 1 << v
            held[s] = admitted = ok[c]
            ok[c] = narrow(masks[c], v, admitted & left)
            colour[v] = c
            row = adj[v]
            near[s] = was = seen[c]
            fresh[s] = rest = row & free & ~was  # heads that see colour c for the first time
            j = max_used
            while rest:
                moved = level[j] & rest
                if moved:
                    level[j] ^= moved
                    level[j + 1] |= moved
                    rest ^= moved
                j -= 1
            seen[c] = was | row
            if c > max_used:
                max_used = c
            s += 1
            descend = True
    finally:
        clock.nodes = nodes


def _lower_bound(g: Graph, mode: Mode, b: int) -> tuple[int, str]:
    """The lower bound on b-fold colourings of g (n > 0) under the mode, with its source.

    The clique bound of the module docstring; at b = 1, the plain solve, also
    the ratio bound at d = c - 1.
    """
    if g.edge_count == 0:
        return b, "trivial"
    rule = _rule_mode(mode)
    c = rule.param + (rule.kind == "improper")
    lb, src = max(b, -(-(b * clique_number(g).value) // c)), "clique"
    if b == 1:
        hb = ceil_lower(hoffman_bilu(g, c - 1))
        if hb > lb:
            lb, src = hb, "hoffman"
    return lb, src


def _ladder(g: Graph, mode: Mode, order: list[int], prev: list[int], step: int, lb: int,
            src: str, read: Callable[[list[int]], object], clock: _Clock,
            best: Colouring | None = None) -> SolveResult:
    """The colour ladder: the least k >= lb at which the kernel colours g.

    g is relabelled into ``order`` once, for every kernel call.  The first fit
    with n colours never backtracks, so it runs without the deadline.  Its
    colouring, built and checked by ``read``, is the incumbent unless ``best``
    (already checked) uses no more colours.  A timeout returns the incumbent
    and the open range [lb, ub].
    """
    adj, pos = _relabel(g.adj, order)
    first = _Clock(None)
    raw = _search(adj, g.n, mode, pos, prev, first, step=step)
    if raw is None:
        raise SearchInvariantError("n colours must always be feasible")
    clock.nodes = first.nodes
    ub = max(raw)
    if best is not None and best.num_colours <= ub:
        ub = best.num_colours
    else:
        best = read(raw)
    try:
        for k in range(lb, ub):
            raw = _search(adj, k, mode, pos, prev, clock, step=step)
            if raw is not None:
                return SolveResult(k, read(raw), clock.nodes, clock.millis(), "optimal", lb, src, k)
            lb, src = k + 1, "search"
    except Timeout:
        return SolveResult(None, best, clock.nodes, clock.millis(), "timeout", lb, src, ub)
    return SolveResult(ub, best, clock.nodes, clock.millis(), "optimal", lb, src, ub)


def _check(g: Graph, wit: Colouring, mode: Mode):
    return (check_improper if mode.kind == "improper" else check_clustered)(g, wit, mode.param)


def _solve_min_colours(g: Graph, mode: Mode, timeout: float | None,
                       upper_witness: Colouring | None) -> SolveResult:
    _require_cap(g)
    clock = _Clock(timeout)
    if g.n == 0:
        return SolveResult(0, Colouring(()), 0, clock.millis(), "optimal", 0, "trivial", 0)
    lb, src = _lower_bound(g, mode, 1)
    best = None
    if upper_witness is not None:
        if _check(g, upper_witness, mode) is not None:
            raise ValueError("upper_witness fails the feasibility check")
        best = upper_witness.canonical()
        if best.num_colours == lb:
            return SolveResult(lb, best, 0, clock.millis(), "optimal", lb, src, lb)

    def read(raw: list[int]) -> Colouring:
        wit = Colouring(tuple(raw))
        bad = _check(g, wit, mode)
        if bad is not None:
            raise WitnessError(f"search produced an invalid witness: {bad}")
        return wit

    order, prev = _branch_order(g)
    return _ladder(g, mode, order, prev, 0, lb, src, read, clock, best)


def chromatic_improper(g: Graph, d: int, *, timeout: float | None = None,
                       upper_witness: Colouring | None = None) -> SolveResult:
    """Least number of colours in a d-improper colouring of g."""
    if d < 0:
        raise ValueError("d must be non-negative")
    return _solve_min_colours(g, Mode.improper(d), timeout, upper_witness)


def chromatic_clustered(g: Graph, t: int, *, timeout: float | None = None,
                        upper_witness: Colouring | None = None) -> SolveResult:
    """Least number of colours in a colouring with monochromatic components <= t."""
    if t < 1:
        raise ValueError("t must be positive")
    return _solve_min_colours(g, Mode.clustered(t), timeout, upper_witness)


def chromatic_bfold(g: Graph, b: int, mode: Mode, *,
                    timeout: float | None = None) -> SolveResult:
    """Least palette size admitting a size-b set per vertex under the mode.

    Searches g x K_b with a strict floor inside each fibre; see the module
    docstring.
    """
    if b < 1:
        raise ValueError("b must be positive")
    _require_cap(g)
    clock = _Clock(timeout)
    if g.n == 0:
        return SolveResult(0, BFoldColouring(()), 0, clock.millis(), "optimal", 0, "trivial", 0)
    lb, src = _lower_bound(g, mode, b)
    if src == "trivial":
        wit = BFoldColouring.from_sets([tuple(range(1, b + 1))] * g.n)
        return SolveResult(b, wit, 0, clock.millis(), "optimal", b, src, b)

    def read(raw: list[int]) -> BFoldColouring:
        wit = BFoldColouring.from_sets(raw[v * b:(v + 1) * b] for v in range(g.n))
        bad = check_bfold(g, wit, b, mode)
        if bad is not None:
            raise WitnessError(f"fold search produced an invalid witness: {bad}")
        return wit

    base, _ = _branch_order(g)
    order = [v * b + i for v in base for i in range(b)]
    prev = [i - 1 if i % b else -1 for i in range(g.n * b)]
    return _ladder(strong_product(g, complete_graph(b)), mode, order, prev, 1, lb, src, read, clock)


# -- the admissible-set walk: alpha_d, clique_number, maximal sets -----------


def _admissible_walk(adj: tuple[int, ...], mode: Mode, clock: _Clock,
                     leaf: Callable[[int, int, int], int]) -> None:
    """Branch and bound over the admissible classes of one colour, as bitmasks.

    A node is (chosen, count, live, skipped): the class, its size, the
    undecided vertices that the class still admits, and the vertices the walk
    skipped that it still admits.  It takes the lowest live vertex u and
    pushes the branch that skips u.  When u joins, one call of
    ``_narrowing(adj, mode)`` removes every vertex of ``live | skipped`` that
    the grown class refuses; admission is hereditary, so a refused vertex is
    never asked again.  A node is pruned when ``count + popcount(live) <=
    floor``; the floor starts at -1, and a leaf (``live == 0``) sets it to
    ``leaf(chosen, count, skipped)``.  Nodes (vertices taken) are counted
    locally, written back to ``clock.nodes`` on every exit, and the deadline
    is polled every ``_Clock.POLL`` nodes.
    """
    narrow = _narrowing(adj, mode)
    floor = -1
    stack = [(0, 0, (1 << len(adj)) - 1, 0)]
    nodes = clock.nodes
    poll = -1 if clock.deadline is None else nodes - nodes % _Clock.POLL + _Clock.POLL
    try:
        while stack:
            chosen, count, live, skipped = stack.pop()
            while live and count + live.bit_count() > floor:
                nodes += 1
                if nodes == poll:
                    poll += _Clock.POLL
                    if time.monotonic() > clock.deadline:
                        raise Timeout
                low = live & -live
                live ^= low
                stack.append((chosen, count, live, skipped | low))
                chosen |= low
                count += 1
                kept = narrow(chosen, low.bit_length() - 1, live | skipped)
                live &= kept
                skipped &= kept
            if not live and count > floor:
                floor = leaf(chosen, count, skipped)
    finally:
        clock.nodes = nodes


def _largest(adj: tuple[int, ...], d: int, timeout: float | None) -> SolveResult:
    """A largest d-improper set of the graph with rows ``adj``, by the walk.

    Each leaf raises the floor to its size, so the last leaf is a largest
    set, and on a timeout the largest found so far; either is re-checked.
    """
    clock = _Clock(timeout)
    best = [0, 0]  # size, mask

    def leaf(chosen: int, count: int, skipped: int) -> int:
        best[0], best[1] = count, chosen
        return count

    try:
        _admissible_walk(adj, Mode.improper(d), clock, leaf)
        value = ub = best[0]
    except Timeout:
        value, ub = None, len(adj)
    wit = tuple(iter_bits(best[1]))
    for v in wit:
        if (adj[v] & best[1]).bit_count() > d:
            raise WitnessError(f"alpha_{d} witness vertex {v} has too many chosen neighbours")
    return SolveResult(value, wit, clock.nodes, clock.millis(),
                       "timeout" if value is None else "optimal", best[0], "search", ub)


def alpha_d(g: Graph, d: int, *, timeout: float | None = None) -> SolveResult:
    """Largest vertex set whose induced subgraph has maximum degree <= d."""
    if d < 0:
        raise ValueError("d must be non-negative")
    _require_cap(g)
    return _largest(g.adj, d, timeout)


@lru_cache(maxsize=4096)
def _finished_clique(rows: tuple[int, ...]) -> SolveResult:
    """The untimed, hence finished, search on the complement with these rows."""
    return _largest(rows, 0, None)


def clique_number(g: Graph, *, timeout: float | None = None) -> SolveResult:
    """Largest clique, as omega(G) = alpha_0 of the complement of G.

    On g = base * K_t a clique of base blows up to one of t times its size,
    and a clique of g projects onto one of base, so omega(g) = t * omega(base):
    the search runs on base, and the fibres of its clique are the witness.
    An untimed search always finishes, so its result, node count included, is
    memoised per base graph; a timed one runs afresh.  The witness is checked
    against g on every call.
    """
    _require_cap(g)
    clock = _Clock(timeout)
    base, t = g._base or (g, 1)
    full = (1 << base.n) - 1
    rows = tuple(full & ~(row | 1 << v) for v, row in enumerate(base.adj))  # base's complement
    res = _finished_clique(rows) if timeout is None else _largest(rows, 0, timeout)
    value = None if res.value is None else res.value * t
    wit = tuple(u * t + i for u in res.witness for i in range(t))
    mask = sum(1 << v for v in wit)
    for v in wit:
        if (g.adj[v] | 1 << v) & mask != mask:
            raise WitnessError(f"clique witness vertex {v} misses a witness neighbour")
    return SolveResult(value, wit, res.nodes, clock.millis(), res.status, len(wit), "search",
                       g.n if value is None else value)


# -- fractional chromatic number --------------------------------------------


def _maximal_admissible_sets(g: Graph, mode: Mode) -> list[int]:
    """All inclusion-maximal admissible vertex sets, ascending as bitmasks.

    The admissible-set walk with the floor held at -1, so nothing is pruned.
    A maximal set is reached by taking its vertices and skipping the rest, and
    there it is a leaf, since a vertex it admitted would still be live.  Every
    vertex outside a leaf was skipped or refused, and a refused vertex stays
    refused by heredity; so the leaf is maximal iff the walk's narrowing has
    removed every skipped vertex too.
    """
    out = []

    def leaf(chosen: int, count: int, skipped: int) -> int:
        if not skipped:
            out.append(chosen)
        return -1

    _admissible_walk(g.adj, mode, _Clock(None), leaf)
    return sorted(out)


def _simplex_packing(incidence: list[int], n: int) -> tuple[float, list[float], int]:
    """Maximise sum(x) subject to sum_{v in S} x_v <= 1 per set S, x >= 0.

    Dense tableau simplex with Bland's rule; returns (optimum, dual weights
    per set, pivot count).  The duals are the optimal fractional cover.  The
    entering column is the first of the objective row below -eps.  The ratio
    test divides only the rows whose entry there is above eps and reads the
    ratios as Python floats, in row order: the least ratio, ties within eps to
    the lower basic variable.  A pivot updates only the columns where the
    pivot row is non-zero; the others would subtract zero.
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
    eps = STRICT_MARGIN
    pivots = 0
    while True:
        below = np.flatnonzero(tab[m, :n + m] < -eps)
        if not below.size:
            break
        enter = int(below[0])
        rows = np.flatnonzero(tab[:m, enter] > eps)
        leave, best_ratio, best_var = -1, None, None
        for i, ratio in zip(rows.tolist(), (tab[rows, -1] / tab[rows, enter]).tolist()):
            if best_ratio is None or ratio < best_ratio - eps or \
                    (abs(ratio - best_ratio) <= eps and basis[i] < best_var):
                leave, best_ratio, best_var = i, ratio, basis[i]
        if leave < 0:
            raise ArithmeticError("packing LP unbounded; every vertex must lie in a set")
        tab[leave] /= tab[leave, enter]
        cols = np.flatnonzero(tab[leave])
        col = tab[:, enter].copy()
        col[leave] = 0.0
        tab[:, cols] -= np.outer(col, tab[leave, cols])
        basis[leave] = enter
        pivots += 1
        if pivots > 50000:
            raise ArithmeticError("simplex pivot limit exceeded")
    value = float(tab[m, -1])
    duals = [float(tab[m, n + i]) for i in range(m)]
    return value, duals, pivots


def fractional_chromatic(g: Graph, mode: Mode = Mode.proper()) -> SolveResult:
    """Fractional relaxation: cheapest fractional cover by admissible sets.

    The LP runs over inclusion-maximal admissible sets only; the float optimum
    is cross-checked by rational reconstruction with denominator <= n.
    """
    if g.n == 0:
        raise ValueError("fractional chromatic number of the empty graph is undefined")
    if g.n > FRACTIONAL_CAP:
        raise SolverCapError(f"graph has {g.n} vertices, fractional cap is {FRACTIONAL_CAP}")
    t0 = time.monotonic()
    sets = _maximal_admissible_sets(g, mode)
    value, duals, pivots = _simplex_packing(sets, g.n)
    witness = tuple(WeightedSet(tuple(iter_bits(s)), w) for s, w in zip(sets, duals)
                    if w > STRICT_MARGIN)
    # certify the dual cover before reporting it
    for v in range(g.n):
        total = sum(w for s, w in zip(sets, duals) if s >> v & 1)
        if not total >= 1.0 - SNAP_TOL:
            raise ArithmeticError(f"fractional cover misses vertex {v}")
    if not abs(sum(duals) - value) <= SNAP_TOL:
        raise ArithmeticError("duality gap in fractional solve")
    exact = Fraction(value).limit_denominator(g.n)
    out: int | float | Fraction
    if abs(float(exact) - value) <= SNAP_TOL:
        out = int(exact) if exact.denominator == 1 else exact
    else:
        out = value
    millis = (time.monotonic() - t0) * 1e3
    lb = ceil_lower(value)
    return SolveResult(out, witness, pivots, millis, "optimal", lb, "lp", None)

"""Spectral and combinatorial lower bounds for improper chromatic numbers.

Every bound here is a genuine lower bound on chi^d (and hence on the
(d+1)-clustered chromatic number).  Integer ceilings are taken with the
margin ``spectra.SNAP_TOL`` so floating point noise can never push a bound
above the true value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _fields_json
from .spectra import (ROUNDOFF, SNAP_TOL, STRICT_MARGIN, MatrixKind, Spectrum, eigensolve,
                      graph_matrix, spectrum)

__all__ = [
    "BoundReport",
    "WeightedCompatibleMatrix",
    "WocjanElphickBounds",
    "bound_report",
    "ceil_lower",
    "combinatorial_bounds",
    "hoffman_bilu",
    "inertia_alpha_bound",
    "inertia_chromatic_bound",
    "inertia_counts",
    "wocjan_elphick",
]

def ceil_lower(x: float) -> int:
    """Integer ceiling that errs downward under floating point noise."""
    return math.ceil(x - SNAP_TOL)


class WeightedCompatibleMatrix:
    """Symmetric matrix supported on the edges of a graph with entries in [-1, 1].

    The diagonal may carry weights of absolute value at most 1 as well; all
    other off-edge entries must vanish.  Every entry must be finite.
    """

    def __init__(self, graph: Graph, matrix: np.ndarray):
        w = np.asarray(matrix, dtype=float)
        n = graph.n
        if w.shape != (n, n):
            raise ValueError(f"matrix shape {w.shape} does not match n={n}")
        if not np.isfinite(w).all():
            raise ValueError("weight entries must be finite")
        if not float(np.abs(w - w.T).max(initial=0.0)) <= ROUNDOFF:
            raise ValueError("weight matrix must be symmetric")
        if not float(np.abs(w).max(initial=0.0)) <= 1.0 + ROUNDOFF:
            raise ValueError("weight entries must lie in [-1, 1]")
        for u in range(n):
            for v in range(u + 1, n):
                if not graph.adjacent(u, v) and w[u, v] != 0.0:
                    raise ValueError(f"nonzero weight on non-edge ({u},{v})")
        self.graph = graph
        self.matrix = w

    @classmethod
    def adjacency(cls, graph: Graph) -> "WeightedCompatibleMatrix":
        return cls(graph, graph_matrix(graph))

    @classmethod
    def from_text(cls, graph: Graph, text: str) -> "WeightedCompatibleMatrix":
        """Parse the weights file format: first line n, then n rows of n decimals."""
        rows = [ln for ln in (line.strip() for line in text.splitlines()) if ln]
        if not rows:
            raise ValueError("empty weights input")
        n = int(rows[0])
        if len(rows) != n + 1:
            raise ValueError(f"expected {n} matrix rows, found {len(rows) - 1}")
        data = []
        for ln in rows[1:]:
            parts = [float(x) for x in ln.split()]
            if len(parts) != n:
                raise ValueError(f"row has {len(parts)} entries, expected {n}")
            data.append(parts)
        return cls(graph, np.array(data))

    def spectrum(self) -> Spectrum:
        s, _ = eigensolve(self.matrix)
        return s


def hoffman_bilu(g: Graph, d: int) -> float:
    """Generalized Hoffman bound (lam1 - lamn) / (d - lamn) on chi^d.

    Also a lower bound on the (d+1)-clustered chromatic number.  Undefined
    for edgeless graphs, whose spectrum collapses to a point.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    if g.edge_count == 0:
        raise ValueError("Hoffman bound needs at least one edge")
    s = spectrum(g)
    return (s.largest - s.smallest) / (d - s.smallest)


def _order(w: WeightedCompatibleMatrix | Graph) -> int:
    return w.n if isinstance(w, Graph) else w.graph.n


def inertia_counts(w: WeightedCompatibleMatrix | Graph, d: int) -> tuple[int, int]:
    """Eigenvalues strictly above d and strictly below -d.

    Counting is done on the multiplicity-grouped spectrum with a strict margin,
    so values numerically equal to +-d count as neither.  A plain graph uses
    its memoised adjacency spectrum; only supplied weights are diagonalised.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    s = spectrum(w) if isinstance(w, Graph) else w.spectrum()
    above = below = 0
    for value, count in s.groups():
        if value > d + STRICT_MARGIN:
            above += count
        elif value < -d - STRICT_MARGIN:
            below += count
    return above, below


def inertia_alpha_bound(w: WeightedCompatibleMatrix | Graph, d: int) -> int:
    """Upper bound on alpha_d: min(n - n_d^+, n - n_d^-)."""
    above, below = inertia_counts(w, d)
    n = _order(w)
    return min(n - above, n - below)


def inertia_chromatic_bound(w: WeightedCompatibleMatrix | Graph, d: int) -> int:
    """Lower bound on chi^d: ceil(max(n/(n - n_d^+), n/(n - n_d^-)))."""
    above, below = inertia_counts(w, d)
    n = _order(w)
    if above >= n or below >= n:
        raise ArithmeticError("all eigenvalues escape [-d, d]; bound degenerates")
    return max(-(-n // (n - above)), -(-n // (n - below)))


@dataclass(frozen=True)
class WocjanElphickBounds:
    """The four sum-of-eigenvalues bounds; None marks a vacuous entry."""

    adjacency_sum: float | None
    laplacian_sum: float | None
    signless_sum: float | None
    signless_reversed_sum: float | None

    def as_tuple(self) -> tuple[float | None, ...]:
        return (self.adjacency_sum, self.laplacian_sum,
                self.signless_sum, self.signless_reversed_sum)


def wocjan_elphick(g: Graph, d: int, m: int) -> WocjanElphickBounds:
    """Multi-eigenvalue lower bounds on chi^d using the top m eigenvalues.

    Each bound has the shape 1 + (sum of m largest adjacency eigenvalues - dm)
    over a denominator built from adjacency, Laplacian or signless Laplacian
    eigenvalues.  A non-positive denominator yields no information (None).
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    n = g.n
    if not 1 <= m <= n:
        raise ValueError(f"m must be within 1..{n}")
    lam = spectrum(g, MatrixKind.ADJACENCY).values
    mu = spectrum(g, MatrixKind.LAPLACIAN).values
    theta = spectrum(g, MatrixKind.SIGNLESS_LAPLACIAN).values
    top = sum(lam[:m])
    numer = top - d * m
    denoms = (
        d * m - sum(lam[n - m:]),
        d * m + sum(mu[i] - lam[i] for i in range(m)),
        d * m + sum(lam[i] + mu[i] - theta[i] for i in range(m)),
        d * m + sum(lam[i] + mu[n - 1 - i] - theta[n - 1 - i] for i in range(m)),
    )
    vals = tuple(1.0 + numer / den if den > STRICT_MARGIN else None for den in denoms)
    return WocjanElphickBounds(*vals)


def combinatorial_bounds(g: Graph, d: int) -> tuple[float, int]:
    """(clique lower bound omega/(d+1), greedy upper bound ceil((Delta+1)/(d+1)))."""
    if d < 0:
        raise ValueError("d must be non-negative")
    from .solvers import clique_number  # local import; solvers builds on this module

    omega = clique_number(g).value
    lower = omega / (d + 1)
    upper = -(-(g.max_degree() + 1) // (d + 1))
    return lower, upper


@dataclass(frozen=True)
class BoundEntry:
    name: str
    params: dict
    value: float | None
    ceiling: int | None
    kind: str = "lower"  # "lower" or "upper"

    to_json = _fields_json


@dataclass(frozen=True)
class BoundReport:
    n: int
    d: int
    entries: tuple[BoundEntry, ...]
    best_lower: int
    best_lower_name: str

    to_json = _fields_json


def bound_report(g: Graph, d: int, m_max: int = 3,
                 weights: WeightedCompatibleMatrix | None = None) -> BoundReport:
    """Evaluate every lower bound (and the greedy upper bound) on chi^d(g).

    Bounds that need a nonempty spectrum are reported as vacuous (value None)
    on edgeless graphs rather than failing the whole report.
    """
    if weights is not None and weights.graph.n != g.n:
        raise ValueError("weights matrix belongs to a different graph")
    entries: list[BoundEntry] = []
    has_edge = g.edge_count > 0

    def lower(name: str, params: dict, value: float | None) -> None:
        ceiling = None
        if value is not None:
            ceiling = max(1, ceil_lower(value)) if g.n else 0
        entries.append(BoundEntry(name, params, value, ceiling))

    lower("hoffman_bilu", {"d": d}, hoffman_bilu(g, d) if has_edge else None)
    m_top = min(m_max, g.n)
    for m in range(1, m_top + 1):
        we = wocjan_elphick(g, d, m) if has_edge else WocjanElphickBounds(None, None, None, None)
        lower("wocjan_adjacency", {"d": d, "m": m}, we.adjacency_sum)
        lower("wocjan_laplacian", {"d": d, "m": m}, we.laplacian_sum)
        lower("wocjan_signless", {"d": d, "m": m}, we.signless_sum)
        lower("wocjan_signless_reversed", {"d": d, "m": m}, we.signless_reversed_sum)
    for label, wm in (("adjacency", g if g.n else None), ("supplied", weights)):
        if wm is None:
            continue
        try:
            val = inertia_chromatic_bound(wm, d)
        except ArithmeticError:
            val = None
        lower(f"inertia_{label}", {"d": d}, float(val) if val is not None else None)
    clique_lb, greedy_ub = combinatorial_bounds(g, d)
    lower("clique", {"d": d}, clique_lb)
    entries.append(BoundEntry("greedy_palette", {"d": d}, float(greedy_ub), greedy_ub, "upper"))
    best = max((e for e in entries if e.kind == "lower" and e.ceiling is not None),
               key=lambda e: e.ceiling, default=None)
    if best is None:
        best_val, best_name = 1, "trivial"
    else:
        best_val, best_name = best.ceiling, best.name
    return BoundReport(g.n, d, tuple(entries), best_val, best_name)

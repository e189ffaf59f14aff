"""Spectral and combinatorial lower bounds for improper chromatic numbers.

Every bound here is a genuine lower bound on chi^d (and hence on the
(d+1)-clustered chromatic number).  Integer ceilings are taken with the
margin ``spectra.SNAP_TOL`` so floating point noise can never push a bound
above the true value.  Each bound is one formula on descending value tuples
(``_hoffman``, ``_wocjan``, ``_inertia``), which the public functions and
``bound_report`` share.  The report reads the adjacency, Laplacian and
signless Laplacian values of g once; for g = base * K_t they come from
base's checked spectra by the closed forms of ``spectra._values``, with the
trace checks, and no product ``Spectrum`` is built.  Its clique entry comes
last, so a graph over the solvers' cap has every spectrum read first.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np

from .graphs import Graph, _fields_json
from .spectra import (ROUNDOFF, SNAP_TOL, STRICT_MARGIN, MatrixKind, Spectrum, _groups, _values,
                      eigensolve, graph_matrix)

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
        off = np.argwhere(np.triu((w != 0.0) & (graph_matrix(graph) == 0.0), 1))
        if len(off):
            raise ValueError(f"nonzero weight on non-edge ({off[0, 0]},{off[0, 1]})")
        self.graph = graph
        self.n = n
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


def _hoffman(lam: tuple[float, ...], d: int) -> float:
    return (lam[0] - lam[-1]) / (d - lam[-1])


def _wocjan(lam: tuple[float, ...], mu: tuple[float, ...], theta: tuple[float, ...], d: int,
            m: int) -> tuple[float | None, ...]:
    n = len(lam)
    numer = sum(lam[:m]) - d * m
    denoms = (
        d * m - sum(lam[n - m:]),
        d * m + sum(mu[i] - lam[i] for i in range(m)),
        d * m + sum(lam[i] + mu[i] - theta[i] for i in range(m)),
        d * m + sum(lam[i] + mu[n - 1 - i] - theta[n - 1 - i] for i in range(m)),
    )
    return tuple(1.0 + numer / den if den > STRICT_MARGIN else None for den in denoms)


def _inertia(values: tuple[float, ...], d: int) -> tuple[int, int]:
    above = below = 0
    for value, count in _groups(values):
        if value > d + STRICT_MARGIN:
            above += count
        elif value < -d - STRICT_MARGIN:
            below += count
    return above, below


def _inertia_chromatic(n: int, above: int, below: int) -> int | None:
    if above >= n or below >= n:
        return None
    return max(-(-n // (n - above)), -(-n // (n - below)))


def _check_d(d: int) -> None:
    if d < 0:
        raise ValueError("d must be non-negative")


def hoffman_bilu(g: Graph, d: int) -> float:
    """Generalized Hoffman bound (lam1 - lamn) / (d - lamn) on chi^d.

    Also a lower bound on the (d+1)-clustered chromatic number.  Undefined
    for edgeless graphs, whose spectrum collapses to a point.
    """
    _check_d(d)
    if g.edge_count == 0:
        raise ValueError("Hoffman bound needs at least one edge")
    return _hoffman(_values(g, MatrixKind.ADJACENCY), d)


def inertia_counts(w: WeightedCompatibleMatrix | Graph, d: int) -> tuple[int, int]:
    """Eigenvalues strictly above d and strictly below -d.

    Counting is done on the multiplicity-grouped spectrum with a strict margin,
    so values numerically equal to +-d count as neither.  A plain graph uses
    its memoised adjacency spectrum; only supplied weights are diagonalised.
    """
    _check_d(d)
    values = _values(w, MatrixKind.ADJACENCY) if isinstance(w, Graph) else w.spectrum().values
    return _inertia(values, d)


def inertia_alpha_bound(w: WeightedCompatibleMatrix | Graph, d: int) -> int:
    """Upper bound on alpha_d: min(n - n_d^+, n - n_d^-)."""
    return w.n - max(inertia_counts(w, d))


def inertia_chromatic_bound(w: WeightedCompatibleMatrix | Graph, d: int) -> int:
    """Lower bound on chi^d: ceil(max(n/(n - n_d^+), n/(n - n_d^-)))."""
    bound = _inertia_chromatic(w.n, *inertia_counts(w, d))
    if bound is None:
        raise ArithmeticError("all eigenvalues escape [-d, d]; bound degenerates")
    return bound


@dataclass(frozen=True)
class WocjanElphickBounds:
    """The four sum-of-eigenvalues bounds; None marks a vacuous entry."""

    adjacency_sum: float | None
    laplacian_sum: float | None
    signless_sum: float | None
    signless_reversed_sum: float | None

    as_tuple = astuple


def wocjan_elphick(g: Graph, d: int, m: int) -> WocjanElphickBounds:
    """Multi-eigenvalue lower bounds on chi^d using the top m eigenvalues.

    Each bound has the shape 1 + (sum of m largest adjacency eigenvalues - dm)
    over a denominator built from adjacency, Laplacian or signless Laplacian
    eigenvalues.  A non-positive denominator yields no information (None).
    """
    _check_d(d)
    if not 1 <= m <= g.n:
        raise ValueError(f"m must be within 1..{g.n}")
    return WocjanElphickBounds(*_wocjan(*(_values(g, kind) for kind in MatrixKind), d, m))


def combinatorial_bounds(g: Graph, d: int) -> tuple[float, int]:
    """(clique lower bound omega/(d+1), greedy upper bound ceil((Delta+1)/(d+1)))."""
    _check_d(d)
    from .solvers import clique_number  # local import; solvers builds on this module

    omega = clique_number(g).value
    lower = omega / (d + 1)
    upper = -(-(g.max_degree() + 1) // (d + 1))
    return lower, upper


class BoundEntry(NamedTuple):
    name: str
    params: dict
    value: float | None
    ceiling: int | None
    kind: str = "lower"  # "lower" or "upper"

    to_json = _fields_json


class BoundReport(NamedTuple):
    n: int
    d: int
    entries: tuple[BoundEntry, ...]
    best_lower: int
    best_lower_name: str

    to_json = _fields_json


def bound_report(g: Graph, d: int, m_max: int = 3,
                 weights: WeightedCompatibleMatrix | None = None) -> BoundReport:
    """Evaluate every lower bound (and the greedy upper bound) on chi^d(g).

    The three spectra of g are read once, and every spectral entry comes from
    them; bounds that need a nonempty spectrum are reported as vacuous (value
    None) on edgeless graphs rather than failing the whole report.
    """
    _check_d(d)
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if weights is not None and weights.graph.n != g.n:
        raise ValueError("weights matrix belongs to a different graph")
    entries: list[BoundEntry] = []

    def lower(name: str, params: dict, value: float | None) -> None:
        ceiling = None if value is None else max(1, ceil_lower(value)) if g.n else 0
        entries.append(BoundEntry(name, params, value, ceiling))

    edged = g.edge_count > 0
    lam, mu, theta = (_values(g, kind) if g.n else () for kind in MatrixKind)
    lower("hoffman_bilu", {"d": d}, _hoffman(lam, d) if edged else None)
    for m in range(1, min(m_max, g.n) + 1):
        row = _wocjan(lam, mu, theta, d, m) if edged else (None,) * 4
        for kind, value in zip(("adjacency", "laplacian", "signless", "signless_reversed"), row):
            lower(f"wocjan_{kind}", {"d": d, "m": m}, value)
    for label, values in (("adjacency", lam if g.n else None),
                          ("supplied", None if weights is None else weights.spectrum().values)):
        if values is not None:
            bound = _inertia_chromatic(g.n, *_inertia(values, d))
            lower(f"inertia_{label}", {"d": d}, None if bound is None else float(bound))
    clique_lb, greedy_ub = combinatorial_bounds(g, d)
    lower("clique", {"d": d}, clique_lb)
    entries.append(BoundEntry("greedy_palette", {"d": d}, float(greedy_ub), greedy_ub, "upper"))
    best = max((e for e in entries if e.kind == "lower" and e.ceiling is not None),
               key=lambda e: e.ceiling, default=BoundEntry("trivial", {}, None, 1))
    return BoundReport(g.n, d, tuple(entries), best.ceiling, best.name)

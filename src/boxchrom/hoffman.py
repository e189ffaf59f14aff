"""Equality diagnostics for the generalized Hoffman bound.

A colouring whose class count meets the spectral lower bound exactly is
heavily constrained: the smallest eigenvalue must repeat, classes must induce
regular subgraphs, and the classes must be regular in a Perron-weighted
sense.  This module checks each of those structural conditions so a claimed
tight colouring can be audited, and lifts tight proper colourings through
strong products with complete graphs.

Every condition reads the colouring's classes, ranked by ascending colour
(``_parts``), through one class-sum table S[v][j] = sum(w_u : u ~ v, u in
class j), built as one matrix product (``_class_sums``): unit weights give
the integer class degrees, Perron weights the weighted class degrees, and the
quotient matrix averages the weighted rows over each class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import hoffman_bilu
from .colouring import Colouring, Mode, _require_total, check_improper, lift_colouring
from .graphs import Graph, _fields_json, complete_graph, strong_product
from .solvers import _Clock, _search
from .spectra import QUOTIENT_TOL, SNAP_TOL, graph_matrix, perron_vector, spectrum

__all__ = [
    "HoffmanDiagnosis",
    "LiftDiagnosis",
    "diagnose_hoffman",
    "is_equitable",
    "lift_tight_colouring",
    "quotient_matrix",
    "weighted_class_degrees",
]

_Parts = tuple[np.ndarray, np.ndarray]  # (first, part), as ``_parts`` returns them


def _parts(g: Graph, colouring: Colouring) -> _Parts:
    """(first, part): the lowest vertex of each class and each vertex's class index.

    Class j holds the vertices of the j-th smallest colour, so the rows and
    columns of every table below follow ascending colour order.  Raises
    ValueError when the colouring's length is not the graph's.
    """
    _require_total(g, colouring)
    _, first, part = np.unique(colouring.colours, return_index=True, return_inverse=True)
    return first, part


def _class_sums(g: Graph, parts: _Parts, w: np.ndarray) -> np.ndarray:
    """Class-sum table S[v][j] = sum(w_u : u ~ v, u in class j), as one product A P.

    P[u][class(u)] = w_u and is zero elsewhere.  S has the dtype of w, so unit
    integer weights give the integer class degrees exactly.
    """
    first, part = parts
    p = np.eye(len(first), dtype=w.dtype)[part] * w[:, None]
    return graph_matrix(g).astype(w.dtype) @ p


def _constant_on_parts(table: np.ndarray, parts: _Parts, tol: float = 0.0) -> bool:
    """True when every row of the table is within tol of its class's first row."""
    first, part = parts
    return float(np.abs(table - table[first][part]).max(initial=0.0)) <= tol


def class_degree_table(g: Graph, colouring: Colouring) -> np.ndarray:
    """Integer table D[v][j] = number of neighbours of v inside class j."""
    return _class_sums(g, _parts(g, colouring), np.ones(g.n, dtype=int))


def is_equitable(g: Graph, colouring: Colouring) -> bool:
    """True when class degrees depend only on the class of the vertex."""
    parts = _parts(g, colouring)
    return _constant_on_parts(_class_sums(g, parts, np.ones(g.n, dtype=int)), parts)


def weighted_class_degrees(g: Graph, colouring: Colouring) -> np.ndarray:
    """Perron-weighted class degrees W[v][j] = sum(w_u : u ~ v, u in class j) / w_v."""
    parts, w = _parts(g, colouring), perron_vector(g)
    return _class_sums(g, parts, w) / w[:, None]


def _quotient(g: Graph, parts: _Parts, weighted: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The quotient of ``quotient_matrix`` from the Perron vector w and its table W.

    x_i^T A x_j = sum(w_v^2 W[v][j] : v in class i), so row i is the
    w^2-weighted mean of the rows W[v] over the class.
    """
    first, part = parts
    w2 = w ** 2
    fold = np.eye(len(first))[part].T
    c = fold @ (w2[:, None] * weighted) / (fold @ w2)[:, None]
    lam1 = spectrum(g).largest
    rows = c.sum(axis=1)
    if not float(np.abs(rows - lam1).max(initial=0.0)) <= QUOTIENT_TOL * (1.0 + abs(lam1)):
        raise ArithmeticError("quotient row sums drift from the Perron eigenvalue")
    return c


def quotient_matrix(g: Graph, colouring: Colouring) -> np.ndarray:
    """Perron-weighted quotient C[i][j] = x_i^T A x_j / |x_i|^2.

    Here x_i is the Perron vector restricted to colour class i.  Row sums
    always equal the largest adjacency eigenvalue; that identity is verified
    before returning, as a guard against a bad Perron vector or colouring.
    """
    parts = _parts(g, colouring)
    try:
        w = perron_vector(g)
    except ValueError:  # perron_vector refuses only empty and disconnected graphs
        raise ValueError("quotient matrix needs a connected graph") from None
    return _quotient(g, parts, _class_sums(g, parts, w) / w[:, None], w)


@dataclass(frozen=True)
class HoffmanDiagnosis:
    """Structural audit of a d-improper colouring against the spectral bound."""

    d: int
    num_classes: int
    bound: float
    is_tight: bool
    smallest_eigenvalue: float
    smallest_multiplicity: int
    multiplicity_sufficient: bool
    classes_d_regular: bool
    weight_regular: bool
    equitable: bool | None
    cross_degrees_match: bool | None
    unique_colouring: bool | None
    multiplicity_exact: bool | None
    quotient: tuple[tuple[float, ...], ...]

    def all_equality_conditions(self) -> bool:
        """Conjunction of the conditions that every tight colouring must satisfy."""
        out = self.multiplicity_sufficient and self.classes_d_regular and self.weight_regular
        if self.equitable is not None:
            out = out and self.equitable and bool(self.cross_degrees_match)
        return out

    to_json = _fields_json


def _count_colourings_up_to_symmetry(g: Graph, d: int, m: int, stop_at: int = 2) -> int:
    """Count d-improper colourings with exactly m colours, up to renaming.

    Colours are introduced in first-seen order, so each equivalence class is
    generated exactly once.  Every vertex is its own block, ranked by index,
    so no twin floor applies: colourings that differ by swapping twins count
    apart.
    Stops early once ``stop_at`` colourings are found.
    """
    found = 0

    def leaf(used: int) -> bool:
        nonlocal found
        found += used == m
        return found >= stop_at

    _search(g.adj, m, Mode.improper(d), list(range(g.n)), [-1] * g.n, _Clock(None), leaf)
    return found


def diagnose_hoffman(
    g: Graph,
    d: int,
    colouring: Colouring,
    *,
    check_uniqueness: bool = False,
) -> HoffmanDiagnosis:
    """Audit a d-improper colouring against the spectral equality conditions.

    The uniqueness check enumerates all colourings with the same class count
    and is capped at 12 vertices; when it confirms a unique colouring, the
    smallest eigenvalue's multiplicity must equal the class count minus one,
    and that sharper statement is checked too.

    The Perron vector is read once, and its connectivity test is the only
    one: on two or more vertices, connected means at least one edge.
    """
    if g.n < 2:
        raise ValueError("Hoffman diagnostics need at least one edge")
    try:
        w = perron_vector(g)
    except ValueError:  # perron_vector refuses only empty and disconnected graphs
        raise ValueError("Hoffman diagnostics need a connected graph") from None
    if colouring.n != g.n:
        raise ValueError("colouring size does not match graph")
    bad = check_improper(g, colouring, d)
    if bad is not None:
        raise ValueError(f"colouring is not {d}-improper: {bad}")

    parts = _parts(g, colouring)
    m = colouring.num_colours
    bound = hoffman_bilu(g, d)
    s = spectrum(g)
    lam_n = s.smallest
    mult = s.multiplicity(lam_n)

    table = _class_sums(g, parts, np.ones(g.n, dtype=int))
    own = np.eye(m, dtype=bool)[parts[1]]  # own[v][j]: v lies in class j
    d_regular = bool((table[own] == d).all())

    equitable = cross_ok = None
    if len(set(g.degree_sequence())) == 1:
        equitable = _constant_on_parts(table, parts)
        cross_ok = bool((np.abs(table[~own] - (d - lam_n)) <= SNAP_TOL).all())

    unique = mult_exact = None
    if check_uniqueness:
        if g.n > 12:
            raise ValueError("uniqueness enumeration is capped at 12 vertices")
        unique = _count_colourings_up_to_symmetry(g, d, m) == 1
        if unique:
            mult_exact = mult == m - 1

    weighted = _class_sums(g, parts, w) / w[:, None]
    quotient = _quotient(g, parts, weighted, w)
    return HoffmanDiagnosis(
        d=d,
        num_classes=m,
        bound=bound,
        is_tight=abs(m - bound) <= SNAP_TOL,
        smallest_eigenvalue=lam_n,
        smallest_multiplicity=mult,
        multiplicity_sufficient=mult >= m - 1,
        classes_d_regular=d_regular,
        weight_regular=_constant_on_parts(weighted, parts, SNAP_TOL),
        equitable=equitable,
        cross_degrees_match=cross_ok,
        unique_colouring=unique,
        multiplicity_exact=mult_exact,
        quotient=tuple(tuple(float(x) for x in row) for row in quotient),
    )


@dataclass(frozen=True)
class LiftDiagnosis:
    """Outcome of lifting a tight proper colouring through a strong product."""

    base_classes: int
    base_bound: float
    d: int
    product_bound: float
    lifted: Colouring
    product_diagnosis: HoffmanDiagnosis

    to_json = _fields_json


def lift_tight_colouring(g: Graph, proper: Colouring, d: int) -> LiftDiagnosis:
    """Lift a tight proper colouring of g to a tight d-improper one of g * K(d+1).

    The input colouring must be proper and meet the d=0 spectral bound with
    equality.  Copying each vertex's colour across its clique fibre then gives
    every vertex exactly d same-coloured neighbours, and the product bound
    (which equals the base bound) stays tight.  Raises when the input
    colouring is not tight, since the lift then proves nothing.
    """
    if d < 1:
        raise ValueError("lifting needs d >= 1")
    base = diagnose_hoffman(g, 0, proper)
    if not base.is_tight:
        raise ValueError(
            f"proper colouring uses {base.num_classes} classes but the spectral "
            f"bound is {base.bound:.6f}; not tight, nothing to lift"
        )
    product = strong_product(g, complete_graph(d + 1))
    lifted = lift_colouring(proper, d + 1)
    diag = diagnose_hoffman(product, d, lifted)
    if not diag.is_tight:
        raise ArithmeticError("lifted colouring failed to stay tight")
    return LiftDiagnosis(
        base_classes=base.num_classes,
        base_bound=base.bound,
        d=d,
        product_bound=diag.bound,
        lifted=lifted,
        product_diagnosis=diag,
    )

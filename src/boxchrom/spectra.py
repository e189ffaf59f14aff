"""Eigenvalues of graph matrices via LAPACK (numpy.linalg.eigh).

Every decomposition is checked before use: symmetric input, the residual
||MV - VW|| and orthonormality of V.  Spectra are returned in descending
order.  Near-equal eigenvalues are grouped with a fixed tolerance so
multiplicity queries behave sensibly on the noisy output of floating point
diagonalisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .graphs import Graph, iter_bits, strong_product, named_graph

__all__ = [
    "MatrixKind",
    "Spectrum",
    "eigensolve",
    "graph_matrix",
    "multiplicity",
    "perron_vector",
    "product_spectrum_identity_check",
    "spectrum",
]

MULT_TOL = 1e-7
RESIDUAL_TOL = 1e-9


class MatrixKind(Enum):
    ADJACENCY = "adjacency"
    LAPLACIAN = "laplacian"
    SIGNLESS_LAPLACIAN = "signless_laplacian"


def graph_matrix(g: Graph, kind: MatrixKind = MatrixKind.ADJACENCY) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for v in range(g.n):
        for u in iter_bits(g.adj[v]):
            a[v, u] = 1.0
    if kind is MatrixKind.ADJACENCY:
        return a
    deg = np.diag([float(g.degree(v)) for v in range(g.n)])
    if kind is MatrixKind.LAPLACIAN:
        return deg - a
    return deg + a


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order with a grouping tolerance."""

    values: tuple[float, ...]
    tol: float = MULT_TOL

    def __post_init__(self) -> None:
        for a, b in zip(self.values, self.values[1:]):
            if a < b - 1e-12:
                raise ValueError("spectrum values must be descending")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def largest(self) -> float:
        return self.values[0]

    @property
    def smallest(self) -> float:
        return self.values[-1]

    def multiplicity(self, value: float) -> int:
        return sum(1 for x in self.values if abs(x - value) <= self.tol)

    def groups(self) -> list[tuple[float, int]]:
        """Cluster near-equal values; each group is (mean value, count)."""
        out: list[tuple[float, int]] = []
        run: list[float] = []
        for x in self.values:
            if run and run[-1] - x > self.tol:
                out.append((sum(run) / len(run), len(run)))
                run = []
            run.append(x)
        if run:
            out.append((sum(run) / len(run), len(run)))
        return out


def multiplicity(s: Spectrum, value: float) -> int:
    return s.multiplicity(value)


def eigensolve(m: np.ndarray) -> tuple[Spectrum, np.ndarray]:
    """Full symmetric eigendecomposition m = V diag(w) V^T.

    Eigenvalues come back descending, eigenvector k in column k of V.  The
    residual and orthonormality of the factorisation are verified before
    returning; an asymmetric input is rejected.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.shape[0] == 0:
        raise ValueError("matrix must be non-empty")
    scale = 1.0 + float(np.abs(m).max())
    if float(np.abs(m - m.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    w, v = np.linalg.eigh(m)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    if float(np.abs(m @ v - v * w).max()) > RESIDUAL_TOL * scale:
        raise ArithmeticError("eigendecomposition residual too large")
    if float(np.abs(v.T @ v - np.eye(m.shape[0])).max()) > RESIDUAL_TOL:
        raise ArithmeticError("eigenvectors are not orthonormal")
    return Spectrum(tuple(float(x) for x in w)), v


def _product_spectrum(base: Graph, t: int, kind: MatrixKind) -> Spectrum:
    """Spectrum of base * K_t from the spectrum of base.

    One first-row value per eigenvalue of base, plus one second-row value per
    vertex repeated t-1 times:

    - adjacency:          {t*lam + (t-1)}         and  -1
    - Laplacian:          {t*mu}                  and  t*deg(u) + t
    - signless Laplacian: {t*theta + 2(t-1)}      and  (t-2) + t*deg(u)
    """
    values = spectrum(base, kind).values
    if kind is MatrixKind.ADJACENCY:
        out = [t * x + (t - 1) for x in values] + [-1.0] * ((t - 1) * base.n)
    elif kind is MatrixKind.LAPLACIAN:
        out = [t * x for x in values]
        for v in range(base.n):
            out += [float(t * base.degree(v) + t)] * (t - 1)
    else:
        out = [t * x + 2 * (t - 1) for x in values]
        for v in range(base.n):
            out += [float((t - 2) + t * base.degree(v))] * (t - 1)
    return Spectrum(tuple(sorted(out, reverse=True)))


@lru_cache(maxsize=4096)
def _spectrum_cached(g: Graph, kind: MatrixKind, base: tuple[Graph, int] | None) -> Spectrum:
    # base (g._base) keys the cache too: a product and an equal graph without
    # provenance never answer for each other, so the latter stays an oracle
    s = eigensolve(graph_matrix(g, kind))[0] if base is None else _product_spectrum(*base, kind)
    n = g.n
    tot = sum(s.values)
    if kind is MatrixKind.ADJACENCY and abs(tot) > 1e-8 * max(n, 1):
        raise ArithmeticError("adjacency spectrum does not sum to zero")
    if kind in (MatrixKind.LAPLACIAN, MatrixKind.SIGNLESS_LAPLACIAN):
        if abs(tot - 2 * g.edge_count) > 1e-8 * max(n, 1):
            raise ArithmeticError("Laplacian-type trace mismatch")
    return s


def spectrum(g: Graph, kind: MatrixKind = MatrixKind.ADJACENCY) -> Spectrum:
    """Spectrum of the chosen matrix of g (memoised; graphs are immutable).

    g = base * K_t takes ``_product_spectrum`` from the checked spectrum of base.
    """
    if g.n == 0:
        raise ValueError("spectrum of the empty graph is undefined")
    return _spectrum_cached(g, kind, g._base)


@lru_cache(maxsize=1024)
def _perron_cached(g: Graph, base: tuple[Graph, int] | None) -> tuple[float, ...]:
    # base (g._base) keys the cache as in ``_spectrum_cached``
    if base is None:
        vec = eigensolve(graph_matrix(g))[1][:, 0]
        if vec[0] < 0:
            vec = -vec
    else:
        h, t = base
        vec = np.repeat(perron_vector(h), t) / np.sqrt(t)
    if np.min(vec) <= 0:
        raise ArithmeticError("leading eigenvector is not strictly positive")
    return tuple(float(x) for x in vec)


def perron_vector(g: Graph) -> np.ndarray:
    """Positive unit eigenvector of the largest adjacency eigenvalue.

    Only defined for connected graphs with at least one vertex.  g = base * K_t
    takes base's vector, repeated over each fibre and divided by sqrt(t).
    """
    if g.n == 0:
        raise ValueError("empty graph")
    if not g.is_connected():
        raise ValueError("Perron vector requires a connected graph")
    return np.array(_perron_cached(g, g._base))


def product_spectrum_identity_check(g: Graph, n: int, kind: MatrixKind = MatrixKind.ADJACENCY,
                                    tol: float = MULT_TOL) -> bool:
    """Check the closed-form spectrum of g * K_n against a direct diagonalisation.

    ``spectrum`` of the product takes the closed form of ``_product_spectrum``;
    the check compares it, value by value, with ``eigensolve`` of the
    product's matrix.
    """
    if n < 1:
        raise ValueError("factor size must be at least 1")
    product = strong_product(g, named_graph("complete", [n]))
    pred = spectrum(product, kind).values
    actual = eigensolve(graph_matrix(product, kind))[0].values
    if len(pred) != len(actual):
        return False
    return all(abs(a - b) <= tol for a, b in zip(pred, actual))

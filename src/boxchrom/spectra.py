"""Eigenvalues of graph matrices via LAPACK (numpy.linalg.eigh), and the tolerance table.

Every decomposition is checked before use: finite symmetric input, the
residual ||MV - VW|| and orthonormality of V.  Spectra are returned in
descending order, near-equal eigenvalues grouped within ``MULT_TOL``.  Every
float tolerance of the package is named once, in the table below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .graphs import Graph

__all__ = [
    "MatrixKind",
    "Spectrum",
    "eigensolve",
    "graph_matrix",
    "perron_vector",
    "spectrum",
]

# Each check is written so that NaN fails it (``not err <= tol``).
ROUNDOFF = 1e-12  # float noise on exact input: symmetry, [-1, 1] range, descending order
RESIDUAL_TOL = 1e-9  # eigendecomposition residual (times 1 + max|m|) and orthonormality
STRICT_MARGIN = 1e-9  # a margin a value must clear to count as strictly past a threshold
TRACE_TOL = 1e-8  # spectrum sum against the matrix trace, per vertex
MULT_TOL = 1e-7  # eigenvalues this close are one eigenvalue for multiplicity and groups
QUOTIENT_TOL = 1e-7  # quotient row sums against the Perron eigenvalue (times 1 + |lam1|)
SNAP_TOL = 1e-6  # a computed value this close to an exact one is that value


class MatrixKind(Enum):
    ADJACENCY = "adjacency"
    LAPLACIAN = "laplacian"
    SIGNLESS_LAPLACIAN = "signless_laplacian"


def _bit_rows(rows: tuple[int, ...] | list[int], n: int) -> np.ndarray:
    """The 0/1 uint8 matrix of bits 0..n-1 of each row, its little-endian bytes unpacked at once."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in rows), np.uint8)
    return np.unpackbits(packed.reshape(len(rows), width), axis=1, count=n, bitorder="little")


def graph_matrix(g: Graph, kind: MatrixKind = MatrixKind.ADJACENCY) -> np.ndarray:
    a = _bit_rows(g.adj, g.n).astype(float)
    if kind is MatrixKind.ADJACENCY:
        return a
    deg = np.diag(a.sum(axis=1))
    if kind is MatrixKind.LAPLACIAN:
        return deg - a
    return deg + a


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order, grouped within ``MULT_TOL``."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.values, self.values[1:]):
            if not a >= b - ROUNDOFF:
                raise ValueError("spectrum values must be descending")

    @property
    def largest(self) -> float:
        return self.values[0]

    @property
    def smallest(self) -> float:
        return self.values[-1]

    def multiplicity(self, value: float) -> int:
        return sum(1 for x in self.values if abs(x - value) <= MULT_TOL)

    def groups(self) -> list[tuple[float, int]]:
        return _groups(self.values)


def _groups(values: tuple[float, ...]) -> list[tuple[float, int]]:
    """Descending values clustered within ``MULT_TOL``; each group is (mean value, count)."""
    out: list[tuple[float, int]] = []
    run: list[float] = []
    for x in values:
        if run and run[-1] - x > MULT_TOL:
            out.append((sum(run) / len(run), len(run)))
            run = []
        run.append(x)
    if run:
        out.append((sum(run) / len(run), len(run)))
    return out


def eigensolve(m: np.ndarray) -> tuple[Spectrum, np.ndarray]:
    """Full symmetric eigendecomposition m = V diag(w) V^T.

    Eigenvalues come back descending, eigenvector k in column k of V: LAPACK's
    ascending output read backwards, so the columns of exactly equal
    eigenvalues come in reversed LAPACK order (any orthonormal basis of an
    eigenspace is valid), and a simple eigenvalue's column, such as a
    connected graph's Perron vector, is LAPACK's own.  The residual and
    orthonormality are verified; non-finite or asymmetric input is rejected.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.shape[0] == 0:
        raise ValueError("matrix must be non-empty")
    scale = 1.0 + float(np.abs(m).max())
    if not math.isfinite(scale):
        raise ValueError("matrix has a non-finite entry")
    if not float(np.abs(m - m.T).max()) <= ROUNDOFF * scale:
        raise ValueError("matrix is not symmetric")
    w, v = np.linalg.eigh(m)
    w, v = w[::-1], v[:, ::-1]
    if not float(np.abs(m @ v - v * w).max()) <= RESIDUAL_TOL * scale:
        raise ArithmeticError("eigendecomposition residual too large")
    if not float(np.abs(v.T @ v - np.eye(m.shape[0])).max()) <= RESIDUAL_TOL:
        raise ArithmeticError("eigenvectors are not orthonormal")
    return Spectrum(tuple(w.tolist())), v


def _check_trace(values: tuple[float, ...], g: Graph, kind: MatrixKind) -> None:
    trace = 0 if kind is MatrixKind.ADJACENCY else 2 * g.edge_count
    if not abs(sum(values) - trace) <= TRACE_TOL * max(g.n, 1):
        raise ArithmeticError(f"{kind.value} spectrum does not sum to the trace")


def _values(g: Graph, kind: MatrixKind) -> tuple[float, ...]:
    """``spectrum(g, kind).values``; g = base * K_t reads them off base, building no Spectrum.

    Then they are one first-row value per eigenvalue of base, plus one
    second-row value per vertex repeated t-1 times, and must sum to the trace
    of g's matrix, as an eigensolve's must:

    - adjacency:          {t*lam + (t-1)}         and  -1
    - Laplacian:          {t*mu}                  and  t*deg(u) + t
    - signless Laplacian: {t*theta + 2(t-1)}      and  (t-2) + t*deg(u)
    """
    if g._base is None:
        return spectrum(g, kind).values
    base, t = g._base
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
    out = tuple(sorted(out, reverse=True))
    _check_trace(out, g, kind)
    return out


@lru_cache(maxsize=4096)
def _spectrum_cached(g: Graph, kind: MatrixKind) -> tuple[Spectrum, np.ndarray | None]:
    # a graph without provenance: the checked spectrum and, for an adjacency matrix,
    # the read-only leading eigenvector of the same eigensolve, signed so its first
    # entry is >= 0; an equal product never reaches it, so an equal copy stays an oracle
    lead = None
    s, vecs = eigensolve(graph_matrix(g, kind))
    _check_trace(s.values, g, kind)
    if kind is MatrixKind.ADJACENCY:
        lead = -vecs[:, 0] if vecs[0, 0] < 0 else vecs[:, 0].copy()
        lead.flags.writeable = False
    return s, lead


def spectrum(g: Graph, kind: MatrixKind = MatrixKind.ADJACENCY) -> Spectrum:
    """Spectrum of the chosen matrix of g (memoised; graphs are immutable).

    g = base * K_t takes ``_values`` from the memoised spectrum of base.
    """
    if g.n == 0:
        raise ValueError("spectrum of the empty graph is undefined")
    return _spectrum_cached(g, kind)[0] if g._base is None else Spectrum(_values(g, kind))


def perron_vector(g: Graph) -> np.ndarray:
    """Positive unit eigenvector of the largest adjacency eigenvalue, as a new array.

    Only defined for connected graphs with at least one vertex.  A plain graph
    reads the vector of the eigensolve behind ``spectrum(g)``; g = base * K_t
    takes base's vector, repeated over each fibre and divided by sqrt(t).
    """
    if g.n == 0:
        raise ValueError("empty graph")
    if not g.is_connected():
        raise ValueError("Perron vector requires a connected graph")
    if g._base is not None:
        h, t = g._base
        return np.repeat(perron_vector(h), t) / np.sqrt(t)
    vec = _spectrum_cached(g, MatrixKind.ADJACENCY)[1]
    if not np.min(vec) > 0:
        raise ArithmeticError("leading eigenvector is not strictly positive")
    return vec.copy()

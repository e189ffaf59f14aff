"""A fixed reference computation that gauges how fast the host runs right now.

The benchmark runs on shared hosts whose speed drifts: a neighbour's load
slows every run by up to a half, for seconds or for minutes.  The gauge does
the two kinds of work boxchrom spends its time on, a bitmask branch-and-bound
search in pure Python and many tiny numpy eigensolves, on inputs fixed here.
It imports nothing from boxchrom, so a change to the program never changes
it.  `run.py` scales every end-to-end timing by NOMINAL_S over the fastest
gauge of the run: the figures read as seconds on a host where one gauge takes
NOMINAL_S.

    python3 bench/gauge.py        # prints a few gauge times
"""

from __future__ import annotations

import random
import time

import numpy as np

# The fastest gauge on a quiet 2-core Xeon VM (Python 3.11, numpy 2.4).
NOMINAL_S = 0.033

_CLIQUE_N, _CLIQUE_P, _CLIQUE_SEED = 80, 0.7, 7
_EIGEN_SIZES = (7, 14, 21) * 180  # the product orders a small-graph sweep solves
EXPECTED_CLIQUE = 14


def _random_adjacency(n: int, p: float, seed: int) -> list[int]:
    rng = random.Random(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def _matrices() -> list[np.ndarray]:
    rng = np.random.default_rng(_CLIQUE_SEED)
    out = []
    for n in _EIGEN_SIZES:
        a = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
        out.append(a + a.T)
    return out


_ADJ = _random_adjacency(_CLIQUE_N, _CLIQUE_P, _CLIQUE_SEED)
_MATS = _matrices()


def _max_clique(adj: list[int]) -> int:
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            expand(cand & adj[v], size + 1)
        best = max(best, size)

    expand((1 << len(adj)) - 1, 0)
    return best


def gauge() -> float:
    """Seconds one pass of the reference computation takes now."""
    start = time.perf_counter()
    clique = _max_clique(_ADJ)
    top = sum(float(np.linalg.eigvalsh(m)[-1]) for m in _MATS)
    elapsed = time.perf_counter() - start
    if clique != EXPECTED_CLIQUE or not top > 0:
        raise RuntimeError(f"gauge computed clique {clique}, top eigenvalue sum {top}")
    return elapsed


if __name__ == "__main__":
    print(" ".join(f"{gauge():.4f}" for _ in range(10)))

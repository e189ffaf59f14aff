"""Colourings and their feasibility checkers.

Three relaxations of proper colouring are handled throughout the package:

- d-improper: every vertex has at most d neighbours of its own colour;
- t-clustered: every monochromatic component has at most t vertices;
- b-fold variants of both, where vertices carry size-b colour sets.

Checkers return None on success or a Violation whose witness can be
re-verified independently of the checker that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .graphs import Graph, _components, _fields_json, iter_bits

__all__ = [
    "BFoldColouring",
    "Colouring",
    "Mode",
    "Violation",
    "check_bfold",
    "check_clustered",
    "check_improper",
    "lift_colouring",
]


@dataclass(frozen=True)
class Colouring:
    """Total assignment of positive integer colours to vertices 0..n-1."""

    colours: tuple[int, ...]

    def __post_init__(self) -> None:
        for v, c in enumerate(self.colours):
            if type(c) is not int or c < 1:  # refuses bool, an int subclass, too
                raise ValueError(f"vertex {v} has invalid colour {c!r}")

    @classmethod
    def from_list(cls, colours: Iterable[int]) -> "Colouring":
        return cls(tuple(int(c) for c in colours))

    @property
    def n(self) -> int:
        return len(self.colours)

    def palette(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.colours)))

    @property
    def num_colours(self) -> int:
        return len(set(self.colours))

    def canonical(self) -> "Colouring":
        """Renumber colours 1, 2, ... in order of first appearance."""
        seen: dict[int, int] = {}
        out = []
        for c in self.colours:
            if c not in seen:
                seen[c] = len(seen) + 1
            out.append(seen[c])
        return Colouring(tuple(out))

    def to_json(self) -> list[int]:
        return list(self.colours)


@dataclass(frozen=True)
class BFoldColouring:
    """Assignment of a set of colours to each vertex; sets serialise sorted."""

    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for v, s in enumerate(self.sets):
            if len(set(s)) != len(s):
                raise ValueError(f"vertex {v} repeats a colour")
            if any(type(c) is not int or c < 1 for c in s):
                raise ValueError(f"vertex {v} has a colour that is not a positive int: {s!r}")
            if tuple(sorted(s)) != s:
                raise ValueError(f"vertex {v} colour set is not sorted")

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[int]]) -> "BFoldColouring":
        return cls(tuple(tuple(sorted(int(c) for c in s)) for s in sets))

    @property
    def n(self) -> int:
        return len(self.sets)

    def palette(self) -> tuple[int, ...]:
        return tuple(sorted({c for s in self.sets for c in s}))

    def class_mask(self, colour: int) -> int:
        mask = 0
        for v, s in enumerate(self.sets):
            if colour in s:
                mask |= 1 << v
        return mask

    def to_json(self) -> list[list[int]]:
        return [list(s) for s in self.sets]


IMPROPER_DEGREE_EXCEEDED = "ImproperDegreeExceeded"
CLUSTER_TOO_LARGE = "ClusterTooLarge"
ADJACENT_SAME_COLOUR = "AdjacentSameColour"
FOLD_SET_WRONG_SIZE = "FoldSetWrongSize"


@dataclass(frozen=True)
class Violation:
    """A checkable certificate that a colouring breaks a constraint."""

    kind: str
    vertices: tuple[int, ...]
    colour: int | None
    limit: int | None

    to_json = _fields_json


def _require_total(g: Graph, c: Colouring) -> None:
    if c.n != g.n:
        raise ValueError(f"colouring covers {c.n} vertices, graph has {g.n}")


def _class_masks(c: Colouring) -> dict[int, int]:
    """Vertex mask of each colour class, in order of first appearance."""
    masks: dict[int, int] = {}
    for v, colour in enumerate(c.colours):
        masks[colour] = masks.get(colour, 0) | 1 << v
    return masks


def _first_violation(g: Graph, c: Colouring, mode: Mode) -> Violation | None:
    """The violation at the smallest vertex over all colour classes, or None."""
    found = (_check_class(g, members, colour, mode) for colour, members in _class_masks(c).items())
    return min((bad for bad in found if bad is not None), key=lambda bad: bad.vertices[0],
               default=None)


def check_improper(g: Graph, c: Colouring, d: int) -> Violation | None:
    """None iff every vertex has at most d same-coloured neighbours."""
    if d < 0:
        raise ValueError("d must be non-negative")
    _require_total(g, c)
    return _first_violation(g, c, Mode.improper(d))


def _component_masks(g: Graph, c: Colouring) -> Iterator[tuple[int, int]]:
    """(colour, mask) of each component of the monochromatic edges, by smallest vertex."""
    masks = _class_masks(c)
    mono = [row & masks[colour] for row, colour in zip(g.adj, c.colours)]
    for comp in _components(mono, (1 << g.n) - 1):
        yield c.colours[(comp & -comp).bit_length() - 1], comp


def check_clustered(g: Graph, c: Colouring, t: int) -> Violation | None:
    """None iff every monochromatic component has at most t vertices."""
    if t < 1:
        raise ValueError("t must be positive")
    _require_total(g, c)
    return _first_violation(g, c, Mode.clustered(t))


@dataclass(frozen=True)
class Mode:
    """Which relaxation a solver or checker should enforce."""

    kind: str
    param: int | None = None

    _KINDS = ("proper", "improper", "clustered")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"mode kind must be one of {self._KINDS}")
        if self.kind == "proper" and self.param is not None:
            raise ValueError("proper mode takes no parameter")
        if self.kind == "improper" and (self.param is None or self.param < 0):
            raise ValueError("improper mode needs d >= 0")
        if self.kind == "clustered" and (self.param is None or self.param < 1):
            raise ValueError("clustered mode needs t >= 1")

    @classmethod
    def proper(cls) -> "Mode":
        return cls("proper")

    @classmethod
    def improper(cls, d: int) -> "Mode":
        return cls("improper", d)

    @classmethod
    def clustered(cls, t: int) -> "Mode":
        return cls("clustered", t)


def _check_class(g: Graph, members: int, colour: int, mode: Mode) -> Violation | None:
    # validate one colour class (given as a vertex mask) against the mode
    if mode.kind in ("proper", "improper"):
        d = 0 if mode.kind == "proper" else mode.param
        for v in iter_bits(members):
            same = (g.adj[v] & members).bit_count()
            if same > d:
                if d == 0:
                    u = next(iter_bits(g.adj[v] & members))
                    return Violation(ADJACENT_SAME_COLOUR, (v, u), colour, 0)
                return Violation(IMPROPER_DEGREE_EXCEEDED, (v,), colour, d)
        return None
    t = mode.param
    for comp in _components(g.adj, members):
        if comp.bit_count() > t:
            return Violation(CLUSTER_TOO_LARGE, tuple(iter_bits(comp)), colour, t)
    return None


def check_bfold(g: Graph, c: BFoldColouring, b: int, mode: Mode) -> Violation | None:
    """None iff each colour set has size b and each colour class obeys the mode."""
    if b < 1:
        raise ValueError("b must be positive")
    if c.n != g.n:
        raise ValueError(f"colouring covers {c.n} vertices, graph has {g.n}")
    for v, s in enumerate(c.sets):
        if len(s) != b:
            return Violation(FOLD_SET_WRONG_SIZE, (v,), None, b)
    for colour in c.palette():
        bad = _check_class(g, c.class_mask(colour), colour, mode)
        if bad is not None:
            return bad
    return None


def lift_colouring(c: Colouring, t: int) -> Colouring:
    """Blow up a colouring of G to G boxtimes K_t by copying each vertex's colour.

    Vertex (v, i) of the flattened product receives c(v).
    """
    if t < 1:
        raise ValueError("t must be positive")
    out = []
    for col in c.colours:
        out.extend([col] * t)
    return Colouring(tuple(out))


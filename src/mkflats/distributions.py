"""Root distributions, parity distributions, and the map between them.

A root distribution assigns to each vertex one of the three lattice axes (the
axis whose roots at that vertex fail to have rank 2).  Each face then acquires
a parity: the number of its corners whose assigned axis differs from the axis
of the opposite edge, mod 2.  A distribution is even when every face computes
to parity 0.

Both kinds of distribution are partial maps with explicit domain errors, so
solver code can never silently read an unassigned vertex or face.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .lattice import (
    CORNER_OFFSETS,
    OPPOSITE_AXES,
    AxialPoint,
    Face,
    LatticeIso,
    Region,
)


class MissingAssignment(KeyError):
    """A distribution was evaluated outside its domain."""

    # KeyError quotes its message; this error's message is a plain sentence.
    __str__ = Exception.__str__


class PartialMap:
    """Immutable partial map whose lookups outside the domain raise
    MissingAssignment.  Subclasses name the assignment in ``_missing`` and
    check their own values."""

    __slots__ = ("_map",)
    _missing = "no value assigned at"

    def __init__(self, assignment: Mapping):
        self._map = dict(assignment)

    def __getitem__(self, key):
        try:
            return self._map[key]
        except KeyError:
            raise MissingAssignment(f"{self._missing} {key}") from None

    def __contains__(self, key) -> bool:
        return key in self._map

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self._map)} entries)"

    def domain(self) -> frozenset:
        return frozenset(self._map)

    def items(self) -> Iterator[tuple]:
        """The assignments in ascending key order."""
        m = self._map
        return ((k, m[k]) for k in sorted(m))


class RootDistribution(PartialMap):
    """Partial map vertex -> Direction.  Values are not checked: the solver
    builds many witnesses and only ever stores Directions."""

    __slots__ = ()
    _missing = "no direction assigned at vertex"

    def transform(self, iso: LatticeIso) -> "RootDistribution":
        """Push the distribution forward along a lattice isometry."""
        return RootDistribution(
            {iso.apply_point(x): iso.apply_direction(d) for x, d in self._map.items()}
        )

    def restrict(self, vertices: Iterable[AxialPoint]) -> "RootDistribution":
        try:
            return RootDistribution({x: self._map[x] for x in vertices})
        except KeyError as exc:
            raise MissingAssignment(f"{self._missing} {exc.args[0]}") from None


class ParityDistribution(PartialMap):
    """Partial map face -> {0, 1}."""

    __slots__ = ()
    _missing = "no parity assigned on face"

    def __init__(self, assignment: Mapping[Face, int]):
        super().__init__(assignment)
        for f, p in self._map.items():
            if p not in (0, 1):
                raise ValueError(f"parity of {f} must be 0 or 1, got {p!r}")

    def region(self) -> Region:
        return Region(frozenset(self._map))

    def transform(self, iso: LatticeIso) -> "ParityDistribution":
        return ParityDistribution({iso.apply_face(f): p for f, p in self._map.items()})

    @staticmethod
    def constant(region: Region, value: int) -> "ParityDistribution":
        return ParityDistribution({f: value for f in region.faces})


# Per orientation, (offset from the face's (a, b), axis of the opposite edge)
# for each corner in face_corners order.
_CORNER_AXES = {o: tuple(zip(CORNER_OFFSETS[o], OPPOSITE_AXES[o])) for o in CORNER_OFFSETS}


def face_parity(delta: RootDistribution, f: Face) -> int:
    """Parity of ``f`` under ``delta``: the number of corners whose assigned
    axis differs from the axis of the opposite edge, mod 2.

    Equivalently, the parity of the number of rank-2 corner roots determined
    by the side-2 triangle around ``f``.
    """
    assigned = delta._map
    a, b, orientation = f
    mismatches = 0
    for (da, db), axis in _CORNER_AXES[orientation]:
        try:
            d = assigned[a + da, b + db]
        except KeyError:
            x = AxialPoint(a + da, b + db)
            raise MissingAssignment(f"{delta._missing} {x}") from None
        mismatches += d != axis
    return mismatches & 1


def induced_parity(delta: RootDistribution, region: Region) -> ParityDistribution:
    """The parity distribution of ``delta`` on every face of ``region``."""
    return ParityDistribution({f: face_parity(delta, f) for f in region.faces})

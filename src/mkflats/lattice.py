"""Integer model of the equilateral-triangle tessellation of the plane.

Vertices live on the triangular lattice and are written in axial coordinates
(a, b) over the basis e1 = (1, 0), e2 = (1/2, sqrt(3)/2).  Two vertices are
adjacent iff their difference is one of +/-(1,0), +/-(0,1), +/-(1,-1).  Every
lattice edge is parallel to one of three unoriented axes (D0, D1, D2), and
every triangular face points either up or down.  All coordinates are exact
integers; nothing in this module touches floating point.

``AxialPoint`` and ``Face`` are NamedTuples: equality, hashing and order are
those of the field tuple, so order is by (a, b) with Down before Up, and a
point equals and hashes like the plain pair (a, b) that compiled lookups key
on.  A face never equals a point.  ``+`` and ``-`` on points are vector
arithmetic, not tuple concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple


class Direction(IntEnum):
    """One of the three unoriented edge axes of the lattice.

    D0 is the span of (1, 0), D1 the span of (0, 1), D2 the span of (1, -1).
    The integer order D0 < D1 < D2 is the canonical value order used by the
    solver and by every serialized format.
    """

    D0 = 0
    D1 = 1
    D2 = 2

    def __str__(self) -> str:
        return self.name


# Canonical unit step generating each axis.
DIRECTION_STEPS = {
    Direction.D0: (1, 0),
    Direction.D1: (0, 1),
    Direction.D2: (1, -1),
}


class AxialPoint(NamedTuple):
    """A lattice vertex in axial coordinates."""

    a: int
    b: int

    def __add__(self, other: "AxialPoint") -> "AxialPoint":
        return AxialPoint(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "AxialPoint") -> "AxialPoint":
        return AxialPoint(self.a - other.a, self.b - other.b)

    def step(self, da: int, db: int) -> "AxialPoint":
        return AxialPoint(self.a + da, self.b + db)

    def __str__(self) -> str:
        return f"({self.a},{self.b})"


def direction_of(da: int, db: int) -> Direction:
    """Axis of the vector (da, db), which must lie on one of the three axes."""
    if db == 0 and da != 0:
        return Direction.D0
    if da == 0 and db != 0:
        return Direction.D1
    if da == -db and da != 0:
        return Direction.D2
    raise ValueError(f"vector ({da}, {db}) is not parallel to a lattice axis")


class Orientation(str, Enum):
    """Up or down; ordered by value, so Down sorts before Up."""

    UP = "U"
    DOWN = "D"

    def __str__(self) -> str:
        return self.value


class Face(NamedTuple):
    """A triangular face.  Up(a,b) has corners (a,b), (a+1,b), (a,b+1);
    Down(a,b) has corners (a+1,b), (a,b+1), (a+1,b+1)."""

    a: int
    b: int
    orientation: Orientation

    @staticmethod
    def up(a: int, b: int) -> "Face":
        return Face(a, b, Orientation.UP)

    @staticmethod
    def down(a: int, b: int) -> "Face":
        return Face(a, b, Orientation.DOWN)

    def __str__(self) -> str:
        return f"{self.orientation}({self.a},{self.b})"


# Face geometry per orientation, corners in the fixed order of the Face
# definition: each corner's offset from the face's (a, b), and the axis of the
# edge opposite that corner.
CORNER_OFFSETS = {
    Orientation.UP: ((0, 0), (1, 0), (0, 1)),
    Orientation.DOWN: ((1, 0), (0, 1), (1, 1)),
}
OPPOSITE_AXES = {
    Orientation.UP: (Direction.D2, Direction.D1, Direction.D0),
    Orientation.DOWN: (Direction.D0, Direction.D1, Direction.D2),
}


def face_corners(f: Face) -> tuple[AxialPoint, AxialPoint, AxialPoint]:
    """The three corners of ``f`` in the fixed order of the Face definition."""
    a, b = f.a, f.b
    (da0, db0), (da1, db1), (da2, db2) = CORNER_OFFSETS[f.orientation]
    return (
        AxialPoint(a + da0, b + db0),
        AxialPoint(a + da1, b + db1),
        AxialPoint(a + da2, b + db2),
    )


def face_from_corners(corners: Iterable[AxialPoint]) -> Face:
    """Reconstruct the face with the given corner set (inverse of face_corners)."""
    pts = frozenset(corners)
    if len(pts) != 3:
        raise ValueError(f"need 3 distinct corners, got {sorted(pts)}")
    a0 = min(p.a for p in pts)
    b0 = min(p.b for p in pts)
    up = Face.up(a0, b0)
    if frozenset(face_corners(up)) == pts:
        return up
    down = Face.down(a0, b0)
    if frozenset(face_corners(down)) == pts:
        return down
    raise ValueError(f"corner set {sorted(pts)} is not a lattice face")


def opposite_edge_direction(f: Face, x: AxialPoint) -> Direction:
    """Direction of the edge of ``f`` not containing the corner ``x``."""
    corners = face_corners(f)
    if x not in corners:
        raise ValueError(f"{x} is not a corner of {f}")
    return OPPOSITE_AXES[f.orientation][corners.index(x)]


def face_edge_neighbors(f: Face) -> tuple[Face, Face, Face]:
    """The three faces sharing an edge with ``f`` (all of opposite orientation)."""
    a, b = f.a, f.b
    if f.orientation is Orientation.UP:
        return (Face.down(a, b), Face.down(a - 1, b), Face.down(a, b - 1))
    return (Face.up(a, b), Face.up(a + 1, b), Face.up(a, b + 1))


def faces_around_vertex(x: AxialPoint) -> tuple[Face, ...]:
    """The six faces containing ``x``, counterclockwise starting from Up(x).

    Consecutive entries share an edge through ``x``; orientations alternate.
    This rotational order is fixed so that cyclic label words are reproducible.
    """
    a, b = x.a, x.b
    return (
        Face.up(a, b),
        Face.down(a - 1, b),
        Face.up(a - 1, b),
        Face.down(a - 1, b - 1),
        Face.up(a, b - 1),
        Face.down(a, b - 1),
    )


def hex_distance(p: AxialPoint, q: AxialPoint) -> int:
    """Graph distance between two vertices of the lattice."""
    da, db = p.a - q.a, p.b - q.b
    return max(abs(da), abs(db), abs(da + db))


@dataclass(frozen=True)
class Region:
    """A finite set of faces.  Vertex-level data is derived from the faces."""

    faces: frozenset[Face]

    def __post_init__(self) -> None:
        object.__setattr__(self, "faces", frozenset(self.faces))

    def __contains__(self, f: Face) -> bool:
        return f in self.faces

    def __len__(self) -> int:
        return len(self.faces)

    def __iter__(self) -> Iterator[Face]:
        return iter(sorted(self.faces))

    def vertex_set(self) -> frozenset[AxialPoint]:
        return self._vertices

    def interior_vertices(self) -> frozenset[AxialPoint]:
        return self._interior

    def union(self, other: "Region") -> "Region":
        return Region(self.faces | other.faces)

    # Computed once per Region and freed with it.
    @cached_property
    def _vertices(self) -> frozenset[AxialPoint]:
        return frozenset(c for f in self.faces for c in face_corners(f))

    @cached_property
    def _interior(self) -> frozenset[AxialPoint]:
        # A vertex is interior iff all six of its incident faces lie in the region.
        return frozenset(
            v
            for v in self._vertices
            if all(g in self.faces for g in faces_around_vertex(v))
        )


def hexagon(center: AxialPoint, radius: int) -> Region:
    """All faces whose corners lie within graph distance ``radius`` of ``center``.

    Radius 1 yields exactly the six faces around the center vertex; radius n
    yields 6*n^2 faces.
    """
    if radius < 1:
        raise ValueError(f"hexagon radius must be >= 1, got {radius}")
    faces = []
    for a in range(center.a - radius - 1, center.a + radius + 1):
        for b in range(center.b - radius - 1, center.b + radius + 1):
            for f in (Face.up(a, b), Face.down(a, b)):
                if all(hex_distance(c, center) <= radius for c in face_corners(f)):
                    faces.append(f)
    return Region(frozenset(faces))


def rhombus(origin: AxialPoint, width: int, height: int) -> Region:
    """The width x height parallelogram window of faces with lower-left
    lattice corner at ``origin`` (2 * width * height faces)."""
    if width < 1 or height < 1:
        raise ValueError("rhombus dimensions must be >= 1")
    faces = []
    for a in range(origin.a, origin.a + width):
        for b in range(origin.b, origin.b + height):
            faces.append(Face.up(a, b))
            faces.append(Face.down(a, b))
    return Region(frozenset(faces))


# ---------------------------------------------------------------------------
# Lattice isometries (the point group of order 12, plus translations).
# ---------------------------------------------------------------------------

# Linear parts as row-major 2x2 integer matrices acting on axial coordinates.
# Rotation by 60 degrees CCW sends e1 -> e2, e2 -> e2 - e1.
_ROT60 = (0, -1, 1, 1)
# Reflection across the D0 axis through the origin.
_MIRROR = (1, 1, 0, -1)
_IDENTITY = (1, 0, 0, 1)


def _mat_mul(m: tuple, n: tuple) -> tuple:
    return (
        m[0] * n[0] + m[1] * n[2],
        m[0] * n[1] + m[1] * n[3],
        m[2] * n[0] + m[3] * n[2],
        m[2] * n[1] + m[3] * n[3],
    )


def _point_group() -> tuple[tuple, ...]:
    mats = []
    r = _IDENTITY
    for _ in range(6):
        mats.append(r)
        mats.append(_mat_mul(r, _MIRROR))
        r = _mat_mul(_ROT60, r)
    return tuple(mats)


POINT_GROUP = _point_group()


@dataclass(frozen=True)
class LatticeIso:
    """An isometry of the lattice: p |-> linear(p) + shift, with linear in the
    order-12 point group."""

    linear: tuple[int, int, int, int]
    shift: AxialPoint

    def apply_point(self, p: AxialPoint) -> AxialPoint:
        m = self.linear
        return AxialPoint(
            m[0] * p.a + m[1] * p.b + self.shift.a,
            m[2] * p.a + m[3] * p.b + self.shift.b,
        )

    def apply_direction(self, d: Direction) -> Direction:
        da, db = DIRECTION_STEPS[d]
        m = self.linear
        return direction_of(m[0] * da + m[1] * db, m[2] * da + m[3] * db)

    def apply_face(self, f: Face) -> Face:
        return face_from_corners(self.apply_point(c) for c in face_corners(f))

    def inverse(self) -> "LatticeIso":
        m = self.linear
        det = m[0] * m[3] - m[1] * m[2]
        # Point-group matrices have determinant +/-1, so the inverse is integral.
        inv = (m[3] // det, -m[1] // det, -m[2] // det, m[0] // det)
        s = AxialPoint(
            -(inv[0] * self.shift.a + inv[1] * self.shift.b),
            -(inv[2] * self.shift.a + inv[3] * self.shift.b),
        )
        return LatticeIso(inv, s)


def iso_from_frames(
    src: tuple[AxialPoint, AxialPoint, AxialPoint],
    dst: tuple[AxialPoint, AxialPoint, AxialPoint],
) -> LatticeIso:
    """The unique lattice isometry taking the (non-degenerate) source frame to
    the target frame, or ValueError if none exists."""
    s0, s1, s2 = src
    d0, d1, d2 = dst
    u1, u2 = s1 - s0, s2 - s0
    v1, v2 = d1 - d0, d2 - d0
    for m in POINT_GROUP:
        base = LatticeIso(m, AxialPoint(0, 0))
        if base.apply_point(u1) == v1 and base.apply_point(u2) == v2:
            return LatticeIso(m, d0 - base.apply_point(s0))
    raise ValueError("no lattice isometry maps the source frame to the target")

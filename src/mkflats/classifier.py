"""Classification of even root distributions on finite windows.

Two pattern families exhaust the even distributions of the whole plane: a
single exceptional pattern with the symmetries of one central face (built
from six 60-degree wedges of constant direction), and the unions of height-1
strips (one avoided axis, direction constant along every line parallel to
it).  The hinge between them is a pair of trapezoid "gliders": rank patterns
on seven vertices whose presence forces the rest of the plane by parity
propagation alone.

On a finite window the verdict is necessarily three-valued; windows too small
to contain a glider or to certify row structure come back Undetermined with a
machine-readable reason.  Even parity propagation (``propagate_even``) is the
realizer's GAC fixpoint under the all-even target, with None for a
contradiction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Mapping, NamedTuple

from .distributions import ParityDistribution, RootDistribution, face_parity
from .lattice import (
    DIRECTION_STEPS,
    AxialPoint,
    Direction,
    Face,
    Region,
    face_corners,
    hexagon,
    iso_from_frames,
)
from .realizer import propagate

MIN_CLASSIFY_RADIUS = 4

_ALL_DIRECTIONS = (Direction.D0, Direction.D1, Direction.D2)


@dataclass(frozen=True)
class EvenWindow:
    """A region together with a root distribution certified all-even on it."""

    region: Region
    delta: RootDistribution

    def __post_init__(self) -> None:
        missing = self.region.vertex_set() - self.delta.domain()
        if missing:
            raise ValueError(f"delta undefined on {len(missing)} window vertices")
        odd = [f for f in self.region.faces if face_parity(self.delta, f)]
        if odd:
            raise ValueError(f"window is not even: odd face {min(odd)}")


class UndeterminedReason(Enum):
    NO_GLIDER_NO_ROW_STRUCTURE = "NoGliderNoRowStructure"
    WINDOW_TOO_SMALL = "WindowTooSmall"
    BOUNDARY_AMBIGUOUS = "BoundaryAmbiguous"


@dataclass(frozen=True)
class TFlat:
    center: AxialPoint
    symmetry_checked: bool


@dataclass(frozen=True)
class StripUnion:
    axis: Direction
    row_assignment: tuple[tuple[int, Direction], ...]


@dataclass(frozen=True)
class Undetermined:
    reason: UndeterminedReason


Classification = TFlat | StripUnion | Undetermined


# ---------------------------------------------------------------------------
# Rows with respect to an axis.
# ---------------------------------------------------------------------------


def row_index(v: AxialPoint, axis: Direction) -> int:
    """Index of the line through ``v`` parallel to ``axis``."""
    if axis is Direction.D0:
        return v.b
    if axis is Direction.D1:
        return v.a
    return v.a + v.b


# ---------------------------------------------------------------------------
# Gliders.
# ---------------------------------------------------------------------------

# For a base along each axis, the two offsets from an interior base vertex to
# the interior top vertex (one per side).  The top side of the trapezoid is
# centered over the base, so the offset must make a 60-degree angle with the
# base step (Euclidean inner product 1/2).
_SIDE_OFFSETS = {
    Direction.D0: ((0, 1), (1, -1)),
    Direction.D1: ((-1, 1), (1, 0)),
    Direction.D2: ((1, 0), (0, -1)),
}


def _glider_frame(axis: Direction, w: tuple[int, int]):
    """(base step u, offset w from the first base vertex to the top, the 7
    support offsets from the top in GliderHit.support order)."""
    (ua, ub), (wa, wb) = DIRECTION_STEPS[axis], w
    base_row = tuple((k * ua - wa, k * ub - wb) for k in (-1, 0, 1, 2))
    top_row = tuple((k * ua, k * ub) for k in (-1, 0, 1))
    return (ua, ub), w, base_row + top_row


# Indexed by the axis, which a glider's top vertex carries.
_GLIDER_FRAMES = tuple(
    tuple(_glider_frame(axis, w) for w in _SIDE_OFFSETS[axis])
    for axis in _ALL_DIRECTIONS
)


class GliderHit(NamedTuple):
    """A trapezoid rank pattern: interior base pair along ``axis`` plus the
    interior vertex of the parallel top side."""

    kind: str  # "t" (both base roots rank 2) or "t_prime" (exactly one)
    axis: Direction
    base: tuple[AxialPoint, AxialPoint]
    top: AxialPoint

    def support(self) -> tuple[AxialPoint, ...]:
        u = AxialPoint(*DIRECTION_STEPS[self.axis])
        v = self.base[0]
        w = self.top - v
        row = (v - u, v, v + u, v + u + u)
        return row + tuple(p + w for p in row[:3])

    def outline(self) -> tuple[AxialPoint, AxialPoint, AxialPoint, AxialPoint]:
        s = self.support()
        return (s[0], s[3], s[6], s[4])


def find_gliders(window: EvenWindow) -> list[GliderHit]:
    """All trapezoid placements in the window matching the t or t' rank
    pattern, in sorted order.  The whole 7-vertex support must lie in the
    window.

    A glider's top vertex carries its axis, so the scan reads that axis once
    per vertex and tries only the axis's two side frames.
    """
    verts = window.region.vertex_set()
    delta = window.delta
    hits = []
    for top in verts:
        axis = delta[top]
        a, b = top
        for (ua, ub), (wa, wb), support in _GLIDER_FRAMES[axis]:
            v = (a - wa, b - wb)
            v2 = (v[0] + ua, v[1] + ub)
            if v not in verts or v2 not in verts:
                continue
            rank2 = (delta[v] != axis) + (delta[v2] != axis)
            if rank2 == 0:
                continue
            if all((a + da, b + db) in verts for da, db in support):
                base = (AxialPoint(*v), AxialPoint(*v2))
                hits.append(GliderHit("t" if rank2 == 2 else "t_prime", axis, base, top))
    return sorted(hits)


# ---------------------------------------------------------------------------
# Parity propagation under the all-even target.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvenPropagation:
    """Fixpoint of all-even parity propagation from a partial assignment."""

    forced: RootDistribution
    free: tuple[tuple[AxialPoint, frozenset[Direction]], ...]

    def fully_forced(self) -> bool:
        return not self.free


def propagate_even(
    delta_partial: Mapping[AxialPoint, Direction] | RootDistribution,
    region: Region,
) -> EvenPropagation | None:
    """Propagate the all-even constraint from the seeded vertices; no search.
    None when the seeds contradict evenness."""
    fixpoint = propagate(
        ParityDistribution.constant(region, 0),
        region,
        {v: (d,) for v, d in delta_partial.items()},
    )
    if fixpoint is None:
        return None
    forced = {}
    free = []
    for v, domain in fixpoint.items():
        if len(domain) == 1:
            (forced[v],) = domain
        else:
            free.append((v, domain))
    return EvenPropagation(RootDistribution(forced), tuple(free))


# The concrete trapezoid seed whose even propagation grows the exceptional
# flat: interior base pair rank 2, top vertex rank 3/2 along the base axis.
CANONICAL_T_SEED: dict[AxialPoint, Direction] = {
    AxialPoint(1, 0): Direction.D2,
    AxialPoint(2, 0): Direction.D1,
    AxialPoint(1, 1): Direction.D0,
}

# Same base, but the left base root has rank 3/2: forces a vertical half-strip
# instead of a sector.
CANONICAL_T_PRIME_SEED: dict[AxialPoint, Direction] = {
    AxialPoint(1, 0): Direction.D0,
    AxialPoint(2, 0): Direction.D2,
    AxialPoint(1, 1): Direction.D0,
}


def sector_region(height: int) -> Region:
    """The expanding trapezoid of faces above the canonical seed base: row k
    spans lattice columns -k..3."""
    if height < 1:
        raise ValueError("sector height must be >= 1")
    faces = []
    for k in range(height):
        for a in range(-k, 3):
            faces.append(Face.up(a, k))
        for a in range(-k - 1, 3):
            faces.append(Face.down(a, k))
    return Region(frozenset(faces))


# ---------------------------------------------------------------------------
# The exceptional flat in closed form: six 60-degree wedges around one face.
# ---------------------------------------------------------------------------

# (apex, first boundary ray, second boundary ray, direction filling the wedge)
_WEDGES = (
    (AxialPoint(1, 1), (0, 1), (-1, 1), Direction.D0),  # opens north
    (AxialPoint(0, 1), (-1, 1), (-1, 0), Direction.D1),  # west-northwest
    (AxialPoint(1, 0), (-1, 0), (0, -1), Direction.D2),  # south-southwest
    (AxialPoint(2, -1), (0, -1), (1, -1), Direction.D0),  # south
    (AxialPoint(2, 0), (1, -1), (1, 0), Direction.D1),  # south-southeast
    (AxialPoint(2, 1), (1, 0), (0, 1), Direction.D2),  # east-northeast
)

# The face whose three corners are the inner wedge apexes; the full symmetric
# group of this triangle preserves the pattern.
CANONICAL_T_FLAT_CENTER_FACE = Face.up(1, 0)


def t_flat_direction(v: AxialPoint, center: AxialPoint = AxialPoint(1, 0)) -> Direction:
    """Direction at ``v`` of the exceptional flat whose center face is
    Up(center).  Total on the plane."""
    p = v - (center - AxialPoint(1, 0))
    hits = []
    for apex, u, w, value in _WEDGES:
        da, db = p.a - apex.a, p.b - apex.b
        det = u[0] * w[1] - u[1] * w[0]
        s = (da * w[1] - db * w[0]) // det
        t = (u[0] * db - u[1] * da) // det
        if s * det == da * w[1] - db * w[0] and t * det == u[0] * db - u[1] * da:
            if s >= 0 and t >= 0:
                hits.append(value)
    if len(hits) != 1:
        raise RuntimeError(f"vertex {p} lies in {len(hits)} wedges, expected 1")
    return hits[0]


def t_flat_window_region(center: AxialPoint, radius: int) -> Region:
    """Union of the radius-``radius`` hexagons about the three corners of the
    center face Up(center); invariant under the face's symmetries."""
    region = Region(frozenset())
    for c in face_corners(Face.up(center.a, center.b)):
        region = region.union(hexagon(c, radius))
    return region


def build_t_flat(center: AxialPoint, radius: int) -> EvenWindow:
    """The even window of the exceptional flat, centered so its symmetric
    center triangle is Up(center)."""
    if radius < 2:
        raise ValueError("t-flat window radius must be >= 2 to contain the seed")
    region = t_flat_window_region(center, radius)
    delta = RootDistribution(
        {v: t_flat_direction(v, center) for v in region.vertex_set()}
    )
    return EvenWindow(region, delta)


# ---------------------------------------------------------------------------
# Strip unions.
# ---------------------------------------------------------------------------


def build_strip_union(
    axis: Direction, row_assignment: Mapping[int, Direction], window: Region
) -> EvenWindow:
    """The even window with delta constant on each line parallel to ``axis``,
    per the row assignment (values must avoid the axis)."""
    assignment = {}
    for v in window.vertex_set():
        row = row_index(v, axis)
        if row not in row_assignment:
            raise ValueError(f"row {row} (vertex {v}) has no assigned direction")
        d = row_assignment[row]
        if d == axis:
            raise ValueError(f"row {row} is assigned the strip axis {axis}")
        assignment[v] = d
    return EvenWindow(window, RootDistribution(assignment))


def _row_structure(window: EvenWindow) -> StripUnion | None:
    verts = sorted(window.region.vertex_set())
    for axis in _ALL_DIRECTIONS:
        rows: dict[int, Direction] = {}
        ok = True
        for v in verts:
            d = window.delta[v]
            if d == axis:
                ok = False
                break
            k = row_index(v, axis)
            if rows.setdefault(k, d) != d:
                ok = False
                break
        if ok:
            return StripUnion(axis, tuple(sorted(rows.items())))
    return None


# ---------------------------------------------------------------------------
# Window classification.
# ---------------------------------------------------------------------------


# The steps from a vertex to its six lattice neighbours.
_NEIGHBOUR_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


# Bounded so that a long-running caller does not keep every region it ever
# classified; a census over one region still computes it once.
@lru_cache(maxsize=8)
def window_radius(region: Region) -> int:
    """Largest r such that some full radius-r hexagon of faces fits in the
    region (0 when not even a radius-1 hexagon fits).

    hexagon(v, r) fits exactly when every vertex within distance r - 1 of v
    is interior, so r counts the rounds that erode the interior vertices to
    nothing; a round keeps the vertices whose six neighbours it still has.
    """
    core = region.interior_vertices()
    rounds = 0
    while core:
        rounds += 1
        core = {
            v
            for v in core
            if all((v.a + da, v.b + db) in core for da, db in _NEIGHBOUR_STEPS)
        }
    return rounds


_CANONICAL_T_FRAME = (AxialPoint(1, 0), AxialPoint(2, 0), AxialPoint(1, 1))


def _match_t_flat(window: EvenWindow, hits: list[GliderHit]) -> Face | None:
    """If the window coincides with the exceptional flat aligned on one of the
    t gliders, return the image of the canonical center face."""
    for hit in hits:
        if hit.kind != "t":
            continue
        for pair in (hit.base, hit.base[::-1]):
            try:
                iso = iso_from_frames(_CANONICAL_T_FRAME, (pair[0], pair[1], hit.top))
            except ValueError:
                continue
            inv = iso.inverse()
            if all(
                window.delta[p] == iso.apply_direction(t_flat_direction(inv.apply_point(p)))
                for p in window.region.vertex_set()
            ):
                return iso.apply_face(CANONICAL_T_FLAT_CENTER_FACE)
    return None


def _symmetry_holds(window: EvenWindow, center_face: Face) -> bool:
    """Order-3 rotational symmetry about the center face, checked on the part
    of the window that meets its own image."""
    c0, c1, c2 = face_corners(center_face)
    rot = iso_from_frames((c0, c1, c2), (c1, c2, c0))
    verts = window.region.vertex_set()
    overlap = [v for v in verts if rot.apply_point(v) in verts]
    return bool(overlap) and all(
        window.delta[rot.apply_point(v)] == rot.apply_direction(window.delta[v])
        for v in overlap
    )


def classify(window: EvenWindow) -> Classification:
    """Sort an even window into the exceptional-flat pattern, a strip union,
    or Undetermined with a reason.

    A determinate verdict needs window_radius >= MIN_CLASSIFY_RADIUS (room for
    a whole trapezoid glider plus full rows in every direction); smaller
    windows are Undetermined(WINDOW_TOO_SMALL).
    """
    if window_radius(window.region) < MIN_CLASSIFY_RADIUS:
        return Undetermined(UndeterminedReason.WINDOW_TOO_SMALL)
    hits = find_gliders(window)
    t_hits = [h for h in hits if h.kind == "t"]
    if t_hits:
        center_face = _match_t_flat(window, t_hits)
        if center_face is None:
            return Undetermined(UndeterminedReason.BOUNDARY_AMBIGUOUS)
        center = min(face_corners(center_face))
        return TFlat(center, _symmetry_holds(window, center_face))
    rows = _row_structure(window)
    if rows is not None:
        return rows
    return Undetermined(UndeterminedReason.NO_GLIDER_NO_ROW_STRUCTURE)

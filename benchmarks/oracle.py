"""Independent reference code for the benchmark's inputs and checks.

Nothing here imports mkflats.  Vertices are ``(a, b)`` tuples in axial
coordinates, faces are ``(a, b, "U"|"D")`` tuples and directions are the
integers 0, 1, 2 (D0, D1, D2), all as defined in the package README.  The
workloads generate their text inputs here and check the library's outputs
against these functions, so a defect in the timed code cannot hide behind
the same defect in its check.
"""

from __future__ import annotations

import random

# Opposite-edge direction of each corner, in the corner order of the README:
# Up(a,b) = (a,b), (a+1,b), (a,b+1); Down(a,b) = (a+1,b), (a,b+1), (a+1,b+1).
_UP_OPPOSITE = (2, 1, 0)
_DOWN_OPPOSITE = (0, 1, 2)


def corners(face):
    a, b, o = face
    if o == "U":
        return ((a, b), (a + 1, b), (a, b + 1))
    return ((a + 1, b), (a, b + 1), (a + 1, b + 1))


def parity(delta, face) -> int:
    """Number of corners whose direction differs from the opposite edge, mod 2."""
    opposite = _UP_OPPOSITE if face[2] == "U" else _DOWN_OPPOSITE
    return sum(delta[c] != o for c, o in zip(corners(face), opposite)) & 1


def distance(p, q) -> int:
    da, db = p[0] - q[0], p[1] - q[1]
    return max(abs(da), abs(db), abs(da + db))


def hexagon(center, radius):
    """Faces whose corners all lie within ``radius`` of ``center``."""
    ca, cb = center
    out = []
    for a in range(ca - radius - 1, ca + radius + 1):
        for b in range(cb - radius - 1, cb + radius + 1):
            for f in ((a, b, "U"), (a, b, "D")):
                if all(distance(c, center) <= radius for c in corners(f)):
                    out.append(f)
    return out


def rhombus(origin, width, height):
    a0, b0 = origin
    return [
        (a, b, o)
        for a in range(a0, a0 + width)
        for b in range(b0, b0 + height)
        for o in ("D", "U")
    ]


def vertices(faces):
    return sorted({c for f in faces for c in corners(f)})


def row_index(v, axis: int) -> int:
    """Index of the lattice line through ``v`` parallel to ``axis``."""
    return (v[1], v[0], v[0] + v[1])[axis]


def strip_structure(delta):
    """The first axis (D0, D1, D2 order) that no vertex selects and along whose
    lines the direction is constant, with its sorted row assignment; None if
    no axis qualifies.  Brute force over every vertex."""
    for axis in range(3):
        rows = {}
        if all(
            d != axis and rows.setdefault(row_index(v, axis), d) == d
            for v, d in delta.items()
        ):
            return axis, tuple(sorted(rows.items()))
    return None


# The exceptional flat about the centre face Up(1, 0): six wedges, each an
# apex plus two unit rays, filled with one direction.
_WEDGES = (
    ((1, 1), (0, 1), (-1, 1), 0),
    ((0, 1), (-1, 1), (-1, 0), 1),
    ((1, 0), (-1, 0), (0, -1), 2),
    ((2, -1), (0, -1), (1, -1), 0),
    ((2, 0), (1, -1), (1, 0), 1),
    ((2, 1), (1, 0), (0, 1), 2),
)


def t_flat_direction(v, center) -> int:
    """Direction at ``v`` of the exceptional flat whose centre face is Up(center)."""
    pa, pb = v[0] - center[0] + 1, v[1] - center[1]
    found = []
    for (xa, xb), u, w, d in _WEDGES:
        da, db = pa - xa, pb - xb
        det = u[0] * w[1] - u[1] * w[0]  # +-1 for adjacent unit rays
        s = (da * w[1] - db * w[0]) * det
        t = (u[0] * db - u[1] * da) * det
        if s >= 0 and t >= 0:
            found.append(d)
    if len(found) != 1:
        raise ValueError(f"vertex {v} lies in {len(found)} wedges")
    return found[0]


def t_flat_window(center, radius):
    """The union of the radius-``radius`` hexagons about the corners of
    Up(center), with the exceptional flat on it."""
    faces = sorted({f for c in corners((*center, "U")) for f in hexagon(c, radius)})
    delta = {v: t_flat_direction(v, center) for v in vertices(faces)}
    return faces, delta


def strip_window(rng: random.Random, origin, size, axis: int):
    """A ``size`` x ``size`` rhombus with one random non-axis direction per
    line parallel to ``axis``."""
    faces = rhombus(origin, size, size)
    others = [d for d in range(3) if d != axis]
    rows = {}
    delta = {}
    for v in vertices(faces):
        k = row_index(v, axis)
        if k not in rows:
            rows[k] = rng.choice(others)
        delta[v] = rows[k]
    return faces, delta


def region_text(faces) -> str:
    return "".join(f"F {a} {b} {o}\n" for a, b, o in sorted(faces))


def rdist_text(delta) -> str:
    return "".join(f"V {a} {b} D{d}\n" for (a, b), d in sorted(delta.items()))

"""Pauli X/Y/Z face labellings of regions.

A labelling is valid when, at every interior vertex, the cyclic word of the
six surrounding face labels (in rotational order) is one of the three relator
words XYXZYZ, YZYXZX, ZXZYXY up to rotation and reversal.  Each valid vertex
word singles out one lattice axis: the axis splitting the six faces into two
arcs of three that do NOT carry all three letters.  That axis is the root
distribution hiding in the labelling, and it is always even.

Conversely, an even root distribution together with a labelling of two
adjacent faces forces a unique labelling of the whole region.  The forcing is
pure constraint propagation: a face is labelled only when every completion of
some vertex word agrees on it, never by guessing.
"""

from __future__ import annotations

import heapq
from typing import Mapping

from .distributions import (
    MissingAssignment,
    PartialMap,
    RootDistribution,
    face_parity,
)
from .lattice import (
    AxialPoint,
    Direction,
    Face,
    Region,
    face_corners,
    face_edge_neighbors,
    faces_around_vertex,
)
from .linkgraph import ALLOWED_WORDS, LABELS

# Positions of the two 3-face arcs that a root along each axis spans, in the
# fixed rotational order of faces_around_vertex.
_ARCS = {
    Direction.D0: ((0, 1, 2), (3, 4, 5)),
    Direction.D1: ((1, 2, 3), (4, 5, 0)),
    Direction.D2: ((2, 3, 4), (5, 0, 1)),
}


class LabellingIntegrityError(RuntimeError):
    """A structural impossibility for valid labellings was observed."""


class PuzzleContradiction(ValueError):
    """Label propagation ran into an inconsistency."""


class ExtensionStalled(ValueError):
    """Propagation stopped with part of the region unreachable."""

    def __init__(self, unreached: frozenset[Face]):
        self.unreached = unreached
        names = ", ".join(str(f) for f in sorted(unreached)[:4])
        more = "..." if len(unreached) > 4 else ""
        super().__init__(f"{len(unreached)} faces could not be forced: {names}{more}")


class PauliLabelling(PartialMap):
    """Partial map face -> one of "X", "Y", "Z"."""

    __slots__ = ()
    _missing = "no label assigned on face"

    def __init__(self, labels: Mapping[Face, str]):
        super().__init__(labels)
        for f, lab in self._map.items():
            if lab not in LABELS:
                raise ValueError(f"label of {f} must be one of {LABELS}, got {lab!r}")


def word_direction(word: str) -> Direction:
    """The unique axis whose two arcs of the vertex word are both non-rainbow.

    Raises LabellingIntegrityError unless exactly one axis qualifies with both
    arcs agreeing (which is the case for every valid vertex word).
    """
    hits = []
    for d, (arc0, arc1) in _ARCS.items():
        rainbow0 = len({word[i] for i in arc0}) == 3
        rainbow1 = len({word[i] for i in arc1}) == 3
        if rainbow0 != rainbow1:
            raise LabellingIntegrityError(
                f"arcs of {word!r} disagree across axis {d}"
            )
        if not rainbow0:
            hits.append(d)
    if len(hits) != 1:
        raise LabellingIntegrityError(
            f"{len(hits)} axes qualify for word {word!r}, expected exactly 1"
        )
    return hits[0]


# Every allowed word determines one axis; precomputed once.
WORD_DIRECTIONS: dict[str, Direction] = {w: word_direction(w) for w in ALLOWED_WORDS}


def vertex_word(labelling: PauliLabelling, x: AxialPoint) -> str:
    return "".join(labelling[f] for f in faces_around_vertex(x))


def validate(labelling: PauliLabelling, region: Region) -> bool:
    """True iff every interior vertex of the region carries an allowed word."""
    missing = [f for f in region.faces if f not in labelling]
    if missing:
        raise MissingAssignment(f"labelling undefined on face {min(missing)}")
    return all(
        vertex_word(labelling, x) in ALLOWED_WORDS for x in region.interior_vertices()
    )


def induced_roots(labelling: PauliLabelling, region: Region) -> RootDistribution:
    """The root distribution read off the labelling at interior vertices."""
    out = {}
    for x in sorted(region.interior_vertices()):
        word = vertex_word(labelling, x)
        if word not in ALLOWED_WORDS:
            raise LabellingIntegrityError(f"invalid vertex word {word!r} at {x}")
        out[x] = WORD_DIRECTIONS[word]
    return RootDistribution(out)


def check_even(labelling: PauliLabelling, region: Region) -> bool:
    """True iff the induced root distribution makes every face whose corners
    are all interior vertices even."""
    if not validate(labelling, region):
        raise ValueError("labelling is not valid on the region")
    delta = induced_roots(labelling, region)
    covered = [
        f for f in region.faces if all(c in delta for c in face_corners(f))
    ]
    return all(face_parity(delta, f) == 0 for f in covered)


# ---------------------------------------------------------------------------
# The unique even extension.
# ---------------------------------------------------------------------------

Seed = tuple[tuple[Face, str], tuple[Face, str]]

# The allowed words of each axis; a vertex with no root (key None) admits all.
_WORDS_BY_AXIS: dict[Direction | None, tuple[str, ...]] = {
    d: tuple(w for w in ALLOWED_WORDS if WORD_DIRECTIONS[w] == d) for d in Direction
}
_WORDS_BY_AXIS[None] = tuple(ALLOWED_WORDS)


def extend(
    delta: RootDistribution,
    region: Region,
    seed: Seed,
    reverse_order: bool = False,
) -> PauliLabelling:
    """The unique labelling of the region forced by an even root distribution
    and the labels of two adjacent seed faces.

    ``delta`` must make every face it covers even.  Vertices are visited from
    one worklist in ascending (a, b) order, or descending with
    ``reverse_order``; a vertex joins it when a face around it is labelled.
    The forced fixpoint does not depend on the order, and ``reverse_order``
    exists so that this can be demonstrated.
    """
    (f0, lab0), (f1, lab1) = seed
    for f in (f0, f1):
        if f not in region:
            raise ValueError(f"seed face {f} is outside the region")
    if f1 not in face_edge_neighbors(f0):
        raise ValueError(f"seed faces {f0} and {f1} do not share an edge")
    for lab in (lab0, lab1):
        if lab not in LABELS:
            raise ValueError(f"bad seed label {lab!r}")
    if lab0 == lab1:
        raise PuzzleContradiction(
            "adjacent faces with equal labels admit no valid vertex word"
        )
    odd = [
        f
        for f in region.faces
        if all(c in delta for c in face_corners(f)) and face_parity(delta, f)
    ]
    if odd:
        raise ValueError(f"root distribution is not even on face {min(odd)}")

    sign = -1 if reverse_order else 1
    labels: dict[Face, str] = {f0: lab0, f1: lab1}
    # Entries (sign * a, sign * b, vertex); a vertex is in the heap at most once.
    heap: list[tuple[int, int, AxialPoint]] = []
    queued: set[AxialPoint] = set()

    def enqueue_corners(f: Face) -> None:
        for c in face_corners(f):
            if c not in queued:
                queued.add(c)
                heapq.heappush(heap, (sign * c.a, sign * c.b, c))

    enqueue_corners(f0)
    enqueue_corners(f1)
    while heap:
        x = heapq.heappop(heap)[2]
        queued.discard(x)
        ring = faces_around_vertex(x)
        if sum(1 for f in ring if f in labels) < 2:
            continue
        candidates = [
            w
            for w in _WORDS_BY_AXIS[delta[x] if x in delta else None]
            if all(labels.get(f, c) == c for f, c in zip(ring, w))
        ]
        if not candidates:
            raise PuzzleContradiction(f"no valid vertex word fits at {x}")
        for i, f in enumerate(ring):
            if f in labels or f not in region:
                continue
            forced = {w[i] for w in candidates}
            if len(forced) == 1:
                labels[f] = forced.pop()
                enqueue_corners(f)

    missing = region.faces - labels.keys()
    if missing:
        raise ExtensionStalled(frozenset(missing))

    result = PauliLabelling({f: labels[f] for f in region.faces})
    if not validate(result, region):
        raise LabellingIntegrityError("forced labelling failed validation")
    derived = induced_roots(result, region)
    for x in region.interior_vertices():
        if x in delta and derived[x] != delta[x]:
            raise LabellingIntegrityError(f"derived roots disagree with input at {x}")
    return result

"""Decide whether a parity distribution on a finite region is induced by some
root distribution.

The decision procedure is classic backtracking over vertex domains with
per-face generalized arc consistency (GAC).  A domain is a 3-bit mask, so the
three corner domains of a face pack into 9 bits, and a face constraint depends
only on the face's orientation and target parity.  Full GAC is therefore one
lookup in a 512-entry table per face; there is one table per (orientation,
parity), each built on first use.  Branching is deterministic: vertices
ascending by (a, b), values in order D0 < D1 < D2, so the first witness found
is the lexicographically least one, and Sat and Unsat outcomes alike carry
reproducible search statistics.  ``propagate`` exposes the GAC fixpoint
alone: candidate sets in, pruned candidate sets or None out.

The module also bundles a parity pattern on the union of the radius-4
hexagons about the three corners of the face D(-1,0) that no root
distribution realizes; exhausting its search tree is the machine check that
such patterns exist (the interesting negative result this solver was built to
confirm).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping

from .distributions import (
    MissingAssignment,
    ParityDistribution,
    RootDistribution,
)
from .files import parse_pdist
from .lattice import (
    CORNER_OFFSETS,
    OPPOSITE_AXES,
    AxialPoint,
    Direction,
    Face,
    Orientation,
    Region,
    face_corners,
    faces_around_vertex,
    hexagon,
)

_FULL = 0b111
_ALL_DIRECTIONS = (Direction.D0, Direction.D1, Direction.D2)


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    propagations: int


@dataclass(frozen=True)
class Sat:
    witness: RootDistribution
    stats: SearchStats


@dataclass(frozen=True)
class Unsat:
    stats: SearchStats


SolveOutcome = Sat | Unsat


# ---------------------------------------------------------------------------
# Internal compiled form: integer indices and bitmask domains.  It is built
# per solve and never cached: callers may hold many regions, and the index
# form of each would outlive its solve.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _gac_table(orientation: Orientation, parity: int) -> tuple[int, ...]:
    """GAC on one face of this orientation and target parity, as a table from
    the packed corner domains ``m0 | m1 << 3 | m2 << 6`` to the packed pruned
    domains: each corner keeps the values that some parity-``parity`` corner
    assignment inside the domains uses, and all three empty when none does."""
    o0, o1, o2 = OPPOSITE_AXES[orientation]
    supports = [
        1 << d0 | 1 << (d1 + 3) | 1 << (d2 + 6)
        for d0, d1, d2 in product(range(3), repeat=3)
        if ((d0 != o0) + (d1 != o1) + (d2 != o2)) & 1 == parity
    ]
    table = []
    for packed in range(512):
        pruned = 0
        for s in supports:
            if s & packed == s:
                pruned |= s
        table.append(pruned)
    return tuple(table)


class _Problem:
    """A target compiled to integers: vertices ascending (``vindex`` maps
    each vertex to its index), faces ascending as (i0, i1, i2, table) with
    corner indices in face_corners order and the GAC table of the face's
    orientation and parity, and for each vertex the indices of its faces."""

    __slots__ = ("vertices", "vindex", "faces", "vertex_faces")

    def __init__(self, target: ParityDistribution, region: Region):
        missing = [f for f in region.faces if f not in target]
        if missing:
            raise MissingAssignment(f"target parity undefined on face {min(missing)}")
        extra = target.domain() - region.faces
        if extra:
            raise ValueError(f"target parity defined off the region: {sorted(extra)[:3]}")
        self.vertices = tuple(sorted(region.vertex_set()))
        self.vindex = at = {v: i for i, v in enumerate(self.vertices)}
        faces = []
        vertex_faces: list[list[int]] = [[] for _ in self.vertices]
        for fi, f in enumerate(region):
            a, b = f.a, f.b
            idx = tuple(at[a + da, b + db] for da, db in CORNER_OFFSETS[f.orientation])
            faces.append(idx + (_gac_table(f.orientation, target[f]),))
            for i in idx:
                vertex_faces[i].append(fi)
        self.faces = tuple(faces)
        self.vertex_faces = tuple(tuple(fs) for fs in vertex_faces)


class _Stats:
    __slots__ = ("nodes", "propagations")

    def __init__(self):
        self.nodes = 0
        self.propagations = 0

    def frozen(self) -> SearchStats:
        return SearchStats(self.nodes, self.propagations)


def _propagate(problem: _Problem, domains: list[int], stats: _Stats, queue=None) -> bool:
    """Enforce per-face GAC to fixpoint, one table lookup per face.  Returns
    False on an emptied domain.  ``propagations`` counts removed values."""
    faces = problem.faces
    vertex_faces = problem.vertex_faces
    pending = set(range(len(faces))) if queue is None else set(queue)
    pop = pending.pop
    update = pending.update
    removed = 0
    while pending:
        i0, i1, i2, table = faces[pop()]
        m0 = domains[i0]
        m1 = domains[i1]
        m2 = domains[i2]
        old = m0 | m1 << 3 | m2 << 6
        new = table[old]
        if new == old:
            continue
        if not new:
            # No supporting assignment.  Revising the corners in order, the
            # first non-empty one empties and the search stops there.
            stats.propagations += removed + (m0 or m1 or m2).bit_count()
            return False
        removed += (old ^ new).bit_count()
        n = new & 7
        if n != m0:
            domains[i0] = n
            update(vertex_faces[i0])
        n = new >> 3 & 7
        if n != m1:
            domains[i1] = n
            update(vertex_faces[i1])
        n = new >> 6
        if n != m2:
            domains[i2] = n
            update(vertex_faces[i2])
    stats.propagations += removed
    return True


def _solutions(
    problem: _Problem,
    domains: list[int],
    stats: _Stats,
    value_order: Callable[[int], tuple[int, ...]] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Depth-first enumeration of all solutions, in lexicographic order of the
    assignment vector unless a custom per-vertex value order is supplied."""
    if not _propagate(problem, domains, stats):
        return
    stack = [(domains, 0)]
    while stack:
        dom, start = stack.pop()
        branch = None
        for i in range(start, len(dom)):
            if dom[i] & (dom[i] - 1):
                branch = i
                break
        if branch is None:
            yield tuple(d.bit_length() - 1 for d in dom)
            continue
        order = value_order(branch) if value_order else (0, 1, 2)
        # Children are pushed in reverse so the least value is explored first.
        children = []
        for d in order:
            bit = 1 << d
            if not dom[branch] & bit:
                continue
            stats.nodes += 1
            child = list(dom)
            child[branch] = bit
            if _propagate(problem, child, stats, problem.vertex_faces[branch]):
                children.append((child, branch + 1))
        stack.extend(reversed(children))


def _witness(problem: _Problem, assignment: tuple[int, ...]) -> RootDistribution:
    return RootDistribution(
        {v: Direction(d) for v, d in zip(problem.vertices, assignment)}
    )


def _masks(
    problem: _Problem, domains: Mapping[AxialPoint, Iterable[Direction]]
) -> list[int]:
    """Per-vertex bitmask domains: the given candidates, all three directions
    for a vertex absent from ``domains``."""
    masks = [_FULL] * len(problem.vertices)
    for v, candidates in domains.items():
        i = problem.vindex.get(v)
        if i is None:
            raise ValueError(f"vertex {v} is outside the region")
        mask = 0
        for d in candidates:
            mask |= 1 << d
        masks[i] = mask
    return masks


def _first_witness(
    target: ParityDistribution,
    region: Region,
    domains: Mapping[AxialPoint, Iterable[Direction]],
    value_order: Callable[[int], tuple[int, ...]] | None = None,
) -> SolveOutcome:
    problem = _Problem(target, region)
    stats = _Stats()
    for assignment in _solutions(problem, _masks(problem, domains), stats, value_order):
        return Sat(_witness(problem, assignment), stats.frozen())
    return Unsat(stats.frozen())


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def propagate(
    target: ParityDistribution,
    region: Region,
    domains: Mapping[AxialPoint, Iterable[Direction]],
) -> dict[AxialPoint, frozenset[Direction]] | None:
    """Per-face GAC fixpoint from the given candidate sets (all three
    directions for a vertex absent from ``domains``), every region vertex in
    ascending order, or None if a domain empties."""
    problem = _Problem(target, region)
    masks = _masks(problem, domains)
    if not _propagate(problem, masks, _Stats()):
        return None
    return {
        v: frozenset(d for d in _ALL_DIRECTIONS if m >> d & 1)
        for v, m in zip(problem.vertices, masks)
    }


def realize(target: ParityDistribution, region: Region) -> SolveOutcome:
    """Sat with the lexicographically least witness, or Unsat after exhausting
    the search tree."""
    return _first_witness(target, region, {})


def enumerate_realizations(
    target: ParityDistribution, region: Region, limit: int | None = None
) -> list[RootDistribution]:
    """Up to ``limit`` witnesses in lexicographic order (all of them if None)."""
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    problem = _Problem(target, region)
    stats = _Stats()
    out = []
    for assignment in _solutions(problem, [_FULL] * len(problem.vertices), stats):
        out.append(_witness(problem, assignment))
        if limit is not None and len(out) >= limit:
            break
    return out


def realize_with_domains(
    target: ParityDistribution,
    region: Region,
    fixed: Mapping[AxialPoint, Direction],
) -> SolveOutcome:
    """realize() with some vertices pinned to given directions beforehand."""
    return _first_witness(target, region, {v: (d,) for v, d in fixed.items()})


def sample_realization(
    target: ParityDistribution, region: Region, rng: random.Random
) -> RootDistribution | None:
    """One witness found with per-vertex random value order (reproducible for
    a seeded rng), or None when the target is not realizable."""
    orders = {}

    def value_order(i: int) -> tuple[int, ...]:
        if i not in orders:
            perm = [0, 1, 2]
            rng.shuffle(perm)
            orders[i] = tuple(perm)
        return orders[i]

    outcome = _first_witness(target, region, {}, value_order)
    return outcome.witness if isinstance(outcome, Sat) else None


# ---------------------------------------------------------------------------
# The radius-1 hexagon check and the bundled non-realizable pattern.
# ---------------------------------------------------------------------------


def hexagon_pattern_outcomes() -> list[tuple[tuple[int, ...], SolveOutcome]]:
    """realize() on all 64 parity patterns of the radius-1 hexagon at the
    origin, patterns listed in the rotational face order."""
    region = hexagon(AxialPoint(0, 0), 1)
    ring = faces_around_vertex(AxialPoint(0, 0))
    out = []
    for bits in product((0, 1), repeat=6):
        target = ParityDistribution(dict(zip(ring, bits)))
        out.append((bits, realize(target, region)))
    return out


def verify_hexagon_theorem() -> bool:
    """True iff every one of the 64 radius-1 parity patterns is realizable."""
    return all(isinstance(o, Sat) for _, o in hexagon_pattern_outcomes())


# The bundled pattern lives on the union of the radius-4 hexagons about the
# three corners of the face Down(-1, 0) and has an order-3 rotational symmetry
# about that face, which makes it the natural focus for case analysis.
COUNTEREXAMPLE_FOCUS_FACE = Face.down(-1, 0)


def counterexample_parity() -> ParityDistribution:
    """The bundled non-realizable parity pattern."""
    try:
        text = (
            resources.files("mkflats").joinpath("data/counterexample.pdist").read_text()
        )
    except FileNotFoundError as exc:
        raise FileNotFoundError("bundled counterexample data file is missing") from exc
    return parse_pdist(text)


def verify_counterexample() -> SolveOutcome:
    """Run the solver on the bundled pattern (expected outcome: Unsat)."""
    target = counterexample_parity()
    return realize(target, target.region())


def corner_assignments_with_parity(f: Face, parity: int) -> list[dict[AxialPoint, Direction]]:
    """All assignments of directions to the corners of ``f`` inducing the
    given face parity (13 even, 14 odd out of the 27)."""
    corners = face_corners(f)
    opp = OPPOSITE_AXES[f.orientation]
    out = []
    for combo in product(_ALL_DIRECTIONS, repeat=3):
        mism = sum(1 for d, o in zip(combo, opp) if d != o)
        if mism & 1 == parity:
            out.append(dict(zip(corners, combo)))
    return out


def verify_disallowed_dozen() -> bool:
    """Case analysis at the focus face of the bundled pattern: each of its 13
    even corner assignments (the twelve with exactly two rank-2 corners plus
    the single all-matching one) must be refuted by exhaustive search."""
    target = counterexample_parity()
    region = target.region()
    face = COUNTEREXAMPLE_FOCUS_FACE
    if face not in region:
        raise ValueError("focus face missing from the bundled pattern")
    cases = corner_assignments_with_parity(face, 0)
    opp = dict(zip(face_corners(face), OPPOSITE_AXES[face.orientation]))
    two_rank2 = [c for c in cases if sum(1 for x, d in c.items() if d != opp[x]) == 2]
    all_match = [c for c in cases if all(d == opp[x] for x, d in c.items())]
    if len(two_rank2) != 12 or len(all_match) != 1 or len(cases) != 13:
        return False
    return all(
        isinstance(realize_with_domains(target, region, case), Unsat)
        for case in cases
    )

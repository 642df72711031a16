"""Parity computation and its invariances."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from mkflats.distributions import (
    MissingAssignment,
    ParityDistribution,
    RootDistribution,
    face_parity,
    induced_parity,
)
from mkflats.lattice import (
    POINT_GROUP,
    AxialPoint,
    Direction,
    Face,
    LatticeIso,
    Region,
    face_corners,
    faces_around_vertex,
    hexagon,
    iso_from_frames,
    opposite_edge_direction,
)

P = AxialPoint
D0, D1, D2 = Direction.D0, Direction.D1, Direction.D2
ALL_DIRS = (D0, D1, D2)


def parallel(region, d=D0):
    return RootDistribution({v: d for v in region.vertex_set()})


def test_face_parity_examples():
    f = Face.up(0, 0)
    # every corner matching its opposite edge: zero mismatches
    delta = RootDistribution({P(0, 0): D2, P(1, 0): D1, P(0, 1): D0})
    assert face_parity(delta, f) == 0
    # exactly one mismatch, at corner (0,0)
    delta = RootDistribution({P(0, 0): D0, P(1, 0): D1, P(0, 1): D0})
    assert face_parity(delta, f) == 1


def test_parallel_distribution_is_even():
    region = hexagon(P(0, 0), 2)
    for d in ALL_DIRS:
        parity = induced_parity(parallel(region, d), region)
        assert parity.domain() == region.faces
        assert all(p == 0 for _, p in parity.items())


def test_face_parity_requires_all_corners():
    # The message names the first missing corner in face_corners order.
    cases = [
        (Face.up(0, 0), {P(0, 0): D0, P(1, 0): D0}, "(0,1)"),
        (Face.down(0, 0), {P(1, 0): D0, P(1, 1): D0}, "(0,1)"),
        (Face.up(0, 0), {P(0, 1): D0}, "(0,0)"),
        (Face.down(-1, 2), {}, "(0,2)"),
    ]
    for f, assigned, corner in cases:
        with pytest.raises(MissingAssignment) as exc:
            face_parity(RootDistribution(assigned), f)
        assert str(exc.value) == f"no direction assigned at vertex {corner}"


def test_27_assignment_table():
    """Direct recount over all 27 corner assignments: 13 even, 14 odd.

    (The count follows the structure 1 + 12 even vs 6 + 8 odd by number of
    mismatching corners 0/2 vs 1/3.)
    """
    f = Face.down(4, -2)
    corners = face_corners(f)
    opp = [opposite_edge_direction(f, c) for c in corners]
    by_mismatches = {0: 0, 1: 0, 2: 0, 3: 0}
    even = odd = 0
    for combo in product(ALL_DIRS, repeat=3):
        m = sum(1 for d, o in zip(combo, opp) if d != o)
        by_mismatches[m] += 1
        p = face_parity(RootDistribution(dict(zip(corners, combo))), f)
        assert p == m % 2
        if p == 0:
            even += 1
        else:
            odd += 1
    assert by_mismatches == {0: 1, 1: 6, 2: 12, 3: 8}
    assert (even, odd) == (13, 14)


def test_induced_parity_single_face_region():
    f = Face.up(0, 0)
    region = Region(frozenset({f}))
    delta = RootDistribution({P(0, 0): D0, P(1, 0): D1, P(0, 1): D0})
    p = induced_parity(delta, region)
    assert p[f] == face_parity(delta, f) == 1


# Witnesses for the three symmetry classes of radius-1 patterns with exactly
# three odd faces (alternating / consecutive / mixed), as vertex -> direction
# maps about the origin.
_THREE_ODD_PANELS = [
    {P(0, 0): D0, P(1, 0): D2, P(0, 1): D2, P(-1, 1): D1, P(-1, 0): D0, P(0, -1): D0, P(1, -1): D1},
    {P(0, 0): D0, P(1, 0): D0, P(0, 1): D2, P(-1, 1): D0, P(-1, 0): D0, P(0, -1): D1, P(1, -1): D0},
    {P(0, 0): D0, P(1, 0): D0, P(0, 1): D2, P(-1, 1): D2, P(-1, 0): D0, P(0, -1): D0, P(1, -1): D0},
]


def _ring_parity_word(delta):
    region = hexagon(P(0, 0), 1)
    p = induced_parity(RootDistribution(delta), region)
    return tuple(p[f] for f in faces_around_vertex(P(0, 0)))


@pytest.mark.parametrize("panel", _THREE_ODD_PANELS)
def test_three_odd_panels(panel):
    assert sum(_ring_parity_word(panel)) == 3


def test_three_odd_panels_cover_all_classes():
    """The three witnesses land in the three distinct dihedral classes of
    6-bit words of weight 3 (alternating, consecutive, mixed)."""

    def canon(word):
        variants = []
        for w in (word, word[::-1]):
            for k in range(6):
                variants.append(w[k:] + w[:k])
        return min(variants)

    classes = {canon(_ring_parity_word(panel)) for panel in _THREE_ODD_PANELS}
    assert len(classes) == 3
    all_weight3 = {
        canon(bits)
        for bits in product((0, 1), repeat=6)
        if sum(bits) == 3
    }
    assert classes == all_weight3


@given(
    st.dictionaries(
        st.sampled_from(sorted(hexagon(P(0, 0), 2).vertex_set())),
        st.sampled_from(ALL_DIRS),
    ),
    st.sampled_from(ALL_DIRS),
)
def test_parity_locality(changes, fill):
    """Changing delta away from a face's corners never changes its parity."""
    f = Face.up(0, 0)
    corners = set(face_corners(f))
    base = {v: fill for v in corners}
    delta0 = RootDistribution(base)
    changed = {v: d for v, d in changes.items() if v not in corners}
    delta1 = RootDistribution({**changed, **base})
    assert face_parity(delta0, f) == face_parity(delta1, f)


@given(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=0, max_value=len(POINT_GROUP) - 1),
)
def test_translation_equivariance(da, db, k):
    """induced_parity commutes with every isometry: each of the 12 point-group
    elements followed by a shift."""
    region = hexagon(P(0, 0), 1)
    delta = RootDistribution(
        {v: ALL_DIRS[(v.a + 2 * v.b) % 3] for v in region.vertex_set()}
    )
    iso = LatticeIso(POINT_GROUP[k], P(da, db))
    moved_region = Region(frozenset(iso.apply_face(f) for f in region.faces))
    lhs = induced_parity(delta.transform(iso), moved_region)
    rhs = induced_parity(delta, region).transform(iso)
    assert lhs == rhs


def test_order3_rotation_invariance_about_face_center():
    f = Face.up(0, 0)
    c0, c1, c2 = face_corners(f)
    rot = iso_from_frames((c0, c1, c2), (c1, c2, c0))
    assert rot.apply_face(f) == f
    for combo in product(ALL_DIRS, repeat=3):
        delta = RootDistribution(dict(zip((c0, c1, c2), combo)))
        assert face_parity(delta, f) == face_parity(delta.transform(rot), f)


def test_parity_distribution_validation():
    with pytest.raises(ValueError):
        ParityDistribution({Face.up(0, 0): 2})
    with pytest.raises(MissingAssignment):
        ParityDistribution({})[Face.up(0, 0)]


def test_root_distribution_container():
    delta = RootDistribution({P(0, 0): D0, P(1, 0): D1})
    assert P(0, 0) in delta and P(9, 9) not in delta
    assert len(delta) == 2
    assert delta == RootDistribution({P(1, 0): D1, P(0, 0): D0})
    assert delta.restrict([P(0, 0)]).domain() == frozenset({P(0, 0)})
    with pytest.raises(KeyError):
        delta.restrict([P(5, 5)])

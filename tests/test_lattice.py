"""Lattice geometry: faces, incidence, regions, isometries."""

from collections import deque

import pytest
from hypothesis import given, strategies as st

from mkflats.lattice import (
    DIRECTION_STEPS,
    POINT_GROUP,
    AxialPoint,
    Direction,
    Face,
    LatticeIso,
    Orientation,
    Region,
    direction_of,
    face_corners,
    face_edge_neighbors,
    face_from_corners,
    faces_around_vertex,
    hex_distance,
    hexagon,
    iso_from_frames,
    opposite_edge_direction,
    rhombus,
)

P = AxialPoint

coords = st.integers(min_value=-20, max_value=20)
points = st.builds(P, coords, coords)
faces = st.builds(
    Face, coords, coords, st.sampled_from([Orientation.UP, Orientation.DOWN])
)


def test_face_corners_examples():
    assert face_corners(Face.up(0, 0)) == (P(0, 0), P(1, 0), P(0, 1))
    assert face_corners(Face.down(0, 0)) == (P(1, 0), P(0, 1), P(1, 1))
    assert face_corners(Face.up(-2, 3)) == (P(-2, 3), P(-1, 3), P(-2, 4))


def test_opposite_edge_direction_examples():
    assert opposite_edge_direction(Face.up(0, 0), P(0, 0)) == Direction.D2
    assert opposite_edge_direction(Face.up(0, 0), P(1, 0)) == Direction.D1
    assert opposite_edge_direction(Face.down(0, 0), P(1, 0)) == Direction.D0


def test_opposite_edge_direction_rejects_non_corner():
    with pytest.raises(ValueError):
        opposite_edge_direction(Face.up(0, 0), P(5, 5))


@given(faces)
def test_opposite_edge_direction_is_bijective(f):
    dirs = {opposite_edge_direction(f, c) for c in face_corners(f)}
    assert dirs == {Direction.D0, Direction.D1, Direction.D2}


@given(faces)
def test_opposite_edge_direction_is_the_axis_of_the_other_two_corners(f):
    corners = face_corners(f)
    for x in corners:
        p, q = (c for c in corners if c != x)
        assert opposite_edge_direction(f, x) == direction_of(q.a - p.a, q.b - p.b)


def test_face_str_is_orientation_then_coordinates():
    assert str(Face.up(0, -3)) == "U(0,-3)"
    assert str(Face.down(-1, 0)) == "D(-1,0)"
    assert repr(Face.up(1, 2)) == "Face(a=1, b=2, orientation=<Orientation.UP: 'U'>)"


def test_point_str_is_coordinates():
    assert str(AxialPoint(-3, 0)) == "(-3,0)"
    assert f"{AxialPoint(2, -1)}" == "(2,-1)"
    assert repr(AxialPoint(1, 2)) == "AxialPoint(a=1, b=2)"


@given(points, points)
def test_point_plus_and_minus_are_vector_arithmetic(p, q):
    assert p + q == P(p.a + q.a, p.b + q.b)
    assert p - q == P(p.a - q.a, p.b - q.b)
    assert type(p + q) is P and type(p - q) is P
    assert (p + q) - q == p


@given(points)
def test_point_equals_and_hashes_like_its_coordinate_pair(p):
    # Compiled lookups such as at[a + da, b + db] and the erosion in
    # window_radius key vertices by plain (a, b) pairs.
    assert p == (p.a, p.b)
    assert hash(p) == hash((p.a, p.b))
    assert (p.a, p.b) in {p}


@given(faces, points)
def test_face_never_equals_a_point(f, p):
    assert f != P(f.a, f.b)
    assert f != p
    assert len({f, P(f.a, f.b)}) == 2


@given(points, points)
def test_point_order_is_by_coordinates(p, q):
    assert (p < q) == ((p.a, p.b) < (q.a, q.b))
    assert sorted([p, q]) == sorted([p, q], key=lambda v: (v.a, v.b))


def test_face_edge_neighbors_examples():
    assert frozenset(face_edge_neighbors(Face.down(0, 0))) == frozenset(
        {Face.up(0, 0), Face.up(1, 0), Face.up(0, 1)}
    )
    assert frozenset(face_edge_neighbors(Face.up(0, 0))) == frozenset(
        {Face.down(0, 0), Face.down(-1, 0), Face.down(0, -1)}
    )


@given(faces)
def test_face_edge_neighbors_shape(f):
    neighbors = face_edge_neighbors(f)
    assert len(set(neighbors)) == 3
    for g in neighbors:
        assert g.orientation != f.orientation
        assert len(set(face_corners(f)) & set(face_corners(g))) == 2
        # edge adjacency is symmetric
        assert f in face_edge_neighbors(g)


def test_face_order_is_coordinates_then_down_before_up():
    assert Face.down(0, 0) < Face.up(0, 0)
    block = [Face(a, b, o) for a in (-1, 0, 1) for b in (-1, 0, 1) for o in Orientation]

    def key(h):
        return (h.a, h.b, h.orientation.value)

    assert sorted(block) == sorted(block, key=key)
    for f in block:
        for g in block:
            assert (f < g) == (key(f) < key(g))
            assert (f >= g) == (key(f) >= key(g))


def test_faces_around_vertex_origin():
    assert faces_around_vertex(P(0, 0)) == (
        Face.up(0, 0),
        Face.down(-1, 0),
        Face.up(-1, 0),
        Face.down(-1, -1),
        Face.up(0, -1),
        Face.down(0, -1),
    )


@given(points)
def test_faces_around_vertex_structure(x):
    ring = faces_around_vertex(x)
    assert len(ring) == 6
    # orientations alternate, all contain x, consecutive pairs share an edge through x
    for i, f in enumerate(ring):
        assert x in face_corners(f)
        g = ring[(i + 1) % 6]
        assert f.orientation != g.orientation
        shared = set(face_corners(f)) & set(face_corners(g))
        assert x in shared and len(shared) == 2
    # exactly the faces containing x
    for f in ring:
        assert x in face_corners(f)
    translated = faces_around_vertex(P(x.a + 1, x.b + 1))
    assert translated == tuple(Face(f.a + 1, f.b + 1, f.orientation) for f in ring)


def _graph_distance(src: AxialPoint, radius: int) -> dict:
    """Independent BFS oracle for lattice vertex distance."""
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]
    dist = {src: 0}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        if dist[v] >= radius:
            continue
        for da, db in steps:
            w = P(v.a + da, v.b + db)
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


@pytest.mark.parametrize("radius", [1, 2, 3, 4, 5])
def test_hexagon_counts_and_membership(radius):
    region = hexagon(P(0, 0), radius)
    assert len(region) == 6 * radius * radius
    # cross-check membership against the BFS distance oracle
    reachable = _graph_distance(P(0, 0), radius)
    for f in region:
        assert all(c in reachable for c in face_corners(f))
    # no face outside: any face whose corners are all within distance r is in
    for a in range(-radius - 2, radius + 2):
        for b in range(-radius - 2, radius + 2):
            for f in (Face.up(a, b), Face.down(a, b)):
                inside = all(c in reachable for c in face_corners(f))
                assert inside == (f in region)


def test_hexagon_radius_one_is_vertex_ring():
    assert hexagon(P(2, -1), 1).faces == frozenset(faces_around_vertex(P(2, -1)))


def test_faces_around_vertex_is_exactly_the_incident_set():
    x = P(1, -2)
    ring = set(faces_around_vertex(x))
    for a in range(x.a - 3, x.a + 3):
        for b in range(x.b - 3, x.b + 3):
            for f in (Face.up(a, b), Face.down(a, b)):
                assert (x in face_corners(f)) == (f in ring)


def test_hexagon_rejects_bad_radius():
    with pytest.raises(ValueError):
        hexagon(P(0, 0), 0)


def test_hex_distance_matches_bfs():
    oracle = _graph_distance(P(0, 0), 4)
    for v, d in oracle.items():
        assert hex_distance(v, P(0, 0)) == d


def test_region_derived_sets():
    region = hexagon(P(0, 0), 3)
    assert len(region.vertex_set()) == 37
    # interior vertices of the radius-3 hexagon form the radius-2 ball
    assert region.interior_vertices() == frozenset(
        v for v in region.vertex_set() if hex_distance(v, P(0, 0)) <= 2
    )
    assert list(region) == sorted(
        region.faces, key=lambda f: (f.a, f.b, f.orientation.value)
    )


def test_rhombus():
    region = rhombus(P(0, 0), 3, 2)
    assert len(region) == 12
    assert len(region.vertex_set()) == 12
    with pytest.raises(ValueError):
        rhombus(P(0, 0), 0, 2)


@given(faces)
def test_face_from_corners_round_trip(f):
    assert face_from_corners(face_corners(f)) == f


def test_face_from_corners_rejects_non_face():
    with pytest.raises(ValueError):
        face_from_corners([P(0, 0), P(1, 0), P(2, 0)])
    with pytest.raises(ValueError):
        face_from_corners([P(0, 0), P(1, 0)])


def test_direction_of():
    assert direction_of(3, 0) == Direction.D0
    assert direction_of(0, -2) == Direction.D1
    assert direction_of(-4, 4) == Direction.D2
    with pytest.raises(ValueError):
        direction_of(1, 1)
    with pytest.raises(ValueError):
        direction_of(0, 0)


def test_point_group_order():
    assert len(set(POINT_GROUP)) == 12


def test_rotation60_cycles_directions():
    rot = LatticeIso(POINT_GROUP[2], P(0, 0))  # e1 -> e2, e2 -> e2 - e1
    assert rot.apply_direction(Direction.D0) == Direction.D1
    assert rot.apply_direction(Direction.D1) == Direction.D2
    assert rot.apply_direction(Direction.D2) == Direction.D0
    # order 6 on points
    p = P(3, -2)
    q = p
    for _ in range(6):
        q = rot.apply_point(q)
    assert q == p


@given(points, st.integers(min_value=0, max_value=11), points)
def test_iso_inverse(shift, k, p):
    iso = LatticeIso(POINT_GROUP[k], shift)
    inv = iso.inverse()
    assert inv.apply_point(iso.apply_point(p)) == p
    assert iso.apply_point(inv.apply_point(p)) == p


@given(st.integers(min_value=0, max_value=11), points, faces)
def test_iso_faces_commute_with_corners(k, shift, f):
    iso = LatticeIso(POINT_GROUP[k], shift)
    g = iso.apply_face(f)
    assert frozenset(face_corners(g)) == frozenset(
        iso.apply_point(c) for c in face_corners(f)
    )


def test_iso_from_frames():
    src = (P(1, 0), P(2, 0), P(1, 1))
    dst = (P(0, 3), P(0, 4), P(-1, 4))
    iso = iso_from_frames(src, dst)
    assert tuple(iso.apply_point(p) for p in src) == dst
    with pytest.raises(ValueError):
        iso_from_frames(src, (P(0, 0), P(2, 0), P(0, 1)))


def test_direction_steps_are_consistent():
    for d, (da, db) in DIRECTION_STEPS.items():
        assert direction_of(da, db) == d


def test_region_text_sorting_is_stable():
    region = Region(frozenset({Face.down(0, 0), Face.up(0, 0), Face.up(-1, 2)}))
    assert [f.a for f in region] == [-1, 0, 0]

"""Even-window machinery: gliders, forced propagation, generators, verdicts."""

import gc
import random
import weakref
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mkflats.distributions import (
    ParityDistribution,
    RootDistribution,
    face_parity,
    induced_parity,
)
from mkflats.lattice import (
    DIRECTION_STEPS,
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
    rhombus,
)
from mkflats.realizer import Sat, enumerate_realizations, realize, realize_with_domains
from mkflats.classifier import (
    CANONICAL_T_FLAT_CENTER_FACE,
    CANONICAL_T_PRIME_SEED,
    CANONICAL_T_SEED,
    EvenPropagation,
    EvenWindow,
    GliderHit,
    StripUnion,
    TFlat,
    Undetermined,
    UndeterminedReason,
    build_strip_union,
    build_t_flat,
    classify,
    find_gliders,
    propagate_even,
    row_index,
    sector_region,
    t_flat_direction,
    t_flat_window_region,
    window_radius,
)

P = AxialPoint
D0, D1, D2 = Direction.D0, Direction.D1, Direction.D2
ALL_DIRS = (D0, D1, D2)


# ---------------------------------------------------------------------------
# the exceptional flat
# ---------------------------------------------------------------------------


def test_t_flat_closed_form_is_total_and_even():
    big = rhombus(P(-10, -10), 20, 20)
    delta = RootDistribution({v: t_flat_direction(v) for v in big.vertex_set()})
    parity = induced_parity(delta, big)
    assert all(parity[f] == 0 for f in big.faces)


def test_t_flat_center_face_values():
    # the three corners of the center face each match their opposite edge
    assert t_flat_direction(P(1, 0)) == D2
    assert t_flat_direction(P(2, 0)) == D1
    assert t_flat_direction(P(1, 1)) == D0


def test_t_flat_symmetry():
    c0, c1, c2 = face_corners(CANONICAL_T_FLAT_CENTER_FACE)
    rot = iso_from_frames((c0, c1, c2), (c1, c2, c0))
    for a in range(-7, 8):
        for b in range(-7, 8):
            v = P(a, b)
            assert t_flat_direction(rot.apply_point(v)) == rot.apply_direction(
                t_flat_direction(v)
            )


def test_t_flat_three_rank2_geodesics():
    # the lines through the center face corners avoid their own axis entirely
    for k in range(-8, 9):
        assert t_flat_direction(P(k, 0)) != D0  # row b = 0
        assert t_flat_direction(P(1, k)) != D1  # column a = 1
        assert t_flat_direction(P(k, 2 - k)) != D2  # diagonal a + b = 2


def test_build_t_flat_translates_center():
    w = build_t_flat(P(4, -3), 3)
    assert t_flat_direction(P(4, -3), center=P(4, -3)) == w.delta[P(4, -3)] == D2
    assert w.delta[P(5, -3)] == D1
    assert w.delta[P(4, -2)] == D0
    with pytest.raises(ValueError):
        build_t_flat(P(0, 0), 1)


def test_sector_propagation_is_fully_forced_and_matches_closed_form():
    region = sector_region(6)
    result = propagate_even(CANONICAL_T_SEED, region)
    assert isinstance(result, EvenPropagation)
    assert result.fully_forced()
    assert result.forced.domain() == region.vertex_set()
    for v in result.forced.domain():
        assert result.forced[v] == t_flat_direction(v)


def test_seed_forces_entire_symmetric_window():
    """The three seeded vertices force the whole window in every direction,
    not just the upward sector."""
    for r in (2, 3, 4):
        region = t_flat_window_region(P(1, 0), r)
        result = propagate_even(CANONICAL_T_SEED, region)
        assert isinstance(result, EvenPropagation)
        assert result.fully_forced()
        assert all(
            result.forced[v] == t_flat_direction(v) for v in result.forced.domain()
        )


def test_propagate_even_contradiction_value():
    seed = dict(CANONICAL_T_SEED)
    seed[P(0, 1)] = D0  # incompatible with the trapezoid under evenness
    assert propagate_even(seed, sector_region(3)) is None


def test_propagate_even_rejects_seed_outside_region():
    with pytest.raises(ValueError):
        propagate_even({P(50, 50): D0}, sector_region(2))


def test_t_prime_propagation_forces_half_strip():
    region = rhombus(P(0, 0), 3, 7)
    result = propagate_even(CANONICAL_T_PRIME_SEED, region)
    assert isinstance(result, EvenPropagation)
    forced = result.forced
    for b in range(0, 8):
        assert forced[P(1, b)] == D0
        assert forced[P(2, b)] == D2
    # everything free sits on the two bounding columns, and away from the two
    # extreme rim corners those columns exclude the column axis (rank 2)
    frees = dict(result.free)
    assert {v.a for v in frees} <= {0, 3}
    rim = {P(0, 0), P(3, 7)}
    for v, dom in frees.items():
        if v not in rim:
            assert D1 not in dom


# ---------------------------------------------------------------------------
# gliders
# ---------------------------------------------------------------------------


def test_find_gliders_on_t_flat():
    w = build_t_flat(P(1, 0), 4)
    hits = find_gliders(w)
    t_hits = [h for h in hits if h.kind == "t"]
    assert len(t_hits) == 6
    # every t glider's base pair consists of center-face corners
    corners = set(face_corners(CANONICAL_T_FLAT_CENTER_FACE))
    for h in t_hits:
        assert set(h.base) <= corners
        assert len(h.support()) == 7
        assert len(set(h.outline())) == 4


def test_find_gliders_none_on_strip_unions():
    region = rhombus(P(0, 0), 8, 8)
    alternating = build_strip_union(
        D0, {b: (D1 if b % 2 else D2) for b in range(9)}, region
    )
    assert [h for h in find_gliders(alternating) if h.kind == "t"] == []
    parallel = build_strip_union(D0, {b: D1 for b in range(9)}, region)
    assert find_gliders(parallel) == []


def test_strip_unions_do_contain_t_prime():
    region = rhombus(P(0, 0), 8, 8)
    window = build_strip_union(
        D1, {a: (D0 if a < 4 else D2) for a in range(9)}, region
    )
    kinds = {h.kind for h in find_gliders(window)}
    assert kinds == {"t_prime"}


# The six lattice steps from a vertex to its neighbours.
NEIGHBOUR_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def dot2(p, q):
    """Twice the Euclidean inner product of two axial vectors."""
    return 2 * p[0] * q[0] + p[0] * q[1] + p[1] * q[0] + 2 * p[1] * q[1]


def gliders_by_full_support_scan(window):
    """Reference scan: build the whole 7-vertex support of every placement
    first, then read the ranks.  The top side sits over the base, one step
    at 60 degrees from the base step."""
    verts = window.region.vertex_set()
    delta = window.delta
    hits = []
    for v in verts:
        for axis in ALL_DIRS:
            u = DIRECTION_STEPS[axis]
            base = (v.step(-u[0], -u[1]), v, v.step(*u), v.step(2 * u[0], 2 * u[1]))
            for w in (w for w in NEIGHBOUR_STEPS if dot2(w, u) == 1):
                support = base + tuple(p.step(*w) for p in base[:3])
                if not all(p in verts for p in support):
                    continue
                top = v.step(*w)
                if delta[top] != axis:
                    continue
                rank2 = (delta[v] != axis) + (delta[base[2]] != axis)
                if rank2:
                    kind = "t" if rank2 == 2 else "t_prime"
                    hits.append(GliderHit(kind, axis, (v, base[2]), top))
    return sorted(hits)


def test_find_gliders_matches_full_support_scan_radius3_census():
    reg = hexagon(P(0, 0), 3)
    windows = enumerate_realizations(ParityDistribution.constant(reg, 0), reg)
    assert len(windows) == 537
    found = 0
    for delta in windows:
        w = EvenWindow(reg, delta)
        hits = find_gliders(w)
        assert hits == gliders_by_full_support_scan(w)
        found += len(hits)
    assert found > 0


@pytest.mark.parametrize("axis", ALL_DIRS)
def test_find_gliders_matches_full_support_scan_on_generated_windows(axis):
    windows = [build_t_flat(P(a, b), r) for a, b, r in ((0, 0, 3), (1, 0, 4), (-2, 3, 5))]
    region = rhombus(P(-1, -2), 7, 6)
    for pattern in ([D0, D1, D2], [D0, D2, D2, D1]):
        values = [d for d in pattern if d != axis]
        rows = {row_index(v, axis) for v in region.vertex_set()}
        assignment = {k: values[k % len(values)] for k in rows}
        windows.append(build_strip_union(axis, assignment, region))
    for w in windows:
        hits = find_gliders(w)
        assert hits == gliders_by_full_support_scan(w)
        assert hits


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([None, D0, D1, D2]),
    st.lists(st.integers(0, 1), min_size=17, max_size=17),
    st.sets(st.integers(0, 199), max_size=40),
    st.sets(st.integers(0, 199), max_size=12),
)
def test_find_gliders_matches_full_support_scan_on_ragged_windows(axis, bits, cut, holes):
    # Removing faces keeps a window even and leaves a ragged boundary: ``cut``
    # removes single faces, ``holes`` every face around a vertex, so that
    # placements lose some of their support vertices.
    if axis is None:
        window = build_t_flat(P(1, -2), 4)
    else:
        others = [d for d in ALL_DIRS if d != axis]
        rows = {k: others[bit] for k, bit in enumerate(bits)}
        window = build_strip_union(axis, rows, rhombus(P(0, 0), 8, 8))
    faces = sorted(window.region.faces)
    verts = sorted(window.region.vertex_set())
    removed = {faces[i % len(faces)] for i in cut}
    for i in holes:
        removed.update(faces_around_vertex(verts[i % len(verts)]))
    kept = Region(window.region.faces - removed)
    ragged = EvenWindow(kept, window.delta.restrict(kept.vertex_set()))
    assert find_gliders(ragged) == gliders_by_full_support_scan(ragged)


def test_glider_support_must_be_inside_window():
    # the canonical trapezoid pattern clipped at the window edge is not a hit
    region = rhombus(P(0, 0), 4, 2)
    delta = {v: t_flat_direction(v) for v in region.vertex_set()}
    w = EvenWindow(region, RootDistribution(delta))
    for h in find_gliders(w):
        assert all(p in region.vertex_set() for p in h.support())


# ---------------------------------------------------------------------------
# strip unions and decomposition
# ---------------------------------------------------------------------------


def test_build_strip_union_validation():
    region = rhombus(P(0, 0), 4, 4)
    with pytest.raises(ValueError):
        build_strip_union(D0, {b: D0 for b in range(5)}, region)
    with pytest.raises(ValueError):
        build_strip_union(D0, {0: D1}, region)  # missing rows


def test_non_constant_row_is_odd():
    region = rhombus(P(0, 0), 6, 6)
    assignment = {}
    for v in region.vertex_set():
        assignment[v] = D1 if (v.b, v.a) != (3, 2) else D2  # one defect in row 3
    delta = RootDistribution(assignment)
    parity = induced_parity(delta, region)
    odd = [f for f in region.faces if parity[f] == 1]
    assert odd  # the row defect shows up as an odd face
    with pytest.raises(ValueError):
        EvenWindow(region, delta)


@pytest.mark.parametrize("axis", ALL_DIRS)
def test_row_constancy_law_exact_small_window(axis):
    """On a 3x3 window, a distribution avoiding ``axis`` is even iff it is
    constant on every line parallel to the axis (full enumeration)."""
    region = rhombus(P(0, 0), 3, 3)
    verts = sorted(region.vertex_set())
    others = [d for d in ALL_DIRS if d != axis]
    for combo in product(others, repeat=len(verts)):
        delta = RootDistribution(dict(zip(verts, combo)))
        rows = {}
        constant = True
        for v, d in zip(verts, combo):
            if rows.setdefault(row_index(v, axis), d) != d:
                constant = False
                break
        even = all(face_parity(delta, f) == 0 for f in region.faces)
        assert even == constant


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_window_radius():
    assert window_radius(hexagon(P(0, 0), 3)) == 3
    assert window_radius(hexagon(P(2, 2), 4)) == 4
    assert window_radius(rhombus(P(0, 0), 8, 8)) == 4
    assert window_radius(t_flat_window_region(P(0, 0), 4)) >= 4
    assert window_radius(Region(frozenset({Face.up(0, 0)}))) == 0
    assert window_radius(Region(frozenset())) == 0


def window_radius_by_containment(region):
    """Reference: the largest r for which some hexagon(v, r) lies in the
    region, found by building the hexagons."""
    best = 0
    for v in region.vertex_set():
        while hexagon(v, best + 1).faces <= region.faces:
            best += 1
    return best


def seeded_regions(seed, count):
    """Hexagons, rhombi, t-flat windows and unions of two of them (often
    disjoint), each with up to six random faces removed."""
    rng = random.Random(seed)

    def shape():
        c = P(rng.randint(-6, 6), rng.randint(-6, 6))
        kind = rng.randrange(3)
        if kind == 0:
            return hexagon(c, rng.randint(1, 4))
        if kind == 1:
            return rhombus(c, rng.randint(1, 9), rng.randint(1, 9))
        return t_flat_window_region(c, rng.randint(1, 4))

    for _ in range(count):
        region = shape()
        if rng.random() < 0.5:
            region = region.union(shape())
        faces = sorted(region.faces)
        removed = rng.sample(faces, min(len(faces), rng.randint(0, 6)))
        yield Region(region.faces - frozenset(removed))


def test_window_radius_equals_containment_definition():
    radii = set()
    for region in seeded_regions(5, 80):
        expected = window_radius_by_containment(region)
        assert window_radius(region) == expected
        radii.add(expected)
    assert radii >= {0, 1, 2, 3, 4}


def test_regions_are_freed_after_use():
    """What the library derives from a region lives no longer than the region,
    except in the bounded window_radius cache."""
    bound = window_radius.cache_info().maxsize
    assert bound is not None
    refs = []
    for k in range(bound + 4):
        window = build_t_flat(P(5 * k, 0), 4)
        region = window.region
        region.vertex_set()
        region.interior_vertices()
        window_radius(region)
        assert isinstance(realize(ParityDistribution.constant(region, 0), region), Sat)
        classify(window)
        refs.append(weakref.ref(region))
        del window, region
    gc.collect()
    assert sum(ref() is not None for ref in refs) <= bound


def test_classify_t_flat():
    from mkflats.classifier import _row_structure

    for center in (P(0, 0), P(5, -2)):
        w = build_t_flat(center, 4)
        verdict = classify(w)
        assert verdict == TFlat(center=center, symmetry_checked=True)
        # the two determinate patterns exclude each other on real windows
        assert _row_structure(w) is None


def test_classify_strip_union_recovers_rows():
    region = rhombus(P(0, 0), 8, 8)
    rows = {b: (D1 if b % 2 else D2) for b in range(9)}
    w = build_strip_union(D0, rows, region)
    verdict = classify(w)
    assert isinstance(verdict, StripUnion)
    assert verdict.axis == D0
    assert dict(verdict.row_assignment) == rows


def test_classify_parallel_uses_canonical_axis():
    region = rhombus(P(0, 0), 8, 8)
    w = build_strip_union(D2, {k: D1 for k in range(17)}, region)
    verdict = classify(w)
    # constant distributions avoid two axes; the smallest qualifies
    assert isinstance(verdict, StripUnion)
    assert verdict.axis == D0


def test_classify_small_window_undetermined():
    w = build_t_flat(P(0, 0), 3)
    small = EvenWindow(
        hexagon(P(0, 0), 3),
        w.delta.restrict(hexagon(P(0, 0), 3).vertex_set()),
    )
    assert classify(small) == Undetermined(UndeterminedReason.WINDOW_TOO_SMALL)


def _first_neither_window_radius4():
    """Deterministic radius-4 even window with no t glider and no row
    structure, grown from the lexicographically first such radius-3 window."""
    from mkflats.classifier import _row_structure

    reg3, reg4 = hexagon(P(0, 0), 3), hexagon(P(0, 0), 4)
    for delta in enumerate_realizations(ParityDistribution.constant(reg3, 0), reg3):
        w = EvenWindow(reg3, delta)
        if any(h.kind == "t" for h in find_gliders(w)) or _row_structure(w):
            continue
        pinned = {v: delta[v] for v in reg3.vertex_set()}
        out = realize_with_domains(
            ParityDistribution.constant(reg4, 0), reg4, pinned
        )
        if isinstance(out, Sat):
            w4 = EvenWindow(reg4, out.witness)
            if not any(h.kind == "t" for h in find_gliders(w4)) and not _row_structure(w4):
                return w4
    raise AssertionError("no such window found")


def test_classify_no_glider_no_row_structure():
    w = _first_neither_window_radius4()
    assert classify(w) == Undetermined(
        UndeterminedReason.NO_GLIDER_NO_ROW_STRUCTURE
    )


def test_classify_boundary_ambiguous_on_disconnected_window():
    # a window containing a glider patch plus a far-away strip patch cannot
    # globally match the flat the glider forces
    flat = build_t_flat(P(0, 0), 4)
    far_region = rhombus(P(40, 0), 4, 4)
    strips = build_strip_union(D0, {b: D1 for b in range(5)}, far_region)
    region = flat.region.union(far_region)
    merged = {v: flat.delta[v] for v in flat.region.vertex_set()}
    merged.update({v: strips.delta[v] for v in far_region.vertex_set()})
    w = EvenWindow(region, RootDistribution(merged))
    assert classify(w) == Undetermined(UndeterminedReason.BOUNDARY_AMBIGUOUS)


_T_FLAT_R4 = build_t_flat(P(0, 0), 4)
_isometries = st.builds(
    LatticeIso,
    st.sampled_from(POINT_GROUP),
    st.builds(P, st.integers(-20, 20), st.integers(-20, 20)),
)


def _assert_classify_covariant(window, iso):
    verdict = classify(window)
    image = classify(
        EvenWindow(
            Region(frozenset(iso.apply_face(f) for f in window.region.faces)),
            window.delta.transform(iso),
        )
    )
    assert type(image) is type(verdict)
    if isinstance(verdict, TFlat):
        center_face = iso.apply_face(Face.up(verdict.center.a, verdict.center.b))
        assert image.center == min(face_corners(center_face))
        assert image.symmetry_checked == verdict.symmetry_checked
    elif isinstance(verdict, StripUnion):
        assert image.axis == iso.apply_direction(verdict.axis)
    else:
        assert image.reason == verdict.reason


@settings(max_examples=30, deadline=None)
@given(_isometries)
def test_classify_is_covariant_on_t_flat(iso):
    _assert_classify_covariant(_T_FLAT_R4, iso)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(ALL_DIRS),
    st.lists(st.integers(0, 1), min_size=17, max_size=17),
    _isometries,
)
def test_classify_is_covariant_on_strip_union(axis, bits, iso):
    region = rhombus(P(0, 0), 8, 8)
    others = [d for d in ALL_DIRS if d != axis]
    # Both row values occur, so exactly one axis has row structure.
    rows = {k: others[bit] for k, bit in enumerate([bits[0], 1 - bits[0]] + bits[2:])}
    window = build_strip_union(axis, rows, region)
    assert isinstance(classify(window), StripUnion)
    _assert_classify_covariant(window, iso)


def test_classify_mutual_exclusion_radius3_census():
    """Exhaustive: no radius-3 even window satisfies both pattern predicates."""
    from mkflats.classifier import _row_structure

    reg = hexagon(P(0, 0), 3)
    target = ParityDistribution.constant(reg, 0)
    counts = {"t": 0, "rows": 0, "neither": 0, "both": 0}
    for delta in enumerate_realizations(target, reg):
        w = EvenWindow(reg, delta)
        has_t = any(h.kind == "t" for h in find_gliders(w))
        has_rows = _row_structure(w) is not None
        if has_t and has_rows:
            counts["both"] += 1
        elif has_t:
            counts["t"] += 1
        elif has_rows:
            counts["rows"] += 1
        else:
            counts["neither"] += 1
    assert counts == {"t": 66, "rows": 381, "neither": 90, "both": 0}


def test_even_window_validation():
    region = hexagon(P(0, 0), 1)
    with pytest.raises(ValueError):
        EvenWindow(region, RootDistribution({P(0, 0): D0}))  # missing vertices
    odd = {v: D0 for v in region.vertex_set()}
    odd[P(0, 1)] = D1
    with pytest.raises(ValueError):
        EvenWindow(region, RootDistribution(odd))

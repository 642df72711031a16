"""The realizability solver against brute-force oracles, plus the bundled
non-realizable pattern."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

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
    Orientation,
    Region,
    face_corners,
    faces_around_vertex,
    hexagon,
    opposite_edge_direction,
)
from mkflats.realizer import (
    COUNTEREXAMPLE_FOCUS_FACE,
    Sat,
    SearchStats,
    Unsat,
    corner_assignments_with_parity,
    counterexample_parity,
    enumerate_realizations,
    hexagon_pattern_outcomes,
    propagate,
    realize,
    realize_with_domains,
    sample_realization,
    verify_counterexample,
    verify_disallowed_dozen,
    verify_hexagon_theorem,
)

P = AxialPoint
ALL_DIRS = (Direction.D0, Direction.D1, Direction.D2)


def brute_force(target: ParityDistribution, region: Region):
    """Oracle: all assignments over the region's vertices, checked directly."""
    verts = sorted(region.vertex_set())
    sols = []
    for combo in product(ALL_DIRS, repeat=len(verts)):
        delta = RootDistribution(dict(zip(verts, combo)))
        if all(face_parity(delta, f) == target[f] for f in region.faces):
            sols.append(combo)
    return verts, sols


# ---------------------------------------------------------------------------
# propagate
# ---------------------------------------------------------------------------


def test_propagate_single_face_full_domains_no_elimination():
    f = Face.up(0, 0)
    region = Region(frozenset({f}))
    for parity in (0, 1):
        out = propagate(ParityDistribution({f: parity}), region, {})
        assert out is not None
        assert set(out) == set(face_corners(f))
        assert all(len(dom) == 3 for dom in out.values())


def test_propagate_two_fixed_corners_shrink_third():
    f = Face.up(0, 0)
    region = Region(frozenset({f}))
    corners = face_corners(f)
    opp = [opposite_edge_direction(f, c) for c in corners]
    for d0, d1, parity in product(ALL_DIRS, ALL_DIRS, (0, 1)):
        out = propagate(
            ParityDistribution({f: parity}),
            region,
            {
                corners[0]: frozenset({d0}),
                corners[1]: frozenset({d1}),
                corners[2]: frozenset(ALL_DIRS),
            },
        )
        assert out is not None
        need = (parity - (d0 != opp[0]) - (d1 != opp[1])) % 2
        expected = {d for d in ALL_DIRS if (d != opp[2]) == need}
        assert out[corners[2]] == expected
        assert len(expected) in (1, 2)


def test_propagate_one_fixed_corner_no_elimination():
    f = Face.up(0, 0)
    region = Region(frozenset({f}))
    corners = face_corners(f)
    for d0, parity in product(ALL_DIRS, (0, 1)):
        out = propagate(
            ParityDistribution({f: parity}),
            region,
            {
                corners[0]: frozenset({d0}),
                corners[1]: frozenset(ALL_DIRS),
                corners[2]: frozenset(ALL_DIRS),
            },
        )
        assert out is not None
        assert out[corners[1]] == frozenset(ALL_DIRS)
        assert out[corners[2]] == frozenset(ALL_DIRS)


def test_propagate_contradiction_is_a_value():
    f = Face.up(0, 0)
    region = Region(frozenset({f}))
    corners = face_corners(f)
    opp = [opposite_edge_direction(f, c) for c in corners]
    # pin all three corners to the all-matching assignment but demand odd
    out = propagate(
        ParityDistribution({f: 1}),
        region,
        {c: frozenset({o}) for c, o in zip(corners, opp)},
    )
    assert out is None


@pytest.mark.parametrize("orientation", list(Orientation))
@pytest.mark.parametrize("parity", [0, 1])
def test_propagate_single_face_is_exact_gac_on_every_domain(orientation, parity):
    """Each of the 343 triples of non-empty corner domains: one face's
    fixpoint keeps exactly the values some matching corner assignment uses,
    and is a contradiction when there is none."""
    f = Face(0, 0, orientation)
    region = Region(frozenset({f}))
    target = ParityDistribution({f: parity})
    corners = face_corners(f)
    assignments = corner_assignments_with_parity(f, parity)
    nonempty = [
        frozenset(d for d in ALL_DIRS if mask >> int(d) & 1) for mask in range(1, 8)
    ]
    for domains in product(nonempty, repeat=3):
        given = dict(zip(corners, domains))
        kept = [a for a in assignments if all(a[c] in given[c] for c in corners)]
        out = propagate(target, region, given)
        if not kept:
            assert out is None, domains
        else:
            assert out == {c: frozenset(a[c] for a in kept) for c in corners}, domains


# ---------------------------------------------------------------------------
# realize / enumerate
# ---------------------------------------------------------------------------


def test_realize_all_even_hexagon_lexicographic_witness():
    region = hexagon(P(0, 0), 1)
    target = ParityDistribution.constant(region, 0)
    out = realize(target, region)
    assert isinstance(out, Sat)
    verts, sols = brute_force(target, region)
    witness = tuple(out.witness[v] for v in verts)
    assert witness == min(sols)
    assert induced_parity(out.witness, region) == target


def test_realize_rejects_mismatched_domains():
    region = hexagon(P(0, 0), 1)
    target = ParityDistribution({f: 0 for f in list(region.faces)[:3]})
    with pytest.raises(MissingAssignment):
        realize(target, region)
    wide = hexagon(P(0, 0), 3)
    half = ParityDistribution({f: 0 for f in wide.faces if f.a > 0})
    with pytest.raises(MissingAssignment) as exc:
        realize(half, wide)
    least = min(f for f in wide.faces if f.a <= 0)
    assert str(exc.value) == f"target parity undefined on face {least}"
    extra = ParityDistribution(
        {**{f: 0 for f in region.faces}, Face.up(9, 9): 0}
    )
    with pytest.raises(ValueError):
        realize(extra, region)


def test_all_64_hexagon_patterns_realizable():
    outcomes = hexagon_pattern_outcomes()
    assert len(outcomes) == 64
    assert all(isinstance(o, Sat) for _, o in outcomes)
    assert verify_hexagon_theorem()


def test_64_patterns_fall_into_13_symmetry_classes():
    """Under the dihedral action on the six-face ring the patterns split as
    5 classes with at most two odd, 5 with at most two even, 3 with exactly
    three odd."""

    def canon(word):
        variants = []
        for w in (word, word[::-1]):
            for k in range(6):
                variants.append(w[k:] + w[:k])
        return min(variants)

    classes = {}
    for bits in product((0, 1), repeat=6):
        classes.setdefault(canon(bits), []).append(bits)
    assert len(classes) == 13
    by_weight = {}
    for rep in classes:
        by_weight.setdefault(sum(rep), 0)
        by_weight[sum(rep)] += 1
    assert sum(by_weight.get(k, 0) for k in (0, 1, 2)) == 5
    assert sum(by_weight.get(k, 0) for k in (4, 5, 6)) == 5
    assert by_weight[3] == 3


def test_single_face_solution_counts():
    """13 even / 14 odd realizing assignments on a single face; the solver
    enumeration must agree with the 27-row oracle exactly."""
    f = Face.down(0, 0)
    region = Region(frozenset({f}))
    for parity, expected in ((0, 13), (1, 14)):
        oracle = corner_assignments_with_parity(f, parity)
        assert len(oracle) == expected
        sols = enumerate_realizations(ParityDistribution({f: parity}), region)
        assert len(sols) == expected
        assert {frozenset(w.items()) for w in sols} == {
            frozenset(c.items()) for c in oracle
        }


def test_enumerate_respects_limit_and_order():
    region = hexagon(P(0, 0), 1)
    target = ParityDistribution.constant(region, 0)
    all_sols = enumerate_realizations(target, region)
    limited = enumerate_realizations(target, region, limit=5)
    assert limited == all_sols[:5]
    assert enumerate_realizations(target, region, limit=1) == all_sols[:1]
    verts = sorted(region.vertex_set())
    keys = [tuple(w[v] for v in verts) for w in all_sols]
    assert keys == sorted(keys)


@pytest.mark.parametrize("limit", [0, -3])
def test_enumerate_rejects_limit_below_one(limit):
    region = hexagon(P(0, 0), 1)
    target = ParityDistribution.constant(region, 0)
    with pytest.raises(ValueError, match="limit"):
        enumerate_realizations(target, region, limit=limit)


def test_realize_with_domains_rejects_vertex_outside_region():
    region = hexagon(P(0, 0), 1)
    target = ParityDistribution.constant(region, 0)
    with pytest.raises(ValueError, match="outside the region"):
        realize_with_domains(target, region, {P(50, 50): Direction.D0})


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_completeness_on_small_regions(seed):
    """Solver agrees with full enumeration on Sat/Unsat and witness sets."""
    rng = random.Random(seed)
    base = hexagon(P(0, 0), 1)
    extras = [Face.up(1, 0), Face.down(0, 0), Face.up(-1, -1), Face.down(-2, 0)]
    faces = set(base.faces) | {f for f in extras if rng.random() < 0.5}
    region = Region(frozenset(faces))
    if len(region.vertex_set()) > 12:
        region = base
    bits = {f: rng.randint(0, 1) for f in region.faces}
    target = ParityDistribution(bits)
    verts, sols = brute_force(target, region)
    mine = enumerate_realizations(target, region)
    assert [tuple(w[v] for v in verts) for w in mine] == sorted(sols)
    out = realize(target, region)
    assert isinstance(out, Sat) == bool(sols)


def test_propagate_never_removes_supported_values():
    rng = random.Random(5)
    region = Region(frozenset({Face.up(0, 0), Face.down(0, 0), Face.up(1, 0)}))
    verts = sorted(region.vertex_set())
    for _ in range(8):
        bits = {f: rng.randint(0, 1) for f in region.faces}
        target = ParityDistribution(bits)
        state = propagate(target, region, {})
        _, sols = brute_force(target, region)
        supported = {
            v: {combo[i] for combo in sols} for i, v in enumerate(verts)
        }
        if not sols:
            continue
        assert state is not None
        for v in verts:
            assert supported[v] <= state[v]


def test_realize_is_deterministic():
    region = hexagon(P(0, 0), 2)
    target = ParityDistribution.constant(region, 0)
    a, b = realize(target, region), realize(target, region)
    assert isinstance(a, Sat) and a.witness == b.witness


# Search counters are deterministic, so they are pinned exactly.
@pytest.mark.parametrize(
    "radius, nodes, propagations",
    [(6, 63, 3830), (10, 103, 15730), (15, 153, 49670)],
)
def test_sat_carries_search_stats_all_even_hexagon(radius, nodes, propagations):
    region = hexagon(P(0, 0), radius)
    out = realize(ParityDistribution.constant(region, 0), region)
    assert isinstance(out, Sat)
    assert out.stats == SearchStats(nodes, propagations)


def test_hexagon_pattern_search_stats():
    outcomes = [o for _, o in hexagon_pattern_outcomes()]
    assert sum(o.stats.nodes for o in outcomes) == 595
    assert sum(o.stats.propagations for o in outcomes) == 1512


# ---------------------------------------------------------------------------
# the bundled non-realizable pattern
# ---------------------------------------------------------------------------


def test_counterexample_is_unsat_and_deterministic():
    out1 = verify_counterexample()
    out2 = verify_counterexample()
    assert isinstance(out1, Unsat)
    assert out1.stats == out2.stats
    assert out1.stats == SearchStats(287, 6319)
    target = counterexample_parity()
    assert enumerate_realizations(target, target.region()) == []


def test_counterexample_shape():
    target = counterexample_parity()
    region = target.region()
    odd = [f for f, p in target.items() if p == 1]
    assert len(region) == 121
    assert len(odd) == 9
    # order-3 rotational symmetry about the focus face Down(-1, 0)
    from mkflats.lattice import face_from_corners

    def rot_face(f):
        return face_from_corners(
            AxialPoint(-c.a - c.b, c.a + 1) for c in face_corners(f)
        )

    assert {rot_face(f) for f in odd} == set(odd)
    assert {rot_face(f) for f in region.faces} == region.faces
    assert all(target[rot_face(f)] == target[f] for f in region.faces)


def test_disallowed_dozen():
    assert verify_disallowed_dozen()


def test_disallowed_dozen_case_structure():
    face = Face.down(-1, 0)
    even_cases = corner_assignments_with_parity(face, 0)
    opp = {c: opposite_edge_direction(face, c) for c in face_corners(face)}
    two_rank2 = [
        c for c in even_cases if sum(1 for x, d in c.items() if d != opp[x]) == 2
    ]
    assert len(even_cases) == 13
    assert len(two_rank2) == 12
    target = counterexample_parity()
    region = target.region()
    for case in even_cases:
        assert isinstance(realize_with_domains(target, region, case), Unsat)


def test_disallowed_dozen_search_stats():
    target = counterexample_parity()
    region = target.region()
    cases = corner_assignments_with_parity(COUNTEREXAMPLE_FOCUS_FACE, 0)
    stats = [realize_with_domains(target, region, case).stats for case in cases]
    assert [(s.nodes, s.propagations) for s in stats] == [
        (156, 3002), (0, 21), (0, 13), (171, 2103), (0, 27), (0, 28), (11, 235),
        (181, 4296), (42, 419), (0, 22), (0, 13), (0, 18), (171, 2777),
    ]


_SMALL_REGION = hexagon(P(0, 0), 2)
_SMALL_FACES = sorted(_SMALL_REGION.faces)
_SMALL_VERTICES = sorted(_SMALL_REGION.vertex_set())
_coords = st.integers(min_value=-20, max_value=20)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 1), min_size=len(_SMALL_FACES), max_size=len(_SMALL_FACES)),
    st.dictionaries(st.sampled_from(_SMALL_VERTICES), st.sampled_from(ALL_DIRS), max_size=5),
    st.integers(min_value=0, max_value=len(POINT_GROUP) - 1),
    st.builds(P, _coords, _coords),
)
def test_realizable_exactly_when_its_image_is(bits, pins, k, shift):
    """A radius-2 target with up to five pinned vertices (random targets
    without pins are all Sat) against its image under a point-group element
    and a shift: same verdict, and the image of a witness is a witness."""
    iso = LatticeIso(POINT_GROUP[k], shift)
    target = ParityDistribution(dict(zip(_SMALL_FACES, bits)))
    image = target.transform(iso)
    image_region = image.region()
    image_pins = {iso.apply_point(v): iso.apply_direction(d) for v, d in pins.items()}
    outcome = realize_with_domains(target, _SMALL_REGION, pins)
    image_outcome = realize_with_domains(image, image_region, image_pins)
    assert type(outcome) is type(image_outcome)
    if isinstance(outcome, Sat):
        moved = outcome.witness.transform(iso)
        assert induced_parity(moved, image_region) == image
        assert all(moved[v] == d for v, d in image_pins.items())


def test_removing_any_odd_face_makes_it_realizable():
    target = counterexample_parity()
    region = target.region()
    odd = [f for f, p in target.items() if p == 1]
    for f in odd:
        reduced_region = Region(region.faces - {f})
        reduced = ParityDistribution(
            {g: target[g] for g in reduced_region.faces}
        )
        assert isinstance(realize(reduced, reduced_region), Sat)


def test_six_drawn_odd_faces_alone_are_realizable():
    """The inner six-face odd pattern needs the widening: with only the three
    two-face arms odd (the extra sector faces even), a witness exists."""
    target = counterexample_parity()
    region = target.region()
    inner = {
        Face.up(0, -1), Face.up(1, -2), Face.up(0, 1),
        Face.up(0, 2), Face.up(-2, 1), Face.up(-3, 1),
    }
    reduced = ParityDistribution(
        {f: (1 if f in inner else 0) for f in region.faces}
    )
    out = realize(reduced, region)
    assert isinstance(out, Sat)
    assert induced_parity(out.witness, region) == reduced


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_realization_reproducible():
    region = hexagon(P(0, 0), 2)
    target = ParityDistribution.constant(region, 0)
    a = sample_realization(target, region, random.Random(99))
    b = sample_realization(target, region, random.Random(99))
    assert a == b
    assert induced_parity(a, region) == target


def test_sample_realization_unsat_returns_none():
    target = counterexample_parity()
    assert sample_realization(target, target.region(), random.Random(0)) is None

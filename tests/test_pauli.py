"""Face labellings: vertex words, induced roots, and the forced extension."""

import random

import pytest

from mkflats.classifier import build_strip_union, build_t_flat
from mkflats.distributions import MissingAssignment, RootDistribution
from mkflats.lattice import (
    AxialPoint,
    Direction,
    Face,
    Region,
    face_corners,
    face_edge_neighbors,
    faces_around_vertex,
    hexagon,
    rhombus,
)
from mkflats.linkgraph import ALLOWED_WORDS, RELATORS
from mkflats.pauli import (
    ExtensionStalled,
    LabellingIntegrityError,
    PauliLabelling,
    PuzzleContradiction,
    WORD_DIRECTIONS,
    check_even,
    extend,
    induced_roots,
    validate,
    vertex_word,
    word_direction,
)

P = AxialPoint
D0, D1, D2 = Direction.D0, Direction.D1, Direction.D2


def ring_labelling(word, x=P(0, 0)):
    return PauliLabelling(dict(zip(faces_around_vertex(x), word)))


def test_word_direction_on_relators():
    assert word_direction("XYXZYZ") == D0  # arcs XYX | ZYZ
    # the two other axes see rainbow arcs
    w = "XYXZYZ"
    assert {w[1], w[2], w[3]} == {"X", "Y", "Z"}
    assert {w[2], w[3], w[4]} == {"X", "Z", "Y"}


def test_every_allowed_word_has_unique_direction():
    """36-case check: all rotations and reversals of the three relators."""
    seen = set()
    for rel in RELATORS:
        for w in (rel, rel[::-1]):
            for k in range(6):
                word = w[k:] + w[:k]
                seen.add(word)
                d = word_direction(word)  # raises unless exactly one axis fits
                assert WORD_DIRECTIONS[word] == d
    assert seen == ALLOWED_WORDS
    assert len(seen) == 18
    for d in (D0, D1, D2):
        assert sum(1 for w in ALLOWED_WORDS if WORD_DIRECTIONS[w] == d) == 6


def test_word_direction_rejects_bad_words():
    with pytest.raises(LabellingIntegrityError):
        word_direction("XYXYXY")
    with pytest.raises(LabellingIntegrityError):
        word_direction("XXXYYY")


def test_validate():
    region = hexagon(P(0, 0), 1)
    assert validate(ring_labelling("XYXZYZ"), region)
    assert validate(ring_labelling("ZYZXYX"), region)  # reversal of a relator
    assert not validate(ring_labelling("XYXYXY"), region)
    assert not validate(ring_labelling("XXZYZY"), region)
    with pytest.raises(MissingAssignment):
        validate(PauliLabelling({}), region)
    wide = hexagon(P(0, 0), 3)
    half = PauliLabelling({f: "X" for f in wide.faces if f.b > 0})
    with pytest.raises(MissingAssignment) as exc:
        validate(half, wide)
    least = min(f for f in wide.faces if f.b <= 0)
    assert str(exc.value) == f"labelling undefined on face {least}"


def test_induced_roots_from_relator_word():
    region = hexagon(P(0, 0), 1)
    delta = induced_roots(ring_labelling("XYXZYZ"), region)
    assert delta.domain() == frozenset({P(0, 0)})
    assert delta[P(0, 0)] == D0
    delta2 = induced_roots(ring_labelling("YXZXYZ"), region)
    assert delta2[P(0, 0)] == WORD_DIRECTIONS["YXZXYZ"]


def test_induced_roots_integrity_error():
    region = hexagon(P(0, 0), 1)
    with pytest.raises(LabellingIntegrityError):
        induced_roots(ring_labelling("XYXYXY"), region)


def parallel_delta(region, d=D0):
    return RootDistribution({v: d for v in region.vertex_set()})


def seed_at(f0=Face.up(0, 0), f1=Face.down(0, 0), l0="X", l1="Y"):
    return ((f0, l0), (f1, l1))


def test_extend_parallel_hexagon():
    region = hexagon(P(0, 0), 3)
    delta = parallel_delta(region)
    labelling = extend(delta, region, seed_at())
    assert len(labelling) == len(region)
    assert validate(labelling, region)
    derived = induced_roots(labelling, region)
    assert all(derived[v] == D0 for v in derived.domain())
    assert check_even(labelling, region)


def test_extend_seed_swap_changes_labels_not_roots():
    region = hexagon(P(0, 0), 3)
    delta = parallel_delta(region)
    a = extend(delta, region, seed_at(l0="X", l1="Y"))
    b = extend(delta, region, seed_at(l0="Y", l1="X"))
    assert a != b
    assert validate(b, region)
    assert induced_roots(a, region) == induced_roots(b, region)


def test_extend_is_order_independent():
    region = hexagon(P(0, 0), 3)
    for d in (D0, D1, D2):
        delta = parallel_delta(region, d)
        a = extend(delta, region, seed_at())
        b = extend(delta, region, seed_at(), reverse_order=True)
        assert a == b


def test_extend_round_trip_through_labelling():
    region = hexagon(P(0, 0), 3)
    labelling = extend(parallel_delta(region), region, seed_at())
    derived = induced_roots(labelling, region)
    f0, f1 = Face.up(0, 0), Face.down(0, 0)
    again = extend(derived, region, ((f0, labelling[f0]), (f1, labelling[f1])))
    assert again == labelling


def test_extend_rejects_equal_seed_labels():
    region = hexagon(P(0, 0), 2)
    with pytest.raises(PuzzleContradiction):
        extend(parallel_delta(region), region, seed_at(l0="X", l1="X"))


def test_extend_rejects_bad_seeds():
    region = hexagon(P(0, 0), 2)
    delta = parallel_delta(region)
    with pytest.raises(ValueError):
        extend(delta, region, seed_at(f1=Face.up(1, 0)))  # not edge-adjacent
    with pytest.raises(ValueError):
        extend(delta, region, ((Face.up(9, 9), "X"), (Face.down(9, 9), "Y")))
    with pytest.raises(ValueError):
        extend(delta, region, seed_at(l0="Q"))


def test_extend_rejects_odd_delta():
    region = hexagon(P(0, 0), 1)
    bad = {v: D0 for v in region.vertex_set()}
    bad[P(0, 1)] = D1  # makes Up(0,0) odd
    with pytest.raises(ValueError):
        extend(RootDistribution(bad), region, seed_at())


def test_extend_reports_unreached_faces():
    # two far-apart hexagons as one region: the far one cannot be forced
    near = hexagon(P(0, 0), 1)
    far = hexagon(P(30, 0), 1)
    region = near.union(far)
    delta = parallel_delta(region)
    with pytest.raises(ExtensionStalled) as exc:
        extend(delta, region, seed_at(Face.up(0, 0), Face.down(-1, 0)))
    assert exc.value.unreached == far.faces


def test_extend_on_strip_union_window():
    region = rhombus(P(0, 0), 6, 6)
    rows = {b: (D1 if b % 2 else D2) for b in range(7)}
    window = build_strip_union(D0, rows, region)
    labelling = extend(window.delta, region, ((Face.up(2, 2), "Z"), (Face.down(2, 2), "Y")))
    assert len(labelling) == len(region)
    assert validate(labelling, region)
    assert check_even(labelling, region)
    derived = induced_roots(labelling, region)
    assert all(derived[v] == window.delta[v] for v in derived.domain())


def test_extend_from_any_pair_of_its_result_returns_it():
    """The forced labelling does not depend on where it is seeded: any two
    edge-adjacent faces of a result, with their labels, force that result
    again, in either visiting order."""
    rng = random.Random(4)
    hexagon4 = hexagon(P(0, 0), 4)
    rows = {a: (D0 if a % 3 else D2) for a in range(8)}
    strips = build_strip_union(D1, rows, rhombus(P(0, 0), 7, 7))
    t_flat = build_t_flat(P(0, 0), 4)
    windows = [
        (parallel_delta(hexagon4, D2), hexagon4, seed_at()),
        (strips.delta, strips.region, ((Face.up(3, 3), "X"), (Face.down(3, 3), "Z"))),
        (t_flat.delta, t_flat.region, seed_at(l0="Z", l1="X")),
    ]
    for delta, region, seed in windows:
        result = extend(delta, region, seed)
        pairs = [
            (f, g) for f in sorted(region.faces) for g in face_edge_neighbors(f)
            if g in region
        ]
        for f, g in rng.sample(pairs, 6):
            again = ((f, result[f]), (g, result[g]))
            assert extend(delta, region, again) == result
            assert extend(delta, region, again, reverse_order=True) == result


def test_check_even_requires_valid_labelling():
    region = hexagon(P(0, 0), 1)
    with pytest.raises(ValueError):
        check_even(ring_labelling("XYXYXY"), region)


def test_vertex_word_uses_ring_order():
    labelling = ring_labelling("XYXZYZ", P(2, -1))
    assert vertex_word(labelling, P(2, -1)) == "XYXZYZ"

"""Headline claims against a plain backtracker that shares no code with the
library's solver: no GAC, no compiled form, nothing from mkflats.realizer.

Vertices are (a, b) tuples, faces (a, b, "U"|"D") tuples and directions the
integers 0, 1, 2, as in the file formats of the README.
"""

from pathlib import Path

import pytest

import mkflats
from mkflats.distributions import ParityDistribution
from mkflats.lattice import AxialPoint, hexagon
from mkflats.realizer import enumerate_realizations

# Axis of the edge opposite each corner, corners in the README order:
# U(a,b) = (a,b), (a+1,b), (a,b+1); D(a,b) = (a+1,b), (a,b+1), (a+1,b+1).
_OPPOSITE = {"U": (2, 1, 0), "D": (0, 1, 2)}


def _corners(face):
    a, b, o = face
    if o == "U":
        return ((a, b), (a + 1, b), (a, b + 1))
    return ((a + 1, b), (a, b + 1), (a + 1, b + 1))


def _read_pdist(text):
    target = {}
    for line in text.splitlines():
        fields = line.split("#")[0].split()
        if fields:
            tag, a, b, o, p = fields
            assert tag == "F"
            target[int(a), int(b), o] = int(p)
    return target


def _search(target, limit=None):
    """Root distributions realizing ``target``, as (a, b) -> axis dicts in
    lexicographic order, and the number of values tried.  Vertices are set
    in ascending order and a face is checked once its last corner is set."""
    vertices = sorted({c for f in target for c in _corners(f)})
    index = {v: i for i, v in enumerate(vertices)}
    due = [[] for _ in vertices]
    for f, p in target.items():
        idx = [index[c] for c in _corners(f)]
        due[max(idx)].append((idx, _OPPOSITE[f[2]], p))
    values = [0] * len(vertices)
    found = []
    nodes = 0

    def extend(i):
        nonlocal nodes
        if i == len(vertices):
            found.append(dict(zip(vertices, values)))
            return limit is not None and len(found) >= limit
        for d in range(3):
            nodes += 1
            values[i] = d
            if all(
                sum(values[j] != o for j, o in zip(idx, opp)) % 2 == p
                for idx, opp, p in due[i]
            ) and extend(i + 1):
                return True
        return False

    extend(0)
    return found, nodes


def _bundled_counterexample():
    path = Path(mkflats.__file__).parent / "data" / "counterexample.pdist"
    return _read_pdist(path.read_text())


def test_bundled_counterexample_is_unsat_by_plain_backtracking():
    found, nodes = _search(_bundled_counterexample(), limit=1)
    assert found == []
    assert nodes == 62313


def test_deleting_any_one_odd_face_makes_it_sat_by_plain_backtracking():
    target = _bundled_counterexample()
    odd = sorted(f for f, p in target.items() if p == 1)
    assert len(odd) == 9
    for f in odd:
        reduced = {g: p for g, p in target.items() if g != f}
        (witness,), _ = _search(reduced, limit=1)
        assert all(
            sum(witness[c] != o for c, o in zip(_corners(g), _OPPOSITE[g[2]])) % 2 == p
            for g, p in reduced.items()
        )


def _hexagon_faces(radius):
    def near(v):
        return max(abs(v[0]), abs(v[1]), abs(v[0] + v[1])) <= radius

    return [
        (a, b, o)
        for a in range(-radius - 1, radius + 1)
        for b in range(-radius - 1, radius + 1)
        for o in "UD"
        if all(near(c) for c in _corners((a, b, o)))
    ]


@pytest.mark.parametrize("radius,count", [(3, 537), (4, 1923)])
def test_even_windows_of_the_hexagon_match_plain_enumeration(radius, count):
    expected, _ = _search({f: 0 for f in _hexagon_faces(radius)})
    assert len(expected) == count
    region = hexagon(AxialPoint(0, 0), radius)
    windows = enumerate_realizations(ParityDistribution.constant(region, 0), region)
    assert [
        {(v.a, v.b): int(d) for v, d in delta.items()} for delta in windows
    ] == expected

"""Text and JSON serialization of regions, distributions, and labellings."""

import json

import pytest

from mkflats import files
from mkflats.distributions import ParityDistribution, RootDistribution
from mkflats.lattice import AxialPoint, Direction, Face, Region, hexagon
from mkflats.pauli import PauliLabelling

P = AxialPoint


def test_region_round_trip():
    region = hexagon(P(-3, 5), 2)
    assert files.parse_region(files.region_text(region)) == region


def test_rdist_round_trip():
    delta = RootDistribution(
        {P(0, 0): Direction.D0, P(-2, 7): Direction.D2, P(3, -1): Direction.D1}
    )
    assert files.parse_rdist(files.rdist_text(delta)) == delta


def test_pdist_round_trip():
    parity = ParityDistribution({Face.up(0, 0): 1, Face.down(-4, 2): 0})
    assert files.parse_pdist(files.pdist_text(parity)) == parity


def test_pzl_round_trip():
    labelling = PauliLabelling({Face.up(1, 1): "X", Face.down(1, 1): "Z"})
    assert files.parse_pzl(files.pzl_text(labelling)) == labelling


def test_comments_and_blank_lines():
    text = "# a comment\n\nV 0 0 D0\n   \n# more\nV 1 0 D2\n"
    delta = files.parse_rdist(text)
    assert len(delta) == 2
    assert delta[P(1, 0)] == Direction.D2


def test_duplicate_records_rejected():
    with pytest.raises(files.FormatError):
        files.parse_rdist("V 0 0 D0\nV 0 0 D1\n")
    with pytest.raises(files.FormatError):
        files.parse_pdist("F 0 0 U 1\nF 0 0 U 1\n")
    with pytest.raises(files.FormatError):
        files.parse_region("F 0 0 U\nF 0 0 U\n")
    with pytest.raises(files.FormatError):
        files.parse_pzl("F 0 0 U X\nF 0 0 U Y\n")


@pytest.mark.parametrize(
    "text",
    [
        "V 0 0 D3\n",        # bad direction
        "V x 0 D0\n",        # bad integer
        "F 0 0 U\n",         # wrong record type for rdist
        "V 0 0\n",           # missing field
        "V 0 0 D0 extra\n",  # extra field
    ],
)
def test_rdist_malformed(text):
    with pytest.raises(files.FormatError):
        files.parse_rdist(text)


@pytest.mark.parametrize(
    "text",
    ["F 0 0 X 1\n", "F 0 0 U 2\n", "F 0 0 U q\n"],
)
def test_pdist_malformed(text):
    with pytest.raises(files.FormatError):
        files.parse_pdist(text)


def test_pzl_malformed():
    with pytest.raises(files.FormatError):
        files.parse_pzl("F 0 0 U W\n")


def test_empty_inputs():
    assert len(files.parse_region("")) == 0
    assert files.region_text(Region(frozenset())) == ""


def test_serialization_is_sorted_and_stable():
    delta = RootDistribution(
        {P(2, 0): Direction.D0, P(-1, 3): Direction.D1, P(2, -5): Direction.D2}
    )
    text = files.rdist_text(delta)
    assert text.splitlines() == ["V -1 3 D1", "V 2 -5 D2", "V 2 0 D0"]
    assert files.rdist_text(delta) == text


def test_json_lines_fields():
    parity = ParityDistribution({Face.up(0, 0): 1, Face.down(2, -1): 0})
    rows = [json.loads(line) for line in files.json_lines(parity).splitlines()]
    assert rows == [
        {"type": "F", "a": 0, "b": 0, "o": "U", "parity": 1},
        {"type": "F", "a": 2, "b": -1, "o": "D", "parity": 0},
    ]
    delta = RootDistribution({P(1, 2): Direction.D2})
    assert json.loads(files.json_lines(delta)) == {
        "type": "V", "a": 1, "b": 2, "direction": "D2",
    }
    assert json.loads(files.json_lines(delta, solution=3)) == {
        "type": "V", "a": 1, "b": 2, "direction": "D2", "solution": 3,
    }
    labelling = PauliLabelling({Face.up(0, 0): "Y"})
    assert json.loads(files.json_lines(labelling)) == {
        "type": "F", "a": 0, "b": 0, "o": "U", "label": "Y",
    }
    region = Region(frozenset({Face.down(0, 1)}))
    assert json.loads(files.json_lines(region)) == {
        "type": "F", "a": 0, "b": 1, "o": "D",
    }

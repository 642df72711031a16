"""Combinatorics of root and parity distributions on the triangular lattice."""

from .distributions import (
    ParityDistribution,
    RootDistribution,
    face_parity,
    induced_parity,
)
from .lattice import AxialPoint, Direction, Face, Orientation, Region, hexagon, rhombus
from .realizer import Sat, Unsat, enumerate_realizations, realize

__all__ = [
    "AxialPoint",
    "Direction",
    "Face",
    "Orientation",
    "Region",
    "hexagon",
    "rhombus",
    "RootDistribution",
    "ParityDistribution",
    "face_parity",
    "induced_parity",
    "realize",
    "enumerate_realizations",
    "Sat",
    "Unsat",
]

__version__ = "0.1.0"

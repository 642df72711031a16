"""Text file formats for regions, distributions, and face labellings.

All formats are ASCII, newline-delimited, whitespace-separated, one record
per line.  Lines starting with '#' are comments.  Duplicate keys are a load
error.  Serialization is sorted and deterministic.  ``json_lines`` writes the
same records as JSON lines with the same fields, and ``emit`` picks between
the two.

    region : F <a> <b> <U|D>
    .rdist : V <a> <b> <D0|D1|D2>
    .pdist : F <a> <b> <U|D> <0|1>
    .pzl   : F <a> <b> <U|D> <X|Y|Z>
"""

from __future__ import annotations

import json
from typing import Iterator

from .distributions import ParityDistribution, RootDistribution
from .lattice import AxialPoint, Direction, Face, Orientation, Region
from .linkgraph import LABELS
from .pauli import PauliLabelling


class FormatError(ValueError):
    """Malformed or inconsistent input text."""


# The record format of each type: the tag naming the key kind ("F" a face,
# "V" a vertex), the name of the value field (None for a bare region), the
# value tokens accepted, and how a value is written in JSON.
_SPECS = {
    Region: ("F", None, None, None),
    RootDistribution: ("V", "direction", {str(d): d for d in Direction}, str),
    ParityDistribution: ("F", "parity", {"0": 0, "1": 1}, int),
    PauliLabelling: ("F", "label", {lab: lab for lab in LABELS}, str),
}


def _int(s: str, lineno: int) -> int:
    try:
        return int(s)
    except ValueError:
        raise FormatError(f"line {lineno}: bad integer {s!r}") from None


def _parse(text: str, kind: type):
    tag, field, tokens, _ = _SPECS[kind]
    is_face = tag == "F"
    nfields = (4 if is_face else 3) + (field is not None)
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] != tag or len(fields) != nfields:
            raise FormatError(f"line {lineno}: expected '{tag}' record with "
                              f"{nfields} fields, got {line!r}")
        a, b = _int(fields[1], lineno), _int(fields[2], lineno)
        if is_face:
            try:
                key = Face(a, b, Orientation(fields[3]))
            except ValueError:
                raise FormatError(f"line {lineno}: orientation must be U or D, "
                                  f"got {fields[3]!r}") from None
        else:
            key = AxialPoint(a, b)
        value = None
        if field is not None:
            token = fields[-1]
            if token not in tokens:
                *rest, last = tokens
                raise FormatError(f"line {lineno}: {field} must be "
                                  f"{', '.join(rest)} or {last}, got {token!r}")
            value = tokens[token]
        if key in out:
            noun = "face" if is_face else "vertex"
            raise FormatError(f"line {lineno}: duplicate {noun} {key}")
        out[key] = value
    return Region(frozenset(out)) if kind is Region else kind(out)


def _records(obj) -> Iterator[dict]:
    """The records of ``obj`` in sorted order, fields in text-column order."""
    tag, field, _, to_json = _SPECS[type(obj)]
    entries = ((f, None) for f in obj) if field is None else obj.items()
    for key, value in entries:
        record = {"type": tag, "a": key.a, "b": key.b}
        if tag == "F":
            record["o"] = str(key.orientation)
        if field is not None:
            record[field] = to_json(value)
        yield record


def _text(obj) -> str:
    return "".join(" ".join(map(str, r.values())) + "\n" for r in _records(obj))


def json_lines(obj, **extra) -> str:
    """One sorted-key JSON object per record of ``obj``, with ``extra``
    fields added to each."""
    return "".join(json.dumps({**r, **extra}, sort_keys=True) + "\n" for r in _records(obj))


def emit(obj, fmt: str) -> str:
    """``obj`` in its text format, or as JSON lines when ``fmt`` is "json"."""
    return json_lines(obj) if fmt == "json" else _text(obj)


def parse_region(text: str) -> Region:
    return _parse(text, Region)


def parse_rdist(text: str) -> RootDistribution:
    return _parse(text, RootDistribution)


def parse_pdist(text: str) -> ParityDistribution:
    return _parse(text, ParityDistribution)


def parse_pzl(text: str) -> PauliLabelling:
    return _parse(text, PauliLabelling)


def region_text(region: Region) -> str:
    return _text(region)


def rdist_text(delta: RootDistribution) -> str:
    return _text(delta)


def pdist_text(parity: ParityDistribution) -> str:
    return _text(parity)


def pzl_text(labelling: PauliLabelling) -> str:
    return _text(labelling)

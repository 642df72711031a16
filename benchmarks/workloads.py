"""The benchmark's workloads: inputs made from a seed, jobs, and their checks.

A workload object is built by its set-up (timed as ``setup_s``) and then
hands out jobs forever, one pass after another.  A job's ``run`` is the
timed call into the library; its ``check`` compares the output with the
independent code in ``oracle`` and raises ``CheckFailed`` on a mismatch.
Library functions are looked up on their module at call time, so a traced
run measures them through the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Callable

import oracle
from tracing import verdict_kind


class CheckFailed(Exception):
    """A job's output disagrees with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


def own_delta(delta) -> dict:
    """A library RootDistribution as {(a, b): direction}."""
    return {(v.a, v.b): int(d) for v, d in delta.items()}


def own_faces(region) -> list:
    return [(f.a, f.b, f.orientation.value) for f in region.faces]


def own_parity(parity) -> dict:
    """A library ParityDistribution as {(a, b, "U"|"D"): parity}."""
    return {(f.a, f.b, f.orientation.value): p for f, p in parity.items()}


def _rng(seed: int, stream: int) -> random.Random:
    return random.Random(seed * 1_000_003 + stream)


class Repeats:
    """Outputs of jobs that recur in every pass must be identical each time."""

    def __init__(self):
        self._seen: dict = {}

    def check(self, key, signature) -> None:
        first = self._seen.setdefault(key, signature)
        expect(first == signature, f"{key}: output differs from the first pass")


# ---------------------------------------------------------------------------
# solve: the realizer, through the library and through the CLI.
# ---------------------------------------------------------------------------


class Solve:
    """Per pass: fresh seeded random realizable targets on hexagons of radius
    3-10, the nine criticality variants of the bundled pattern, the all-even
    hexagons of radius 6, 10 and 15, ``mk hexagon`` and
    ``mk counterexample --dozen``, shuffled."""

    RANDOM_TARGETS = 60
    COUNTEREXAMPLE_LINES = ["UNSAT", "nodes=287 propagations=6319", "disallowed dozen: confirmed"]

    def __init__(self, lib, seed: int, small: bool):
        self.lib = lib
        self.seed = seed
        self.random_targets = 6 if small else self.RANDOM_TARGETS
        self.radii = (3, 4, 5) if small else tuple(range(3, 11))
        self.repeats = Repeats()
        lattice, distributions = lib.lattice, lib.distributions
        bundled = lib.realizer.counterexample_parity()
        region = bundled.region()
        self.fixed = []
        for face, p in bundled.items():
            if p == 1:
                reduced = lattice.Region(region.faces - {face})
                target = distributions.ParityDistribution(
                    {g: bundled[g] for g in reduced.faces}
                )
                self.fixed.append(self._realize_job(f"critical {face}", target, reduced))
        for radius in (6,) if small else (6, 10, 15):
            hexagon = lattice.hexagon(lattice.AxialPoint(0, 0), radius)
            target = distributions.ParityDistribution.constant(hexagon, 0)
            self.fixed.append(self._realize_job(f"even r{radius}", target, hexagon))
        self.fixed.append(Job("mk hexagon", self._cli(["hexagon"]), self._expect_lines(["64/64 realizable"])))
        self.fixed.append(Job(
            "mk counterexample",
            self._cli(["counterexample", "--dozen"]),
            self._expect_lines(self.COUNTEREXAMPLE_LINES),
        ))
        self.pass_len = self.random_targets + len(self.fixed)
        self._first = self._pass(0)

    def jobs(self):
        yield from self._first
        n = 1
        while True:
            yield from self._pass(n)
            n += 1

    def _pass(self, n: int) -> list[Job]:
        rng = _rng(self.seed, n)
        jobs = [self._random_job(rng, self.radii[i % len(self.radii)]) for i in range(self.random_targets)]
        jobs += self.fixed
        rng.shuffle(jobs)
        return jobs

    def _random_job(self, rng: random.Random, radius: int) -> Job:
        lattice, distributions = self.lib.lattice, self.lib.distributions
        center = (rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        region = lattice.hexagon(lattice.AxialPoint(*center), radius)
        roots = distributions.RootDistribution(
            {v: lattice.Direction(rng.randrange(3)) for v in sorted(region.vertex_set())}
        )
        target = distributions.induced_parity(roots, region)
        job = self._realize_job("random", target, region)
        inner = job.check

        def check(outcome):
            delta = own_delta(roots)
            expect(
                own_parity(target) == {f: oracle.parity(delta, f) for f in oracle.hexagon(center, radius)},
                f"random target on radius {radius} differs from the oracle parity",
            )
            inner(outcome)

        job.check = check
        return job

    def _realize_job(self, name: str, target, region) -> Job:
        realizer = self.lib.realizer

        def run():
            return realizer.realize(target, region)

        def check(outcome):
            expect(isinstance(outcome, realizer.Sat), f"{name}: not realized")
            wanted = own_parity(target)
            delta = own_delta(outcome.witness)
            expect(sorted(delta) == oracle.vertices(wanted), f"{name}: witness does not cover the region")
            expect(
                all(oracle.parity(delta, f) == p for f, p in wanted.items()),
                f"{name}: witness does not induce its target",
            )
            if name != "random":
                self.repeats.check(name, tuple(sorted(delta.items())))

        return Job(name, run, check)

    def _cli(self, argv: list[str]) -> Callable[[], tuple[int, str]]:
        cli = self.lib.cli

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        return run

    @staticmethod
    def _expect_lines(lines: list[str]) -> Callable[[tuple[int, str]], None]:
        def check(result):
            code, text = result
            expect(code == 0 and text.splitlines() == lines, f"expected {lines}, got {code} {text!r}")

        return check


# ---------------------------------------------------------------------------
# census: every even window of one radius-4 hexagon, classified.
# ---------------------------------------------------------------------------


class Census:
    """Per pass: enumerate_realizations on the all-even radius-4 hexagon at a
    seeded centre, then EvenWindow + classify on each of its 1,923 windows in
    a seeded order.  Every window shares one Region."""

    WINDOWS = 1923
    # Regression value of the seed code; translation does not change it.
    HISTOGRAM = {"StripUnion": 1533, "TFlat": 84, "BoundaryAmbiguous": 96, "NoGliderNoRowStructure": 210}
    SMALL_STRIDE = 20

    def __init__(self, lib, seed: int, small: bool):
        self.lib = lib
        self.stride = self.SMALL_STRIDE if small else 1
        self.seed = seed
        rng = _rng(seed, 0)
        self.center = (rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        lattice = lib.lattice
        self.region = lattice.hexagon(lattice.AxialPoint(*self.center), 4)
        self.target = lib.distributions.ParityDistribution.constant(self.region, 0)
        self.faces = oracle.hexagon(self.center, 4)
        self.pass_len = 1 + len(range(0, self.WINDOWS, self.stride))
        self.repeats = Repeats()

    def jobs(self):
        n = 0
        while True:
            n += 1
            windows = []
            histogram = {}
            yield Job("enumerate", self._enumerate, lambda out: self._check_enumeration(out, windows))
            # A seeded order per pass, so that a run cut mid-pass times a
            # sample of the whole census rather than one stretch of it.
            order = list(range(0, len(windows), self.stride))
            _rng(self.seed, n).shuffle(order)
            for j, i in enumerate(order):
                last = j == len(order) - 1
                yield Job(
                    "classify",
                    lambda i=i: self._classify(windows[i][0]),
                    lambda verdict, i=i, last=last: self._check_verdict(verdict, windows[i][1], i, histogram, last),
                )

    def _enumerate(self):
        return self.lib.realizer.enumerate_realizations(self.target, self.region)

    def _classify(self, delta):
        classifier = self.lib.classifier
        return classifier.classify(classifier.EvenWindow(self.region, delta))

    def _check_enumeration(self, out, windows: list) -> None:
        owned = [own_delta(w) for w in out]
        expect(len(owned) == self.WINDOWS, f"{len(owned)} windows, expected {self.WINDOWS}")
        expect(len({tuple(sorted(d.items())) for d in owned}) == len(owned), "repeated window")
        for d in owned:
            expect(all(oracle.parity(d, f) == 0 for f in self.faces), "odd face in a window")
        windows.extend(zip(out, owned))

    def _check_verdict(self, verdict, delta: dict, i: int, histogram: dict, last: bool) -> None:
        kind = verdict_kind(verdict)
        histogram[kind] = histogram.get(kind, 0) + 1
        if kind == "StripUnion":
            axis = int(verdict.axis)
            assigned = {k: int(d) for k, d in verdict.row_assignment}
            expect(
                all(d != axis and assigned.get(oracle.row_index(v, axis)) == d for v, d in delta.items())
                and len(assigned) == len({oracle.row_index(v, axis) for v in delta}),
                f"window {i}: StripUnion rows do not reproduce delta",
            )
        elif kind == "NoGliderNoRowStructure":
            expect(oracle.strip_structure(delta) is None, f"window {i}: row structure missed")
        self.repeats.check(i, (kind, str(verdict)))
        if last and self.stride == 1:
            expect(histogram == self.HISTOGRAM, f"census histogram {histogram}")


# ---------------------------------------------------------------------------
# windows: fresh windows through the CLI-shaped pipeline.
# ---------------------------------------------------------------------------


class Windows:
    """Fresh seeded windows: a radius-8 t-flat at a random centre, then two
    14x14 strip-union rhombi with random axis and rows, over and over.  The
    1:2 mix keeps the median job inside one cost cluster.  Each job parses
    the region and .rdist text, classifies, extends a Pauli labelling from
    the least face and a neighbour, computes parity, renders SVG and emits
    .pzl text."""

    T_FLAT_RADIUS = 8
    STRIP_SIZE = 14

    def __init__(self, lib, seed: int, small: bool):
        self.lib = lib
        self.seed = seed
        self.pass_len = 3 if small else 15
        self._first = [self._window(i) for i in range(self.pass_len)]

    def jobs(self):
        i = 0
        while True:
            spec = self._first[i] if i < self.pass_len else self._window(i)
            yield Job(
                spec["expected"][0],
                lambda spec=spec: self._pipeline(spec),
                lambda out, spec=spec: self._check(out, spec),
            )
            i += 1

    def _window(self, i: int) -> dict:
        rng = _rng(self.seed, i)
        origin = (rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        if i % 3 == 0:
            faces, delta = oracle.t_flat_window(origin, self.T_FLAT_RADIUS)
            expected = ("TFlat", origin)
        else:
            faces, delta = oracle.strip_window(rng, origin, self.STRIP_SIZE, rng.randrange(3))
            expected = ("StripUnion", oracle.strip_structure(delta))
        if any(oracle.parity(delta, f) for f in faces):
            raise RuntimeError(f"generated window {i} is not even")
        return {
            "expected": expected,
            "faces": faces,
            "delta": delta,
            "region_text": oracle.region_text(faces),
            "rdist_text": oracle.rdist_text(delta),
        }

    def _pipeline(self, spec: dict) -> dict:
        lib = self.lib
        files, classifier, lattice = lib.files, lib.classifier, lib.lattice
        region = files.parse_region(spec["region_text"])
        delta = files.parse_rdist(spec["rdist_text"])
        window = classifier.EvenWindow(region, delta.restrict(region.vertex_set()))
        verdict = classifier.classify(window)
        first = next(iter(region))
        second = next(g for g in lattice.face_edge_neighbors(first) if g in region)
        labelling = lib.pauli.extend(delta, region, ((first, "X"), (second, "Y")))
        parity = lib.distributions.induced_parity(delta, region)
        svg = lib.render.render(region, parity, delta, labelling)
        pzl = files.pzl_text(labelling)
        return {"region": region, "delta": delta, "verdict": verdict, "labelling": labelling,
                "parity": parity, "svg": svg, "pzl": pzl}

    def _check(self, out: dict, spec: dict) -> None:
        lib = self.lib
        verdict, region, labelling = out["verdict"], out["region"], out["labelling"]
        kind, detail = spec["expected"]
        expect(verdict_kind(verdict) == kind, f"{kind} window classified {verdict}")
        if kind == "TFlat":
            expect((verdict.center.a, verdict.center.b) == detail and verdict.symmetry_checked,
                   f"t-flat at {detail} classified {verdict}")
        else:
            axis, rows = detail
            got = (int(verdict.axis), tuple((k, int(d)) for k, d in verdict.row_assignment))
            expect(got == (axis, rows), f"strip union on axis {axis} classified {verdict}")
        expect(sorted(own_faces(region)) == spec["faces"], "parsed region differs from its text")
        expect(own_delta(out["delta"]) == spec["delta"], "parsed rdist differs from its text")
        expect(
            own_parity(out["parity"]) == {f: 0 for f in spec["faces"]},
            "induced parity is not all even",
        )
        expect(lib.pauli.validate(labelling, region), "labelling fails validation")
        roots = own_delta(lib.pauli.induced_roots(labelling, region))
        expect(all(spec["delta"][v] == d for v, d in roots.items()) and roots,
               "labelling roots disagree with delta")
        expect(lib.files.parse_pzl(out["pzl"]) == labelling, ".pzl text does not round-trip")
        again = lib.render.render(region, out["parity"], out["delta"], labelling)
        expect(again == out["svg"], "SVG bytes differ between two renders")


WORKLOADS = {"solve": Solve, "census": Census, "windows": Windows}

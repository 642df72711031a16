"""The ``mk`` command line tool.

Every subcommand is a thin adapter over the library modules: file parsing,
argument handling, and printing live here, the mathematics does not.

Exit codes: 0 for a positive outcome (Sat, verified, generated), 1 for a
negative verdict reached normally (Unsat, check failed, undetermined, stalled
extension), 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import classifier, files, growth, linkgraph, pauli, realizer, render
from .distributions import MissingAssignment, ParityDistribution, induced_parity
from .lattice import AxialPoint, Direction, Face, Orientation, hexagon, rhombus


def _color(text: str, code: str) -> str:
    if os.environ.get("MK_COLOR") == "1":
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _good(text: str) -> str:
    return _color(text, "32")


def _bad(text: str) -> str:
    return _color(text, "31")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="ascii")


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _numbered(deltas, field: str, fmt: str) -> str:
    """Several root distributions as one stream: JSON lines carrying their
    index in ``field``, or text documents each headed ``# <field> <index>``."""
    if fmt == "json":
        return "".join(files.json_lines(d, **{field: i}) for i, d in enumerate(deltas))
    return "".join(f"# {field} {i}\n" + files.rdist_text(d) for i, d in enumerate(deltas))


def _direction(name: str) -> Direction:
    try:
        return Direction[name]
    except KeyError:
        raise files.FormatError(f"bad direction {name!r}, expected D0, D1 or D2") from None


def _parse_seed_face(a: str, b: str, o: str) -> Face:
    try:
        return Face(int(a), int(b), Orientation(o))
    except ValueError as exc:
        raise files.FormatError(f"bad seed face {a} {b} {o}: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommand implementations.
# ---------------------------------------------------------------------------


def _cmd_parity(args) -> int:
    delta = files.parse_rdist(_read(args.rdist))
    region = files.parse_region(_read(args.region))
    result = induced_parity(delta, region)
    _write_out(files.emit(result, args.format), args.out)
    return 0


def _cmd_realize(args) -> int:
    target = files.parse_pdist(_read(args.parity))
    region = target.region()
    if args.all or args.limit is not None:
        witnesses = realizer.enumerate_realizations(target, region, args.limit)
        if not witnesses:
            print("UNSAT")
            return 1
        _write_out(_numbered(witnesses, "solution", args.format), args.out)
        return 0
    outcome = realizer.realize(target, region)
    if isinstance(outcome, realizer.Sat):
        _write_out(files.emit(outcome.witness, args.format), args.out)
        return 0
    print("UNSAT")
    print(f"nodes={outcome.stats.nodes} propagations={outcome.stats.propagations}")
    return 1


def _cmd_counterexample(args) -> int:
    outcome = realizer.verify_counterexample()
    if isinstance(outcome, realizer.Unsat):
        print(_good("UNSAT"))
        print(f"nodes={outcome.stats.nodes} propagations={outcome.stats.propagations}")
        if args.dozen:
            ok = realizer.verify_disallowed_dozen()
            print(f"disallowed dozen: {_good('confirmed') if ok else _bad('FAILED')}")
            return 0 if ok else 1
        return 0
    print(_bad("SAT (unexpected: the bundled pattern should not be realizable)"))
    return 1


def _cmd_hexagon(_args) -> int:
    outcomes = realizer.hexagon_pattern_outcomes()
    sat = sum(1 for _, o in outcomes if isinstance(o, realizer.Sat))
    print(f"{sat}/{len(outcomes)} realizable")
    return 0 if sat == len(outcomes) else 1


def _cmd_link(args) -> int:
    g = linkgraph.pauli_cayley()
    if args.what == "ranks":
        roots = linkgraph.enumerate_roots(g)
        census: dict[Fraction, int] = {}
        for r in roots:
            rank = linkgraph.root_rank(g, r)
            census[rank] = census.get(rank, 0) + 1
        print(f"vertices={g.n} roots={len(roots)}")
        for rank in sorted(census):
            print(f"rank {rank}: {census[rank]}")
        return 0 if set(census) <= {Fraction(3, 2), Fraction(2)} else 1
    if args.what == "iso":
        if linkgraph.is_isomorphic(g, linkgraph.moebius_kantor()):
            print(_good("Cayley(P;X,Y,Z) ≅ GP(8,3)"))
            return 0
        print(_bad("Cayley graph is NOT isomorphic to GP(8,3)"))
        return 1
    ok = linkgraph.verify_relator_cycles(g) and linkgraph.verify_rank_label_lemma(g)
    print(f"relator 6-cycles and rank-label law: {_good('verified') if ok else _bad('FAILED')}")
    return 0 if ok else 1


def _cmd_pauli(args) -> int:
    region = files.parse_region(_read(args.region))
    if args.what == "validate":
        labelling = files.parse_pzl(_read(args.pzl))
        ok = pauli.validate(labelling, region)
        print("valid" if ok else "invalid")
        return 0 if ok else 1
    if args.what == "roots":
        labelling = files.parse_pzl(_read(args.pzl))
        delta = pauli.induced_roots(labelling, region)
        _write_out(files.emit(delta, args.format), args.out)
        return 0
    if args.what == "even":
        labelling = files.parse_pzl(_read(args.pzl))
        ok = pauli.check_even(labelling, region)
        print("even" if ok else "not even")
        return 0 if ok else 1
    # extend
    delta = files.parse_rdist(_read(args.rdist))
    s = args.seed
    seed = (
        (_parse_seed_face(s[0], s[1], s[2]), s[3]),
        (_parse_seed_face(s[4], s[5], s[6]), s[7]),
    )
    try:
        labelling = pauli.extend(delta, region, seed)
    except pauli.ExtensionStalled as exc:
        print(f"extension stalled: {exc}", file=sys.stderr)
        return 1
    _write_out(files.emit(labelling, args.format), args.out)
    return 0


def _cmd_classify(args) -> int:
    delta = files.parse_rdist(_read(args.rdist))
    region = files.parse_region(_read(args.region))
    window = classifier.EvenWindow(region, delta.restrict(region.vertex_set()))
    verdict = classifier.classify(window)
    if isinstance(verdict, classifier.TFlat):
        sym = "checked" if verdict.symmetry_checked else "unchecked"
        print(f"TFLAT center=({verdict.center.a},{verdict.center.b}) symmetry={sym}")
        return 0
    if isinstance(verdict, classifier.StripUnion):
        rows = ",".join(f"{k}:{d}" for k, d in verdict.row_assignment)
        print(f"STRIP_UNION axis={verdict.axis} rows={rows}")
        return 0
    print(f"UNDETERMINED reason={verdict.reason.value}")
    return 1


def _cmd_gen(args) -> int:
    if args.kind == "t-flat":
        window = classifier.build_t_flat(AxialPoint(*args.center), args.radius)
    elif args.kind == "strips":
        region = rhombus(AxialPoint(*args.origin), args.size[0], args.size[1])
        axis = _direction(args.axis)
        pattern = [_direction(tok) for tok in args.rows.split(",") if tok]
        if not pattern:
            raise files.FormatError("--rows needs at least one direction")
        rows = sorted({classifier.row_index(v, axis) for v in region.vertex_set()})
        assignment = {r: pattern[i % len(pattern)] for i, r in enumerate(rows)}
        window = classifier.build_strip_union(axis, assignment, region)
    else:  # even: seeded random even windows
        rng = random.Random(args.rng_seed)
        region = hexagon(AxialPoint(0, 0), args.radius)
        target = ParityDistribution.constant(region, 0)
        samples = []
        for _ in range(args.count):
            delta = realizer.sample_realization(target, region, rng)
            if delta is None:  # cannot happen: the all-even target is realizable
                raise RuntimeError("sampling failed on an all-even target")
            samples.append(delta)
        _write_out(_numbered(samples, "sample", args.format), args.out)
        if args.region_out:
            Path(args.region_out).write_text(files.region_text(region), encoding="utf-8")
        return 0
    _write_out(files.emit(window.delta, args.format), args.out)
    if args.region_out:
        Path(args.region_out).write_text(files.region_text(window.region), encoding="utf-8")
    return 0


def _cmd_growth(args) -> int:
    seed = growth.GrowthState(args.seed[0], args.seed[1])
    ok = growth.check_inequality(seed, args.steps)
    if args.table:
        print(f"{'n':>4} {'a':>12} {'b':>12} {'f':>14} {'margin':>14}")
        for k, a, b, f, m in growth.table(seed, args.steps):
            print(f"{k:>4} {a:>12} {b:>12} {f:>14} {m:>14}")
    verdict = "holds" if ok else "FAILS"
    print(f"exponent inequality for 2 <= n <= {args.steps}: "
          f"{_good(verdict) if ok else _bad(verdict)}")
    return 0 if ok else 1


def _cmd_render(args) -> int:
    region = files.parse_region(_read(args.region))
    parity = files.parse_pdist(_read(args.pdist)) if args.pdist else None
    roots = files.parse_rdist(_read(args.rdist)) if args.rdist else None
    labels = files.parse_pzl(_read(args.pzl)) if args.pzl else None
    layers = (
        frozenset(tok for tok in args.layers.split(",") if tok)
        if args.layers
        else render.DEFAULT_LAYERS
    )
    gliders = None
    if "gliders" in layers:
        if roots is None:
            raise files.FormatError("gliders layer needs --rdist")
        window = classifier.EvenWindow(region, roots.restrict(region.vertex_set()))
        gliders = classifier.find_gliders(window)
    spec = render.RenderSpec(scale=args.scale, epsilon=args.epsilon, layers=layers)
    _write_out(render.render(region, parity, roots, labels, gliders, spec), args.out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mk",
        description="Root and parity distributions on the triangular lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    def add_out(p):
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("parity", help="compute the parity distribution of a root distribution")
    p.add_argument("--rdist", required=True)
    p.add_argument("--region", required=True)
    add_format(p)
    add_out(p)
    p.set_defaults(func=_cmd_parity)

    p = sub.add_parser("realize", help="find root distributions inducing a parity file")
    p.add_argument("--parity", required=True, help=".pdist file; its faces are the region")
    p.add_argument("--all", action="store_true", help="enumerate all witnesses")
    p.add_argument("--limit", type=int, help="stop after this many witnesses")
    add_format(p)
    add_out(p)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("counterexample", help="rule out the bundled parity pattern exhaustively")
    p.add_argument("--dozen", action="store_true",
                   help="also refute each even corner assignment of the focus face")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("hexagon", help="realize all 64 parity patterns on the radius-1 hexagon")
    p.set_defaults(func=_cmd_hexagon)

    p = sub.add_parser("pauli", help="face labelling operations")
    p.add_argument("what", choices=("validate", "extend", "roots", "even"))
    p.add_argument("--region", required=True)
    p.add_argument("--pzl")
    p.add_argument("--rdist")
    p.add_argument("--seed", nargs=8, metavar=("A", "B", "O", "L", "A2", "B2", "O2", "L2"),
                   help="two adjacent seed faces with labels, e.g. 0 0 U X 0 0 D Y")
    add_format(p)
    add_out(p)
    p.set_defaults(func=_cmd_pauli)

    p = sub.add_parser("classify", help="classify an even window")
    p.add_argument("--rdist", required=True)
    p.add_argument("--region", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("gen", help="generate distributions")
    gen_sub = p.add_subparsers(dest="kind", required=True)

    q = gen_sub.add_parser("t-flat", help="the exceptional symmetric even window")
    q.add_argument("--radius", type=int, default=4)
    q.add_argument("--center", type=int, nargs=2, default=(0, 0), metavar=("A", "B"))
    q.add_argument("--region-out", help="also write the window region to this path")
    add_format(q)
    add_out(q)
    q.set_defaults(func=_cmd_gen, kind="t-flat")

    q = gen_sub.add_parser("strips", help="a strip-union even window")
    q.add_argument("--axis", required=True, help="strip axis, e.g. D0")
    q.add_argument("--rows", required=True,
                   help="comma-separated directions applied cyclically to rows, e.g. D1,D2")
    q.add_argument("--size", type=int, nargs=2, default=(8, 8), metavar=("W", "H"))
    q.add_argument("--origin", type=int, nargs=2, default=(0, 0), metavar=("A", "B"))
    q.add_argument("--region-out")
    add_format(q)
    add_out(q)
    q.set_defaults(func=_cmd_gen, kind="strips")

    q = gen_sub.add_parser("even", help="seeded random even windows")
    q.add_argument("--radius", type=int, default=3)
    q.add_argument("--count", type=int, default=1)
    q.add_argument("--rng-seed", type=int, default=0)
    q.add_argument("--region-out")
    add_format(q)
    add_out(q)
    q.set_defaults(func=_cmd_gen, kind="even")

    p = sub.add_parser("link", help="link graph checks")
    p.add_argument("what", choices=("ranks", "iso", "relators"))
    p.set_defaults(func=_cmd_link)

    p = sub.add_parser("growth", help="boundary growth recurrence table")
    p.add_argument("--seed", type=int, nargs=2, default=(1, 0), metavar=("A", "B"))
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("render", help="render region and distributions as SVG")
    p.add_argument("--region", required=True)
    p.add_argument("--pdist")
    p.add_argument("--rdist")
    p.add_argument("--pzl")
    p.add_argument("--scale", type=float, default=40.0)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--layers", help="comma list from faces,parity,roots,labels,gliders")
    add_out(p)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "pauli":
        if args.what in ("validate", "roots", "even") and not args.pzl:
            parser.error(f"pauli {args.what} requires --pzl")
        if args.what == "extend" and (not args.rdist or not args.seed):
            parser.error("pauli extend requires --rdist and --seed")
    try:
        return args.func(args)
    except (
        files.FormatError,
        MissingAssignment,
        ValueError,
        OSError,
        pauli.LabellingIntegrityError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

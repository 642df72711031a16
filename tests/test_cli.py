"""The mk command line tool, driven through main(argv)."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mkflats import files
from mkflats.cli import main
from mkflats.distributions import ParityDistribution, RootDistribution, face_parity
from mkflats.lattice import AxialPoint, Direction, Face, faces_around_vertex, hexagon
from mkflats.pauli import PauliLabelling
from mkflats.realizer import counterexample_parity

P, D = AxialPoint, Direction
SRC = Path(__file__).resolve().parents[1] / "src"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def region_file(tmp_path, region, name="r.region"):
    return write(tmp_path, name, files.region_text(region))


def rdist_file(tmp_path, delta, name="d.rdist"):
    return write(tmp_path, name, files.rdist_text(delta))


def test_hexagon_command(capsys):
    assert main(["hexagon"]) == 0
    assert capsys.readouterr().out.strip() == "64/64 realizable"


def test_counterexample_command(capsys):
    assert main(["counterexample", "--dozen"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "UNSAT"
    assert "nodes=" in out and "propagations=" in out
    assert "disallowed dozen: confirmed" in out


def test_link_commands(capsys):
    assert main(["link", "iso"]) == 0
    assert "Cayley(P;X,Y,Z) ≅ GP(8,3)" in capsys.readouterr().out
    assert main(["link", "ranks"]) == 0
    out = capsys.readouterr().out
    assert "vertices=16 roots=192" in out
    assert "rank 3/2: 96" in out and "rank 2: 96" in out
    assert main(["link", "relators"]) == 0
    assert "verified" in capsys.readouterr().out


def test_realize_sat_unsat_and_input_error(tmp_path, capsys):
    region = hexagon(P(0, 0), 1)
    even = ParityDistribution.constant(region, 0)
    sat_path = write(tmp_path, "even.pdist", files.pdist_text(even))
    out_path = str(tmp_path / "w.rdist")
    assert main(["realize", "--parity", sat_path, "--out", out_path]) == 0
    witness = files.parse_rdist((tmp_path / "w.rdist").read_text())
    assert len(witness) == 7

    unsat_path = write(
        tmp_path, "bad.pdist", files.pdist_text(counterexample_parity())
    )
    assert main(["realize", "--parity", unsat_path]) == 1
    out = capsys.readouterr().out
    assert "UNSAT" in out and "nodes=" in out

    assert main(["realize", "--parity", str(tmp_path / "missing.pdist")]) == 2
    assert "error:" in capsys.readouterr().err

    mangled = write(tmp_path, "mangled.pdist", "F 0 0 U 7\n")
    assert main(["realize", "--parity", mangled]) == 2


def test_realize_all_enumerates(tmp_path, capsys):
    f = Face.up(0, 0)
    target = ParityDistribution({f: 0})
    path = write(tmp_path, "one.pdist", files.pdist_text(target))
    assert main(["realize", "--parity", path, "--all"]) == 0
    out = capsys.readouterr().out
    assert out.count("# solution") == 13
    assert main(["realize", "--parity", path, "--limit", "4"]) == 0
    assert capsys.readouterr().out.count("# solution") == 4
    assert main(["realize", "--parity", path, "--limit", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err
    assert main(["realize", "--parity", path, "--all", "--format", "json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert {row["solution"] for row in rows} == set(range(13))
    assert all(row["type"] == "V" for row in rows)


def test_parity_command(tmp_path, capsys):
    region = hexagon(P(0, 0), 1)
    delta = RootDistribution({v: D.D0 for v in region.vertex_set()})
    rpath = region_file(tmp_path, region)
    dpath = rdist_file(tmp_path, delta)
    assert main(["parity", "--rdist", dpath, "--region", rpath]) == 0
    parsed = files.parse_pdist(capsys.readouterr().out)
    assert parsed == ParityDistribution.constant(region, 0)
    # JSON emission
    assert main(["parity", "--rdist", dpath, "--region", rpath, "--format", "json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert all(row["parity"] == 0 for row in rows)


def test_gen_t_flat_classify_round_trip(tmp_path, capsys):
    rdist = str(tmp_path / "t.rdist")
    region = str(tmp_path / "t.region")
    assert main(["gen", "t-flat", "--radius", "4", "--center", "2", "-1",
                 "--out", rdist, "--region-out", region]) == 0
    assert main(["classify", "--rdist", rdist, "--region", region]) == 0
    assert "TFLAT center=(2,-1) symmetry=checked" in capsys.readouterr().out


def test_gen_strips_classify_round_trip(tmp_path, capsys):
    rdist = str(tmp_path / "s.rdist")
    region = str(tmp_path / "s.region")
    assert main(["gen", "strips", "--axis", "D0", "--rows", "D1,D2",
                 "--size", "8", "8", "--out", rdist, "--region-out", region]) == 0
    assert main(["classify", "--rdist", rdist, "--region", region]) == 0
    out = capsys.readouterr().out
    assert out.startswith("STRIP_UNION axis=D0")
    assert "0:D1,1:D2" in out


def test_classify_small_window_exit_code(tmp_path, capsys):
    rdist = str(tmp_path / "p.rdist")
    region = str(tmp_path / "p.region")
    assert main(["gen", "t-flat", "--radius", "2", "--out", rdist,
                 "--region-out", region]) == 0
    assert main(["classify", "--rdist", rdist, "--region", region]) == 1
    assert "UNDETERMINED reason=WindowTooSmall" in capsys.readouterr().out


def test_gen_even_is_seeded_and_reproducible(tmp_path):
    a = str(tmp_path / "a.rdist")
    b = str(tmp_path / "b.rdist")
    args = ["gen", "even", "--radius", "2", "--count", "3", "--rng-seed", "11"]
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert (tmp_path / "a.rdist").read_bytes() == (tmp_path / "b.rdist").read_bytes()
    different = str(tmp_path / "c.rdist")
    assert main(["gen", "even", "--radius", "2", "--count", "3",
                 "--rng-seed", "12", "--out", different]) == 0
    assert (tmp_path / "c.rdist").read_bytes() != (tmp_path / "a.rdist").read_bytes()


def test_gen_even_json_is_json_lines(tmp_path, capsys):
    assert main(["gen", "even", "--radius", "2", "--count", "3", "--rng-seed", "5",
                 "--format", "json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    records = [json.loads(line) for line in lines]
    samples = [r["sample"] for r in records]
    assert samples == sorted(samples)
    assert sorted(set(samples)) == [0, 1, 2]
    vertices = len(hexagon(P(0, 0), 2).vertex_set())
    assert len(records) == 3 * vertices
    text = str(tmp_path / "e.rdist")
    assert main(["gen", "even", "--radius", "2", "--count", "3", "--rng-seed", "5",
                 "--out", text]) == 0
    chunks = (tmp_path / "e.rdist").read_text().split("# sample ")[1:]
    for i, chunk in enumerate(chunks):
        index, body = chunk.split("\n", 1)
        delta = files.parse_rdist(body)
        assert int(index) == i
        assert sorted(delta.items()) == sorted(
            (P(r["a"], r["b"]), D[r["direction"]]) for r in records if r["sample"] == i
        )


def test_classify_on_a_sample_stream_names_the_duplicate_vertex(tmp_path, capsys):
    rdist = str(tmp_path / "even.rdist")
    region = str(tmp_path / "even.region")
    assert main(["gen", "even", "--radius", "3", "--count", "3", "--rng-seed", "5",
                 "--out", rdist, "--region-out", region]) == 0
    assert main(["classify", "--rdist", rdist, "--region", region]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line ")
    assert err.rstrip().endswith("duplicate vertex (-3,0)")


def test_pauli_commands(tmp_path, capsys):
    region = hexagon(P(0, 0), 2)
    delta = RootDistribution({v: D.D0 for v in region.vertex_set()})
    rpath = region_file(tmp_path, region)
    dpath = rdist_file(tmp_path, delta)
    pzl = str(tmp_path / "p.pzl")
    assert main(["pauli", "extend", "--region", rpath, "--rdist", dpath,
                 "--seed", "0", "0", "U", "X", "0", "0", "D", "Y",
                 "--out", pzl]) == 0
    assert main(["pauli", "validate", "--region", rpath, "--pzl", pzl]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    assert main(["pauli", "even", "--region", rpath, "--pzl", pzl]) == 0
    assert capsys.readouterr().out.strip() == "even"
    assert main(["pauli", "roots", "--region", rpath, "--pzl", pzl]) == 0
    derived = files.parse_rdist(capsys.readouterr().out)
    assert all(derived[v] == D.D0 for v in derived.domain())


def test_pauli_extend_stalled_is_a_negative_verdict(tmp_path, capsys):
    # two far-apart hexagons as one region: the far one cannot be forced
    region = hexagon(P(0, 0), 1).union(hexagon(P(30, 0), 1))
    delta = RootDistribution({v: D.D0 for v in region.vertex_set()})
    rpath = region_file(tmp_path, region)
    dpath = rdist_file(tmp_path, delta)
    out = str(tmp_path / "p.pzl")
    assert main(["pauli", "extend", "--region", rpath, "--rdist", dpath,
                 "--seed", "0", "0", "U", "X", "-1", "0", "D", "Y", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "extension stalled: 6 faces could not be forced: "
        "D(29,-1), D(29,0), U(29,0), D(30,-1)...\n"
    )
    assert "error:" not in captured.err
    assert not (tmp_path / "p.pzl").exists()


def test_pauli_extend_names_the_least_odd_face_under_any_hash_seed(tmp_path):
    # Face hashes go through the str enum Orientation, so they change with
    # PYTHONHASHSEED and so does the iteration order of region.faces.
    region = hexagon(P(0, 0), 3)
    rng = random.Random(3)
    delta = RootDistribution({v: rng.choice(list(D)) for v in sorted(region.vertex_set())})
    least = min(f for f in region.faces if face_parity(delta, f))
    argv = ["pauli", "extend", "--region", region_file(tmp_path, region),
            "--rdist", rdist_file(tmp_path, delta), "--seed", "0", "0", "U", "X", "0", "0", "D", "Y"]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    errors = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run([sys.executable, "-m", "mkflats.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        errors.append(proc.stderr)
    assert errors == [f"error: root distribution is not even on face {least}\n"] * 2


def test_pauli_roots_invalid_vertex_word_is_an_input_error(tmp_path, capsys):
    region = hexagon(P(0, 0), 1)
    labels = PauliLabelling(dict(zip(faces_around_vertex(P(0, 0)), "XYXYXY")))
    rpath = region_file(tmp_path, region)
    pzl = write(tmp_path, "bad.pzl", files.pzl_text(labels))
    assert main(["pauli", "roots", "--region", rpath, "--pzl", pzl]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid vertex word 'XYXYXY'")


def test_pauli_missing_flags_exit_2(tmp_path):
    region = region_file(tmp_path, hexagon(P(0, 0), 1))
    with pytest.raises(SystemExit) as exc:
        main(["pauli", "validate", "--region", region])
    assert exc.value.code == 2


def test_growth_command(capsys):
    assert main(["growth", "--seed", "1", "0", "--steps", "6", "--table"]) == 0
    out = capsys.readouterr().out
    assert "   2            6            3             18             12" in out
    assert "holds" in out


def test_render_command_deterministic(tmp_path, capsys, monkeypatch):
    region = hexagon(P(0, 0), 1)
    delta = RootDistribution({v: D.D0 for v in region.vertex_set()})
    rpath = region_file(tmp_path, region)
    dpath = rdist_file(tmp_path, delta)
    a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    assert main(["render", "--region", rpath, "--rdist", dpath, "--out", a]) == 0
    # MK_COLOR must never change SVG bytes
    monkeypatch.setenv("MK_COLOR", "1")
    assert main(["render", "--region", rpath, "--rdist", dpath, "--out", b]) == 0
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    svg = (tmp_path / "a.svg").read_text()
    assert svg.count("<line ") == 7 and ">1</text>" not in svg


def test_mk_color_wraps_terminal_output(capsys, monkeypatch):
    monkeypatch.setenv("MK_COLOR", "1")
    assert main(["link", "iso"]) == 0
    assert "\x1b[32m" in capsys.readouterr().out
    monkeypatch.delenv("MK_COLOR")
    assert main(["link", "iso"]) == 0
    assert "\x1b[" not in capsys.readouterr().out


def test_render_gliders_requires_rdist(tmp_path, capsys):
    region = region_file(tmp_path, hexagon(P(0, 0), 2))
    assert main(["render", "--region", region, "--layers", "faces,gliders"]) == 2
    assert "gliders layer needs --rdist" in capsys.readouterr().err


def test_rdist_missing_a_region_vertex_is_an_input_error(tmp_path, capsys):
    region = hexagon(P(0, 0), 4)
    vertices = sorted(region.vertex_set())
    delta = RootDistribution({v: D.D0 for v in vertices[1:]})
    rpath = region_file(tmp_path, region)
    dpath = rdist_file(tmp_path, delta)
    missing = "error: no direction assigned at vertex (-4,0)\n"
    assert main(["classify", "--rdist", dpath, "--region", rpath]) == 2
    assert capsys.readouterr().err == missing
    assert main(["render", "--region", rpath, "--rdist", dpath, "--layers", "gliders"]) == 2
    assert capsys.readouterr().err == missing

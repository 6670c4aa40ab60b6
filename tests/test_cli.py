"""Command line interface: outputs, exit codes, determinism."""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

PAIR_JSON = '{"multiholes":[{"kind":"E","q":"1","indices":[0],"anchor":[0,0]},{"kind":"W","q":"1","indices":[0],"anchor":[6,0]}]}'
CHARGED_JSON = '{"multiholes":[{"kind":"E","q":"1","indices":[0],"anchor":[0,0]},{"kind":"W","q":"1","indices":[0],"anchor":[12,0]},{"kind":"E","q":"1","indices":[0],"anchor":[4,9]}]}'
LIMIT_JSON = json.dumps(
    {
        "positives": [{"x": 0.0, "y": 0.0, "size": 1}],
        "negatives": [{"x": 2.0, "y": 0.0, "size": 1}],
        "probe": {"x": 0.25, "y": 1.5},
        "q": "1",
    }
)


def run(*args):
    return subprocess.run(
        [sys.executable, "-m", "lozenge.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture
def pair_file(tmp_path):
    p = tmp_path / "pair.json"
    p.write_text(PAIR_JSON)
    return str(p)


@pytest.fixture
def oracle_pair_file(tmp_path):
    """E(-3,0), W(3,0): the benchmark's oracle pair."""
    p = tmp_path / "oracle-pair.json"
    p.write_text('{"multiholes":[{"kind":"E","q":"1","indices":[0],"anchor":[-3,0]},'
                 '{"kind":"W","q":"1","indices":[0],"anchor":[3,0]}]}')
    return str(p)


@pytest.fixture
def limit_file(tmp_path):
    p = tmp_path / "limit.json"
    p.write_text(LIMIT_JSON)
    return str(p)


def test_coupling_value():
    res = run("coupling", "--x", "0", "--y", "0")
    assert res.returncode == 0
    assert "1/3 + 0*(sqrt3/pi)" in res.stdout


def test_coupling_table(tmp_path):
    out = tmp_path / "table.csv"
    res = run("coupling-table", "--range", "2", "--out", str(out))
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,p_num,p_den,r_num,r_den,float"
    assert len(lines) == 1 + 25
    row = dict(zip(lines[0].split(","), lines[13].split(",")))
    assert float(row["float"]) == pytest.approx(
        int(row["p_num"]) / int(row["p_den"])
        + int(row["r_num"]) / int(row["r_den"]) * 0.5513288954217920,
        abs=1e-12,
    )


def test_field_csv(pair_file, tmp_path):
    out = tmp_path / "field.csv"
    res = run("field", "--holes", pair_file, "--probes", "grid:2,0,3,1", "--out", str(out))
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a,b,p1,p2,p3,Fx,Fy,exactness"
    assert len(lines) == 5
    vals = lines[1].split(",")
    assert float(vals[2]) + float(vals[3]) + float(vals[4]) == pytest.approx(1.0, abs=1e-10)


def test_field_reports_probes_inside_a_hole(pair_file, tmp_path):
    # the benchmark's charged grid: 5 of its 441 probes lie inside a hole
    charged = tmp_path / "charged.json"
    charged.write_text(CHARGED_JSON)
    out = tmp_path / "charged.csv"
    res = run("field", "--holes", str(charged), "--probes", "grid:-5,-5,15,15", "--out", str(out))
    assert res.returncode == 0
    assert res.stderr == "field: skipped 5 of 441 probes (inside a hole)\n"
    assert len(out.read_text().splitlines()) == 1 + 436
    # no probe of the pair grid is inside a hole, so nothing is reported
    res = run("field", "--holes", pair_file, "--probes", "grid:2,0,3,1", "--out", str(out))
    assert res.returncode == 0
    assert res.stderr == ""


def test_verify_subcommands_exit_zero():
    for what in ("lemma33", "lemma34"):
        res = run("verify", what, "--trials", "5", "--seed", "3")
        assert res.returncode == 0, (what, res.stdout, res.stderr)
        assert "max residual" in res.stdout


@pytest.mark.parametrize("alias", ["field-identity", "block-shift", "border-shift"])
def test_removed_verify_alias_exit_code(capsys, alias):
    # each check has one name, the paper's; an old alias is argparse's invalid choice
    from lozenge.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["verify", alias, "--trials", "5"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_verify_circulation():
    res = run("verify", "circulation")
    assert res.returncode == 0
    assert res.stdout == "circulation: max residual = 2.1316282072803006e-14 over 5 cases\n"


def test_converge_decreasing(limit_file, tmp_path):
    out = tmp_path / "conv.csv"
    res = run("converge", "--holes", limit_file, "--R-list", "8,16,32", "--out", str(out))
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("R,")
    errs = [float(l.split(",")[-1]) for l in lines[1:]]
    assert errs[0] > errs[1] > errs[2]


THREE_JSON = json.dumps(
    {
        "positives": [{"x": 0, "y": 0}, {"x": 0, "y": 3}],
        "negatives": [{"x": 3, "y": 0}],
        "probe": {"x": 1.25, "y": 1},
    }
)


@pytest.mark.parametrize("config, scales", [(THREE_JSON, "384,768"), (LIMIT_JSON, "1024,2048")],
                         ids=["three-charges", "golden-pair"])
def test_converge_at_moderate_scale(tmp_path, config, scales):
    # the numerators' coefficients pass the float range long before their values do
    path = tmp_path / "limit.json"
    path.write_text(config)
    res = run("converge", "--holes", str(path), "--R-list", scales)
    assert res.returncode == 0, res.stderr
    assert len(res.stdout.splitlines()) == 3


def _no_field(*args):
    raise AssertionError("a field was evaluated")


@pytest.mark.parametrize("positive, probe, scales", [
    ((1e300, 0.0), (0.25, 1.5), [8]),
    ((0.0, 0.0), (0.25, -1e300), [8]),
    ((0.0, 0.0), (0.25, 1.5), [8, 2 ** 16]),  # the second scale puts the probe at 98304
], ids=["charge", "probe", "second-scale"])
def test_converge_rejects_coordinates_beyond_the_bound(monkeypatch, positive, probe, scales):
    # a charge at x = 1e300 once got the process killed: every scale is
    # placed and checked before any field is evaluated
    from lozenge import convergence
    from lozenge.continuum import Charge, LimitConfig, Probe

    monkeypatch.setattr(convergence, "discrete_field", _no_field)
    cfg = LimitConfig((Charge(*positive),), (Charge(2.0, 0.0),), Probe(*probe))
    with pytest.raises(ValueError, match="beyond 65536"):
        convergence.field_convergence_table(cfg, scales)


def test_lattice_placement_bound_is_inclusive():
    from lozenge.continuum import Charge, LimitConfig
    from lozenge.convergence import MAX_SCALED_COORDINATE, lattice_system_at_scale

    def placed(x):
        return lattice_system_at_scale(LimitConfig((Charge(x, 0.0),), ()), 2)

    assert placed(MAX_SCALED_COORDINATE / 2).tri_holes()[0].a == MAX_SCALED_COORDINATE
    assert placed(-MAX_SCALED_COORDINATE / 2).tri_holes()[0].a == -MAX_SCALED_COORDINATE
    with pytest.raises(ValueError):
        placed(MAX_SCALED_COORDINATE / 2 + 0.5)


def test_converge_huge_coordinate_exit_code(capsys, monkeypatch, tmp_path):
    from lozenge import convergence

    monkeypatch.setattr(convergence, "discrete_field", _no_field)
    path = tmp_path / "limit.json"
    path.write_text(json.dumps({**json.loads(LIMIT_JSON), "negatives": [{"x": 1e300, "y": 0.0}]}))
    err = _config_error(capsys, "converge", "--holes", str(path), "--R-list", "8,16")
    assert "beyond 65536" in err


def test_coulomb_grid(limit_file, tmp_path):
    out = tmp_path / "coulomb.csv"
    res = run("coulomb", "--config", limit_file, "--grid", "3,3,4,4,2,2", "--R", "1",
              "--out", str(out))
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,Fx,Fy"
    assert len(lines) == 5


def test_surface_obj(pair_file, tmp_path):
    out = tmp_path / "surf.obj"
    res = run("surface", "--holes", pair_file, "--window=-6,-14,14,6",
              "--R", "8", "--sheets", "2", "--out", str(out), "--compare")
    assert res.returncode == 0
    assert "residual" in res.stdout
    assert "max_abs" in res.stdout
    text = out.read_text()
    assert text.startswith("#")
    assert " -7.000000000000 " in text or "v " in text


def test_oracle_count_and_compare(pair_file):
    res = run("oracle", "count", "--region", "hex:2,2,2")
    assert res.returncode == 0
    assert res.stdout.strip() == "20"
    res = run("oracle", "compare", "--region", "hex:6,6,6", "--lozenge", "0,0,1")
    assert res.returncode == 0
    assert "gap" in res.stdout


def test_bad_config_exit_code(tmp_path):
    missing = str(tmp_path / "nope.json")
    res = run("field", "--holes", missing, "--probes", "grid:0,0,1,1")
    assert res.returncode == 2


def _config_error(capsys, *argv):
    from lozenge.cli import main

    rc = main(list(argv))
    captured = capsys.readouterr()
    assert rc == 2, argv
    assert captured.out == ""
    assert captured.err.startswith("configuration error:"), captured.err
    assert "Traceback" not in captured.err
    return captured.err


def test_oracle_compare_without_lozenge_exit_code(capsys):
    _config_error(capsys, "oracle", "compare", "--region", "hex:3,3,3")


# (the command, a flag it never reads, a value for it)
UNREAD_FLAGS = [
    (("oracle", "count", "--region", "hex:2,2,2"), "--lozenge", "0,1,1"),
    *[(("verify", what), "--limit", "3")
      for what in ("identity31", "lemma33", "lemma34", "circulation")],
    *[(("verify", what), flag, "100")
      for what in ("symmetries", "circulation") for flag in ("--trials", "--seed")],
]


@pytest.mark.parametrize("before, flag, value", UNREAD_FLAGS,
                         ids=[f"{before[1]}{flag}" for before, flag, _ in UNREAD_FLAGS])
def test_flag_the_subcommand_never_reads_exit_code(capsys, before, flag, value):
    # such a flag used to be ignored: oracle count printed 20, verify
    # circulation ran its 5 cases and verify lemma33 exited 0
    command = " ".join(before[:2])
    err = _config_error(capsys, *before, flag, value)
    assert err == f"configuration error: {flag} does not apply to {command}\n"


@pytest.mark.parametrize("what", ["identity31", "lemma33", "lemma34"])
@pytest.mark.parametrize("trials", ["0", "-5"])
def test_nonpositive_trials_exit_code(capsys, what, trials):
    _config_error(capsys, "verify", what, "--trials", trials)


@pytest.mark.parametrize("grid", ["0,0,1,1,0,3", "0,0,1,1,3,-1"])
def test_empty_coulomb_grid_exit_code(capsys, limit_file, tmp_path, grid):
    out = tmp_path / "coulomb.csv"
    _config_error(capsys, "coulomb", "--config", limit_file, "--grid", grid, "--out", str(out))
    assert not out.exists()


@pytest.mark.parametrize("R", ["0", "-1", "nan"])
def test_nonpositive_coulomb_scale_exit_code(capsys, limit_file, tmp_path, R):
    # R = 0 used to skip every grid point, R = -1 to flip every sign
    out = tmp_path / "coulomb.csv"
    _config_error(capsys, "coulomb", "--config", limit_file, "--grid", "0,1,1,2,2,2",
                  "--R", R, "--out", str(out))
    assert not out.exists()


@pytest.mark.parametrize("R", ["0", "-8"])
def test_nonpositive_surface_compare_scale_exit_code(capsys, pair_file, tmp_path, R):
    # R = 0 used to write the mesh and then exit 3, R = -8 to compare against
    # the configuration reflected through the origin
    out = tmp_path / "s.obj"
    _config_error(capsys, "surface", "--holes", pair_file, "--window=-6,-14,14,6", "--R", R,
                  "--sheets", "2", "--out", str(out), "--compare")
    assert not out.exists()


@pytest.mark.parametrize("scales, named", [("-4", "-4"), ("0", "0"), ("8,-2,0", "-2"),
                                           *((s, f"'{s}'") for s in ("8,x", "8,,16", "8.5", ""))])
def test_nonpositive_converge_scale_exit_code(capsys, limit_file, tmp_path, scales, named):
    # -4 used to print the reflected configuration's row, 0 to blame a hole; a
    # scale that is no integer used to name neither the flag nor its shape
    out = tmp_path / "conv.csv"
    err = _config_error(capsys, "converge", "--holes", limit_file, "--R-list", scales,
                        "--out", str(out))
    assert err.startswith("configuration error: --R-list "), err
    assert err.rstrip().endswith(f"got {named}"), err
    assert not out.exists()


OVERLAPPING_HOLES = {
    "east-west": [("E", 0, 0), ("W", 0, 0)],
    "shifted": [("E", 0, 0), ("E", 1, 0), ("W", 12, 0), ("W", 13, 0)],
    "doubled": [("E", 0, 0), ("E", 0, 0), ("W", 6, 0), ("W", 6, 0)],
}


@pytest.mark.parametrize("holes", OVERLAPPING_HOLES.values(), ids=OVERLAPPING_HOLES.keys())
def test_overlapping_holes_exit_code(capsys, tmp_path, holes):
    # east-west used to print probabilities, the other two to exit 3
    path = tmp_path / "holes.json"
    path.write_text(json.dumps({"multiholes": [
        {"kind": k, "q": "1", "indices": [0], "anchor": [a, b]} for k, a, b in holes]}))
    out = tmp_path / "s.obj"
    for argv in (("field", "--holes", str(path), "--probes", "grid:2,0,3,1"),
                 ("surface", "--holes", str(path), "--window=-6,-14,20,6", "--out", str(out)),
                 ("oracle", "compare", "--region", "hex:8,8,8", "--holes", str(path),
                  "--lozenge", "0,3,1")):
        err = _config_error(capsys, *argv)
        assert "overlaps another hole" in err, argv
    assert not out.exists()


OVERLAPPING_LIMITS = {
    "east-west": ([(0.0, 0.0)], [(0.02, 0.0)]),
    "two-positives": ([(0.0, 0.0), (0.01, 0.0)], []),
}


@pytest.mark.parametrize("positives, negatives", OVERLAPPING_LIMITS.values(),
                         ids=OVERLAPPING_LIMITS.keys())
def test_converge_overlapping_holes_exit_code(capsys, tmp_path, positives, negatives):
    # at R = 8 both charges round to one anchor: east-west used to print a
    # table, two-positives to exit 3 on a vanishing hole correlation
    path = tmp_path / "limit.json"
    path.write_text(json.dumps({
        "positives": [{"x": x, "y": y} for x, y in positives],
        "negatives": [{"x": x, "y": y} for x, y in negatives],
        "probe": {"x": 0.25, "y": 1.5},
    }))
    out = tmp_path / "conv.csv"
    err = _config_error(capsys, "converge", "--holes", str(path), "--R-list", "8,16",
                        "--out", str(out))
    assert "overlaps another hole" in err
    assert not out.exists()


def test_surface_compare_puts_a_helicoid_at_each_hole(capsys, tmp_path):
    # both multiholes are anchored at (0, 0) but their holes sit at (0, 0)
    # and (3, -6); the compare used to put both helicoids at the anchor and
    # exit 2 on coincident points after writing the mesh
    from lozenge.cli import main

    path = tmp_path / "holes.json"
    path.write_text(json.dumps({"multiholes": [
        {"kind": "E", "q": "1", "indices": [0], "anchor": [0, 0]},
        {"kind": "W", "q": "-2", "indices": [3], "anchor": [0, 0]},
    ]}))
    out = tmp_path / "s.obj"
    assert main(["surface", "--holes", str(path), "--window=-6,-14,14,6", "--R", "8",
                 "--out", str(out), "--compare"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    residual, report = captured.out.splitlines()
    assert residual.startswith("residual = ")
    assert sorted(json.loads(report)) == ["grad_max_rel", "max_abs", "mean_abs"]


def _holes_file(tmp_path, *holes):
    path = tmp_path / "holes.json"
    path.write_text(json.dumps({"multiholes": [
        {"kind": kind, "q": "1", "indices": [0], "anchor": [a, b]} for kind, a, b in holes]}))
    return str(path)


def test_surface_compare_needs_no_probe(capsys, tmp_path):
    # the compare used to build a limit configuration with a probe at
    # (1e6, 1e6), which the charges of E(1,1) hit at R = 1e-6
    from lozenge.cli import main

    holes = _holes_file(tmp_path, ("E", 1, 1), ("W", 9, 1))
    out = tmp_path / "s.obj"
    assert main(["surface", "--holes", holes, "--window=-6,-14,20,6", "--R", "0.000001",
                 "--out", str(out), "--compare"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and len(captured.out.splitlines()) == 2 and out.exists()
    # no node's limit gradient reaches GRAD_FLOOR, so no gradient error was measured
    assert json.loads(captured.out.splitlines()[1])["grad_max_rel"] is None


def test_failing_compare_writes_nothing(capsys, tmp_path):
    # at R = 64 every node of this window lies within an exclusion disk; the
    # comparison fails before the mesh or the residual is written
    holes = _holes_file(tmp_path, ("E", 0, 0), ("W", 32, 0))
    out = tmp_path / "s.obj"
    err = _config_error(capsys, "surface", "--holes", holes, "--window=-4,-36,36,4",
                        "--R", "64", "--compare", "--out", str(out))
    assert err == "configuration error: no nodes outside the exclusion disks\n"
    assert not out.exists()


def test_failed_export_leaves_no_temporary_file(capsys, tmp_path):
    # --out names an existing directory: the command exits 2 naming the flag
    # before the surface is built (the rename used to fail after it), and
    # leaves no temporary OBJ beside it
    holes = _holes_file(tmp_path, ("E", 0, 0), ("W", 6, 0))
    out = tmp_path / "D"
    out.mkdir()
    (out / "keep").write_text("kept\n")
    err = _config_error(capsys, "surface", "--holes", holes, "--window=-6,-14,14,6",
                        "--out", str(out))
    assert err == f"configuration error: --out {str(out)!r}: Is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["D", "holes.json"]
    assert out.is_dir() and [p.name for p in out.iterdir()] == ["keep"]
    assert (out / "keep").read_text() == "kept\n"


def test_surface_out_dash_is_a_configuration_error(capsys, monkeypatch, pair_file, tmp_path):
    # used to exit 0 and leave an OBJ named "-" in the working directory
    import lozenge.surface

    calls = []
    monkeypatch.setattr(lozenge.surface, "average_surface", lambda *a: calls.append(a))
    monkeypatch.chdir(tmp_path)
    err = _config_error(capsys, "surface", "--holes", pair_file, "--window=-6,-14,14,6",
                        "--out", "-", "--compare")
    assert err == ("configuration error: --out must name a file: "
                   "stdout carries the residual and compare lines\n")
    assert calls == [] and not (tmp_path / "-").exists()


def test_failed_open_names_the_output_path(tmp_path):
    # the error used to name the temporary file, <out>.tmp; the CLI refuses a
    # missing directory before export, so export_mesh is called directly
    from lozenge.lattice import EMPTY_SYSTEM
    from lozenge.surface import Window, average_surface, export_mesh

    out = tmp_path / "nodir" / "x.obj"
    with pytest.raises(FileNotFoundError) as exc:
        export_mesh(average_surface(EMPTY_SYSTEM, Window(-2, -2, 2, 2)), 1, str(out))
    assert str(exc.value) == f"[Errno 2] No such file or directory: {str(out)!r}"
    assert list(tmp_path.iterdir()) == []


def test_surface_out_symlink_writes_its_target(capsys, pair_file, tmp_path):
    # the rename used to replace the link with a regular file and leave its
    # target's old bytes in place
    from lozenge.cli import main

    target, link, plain = tmp_path / "target.obj", tmp_path / "link.obj", tmp_path / "plain.obj"
    target.write_text("old\n")
    link.symlink_to("target.obj")
    for out in (link, plain):
        assert main(["surface", "--holes", pair_file, "--window=-6,-14,14,6", "--out", str(out)]) == 0
    assert link.is_symlink() and os.readlink(link) == "target.obj"
    assert target.read_bytes() == plain.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.obj", "pair.json", "plain.obj",
                                                        "target.obj"]


def test_surface_out_fifo_is_a_configuration_error(capsys, monkeypatch, pair_file, tmp_path):
    # the rename used to replace the FIFO with a regular file; the FIFO is never opened
    import lozenge.surface

    calls = []
    monkeypatch.setattr(lozenge.surface, "average_surface", lambda *a: calls.append(a))
    fifo = tmp_path / "f.obj"
    os.mkfifo(fifo)
    err = _config_error(capsys, "surface", "--holes", pair_file, "--window=-6,-14,14,6",
                        "--out", str(fifo))
    assert err == f"configuration error: --out {str(fifo)!r}: Not a regular file\n"
    assert calls == [] and fifo.is_fifo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.obj", "pair.json"]


def test_surface_out_in_a_missing_directory_is_a_configuration_error(capsys, monkeypatch, pair_file,
                                                                     tmp_path):
    # export_mesh used to fail on <out>.tmp only after the whole surface was built
    import lozenge.surface

    calls = []
    monkeypatch.setattr(lozenge.surface, "average_surface", lambda *a: calls.append(a))
    out = tmp_path / "missing" / "s.obj"
    err = _config_error(capsys, "surface", "--holes", pair_file, "--window=-6,-14,14,6",
                        "--out", str(out))
    assert err == f"configuration error: --out {str(out)!r}: No such directory\n"
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pair.json"]


def test_surface_scale_without_compare_is_a_configuration_error(capsys, monkeypatch, pair_file,
                                                               tmp_path):
    # --R is read only by --compare; it used to be ignored, and the command exited 0
    import lozenge.surface

    calls = []
    monkeypatch.setattr(lozenge.surface, "average_surface", lambda *a: calls.append(a))
    out = tmp_path / "x.obj"
    err = _config_error(capsys, "surface", "--holes", pair_file, "--window=-6,-14,14,6",
                        "--R", "-5", "--out", str(out))
    assert err == "configuration error: --R does not apply to surface without --compare\n"
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("window", ["44,20,-12,-52", "-12,20,44,-52", "44,-52,-12,20"])
def test_reversed_surface_window_names_the_flag(capsys, pair_file, tmp_path, window):
    # a reversed a-range used to blame a hole triangle for leaving the window
    out = tmp_path / "s.obj"
    err = _config_error(capsys, "surface", "--holes", pair_file, f"--window={window}",
                        "--out", str(out))
    assert err == (f"configuration error: empty --window {window!r}: "
                   "need a0 <= a1 and b0 <= b1\n")
    assert not out.exists()


def test_surface_without_an_eastward_cut_exit_code(capsys, tmp_path):
    # E(1,1) blocks all four eastward strips from E(0,0) (two starts, two phases)
    holes = _holes_file(tmp_path, ("E", 0, 0), ("E", 1, 1))
    out = tmp_path / "s.obj"
    err = _config_error(capsys, "surface", "--holes", holes, "--window=-6,-14,14,6",
                        "--out", str(out))
    assert err == ("configuration error: no clear eastward cut for hole "
                   "TriHole(kind='E', a=0, b=0)\n")
    assert not out.exists()


def test_surface_compare_matches_benchmark_reference(tmp_path):
    # the benchmark's surface-pair command, against its recorded OBJ digest
    # and compare line: the helicoids the tests check are the ones it prints
    reference = pathlib.Path(__file__).parents[1] / "perfbench" / "reference"
    with open(reference / "surface-pair.compare.txt", "rb") as fh:
        want_compare = fh.read()
    with open(reference / "surface-pair.obj.sha256", "rb") as fh:
        want_sha = fh.read().decode().strip()
    holes = _holes_file(tmp_path, ("E", 0, 0), ("W", 32, 0))
    out = tmp_path / "surface.obj"
    res = subprocess.run(
        [sys.executable, "-m", "lozenge.cli", "surface", "--holes", holes,
         "--window=-12,-52,44,20", "--R", "16", "--sheets", "2", "--out", str(out), "--compare"],
        capture_output=True, timeout=600,
    )
    assert res.returncode == 0
    assert res.stdout.splitlines(keepends=True)[1] == want_compare
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want_sha


@pytest.mark.parametrize("sheets", ["0", "-2"])
def test_nonpositive_sheets_exit_code(capsys, monkeypatch, pair_file, tmp_path, sheets):
    # used to build the whole surface before export_mesh refused the count
    import lozenge.surface

    calls = []
    monkeypatch.setattr(lozenge.surface, "average_surface", lambda *a: calls.append(a))
    out = tmp_path / "s.obj"
    _config_error(capsys, "surface", "--holes", pair_file, "--window=-6,-14,14,6",
                  "--sheets", sheets, "--out", str(out))
    assert not out.exists() and calls == []


@pytest.mark.parametrize("argv", [
    ("coupling", "--x", "{n}", "--y", "1"),  # reduced to n = MAX_CLOSED_FORM_N + 1
    ("field", "--holes", "{holes}", "--probes", "grid:2,0,2,0"),  # holes that far apart
], ids=["coupling", "field"])
def test_coupling_beyond_the_closed_form_bound_exit_code(tmp_path, argv):
    # far beyond the bound one value ran for minutes and took gigabytes; the timeout
    # turns such a regression into a failure
    from lozenge.coupling import MAX_CLOSED_FORM_N

    holes = _holes_file(tmp_path, ("E", 0, 0), ("W", MAX_CLOSED_FORM_N + 1, 0))
    res = subprocess.run([sys.executable, "-m", "lozenge.cli",
                          *(a.format(n=MAX_CLOSED_FORM_N, holes=holes) for a in argv)],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("configuration error: coupling at reduced point (")
    assert res.stderr.endswith(f" exceeds the closed form's bound {MAX_CLOSED_FORM_N}\n")


def test_coupling_float_flag(capsys):
    from lozenge.cli import main

    assert main(["coupling", "--x", "0", "--y", "0", "--float"]) == 0
    assert capsys.readouterr().out == "0.33333333333333331\n"
    with pytest.raises(SystemExit) as exc:  # --exact was a no-op and is gone
        main(["coupling", "--x", "0", "--y", "0", "--exact"])
    assert exc.value.code == 2


def test_negative_symmetry_limit_exit_code(capsys):
    _config_error(capsys, "verify", "symmetries", "--limit", "-3")
    from lozenge.cli import main

    assert main(["verify", "symmetries", "--limit", "0"]) == 0
    assert capsys.readouterr().out.startswith("symmetries: max residual = ")


@pytest.mark.parametrize("limit", ["262145", "600000"])
def test_symmetry_limit_beyond_the_closed_form_bound_exit_code(capsys, limit):
    # the orbit of (L, L) reaches n = 2L, so L = MAX_CLOSED_FORM_N // 2 is the largest limit;
    # the check runs before any coupling is evaluated
    err = _config_error(capsys, "verify", "symmetries", "--limit", limit)
    assert err == (f"configuration error: --limit must be at most 262144, whose couplings stay "
                   f"within the closed form's bound, got {limit}\n")


class _Prefilled(Exception):
    pass


def test_coupling_table_range_beyond_the_closed_form_bound_exit_code(capsys, monkeypatch):
    # (R, R) reduces to n = 2R; prefill used to build all (2R+1)**2 points before the refusal,
    # so neither range may run without the stub
    import lozenge.cli

    def prefill(points):
        raise _Prefilled

    monkeypatch.setattr(lozenge.cli, "prefill", prefill)
    err = _config_error(capsys, "coupling-table", "--range", "262145")
    assert err == ("configuration error: --range must be at most 262144, whose couplings stay "
                   "within the closed form's bound, got 262145\n")
    with pytest.raises(_Prefilled):
        lozenge.cli.main(["coupling-table", "--range", "262144"])


def test_coupling_table_out_in_a_missing_directory_exits_before_prefill(capsys, monkeypatch, tmp_path):
    # the output is opened before any coupling is evaluated
    import lozenge.cli

    def prefill(points):
        raise _Prefilled

    monkeypatch.setattr(lozenge.cli, "prefill", prefill)
    out = tmp_path / "missing" / "table.csv"
    err = _config_error(capsys, "coupling-table", "--range", "2", "--out", str(out))
    assert err == f"configuration error: [Errno 2] No such file or directory: {str(out)!r}\n"


# each CSV command and the function that computes its rows
_CSV_COMMANDS = {
    "field": ("lozenge.correlation", "discrete_fields",
              ("field", "--holes", "{pair}", "--probes", "grid:2,0,3,1")),
    "coulomb": ("lozenge.continuum", "coulomb_field",
                ("coulomb", "--config", "{limit}", "--grid", "3,3,4,4,2,2")),
    "converge": ("lozenge.convergence", "field_convergence_table",
                 ("converge", "--holes", "{limit}", "--R-list", "4,8")),
}


@pytest.mark.parametrize("command", list(_CSV_COMMANDS))
def test_csv_out_that_cannot_be_written_exits_before_computing(capsys, monkeypatch, pair_file,
                                                               limit_file, tmp_path, command):
    # the open used to fail with [Errno 2] only after every row was computed
    import importlib

    from lozenge.cli import main

    module, name, argv = _CSV_COMMANDS[command]

    def compute(*args):
        raise _Prefilled

    monkeypatch.setattr(importlib.import_module(module), name, compute)
    argv = [a.format(pair=pair_file, limit=limit_file) for a in argv]
    directory = tmp_path / "D"
    directory.mkdir()
    missing = tmp_path / "missing" / "out.csv"
    err = _config_error(capsys, *argv, "--out", str(directory))
    assert err == f"configuration error: --out {str(directory)!r}: Is a directory\n"
    err = _config_error(capsys, *argv, "--out", str(missing))
    assert err == f"configuration error: --out {str(missing)!r}: No such directory\n"
    assert list(directory.iterdir()) == [] and not missing.parent.exists()
    with pytest.raises(_Prefilled):  # a writable --out reaches the stub
        main([*argv, "--out", str(tmp_path / "out.csv")])


def test_csv_out_may_be_a_fifo(capsys, limit_file, tmp_path):
    # unlike surface's OBJ, which is renamed into place, a CSV may go straight to a pipe
    import threading

    from lozenge.cli import main

    fifo = tmp_path / "c.csv"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    try:
        rc = main(["coulomb", "--config", limit_file, "--grid", "3,3,4,4,2,2", "--out", str(fifo)])
    finally:
        reader.join(timeout=60)
    assert rc == 0 and not reader.is_alive()
    assert got[0].splitlines()[0] == "x,y,Fx,Fy" and len(got[0].splitlines()) == 5
    assert capsys.readouterr().out == ""


def test_coupling_table_streams_its_rows(tmp_path):
    # holding every row before writing peaked at 6.2 MB traced
    from lozenge.cli import main

    tracemalloc.start()
    try:
        assert main(["coupling-table", "--range", "60", "--out", str(tmp_path / "t.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000, peak
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 1 + 121 ** 2


def test_coupling_table_file_and_stdout_are_the_same_bytes(capsys, tmp_path):
    from lozenge.cli import main

    out = tmp_path / "t.csv"
    assert main(["coupling-table", "--range", "4", "--out", str(out)]) == 0
    assert main(["coupling-table", "--range", "4", "--out", "-"]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize("grid", ["grid:3,0,1,2", "grid:0,3,1,2"])
def test_empty_probe_grid_exit_code(capsys, pair_file, tmp_path, grid):
    out = tmp_path / "field.csv"
    _config_error(capsys, "field", "--holes", pair_file, "--probes", grid, "--out", str(out))
    assert not out.exists()


# flag -> (argv before it, its shape, a valid value); each wrong count used to
# report only "not enough values to unpack" or "too many values to unpack",
# and a value that is no number "invalid literal for int() with base 10: 'a'"
COMMA_SPECS = {
    "--probes": (("field", "--holes", "{pair}"), "grid:x0,y0,x1,y1", "grid:2,0,3,1"),
    "--window": (("surface", "--holes", "{pair}", "--out", "{out}"), "a0,b0,a1,b1",
                 "-6,-14,14,6"),
    "--region": (("oracle", "count"), "hex:a,b,c", "hex:2,2,2"),
    "--lozenge": (("oracle", "compare", "--region", "hex:3,3,3"), "x,y,direction", "0,0,1"),
    "--grid": (("coulomb", "--config", "{limit}", "--out", "{out}"), "x0,y0,x1,y1,nx,ny",
               "0,1,1,2,2,2"),
}


@pytest.mark.parametrize("count", ["too-few", "too-many", "non-numeric"])
@pytest.mark.parametrize("flag", sorted(COMMA_SPECS))
def test_comma_spec_with_a_wrong_count_names_the_flag(capsys, pair_file, limit_file, tmp_path,
                                                      flag, count):
    before, shape, good = COMMA_SPECS[flag]
    out = tmp_path / "out"
    spec = {"too-few": good.rsplit(",", 1)[0], "too-many": good + ",1",
            "non-numeric": good.rsplit(",", 1)[0] + ",a"}[count]
    argv = [a.format(pair=pair_file, limit=limit_file, out=out) for a in before]
    err = _config_error(capsys, *argv, f"{flag}={spec}")
    assert err == f"configuration error: {flag} must look like {shape}, got {spec!r}\n"
    assert not out.exists()


def _limit(**charge):
    return {"positives": [{"x": 0, "y": 0, **charge}], "probe": {"x": 1, "y": 1}}


_HOLE = {"kind": "E", "q": "1", "indices": [0], "anchor": [0, 0]}
_FIELD = ("field", "--holes", "{path}", "--probes", "grid:2,0,3,1")
_COULOMB = ("coulomb", "--config", "{path}", "--grid", "0,1,1,2,2,2")
_CONVERGE = ("converge", "--holes", "{path}", "--R-list", "8")

# id -> (JSON written to {path}, argv); each used to exit 0 or 1
MALFORMED_INPUTS = {
    "hole-index-0.5": ({"multiholes": [{**_HOLE, "indices": [0.5]}]}, _FIELD),
    "hole-anchor-0.5": ({"multiholes": [{**_HOLE, "anchor": [0.5, 0]}]}, _FIELD),
    "holes-top-level-list": ([_HOLE], _FIELD),
    "coulomb-size-0": (_limit(size=0), _COULOMB),
    "coulomb-size-negative": (_limit(size=-1), _COULOMB),
    "coulomb-size-1.5": (_limit(size=1.5), _COULOMB),
    "converge-size-0": (_limit(size=0), _CONVERGE),
    "converge-size-1.5": (_limit(size=1.5), _CONVERGE),
    "coulomb-residue-0.5": (_limit(alpha=0.5), _COULOMB),
    "coulomb-x-string": (_limit(x="a"), _COULOMB),
    "coulomb-top-level-list": ([{"x": 0, "y": 0}], _COULOMB),
    "coupling-table-range-negative": (None, ("coupling-table", "--range", "-2")),
    "coulomb-grid-nx-2.5": (_limit(), ("coulomb", "--config", "{path}", "--grid", "0,0,1,1,2.5,2")),
    "holes-entry-int": ({"multiholes": [1]}, _FIELD),
    "hole-q-list": ({"multiholes": [{**_HOLE, "q": [1]}]}, _FIELD),
    "coulomb-positives-int": ({"positives": [1], "probe": {"x": 1, "y": 1}}, _COULOMB),
    "coulomb-x-list": (_limit(x=[1]), _COULOMB),
    # malformed numbers: each of these used to exit 0 or 3
    "hole-q-zero-denominator": ({"multiholes": [{**_HOLE, "q": "1/0"}]}, _FIELD),
    "hole-q-infinite": ({"multiholes": [{**_HOLE, "q": math.inf}]}, _FIELD),
    "coulomb-q-zero-denominator": ({**_limit(), "q": "1/0"}, _COULOMB),
    "converge-q-zero-denominator": ({**_limit(), "q": "1/0"}, _CONVERGE),
    "coulomb-x-nan": (_limit(x=math.nan), _COULOMB),
    "coulomb-x-infinite": (_limit(x=math.inf), _COULOMB),
    "coulomb-probe-nan": ({**_limit(), "probe": {"x": 1, "y": math.nan}}, _COULOMB),
    "converge-x-infinite": (_limit(x=-math.inf), _CONVERGE),
    "converge-probe-infinite": ({**_limit(), "probe": {"x": math.inf, "y": 1}}, _CONVERGE),
    "coulomb-grid-infinite": (_limit(), ("coulomb", "--config", "{path}", "--grid=0,0,inf,1,2,2")),
    "coulomb-grid-nan": (_limit(), ("coulomb", "--config", "{path}", "--grid=0,nan,1,1,2,2")),
    "coulomb-R-infinite": (_limit(), (*_COULOMB, "--R", "inf")),
    # JSON booleans are not numbers: each of these used to read true as 1
    "hole-anchor-true": ({"multiholes": [{**_HOLE, "anchor": [True, 0]}]}, _FIELD),
    "hole-index-true": ({"multiholes": [{**_HOLE, "indices": [True]}]}, _FIELD),
    "hole-q-true": ({"multiholes": [{**_HOLE, "q": True}]}, _FIELD),
    "coulomb-x-true": (_limit(x=True), _COULOMB),
    "coulomb-size-true": (_limit(size=True), _COULOMB),
    "converge-probe-false": ({**_limit(), "probe": {"x": 1, "y": False}}, _CONVERGE),
    # probe residues are read like charge residues, and a coordinate must be a JSON number
    "coulomb-probe-residue-junk": (
        {**_limit(), "probe": {"x": 0.25, "y": 1.5, "alpha": "junk", "beta": 1.5}}, _COULOMB),
    "converge-probe-residue-1.5": ({**_limit(), "probe": {"x": 0.25, "y": 1.5, "beta": 1.5}},
                                   _CONVERGE),
    "coulomb-x-numeric-string": (_limit(x="0.25"), _COULOMB),
    "hole-kind-N": ({"multiholes": [{**_HOLE, "kind": "N"}]}, _FIELD),
    "hole-anchor-triple": ({"multiholes": [{**_HOLE, "anchor": [0, 0, 0]}]}, _FIELD),
    # each object's keys are its type's fields: the first four used to read a default and exit 0
    "coulomb-charge-sise": (_limit(sise=2), _COULOMB),
    "hole-anchr": ({"multiholes": [{"kind": "E", "q": "1", "indices": [0], "anchr": [1, 1]}]},
                   _FIELD),
    "coulomb-hole-system": ({"multiholes": [_HOLE]}, _COULOMB),
    "converge-hole-system": ({"multiholes": [_HOLE]}, _CONVERGE),
    "hole-without-q": ({"multiholes": [{"kind": "E", "indices": [0]}]}, _FIELD),
    # an empty multihole used to read as no hole and exit 0
    "hole-indices-empty": ({"multiholes": [{**_HOLE, "indices": []}]}, _FIELD),
}
# id -> the key its message names
NAMED_KEYS = {"coulomb-charge-sise": "unknown keys ['sise']", "hole-anchr": "unknown keys ['anchr']",
              "coulomb-hole-system": "unknown keys ['multiholes']",
              "converge-hole-system": "unknown keys ['multiholes']",
              "hole-without-q": "missing keys ['q']", "hole-anchor-triple": "anchor [0, 0, 0]"}


def _malformed(capsys, tmp_path, data, argv) -> str:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return _config_error(capsys, *(a.format(path=path) for a in argv))


@pytest.mark.parametrize("data, argv", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_malformed_input_exit_code(capsys, tmp_path, data, argv):
    _malformed(capsys, tmp_path, data, argv)


@pytest.mark.parametrize("name", NAMED_KEYS)
def test_malformed_input_names_the_key(capsys, tmp_path, name):
    assert NAMED_KEYS[name] in _malformed(capsys, tmp_path, *MALFORMED_INPUTS[name])


@pytest.mark.parametrize("argv", [
    ("field", "--holes", "{path}", "--probes", "grid:0,0,1,1"),
    ("coulomb", "--config", "{path}", "--grid", "0,0,1,1,2,2"),
    ("converge", "--holes", "{path}", "--R-list", "8"),
    ("oracle", "count", "--region", "hex:2,2,2", "--holes", "{path}"),
], ids=["field", "coulomb", "converge", "oracle"])
def test_deeply_nested_json_exit_code(capsys, tmp_path, argv):
    # json.loads used to raise RecursionError, a traceback and exit 1; raw
    # text, since json.dumps cannot nest this deep either
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    err = _config_error(capsys, *(a.format(path=path) for a in argv))
    assert err == f"configuration error: {path}: JSON is nested too deeply\n"


@pytest.mark.parametrize("argv", [("field", "--probes", "grid:5,5,6,6"),
                                  ("oracle", "compare", "--region", "hex:8,8,8", "--lozenge", "3,1,1")])
def test_vanishing_hole_correlation_exit_code(capsys, tmp_path, argv):
    # D is exact, so a vanishing one is fixed by the input, as a region without tilings is
    from lozenge import correlation, oracle

    holes = _holes_file(tmp_path, ("E", 0, 0), ("E", 1, 1), ("E", 2, -1))
    err = _config_error(capsys, *argv, "--holes", holes)
    assert err == "configuration error: correlation of the hole system vanishes\n"
    assert correlation.ZeroDenominator is oracle.ZeroDenominator


def test_oracle_count_nonpositive_side_exit_code(capsys):
    err = _config_error(capsys, "oracle", "count", "--region", "hex:0,1,1")
    assert err == "configuration error: side lengths must be positive\n"


def test_integral_float_charge_size_reads_as_integer(capsys, tmp_path):
    from lozenge.cli import main

    outs = []
    for size in (2, 2.0):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(_limit(size=size)))
        assert main([a.format(path=path) for a in _COULOMB]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and len(outs[0].splitlines()) == 1 + 4


@pytest.mark.parametrize("side", [8, 16])
def test_oracle_compare_without_tilings_exit_code(capsys, tmp_path, side):
    # one E hole unbalances the hexagon; the command line fixes the region,
    # so a region with no tilings is a configuration error
    from lozenge.cli import main

    path = tmp_path / "holes.json"
    path.write_text(json.dumps({"multiholes": [_HOLE]}))
    region = ("--region", f"hex:{side},{side},{side}", "--holes", str(path))
    err = _config_error(capsys, "oracle", "compare", *region, "--lozenge", "0,3,1")
    assert err == "configuration error: region has no tilings\n"
    assert main(["oracle", "count", *region]) == 0
    assert capsys.readouterr().out == "0\n"


def test_oracle_compare_outside_lozenge_exit_code(capsys, tmp_path):
    # the exact (hex:8) and float (hex:16) probabilities reject a lozenge
    # outside the region the same way, before the balance check
    path = tmp_path / "holes.json"
    path.write_text(json.dumps({"multiholes": [_HOLE]}))
    errs = [_config_error(capsys, "oracle", "compare", "--region", f"hex:{side},{side},{side}",
                          "--holes", str(path), "--lozenge", "40,40,1") for side in (8, 16)]
    assert errs == ["configuration error: removed triangles are not inside the region\n"] * 2


def test_determinism_byte_identical(pair_file, limit_file, tmp_path):
    commands = [
        ("coupling", "--x", "3", "--y", "-5"),
        ("coupling-table", "--range", "2", "--out", "-"),
        ("field", "--holes", pair_file, "--probes", "grid:2,0,3,1", "--out", "-"),
        ("verify", "identity31", "--trials", "5", "--seed", "11"),
        ("coulomb", "--config", limit_file, "--grid", "3,3,4,4,2,2", "--out", "-"),
    ]
    for cmd in commands:
        a = run(*cmd)
        b = run(*cmd)
        assert a.returncode == b.returncode == 0, cmd
        assert a.stdout == b.stdout, cmd


def test_surface_file_determinism(pair_file, tmp_path):
    out1, out2 = tmp_path / "s1.obj", tmp_path / "s2.obj"
    args = ("surface", "--holes", pair_file, "--window=-6,-14,14,6")
    assert run(*args, "--out", str(out1)).returncode == 0
    assert run(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_worker_pool_does_not_change_output(pair_file, tmp_path):
    # no code reads LOZENGE_THREADS, so a setting left over from older
    # releases changes nothing; the charged three-hole run takes the exact
    # float rounding path, whose shared fixed-point value of sqrt(3)/pi is
    # the state a thread pool once could race on
    import os

    charged = tmp_path / "charged.json"
    charged.write_text(CHARGED_JSON)
    env = dict(os.environ)
    env["LOZENGE_THREADS"] = "4"
    for holes in (pair_file, str(charged)):
        args = [sys.executable, "-m", "lozenge.cli", "field", "--holes", holes,
                "--probes", "grid:2,0,4,2", "--out", "-"]
        threaded = subprocess.run(args, capture_output=True, env=env, timeout=600)
        serial = subprocess.run(args, capture_output=True, timeout=600)
        assert threaded.returncode == serial.returncode == 0
        assert threaded.stdout == serial.stdout
        assert len(serial.stdout.splitlines()) == 1 + 9


def test_coulomb_reports_skipped_points(limit_file):
    # the grid's ends sit on the two charges; stdout keeps the one good row
    res = run("coulomb", "--config", limit_file, "--grid", "0,0,2,0,3,1", "--out", "-")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["x,y,Fx,Fy", "1,0,0.95492965855137202,0.47746482927568601"]
    err = res.stderr.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("coulomb: skipped 2 of 3 grid points (")
    assert "CoincidentPoints" in err[0]


@pytest.mark.parametrize("probe", [None, {"x": 0, "y": 0}, {"x": 2, "y": 0}, {"x": 1, "y": 1}],
                         ids=["default", "first-charge", "second-charge", "off-charges"])
def test_coulomb_never_reads_the_files_probe(capsys, tmp_path, probe):
    # the grid points are the probes: a probe on a charge, given or by default, used to exit 2
    from lozenge.cli import main

    data = {"positives": [{"x": 0, "y": 0}], "negatives": [{"x": 2, "y": 0}]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data if probe is None else {**data, "probe": probe}))
    assert main(["coulomb", "--config", str(path), "--grid", "0,0,2,0,3,1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "x,y,Fx,Fy\n1,0,0.95492965855137202,0.47746482927568601\n"
    assert captured.err == ("coulomb: skipped 2 of 3 grid points (1 x CoincidentPoints: points "
                            "(0.0, 0.0) coincide; 1 x CoincidentPoints: points (2.0, 0.0) coincide)\n")
    if probe is None or probe["x"] != 1:  # converge reads the probe, so it still refuses it
        err = _config_error(capsys, "converge", "--holes", str(path), "--R-list", "8")
        assert err.endswith(" coincide\n")


def test_coulomb_coincident_charges_exit_code(capsys, tmp_path):
    # two charges at one point fail at every grid point: a bad configuration, not a skip
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"positives": [{"x": 0, "y": 0}, {"x": 0, "y": 0}],
                                "negatives": [{"x": 2, "y": 0}], "probe": {"x": 1, "y": 1}}))
    err = _config_error(capsys, "coulomb", "--config", str(path), "--grid", "0,0,2,0,3,1")
    assert err == "configuration error: points (0.0, 0.0) coincide\n"


def test_coulomb_does_not_skip_other_failures(capsys, monkeypatch, limit_file):
    # only coincident points are skipped; any other failure ends the run
    import lozenge.continuum
    from lozenge.cli import main

    def broken(cfg, R):
        raise ArithmeticError("broken field")

    monkeypatch.setattr(lozenge.continuum, "coulomb_field", broken)
    assert main(["coulomb", "--config", limit_file, "--grid", "3,3,4,4,2,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numeric failure: broken field\n"


@pytest.mark.parametrize("grid, R", [("0,0,1,1,2,2", "1e-320"), ("0,0,1e308,1e308,2,2", "1")])
def test_coulomb_field_beyond_the_float_range_exit_code(capsys, tmp_path, grid, R):
    # the first used to print an inf and a nan row, the second nan rows, both exiting 0
    path = tmp_path / "config.json"
    path.write_text('{"positives":[{"x":0,"y":0}],"negatives":[{"x":2,"y":0}]}')
    out = tmp_path / "coulomb.csv"
    from lozenge.cli import main

    argv = ["coulomb", "--config", str(path), "--grid", grid, "--R", R, "--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric failure: coulomb field at (0.0, 1"), captured.err
    assert f"with R = {float(R)!r} is not finite" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv", [("coulomb", "--grid", "1e-200,0,1,0,2,1"),
                                  ("converge", "--R-list", "8")], ids=["coulomb", "converge"])
def test_probe_whose_distance_underflows_exit_code(capsys, tmp_path, argv):
    # (1e-200, 0) is not the charge at (0, 0), but its squared distance is
    # 0.0 as a float: coulomb used to skip it and converge exit 2, both as
    # "probe coincides with a charge"
    from lozenge.cli import main

    path = tmp_path / "config.json"
    path.write_text('{"positives":[{"x":0,"y":0}],"negatives":[{"x":2,"y":0}],'
                    '"probe":{"x":1e-200,"y":0}}')
    out = tmp_path / "out.csv"
    option = {"coulomb": "--config", "converge": "--holes"}[argv[0]]
    assert main([argv[0], option, str(path), *argv[1:], "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numeric failure: squared distance from the probe (1e-200, 0.0) "
                            "to the charge at (0.0, 0.0) underflows to 0\n")
    assert not out.exists()


def test_field_rows_match_benchmark_reference(tmp_path):
    # every probability of these rows takes the exact float rounding path,
    # so any drift in its bits shows here without a benchmark run
    reference = pathlib.Path(__file__).parents[1] / "perfbench" / "reference" / "field-charged.csv"
    with open(reference, "rb") as fh:
        want = fh.read().splitlines()
    charged = tmp_path / "charged.json"
    charged.write_text(CHARGED_JSON)
    res = subprocess.run(
        [sys.executable, "-m", "lozenge.cli", "field", "--holes", str(charged),
         "--probes", "grid:-5,-5,-3,15", "--out", "-"],
        capture_output=True, timeout=600,
    )
    assert res.returncode == 0
    got = res.stdout.splitlines()
    assert len(got) == 1 + 3 * 21
    assert got == [want[0]] + [row for row in want[1:] if int(row.split(b",")[0]) <= -3]


@pytest.mark.parametrize("side", [16, 24])
def test_oracle_compare_matches_benchmark_reference(oracle_pair_file, side):
    # both hexagons are too large for the exact count, so this pins the
    # planar oracle's float path end to end: face walk, parity fix, slogdet
    reference = (pathlib.Path(__file__).parents[1] / "perfbench" / "reference"
                 / f"validate.oracle-hex{side}.txt")
    with open(reference, "rb") as fh:
        want = fh.read()
    res = subprocess.run(
        [sys.executable, "-m", "lozenge.cli", "oracle", "compare",
         "--region", f"hex:{side},{side},{side}", "--holes", oracle_pair_file,
         "--lozenge", "0,3,1"],
        capture_output=True, timeout=600,
    )
    assert res.returncode == 0
    assert res.stdout == want


def test_oracle_compare_under_one_and_two_blas_threads(oracle_pair_file):
    # the float oracle's log-determinants depend on OpenBLAS's thread count
    # in the last digits (0.4341749594220401 with one thread, ...220648 with
    # two); the exact bulk value does not
    lines = []
    for threads in ("1", "2"):
        res = subprocess.run(
            [sys.executable, "-m", "lozenge.cli", "oracle", "compare", "--region", "hex:16,16,16",
             "--holes", oracle_pair_file, "--lozenge", "0,3,1"],
            capture_output=True, text=True, timeout=600,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        )
        assert res.returncode == 0, res.stderr
        lines.append(dict(line.split(" = ") for line in res.stdout.splitlines()))
    one, two = lines
    assert one["bulk"] == two["bulk"]
    assert float(one["finite_region"]) == pytest.approx(float(two["finite_region"]), rel=1e-12, abs=0)


def test_oracle_compare_float_probability_is_positive(capsys, oracle_pair_file):
    # hex:16 takes the log-determinant path; this lozenge's K(r,l)(-1)^(i+j)
    # is negative, which once printed finite_region = -0.3534154769080653
    from lozenge.cli import main

    assert main(["oracle", "compare", "--region", "hex:16,16,16", "--holes", oracle_pair_file,
                 "--lozenge", "0,3,3"]) == 0
    assert capsys.readouterr().out == ("finite_region = 0.3534154769080653\n"
                                       "bulk = 0.36329064272590456\n"
                                       "gap = 0.0098751658178392598\n")


def test_validate_oracle_lines_pinned(capsys, oracle_pair_file):
    # the benchmark's oracle lines: hex:8 takes the exact path, so all three
    # are pinned; hex:16's finite_region is a float log-determinant ratio
    # whose last digits follow OpenBLAS's thread count
    from lozenge.cli import main

    def compare(side):
        assert main(["oracle", "compare", "--region", f"hex:{side},{side},{side}",
                     "--holes", oracle_pair_file, "--lozenge", "0,3,1"]) == 0
        return capsys.readouterr().out.splitlines()

    assert compare(8) == ["finite_region = 0.45429948743622445",
                          "bulk = 0.41750483847799486",
                          "gap = 0.036794648958229592"]
    finite, bulk, _ = compare(16)
    assert bulk == "bulk = 0.41750483847799486"
    assert finite.startswith("finite_region = ")
    assert float(finite.split(" = ")[1]) == pytest.approx(0.43417495942206, rel=1e-12, abs=0)


def test_exact_oracle_compare_loads_no_numpy(oracle_pair_file):
    # at most 600 triangles oracle compare counts exactly, without numpy
    loaded = _loaded_after("from lozenge.cli import main; "
                           "main(['oracle', 'compare', '--region', 'hex:8,8,8', "
                           f"'--holes', {oracle_pair_file!r}, '--lozenge', '0,3,1'])")
    assert "lozenge.oracle" in loaded
    assert "numpy" not in loaded


def test_float_oracle_keeps_only_the_band_resident(oracle_pair_file):
    # hex:24 minus the pair has n = 1,724 rows and 5,094 entries (8n^2 is
    # 23.8 MB); in numpy's zeros, which asks for huge pages, every entry
    # brought in 2 MB and the run peaked 51.0 MiB above a process that only
    # imports; with only the band resident it is 37.3 MiB, mostly slogdet's
    # own copy
    if not os.path.exists("/proc/self/status"):
        pytest.skip("VmHWM is read from /proc/self/status (Linux)")
    hwm = ("import sys; print(next(line.split()[1] for line in open('/proc/self/status') "
           "if line.startswith('VmHWM:')), file=sys.stderr)")

    def peak_kb(code):
        res = subprocess.run([sys.executable, "-c", f"{code}; {hwm}"], capture_output=True,
                             text=True, timeout=600)
        assert res.returncode == 0, res.stderr
        return int(res.stderr)

    base = peak_kb("import numpy, lozenge.cli, lozenge.oracle")
    run = peak_kb("from lozenge.cli import main; "
                  "main(['oracle', 'compare', '--region', 'hex:24,24,24', "
                  f"'--holes', {oracle_pair_file!r}, '--lozenge', '0,3,1'])")
    n = 1724
    assert (run - base) * 1024 < 2 * 8 * n * n, (run, base)


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command, lines_read", [
    (["coupling-table", "--range", "100"], 1),  # 3.6 MB of streamed rows
    (["oracle", "compare", "--region", "hex:8,8,8", "--lozenge", "0,3,1"], 0),
], ids=["coupling-table", "oracle-compare"])
def test_reader_closing_stdout_early_exits_141(oracle_pair_file, command, lines_read, buffered):
    # a closed stdout once read as "configuration error: [Errno 32] Broken
    # pipe" and exit 2, or with a buffered stdout as an exception at the exit
    # flush and exit 120; 141 is the code the cli docstring gives it
    if command[0] == "oracle":
        command = [*command, "--holes", oracle_pair_file]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    with os.fdopen(r, "rb") as reader:
        if not lines_read:
            reader.close()  # before the child starts, so its first write fails
        proc = subprocess.Popen([sys.executable, "-m", "lozenge.cli", *command],
                                stdout=w, stderr=subprocess.PIPE, env=env)
        os.close(w)
        for _ in range(lines_read):
            assert reader.readline()
    _, err = proc.communicate(timeout=600)
    assert err == b""
    assert proc.returncode == 141


IDENTITY31_REFERENCE = json.loads(
    (pathlib.Path(__file__).parents[1] / "perfbench" / "reference" / "identity31.json").read_text())


@pytest.mark.parametrize("seed", sorted(map(int, IDENTITY31_REFERENCE)))
def test_identity31_matches_benchmark_reference(capsys, seed):
    from lozenge.cli import main

    want = IDENTITY31_REFERENCE[str(seed)]
    assert main(["verify", "identity31", "--trials", "100", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == want


def test_identity31_seed_56_exits_0(capsys):
    # trial 20 of seed 56 has a limit denominator of absolute value 2.8e-21:
    # badly scaled, but the configuration is not singular
    from lozenge.cli import main

    assert main(["verify", "identity31", "--trials", "100", "--seed", "56"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "identity31: max residual = 3.4108001196534253e-16 over 100 cases\n"
    assert captured.err == ""


def _loaded_after(code):
    probe = (code + "; import sys; print(' '.join(sorted(m for m in sys.modules if m.split('.')[0]"
             " in ('lozenge', 'numpy', 'mpmath', 'dataclasses', 'inspect'))))")
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=600)
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


def test_cli_imports_no_mpmath():
    # the CLI loads its own layers only; numerics load with their subcommand
    assert _loaded_after("import lozenge.cli") == [
        "lozenge", "lozenge.cli", "lozenge.coupling", "lozenge.exact", "lozenge.lattice"]
    assert "mpmath" not in _loaded_after("import lozenge.cli, lozenge.continuum")


def test_records_load_no_dataclasses():
    # the records are NamedTuples; dataclasses would load inspect, ast, dis and tokenize
    import pkgutil

    import lozenge

    every = ", ".join(f"lozenge.{m.name}" for m in pkgutil.iter_modules(lozenge.__path__))
    assert "dataclasses" not in _loaded_after(f"import lozenge.cli, {every}")
    # numpy loads inspect itself, so only the layers without it are held to this
    assert "inspect" not in _loaded_after(
        "import lozenge.cli, lozenge.correlation, lozenge.surface, lozenge.continuum")


def test_charge_four_field_loads_no_numpy(tmp_path):
    # four rights and no lefts: the u_s columns for s = 0, 1 are exact too
    holes = tmp_path / "charge4.json"
    holes.write_text('{"multiholes":[{"kind":"E","q":"1","indices":[0],"anchor":[0,0]},'
                     '{"kind":"E","q":"1","indices":[0],"anchor":[8,0]}]}')
    loaded = _loaded_after("from lozenge.cli import main; "
                           f"main(['field', '--holes', {str(holes)!r}, '--probes', 'grid:2,2,3,3'])")
    assert "lozenge.correlation" in loaded
    assert "numpy" not in loaded


def test_verify_identity31_imports_only_its_layers():
    loaded = _loaded_after("from lozenge.cli import main; "
                           "main(['verify', 'identity31', '--trials', '2'])")
    assert "lozenge.continuum" in loaded and "lozenge.verify" in loaded
    assert not {"lozenge.surface", "lozenge.correlation", "lozenge.oracle"} & set(loaded)


def test_public_names_resolve():
    import lozenge

    assert "SqrtPiPoly" in dir(lozenge)
    for name in lozenge.__all__:
        assert getattr(lozenge, name) is not None, name
    with pytest.raises(AttributeError):
        lozenge.no_such_name

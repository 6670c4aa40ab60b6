"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import tracer as tracing
from run import ROOT, Launcher, is_time, run_iteration
from speed import SpeedProbe
from workloads import INPUTS, REFERENCE_DIR, WORKLOADS, Command, Workload

HERE = os.path.dirname(os.path.abspath(__file__))


# --- wrappers -----------------------------------------------------------------------


class Boom(Exception):
    pass


def test_wrapper_passes_results_and_exceptions_through():
    tr = tracing.Tracer(run_id=1)
    payload = object()
    error = Boom("x")

    def give(a, *, b):
        return payload if (a, b) == (1, 2) else None

    def fail():
        raise error

    assert tr.wrap("exact.give", give)(1, b=2) is payload
    with pytest.raises(Boom) as caught:
        tr.wrap("exact.fail", fail)()
    assert caught.value is error
    assert [(s[tracing.NAME], s[tracing.OK]) for s in tr.spans] == [
        ("exact.give", True), ("exact.fail", False)]
    assert tr.wrap("exact.give", give).__name__ == "give"


def test_marker_context_passes_enter_value_and_exceptions_through():
    tr = tracing.Tracer(run_id=1)

    class Inner:
        def __enter__(self):
            return "entered"

        def __exit__(self, *exc):
            return False

    factory = tr.wrap_marker(tracing.MARKER, Inner)

    def convert():
        with factory() as value:
            return value

    assert tr.wrap("exact.to_float", convert)() == "entered"
    with pytest.raises(Boom):
        with factory() as value:
            assert value == "entered"
            raise Boom()
    marker = tr.spans[1]
    assert marker[tracing.IS_MARKER] and marker[tracing.PARENT] == 0
    assert tr.spans[2][tracing.OK] is False


def test_self_time_ignores_marker_children():
    spans = [
        ["exact.to_float", 0.0, 10.0, -1, 0, True, None, False],
        [tracing.MARKER, 1.0, 4.0, 0, 0, True, None, True],
        ["coupling.coupling_p", 5.0, 7.0, 0, 0, True, None, False],
    ]
    assert tracing.self_times(spans) == [8.0, 3.0, 2.0]
    summary = tracing.summarize([spans])
    assert summary["exact.to_float.fallbacks"] == 1
    assert summary["exact.to_float.mpmath_passes"] == 1
    assert summary["layer.exact.self_s"] == 8.0


# --- traced runs of small commands --------------------------------------------------

SMALL_INPUTS = dict(INPUTS, **{"small-pair.json": json.dumps({"multiholes": [
    {"anchor": [0, 0], "indices": [0], "kind": "E", "q": "1"},
    {"anchor": [6, 0], "indices": [0], "kind": "W", "q": "1"}]})})


def _small_commands(seed: int) -> list[Command]:
    return [
        Command(("field", "--holes", "{in}/charged.json", "--probes", "grid:-1,-1,1,1",
                 "--out", "{out}/field.csv"), "field.stdout"),
        Command(("surface", "--holes", "{in}/small-pair.json", "--window=-6,-14,14,6",
                 "--R", "3", "--sheets", "2", "--out", "{out}/surface.obj", "--compare"),
                "surface.stdout"),
        Command(("verify", "identity31", "--trials", "3", "--seed", str(seed)),
                "identity31.stdout"),
        Command(("oracle", "compare", "--region", "hex:8,8,8", "--holes",
                 "{in}/oracle-pair.json", "--lozenge", "0,3,1"), "oracle.stdout"),
    ]


def _collect(ref: str, out: str, seed: int, rcs: list[int]) -> list[tuple[str, bool]]:
    """Check stand-in: keep every output file and the trace counts for comparison."""
    keep = os.path.join(ref, f"run-{len(os.listdir(ref))}")
    shutil.copytree(out, keep)
    return [(f"rc {k}", rc == 0) for k, rc in enumerate(rcs)]


@pytest.fixture
def runs(tmp_path):
    tmp = tmp_path / "work"
    kept = tmp_path / "kept"
    in_dir = tmp / "inputs"
    in_dir.mkdir(parents=True)
    kept.mkdir()
    for name, text in SMALL_INPUTS.items():
        (in_dir / name).write_text(text)
    workload = Workload(_small_commands, _collect, None)
    with SpeedProbe() as probe:
        launcher = Launcher(5, str(tmp), time.perf_counter() + 600.0, probe)
        results = [run_iteration(launcher, workload, 5, str(in_dir), str(kept), traced)
                   for traced in (False, True, True)]
    return results, sorted(kept.iterdir())


def _outputs(run_dir) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())
            if not p.name.startswith("spans-")}


def test_traced_outputs_byte_identical_and_counts_repeat(runs):
    results, kept = runs
    assert all(not r["failed"] for r in results)
    untraced, traced1, traced2 = (_outputs(d) for d in kept)
    assert untraced == traced1 == traced2
    assert set(untraced) >= {"field.csv", "surface.obj", "surface.stdout",
                             "identity31.stdout", "oracle.stdout"}
    counts1, counts2 = ({k: v for k, v in r["layers"].items() if not is_time(k)}
                        for r in results[1:])
    assert counts1 == counts2
    for name in ("exact.det_exact.calls", "coupling.coupling_p.calls", "surface.edges",
                 "continuum.build_limit_matrices.calls", "oracle.count_tilings.calls",
                 "lattice.pairable.calls", "correlation.items"):
        assert counts1[name] > 0, name


# --- checks against a corrupted copy of the references --------------------------------


def _copy_refs(tmp_path):
    ref = tmp_path / "ref"
    shutil.copytree(REFERENCE_DIR, ref)
    return ref


def test_field_check_reports_a_corrupted_reference_row(tmp_path):
    ref, out = _copy_refs(tmp_path), tmp_path / "out"
    out.mkdir()
    shutil.copy(ref / "field-charged.csv", out / "field.csv")
    check = WORKLOADS["field-charged"].check
    items = check(str(ref), str(out), 1, [0])
    assert len(items) == 437 and all(ok for _, ok in items)
    lines = (ref / "field-charged.csv").read_text().splitlines(keepends=True)
    lines[100] = lines[100].replace("0.", "0.9", 1)
    (ref / "field-charged.csv").write_text("".join(lines))
    assert [name for name, ok in check(str(ref), str(out), 1, [0]) if not ok] == ["csv row 100"]
    assert all(not ok for _, ok in check(str(ref), str(out), 1, [3])[1:])


def test_surface_check_reports_a_corrupted_reference_hash(tmp_path):
    ref, out = _copy_refs(tmp_path), tmp_path / "out"
    out.mkdir()
    (out / "surface.obj").write_text("v 0 0 0\n")
    compare = (ref / "surface-pair.compare.txt").read_text()
    (out / "surface.stdout").write_text("residual = 0\n" + compare)
    (ref / "surface-pair.obj.sha256").write_text(
        hashlib.sha256(b"v 0 0 0\n").hexdigest() + "\n")
    check = WORKLOADS["surface-pair"].check
    assert all(ok for _, ok in check(str(ref), str(out), 1, [0]))
    (ref / "surface-pair.obj.sha256").write_text("0" * 64 + "\n")
    assert [name for name, ok in check(str(ref), str(out), 1, [0]) if not ok] == ["obj sha256"]


def test_validate_check_reports_corrupted_references(tmp_path):
    ref, out = _copy_refs(tmp_path), tmp_path / "out"
    out.mkdir()
    table = json.loads((ref / "identity31.json").read_text())
    (out / "identity31.stdout").write_text(table["1"])
    for h in (8, 16, 24):
        shutil.copy(ref / f"validate.oracle-hex{h}.txt", out / f"oracle-hex{h}.stdout")
    check = WORKLOADS["validate"].check
    assert all(ok for _, ok in check(str(ref), str(out), 1, [0, 0, 0, 0]))
    table["1"] = table["2"]
    (ref / "identity31.json").write_text(json.dumps(table))
    (ref / "validate.oracle-hex16.txt").write_text("gap = 1\n")
    failed = [name for name, ok in check(str(ref), str(out), 1, [0, 0, 0, 0]) if not ok]
    assert failed == ["identity31 line", "oracle hex:16 output"]


# --- the command itself -----------------------------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "validate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_lists_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    layer_names = set(tracing.summarize([[]])) | {
        "surface.obj_bytes", "trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == layer_names
    import run

    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    for m in bench["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m["name"]

"""The benchmark's workloads: their inputs, CLI commands and output checks.

Every workload is a list of ``lozenge`` CLI invocations.  Inputs are fixed
geometries written to disk before timing starts; the workload seed sets the
``verify identity31`` seed and each process's PYTHONHASHSEED.  Checks compare
outputs against the reference outputs recorded in ``reference/`` by
``make_reference.py``; each check is one item of ``attempted``/``failed``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")


def _holes(*holes: tuple[str, int, int]) -> str:
    return json.dumps({"multiholes": [
        {"anchor": [a, b], "indices": [0], "kind": kind, "q": "1"} for kind, a, b in holes
    ]})


INPUTS = {
    "pair.json": _holes(("E", 0, 0), ("W", 32, 0)),
    "charged.json": _holes(("E", 0, 0), ("W", 12, 0), ("E", 4, 9)),
    "oracle-pair.json": _holes(("E", -3, 0), ("W", 3, 0)),
}

HEXAGONS = (8, 16, 24)
IDENTITY_TOLERANCE = 1e-8  # the tolerance `verify identity31` itself applies


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]  # "{in}/x" and "{out}/x" name files in the input and output dirs
    stdout: str            # output file that receives the process's stdout


@dataclass(frozen=True)
class Workload:
    commands: Callable[[int], list[Command]]
    check: Callable[[str, str, int, list[int]], list[tuple[str, bool]]]
    record: Callable[[str, str], None]  # (out_dir, ref_dir): store outputs as references


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


# --- surface-pair -----------------------------------------------------------------


def surface_commands(seed: int) -> list[Command]:
    return [Command(("surface", "--holes", "{in}/pair.json", "--window=-12,-52,44,20",
                     "--R", "16", "--sheets", "2", "--out", "{out}/surface.obj", "--compare"),
                    "surface.stdout")]


def surface_check(ref: str, out: str, seed: int, rcs: list[int]) -> list[tuple[str, bool]]:
    ran = rcs == [0]
    stdout = (_read(os.path.join(out, "surface.stdout")) or "").splitlines()
    want_sha = (_read(os.path.join(ref, "surface-pair.obj.sha256")) or "").strip()
    want_compare = (_read(os.path.join(ref, "surface-pair.compare.txt")) or "").strip()
    residual_ok = False
    if stdout and stdout[0].startswith("residual = "):
        try:
            residual_ok = float(stdout[0][len("residual = "):]) <= 1e-9
        except ValueError:
            residual_ok = False
    return [
        ("obj sha256", ran and _sha256(os.path.join(out, "surface.obj")) == want_sha),
        ("residual <= 1e-9", ran and residual_ok),
        ("compare line", ran and len(stdout) == 2 and stdout[1] == want_compare),
    ]


def surface_record(out: str, ref: str) -> None:
    _write(os.path.join(ref, "surface-pair.obj.sha256"),
           _sha256(os.path.join(out, "surface.obj")) + "\n")
    _write(os.path.join(ref, "surface-pair.compare.txt"),
           _read(os.path.join(out, "surface.stdout")).splitlines()[1] + "\n")


# --- field-charged ----------------------------------------------------------------


def field_commands(seed: int) -> list[Command]:
    return [Command(("field", "--holes", "{in}/charged.json", "--probes", "grid:-5,-5,15,15",
                     "--out", "{out}/field.csv"), "field.stdout")]


def _row_sums_to_one(row: str) -> bool:
    try:
        p1, p2, p3 = (float(v) for v in row.split(",")[2:5])
    except ValueError:
        return False
    return abs(p1 + p2 + p3 - 1.0) <= 1e-12


def field_check(ref: str, out: str, seed: int, rcs: list[int]) -> list[tuple[str, bool]]:
    ran = rcs == [0]
    want = (_read(os.path.join(ref, "field-charged.csv")) or "").splitlines()
    got = (_read(os.path.join(out, "field.csv")) or "").splitlines() if ran else []
    items = [("csv header", bool(got) and bool(want) and got[0] == want[0])]
    for k in range(1, max(len(want), len(got))):
        ok = k < len(want) and k < len(got) and got[k] == want[k] and _row_sums_to_one(got[k])
        items.append((f"csv row {k}", ok))
    return items


def field_record(out: str, ref: str) -> None:
    _write(os.path.join(ref, "field-charged.csv"), _read(os.path.join(out, "field.csv")))


# --- validate ---------------------------------------------------------------------


def validate_commands(seed: int) -> list[Command]:
    cmds = [Command(("verify", "identity31", "--trials", "100", "--seed", str(seed)),
                    "identity31.stdout")]
    for h in HEXAGONS:
        cmds.append(Command(("oracle", "compare", "--region", f"hex:{h},{h},{h}",
                             "--holes", "{in}/oracle-pair.json", "--lozenge", "0,3,1"),
                            f"oracle-hex{h}.stdout"))
    return cmds


_IDENTITY_LINE = re.compile(r"identity31: max residual = (\S+) over 100 cases\n")


def validate_check(ref: str, out: str, seed: int, rcs: list[int]) -> list[tuple[str, bool]]:
    got = _read(os.path.join(out, "identity31.stdout")) or ""
    table = json.loads(_read(os.path.join(ref, "identity31.json")) or "{}")
    if str(seed) in table:
        identity_ok = got == table[str(seed)]
    else:
        # seeds beyond the recorded table: the line's shape and tolerance
        m = _IDENTITY_LINE.fullmatch(got)
        identity_ok = m is not None and float(m.group(1)) <= IDENTITY_TOLERANCE
    items = [("identity31 line", rcs[0] == 0 and identity_ok)]
    gaps = []
    for h, rc in zip(HEXAGONS, rcs[1:]):
        got = _read(os.path.join(out, f"oracle-hex{h}.stdout"))
        want = _read(os.path.join(ref, f"validate.oracle-hex{h}.txt"))
        items.append((f"oracle hex:{h} output", rc == 0 and got is not None and got == want))
        m = re.search(r"^gap = (\S+)$", got or "", re.M)
        gaps.append(float(m.group(1)) if m else None)
    decreasing = None not in gaps and all(a > b for a, b in zip(gaps, gaps[1:]))
    items.append(("oracle gaps decrease with hexagon size", decreasing))
    return items


def validate_record(out: str, ref: str) -> None:
    for h in HEXAGONS:
        _write(os.path.join(ref, f"validate.oracle-hex{h}.txt"),
               _read(os.path.join(out, f"oracle-hex{h}.stdout")))


def record_identity_table(lines: dict[int, str], ref: str) -> None:
    """Store the ``verify identity31`` stdout for each recorded workload seed."""
    _write(os.path.join(ref, "identity31.json"),
           json.dumps({str(k): v for k, v in sorted(lines.items())}, indent=0) + "\n")


WORKLOADS = {
    "surface-pair": Workload(surface_commands, surface_check, surface_record),
    "field-charged": Workload(field_commands, field_check, field_record),
    "validate": Workload(validate_commands, validate_check, validate_record),
}

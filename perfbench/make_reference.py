"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/make_reference.py

Runs each workload's commands once, untraced, on the ``lozenge`` package
under ``src/`` and overwrites ``reference/``; ``verify identity31`` is
recorded for workload seeds 0 to IDENTITY_SEEDS - 1.  Record references only
from a commit whose outputs are known good.  A change that alters output
bytes on purpose records new references in a benchmark change of its own.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

from run import ROOT, Launcher
from speed import SpeedProbe
from workloads import INPUTS, REFERENCE_DIR, WORKLOADS, record_identity_table, validate_commands

IDENTITY_SEEDS = 100


def record_all(tmp: str, probe: SpeedProbe) -> None:
    in_dir = os.path.join(tmp, "inputs")
    os.mkdir(in_dir)
    for name, text in INPUTS.items():
        with open(os.path.join(in_dir, name), "w") as fh:
            fh.write(text)

    def run(seed: int, commands, out_dir: str) -> int:
        launcher = Launcher(seed, tmp, time.perf_counter() + 3600.0, probe)
        for cmd in commands:
            argv = [a.replace("{in}", in_dir).replace("{out}", out_dir) for a in cmd.argv]
            rc = launcher.launch(argv, os.path.join(out_dir, cmd.stdout), None)["rc"]
            if rc != 0:
                return rc
        return 0

    for name, workload in WORKLOADS.items():
        out_dir = os.path.join(tmp, name)
        os.mkdir(out_dir)
        if run(0, workload.commands(0), out_dir) != 0:
            raise SystemExit(f"workload {name} failed; no references recorded for it")
        workload.record(out_dir, REFERENCE_DIR)
        print(f"recorded {name}", file=sys.stderr)

    lines, failing = {}, []
    for seed in range(IDENTITY_SEEDS):
        out_dir = os.path.join(tmp, f"identity-{seed}")
        os.mkdir(out_dir)
        cmd = validate_commands(seed)[0]
        if run(seed, [cmd], out_dir) != 0:
            failing.append(seed)  # not known good: left out, so runs on this seed fail
            continue
        with open(os.path.join(out_dir, cmd.stdout)) as fh:
            lines[seed] = fh.read()
    record_identity_table(lines, REFERENCE_DIR)
    print(f"recorded identity31 for seeds 0..{IDENTITY_SEEDS - 1}; "
          f"failing seeds left out: {failing}", file=sys.stderr)


def main() -> int:
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"reference-{os.getpid()}")
    os.makedirs(tmp)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    try:
        with SpeedProbe() as probe:
            record_all(tmp, probe)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())

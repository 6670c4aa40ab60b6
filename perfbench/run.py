"""Benchmark of the lozenge CLI: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program measured is the ``lozenge`` package under
``src/`` next to this directory.  Each CLI invocation of a workload is a fresh
interpreter (``child.py``) that imports ``lozenge.cli`` and calls
``main(argv)``, so it pays imports and a cold coupling cache as a user's
invocation does.  Whole workload iterations repeat, one process at a time,
while the next one is expected to end within S seconds (at least one runs);
every iteration's outputs are checked against the references in
``reference/``, and medians over iterations are reported.  Times are in
reference seconds (see ``speed.py``); the raw medians are printed as well.

``--trace 0`` reports the end-to-end metrics of untraced iterations.
``--trace 1`` alternates traced and untraced iterations and reports the
per-layer metrics of the traced ones (median times; counts, which repeat
exactly, from the first) and the tracing overhead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the seed, the environment and the raw times.  Exit status is 0 when
a result was printed, 2 when the benchmark could not run (no
``src/lozenge``, missing references, a process past the deadline).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracer as tracing
from speed import SpeedProbe
from workloads import INPUTS, REFERENCE_DIR, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES = 5     # import-only processes per run, on top of every CLI process
DEADLINE_S = 170.0   # a run stops before the 180 s a run may take

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("per_item"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def is_time(name: str) -> bool:
    return unit_of(name) in ("s", "us")


def child_env(seed: int) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "LOZENGE_THREADS"}
    env["PYTHONHASHSEED"] = str(seed % 2**32)  # the range CPython accepts
    env["PYTHONPATH"] = SRC
    return env


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


class Launcher:
    """Starts child interpreters one at a time and measures each."""

    def __init__(self, seed: int, tmp: str, deadline: float, probe: SpeedProbe):
        self.env = child_env(seed)
        self.tmp = tmp
        self.deadline = deadline
        self.probe = probe
        self.count = 0

    def launch(self, argv: list[str], stdout_path: str, trace_path: str | None) -> dict:
        """Run one child; times are raw seconds, ``setup_s`` None if it did not finish."""
        self.count += 1
        result_path = os.path.join(self.tmp, f"result-{self.count}.json")
        err_path = os.path.join(self.tmp, f"stderr-{self.count}.txt")
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(stdout_path, "w") as out, open(err_path, "w") as err:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, CHILD, result_path, trace_path or "-", *argv],
                stdout=out, stderr=err, env=self.env, cwd=self.tmp,
            )
            self.probe.follow(proc.pid)
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"lozenge {' '.join(argv)} ran past the deadline")
            finally:
                self.probe.follow(None)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = _cpu(after) - _cpu(before)
        try:
            with open(result_path) as fh:
                res = json.load(fh)
        except (OSError, ValueError):
            res = None
        if res is None:
            with open(err_path) as fh:
                tail = fh.read()[-2000:]
            if not argv:
                raise BenchError(f"importing lozenge failed:\n{tail}")
            print(f"lozenge {' '.join(argv)} exited {rc}:\n{tail}", file=sys.stderr)
            return {"rc": rc or 1, "setup_s": None, "cpu_s": cpu, "maxrss_mb": 0.0}
        if not os.path.realpath(res["lozenge_file"]).startswith(os.path.realpath(SRC) + os.sep):
            raise BenchError(f"imported {res['lozenge_file']}, not the package under {SRC}")
        for name in res["trace_missing"]:
            print(f"trace: {name} not found, its metrics read 0", file=sys.stderr)
        setup = res["t_imported"] - t_spawn
        return {
            "rc": rc,
            "setup_s": setup,
            "setup_scale": self.probe.scale(t_spawn, res["t_imported"]),
            "cpu_s": cpu,
            "maxrss_mb": res["maxrss_kb"] / 1024.0,
        }


def run_iteration(launcher: Launcher, workload, seed: int, in_dir: str,
                  ref_dir: str, traced: bool) -> dict:
    """One pass over the workload's commands; outputs checked, then removed."""
    out_dir = os.path.join(launcher.tmp, f"out-{launcher.count}")
    os.mkdir(out_dir)
    try:
        procs, trace_files = [], []
        t0 = time.perf_counter()
        for k, cmd in enumerate(workload.commands(seed)):
            argv = [a.replace("{in}", in_dir).replace("{out}", out_dir) for a in cmd.argv]
            trace_path = os.path.join(out_dir, f"spans-{k}.json") if traced else None
            procs.append(launcher.launch(argv, os.path.join(out_dir, cmd.stdout), trace_path))
            trace_files.append(trace_path)
        items = workload.check(ref_dir, out_dir, seed, [p["rc"] for p in procs])
        wall = time.perf_counter() - t0
        scale = launcher.probe.scale(t0, t0 + wall)
        it = {
            "raw_wall_s": wall,
            "raw_cpu_s": sum(p["cpu_s"] for p in procs),
            "scale": scale,
            "peak_rss_mb": max(p["maxrss_mb"] for p in procs),
            "setup": [(p["setup_s"], p["setup_scale"]) for p in procs if p["setup_s"] is not None],
            "attempted": len(items),
            "failed": [name for name, ok in items if not ok],
        }
        it["wall_s"] = wall * scale
        it["cpu_s"] = it["raw_cpu_s"] * scale
        if traced:
            processes = []
            for path in trace_files:
                try:
                    with open(path) as fh:
                        processes.append(json.load(fh)["spans"])
                except (OSError, ValueError):
                    processes.append([])
            layers = tracing.summarize(processes)
            obj = os.path.join(out_dir, "surface.obj")
            layers["surface.obj_bytes"] = os.path.getsize(obj) if os.path.exists(obj) else 0
            layers["trace.wall_s"] = wall
            it["layers"] = {k: v * scale if is_time(k) else v for k, v in layers.items()}
        return it
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def blas_threads() -> str:
    """Thread count of numpy's OpenBLAS, asked from the library itself."""
    import ctypes
    import glob

    import numpy

    libs_dir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment(seed: int) -> dict:
    import mpmath

    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": f"{sys.implementation.name} {sys.version.split()[0]}",
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "python_flint": importlib.util.find_spec("flint") is not None,
        "LOZENGE_THREADS": "unset",
    }


def measure(workload, seed: int, seconds: float, trace: bool, ref_dir: str, tmp: str) -> dict:
    in_dir = os.path.join(tmp, "inputs")
    os.mkdir(in_dir)
    for name, text in INPUTS.items():
        with open(os.path.join(in_dir, name), "w") as fh:
            fh.write(text)

    with SpeedProbe() as probe:
        start = time.perf_counter()
        launcher = Launcher(seed, tmp, start + DEADLINE_S, probe)
        devnull = os.path.join(tmp, "probe.stdout")
        launcher.launch([], devnull, None)  # unmeasured: fills bytecode and file caches
        setup = []
        for _ in range(0 if trace else SETUP_PROBES):
            p = launcher.launch([], devnull, None)
            setup.append((p["setup_s"], p["setup_scale"]))

        untraced, traced = [], []
        while True:
            want_trace = trace and len(traced) <= len(untraced)
            it = run_iteration(launcher, workload, seed, in_dir, ref_dir, want_trace)
            (traced if want_trace else untraced).append(it)
            print(f"iteration {len(traced) + len(untraced)}{' traced' if want_trace else ''}: "
                  f"wall {it['wall_s']:.3f} s (raw {it['raw_wall_s']:.3f}), "
                  f"cpu {it['cpu_s']:.3f} s (raw {it['raw_cpu_s']:.3f}), "
                  f"rss {it['peak_rss_mb']:.1f} MB, failed {len(it['failed'])}/{it['attempted']}"
                  + (f" {it['failed'][:3]}" if it["failed"] else ""), file=sys.stderr)
            # stop before an iteration that would likely end past the measuring time
            now = time.perf_counter()
            typical = statistics.median(i["raw_wall_s"] for i in traced + untraced)
            done = now + typical - start > seconds and (not trace or (traced and untraced))
            if done or now + 2 * typical > start + DEADLINE_S:
                break

    if trace and not untraced:
        raise BenchError("no untraced iteration fitted before the deadline")
    iterations = traced + untraced
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(len(it["failed"]) for it in iterations)
    setup += [s for it in iterations for s in it["setup"]]
    raw = {
        "wall_s": statistics.median(it["raw_wall_s"] for it in untraced),
        "cpu_s": statistics.median(it["raw_cpu_s"] for it in untraced),
        "setup_s": statistics.median(s for s, _ in setup) if setup else None,
        "probe_ms": 1e3 * statistics.median(d for _, d in probe.samples),
    }
    if trace:
        metrics = {}
        for name in traced[0]["layers"]:
            values = [it["layers"][name] for it in traced]
            if is_time(name):
                metrics[name] = statistics.median(values)
                continue
            if len(set(values)) > 1:
                print(f"trace: {name} differs between traced iterations: {values}",
                      file=sys.stderr)
            metrics[name] = values[0]
        metrics["trace.overhead_s"] = (statistics.median(it["wall_s"] for it in traced)
                                       - statistics.median(it["wall_s"] for it in untraced))
    else:
        metrics = {
            "wall_s": statistics.median(it["wall_s"] for it in iterations),
            "cpu_s": statistics.median(it["cpu_s"] for it in iterations),
            "setup_s": statistics.median(s * k for s, k in setup),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in iterations),
        }
    return {
        "iterations": len(iterations),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "raw": raw,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tmp = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    try:
        if not os.path.isfile(os.path.join(SRC, "lozenge", "cli.py")):
            raise BenchError(f"no lozenge package under {SRC}")
        if not os.path.isdir(REFERENCE_DIR):
            raise BenchError(f"no reference outputs in {REFERENCE_DIR}")
        os.makedirs(tmp)
        res = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                      REFERENCE_DIR, tmp)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    print(f"workload {args.workload}, seed {args.seed}, {res['iterations']} iterations, "
          f"{'traced' if args.trace else 'untraced'}; times in reference seconds")
    for name, value in res["metrics"].items():
        print(f"  {name:<42} {value:.6g} {unit_of(name)}")
    print(f"  {'failed_frac':<42} {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']} of {res['attempted']} checks)")
    print(json.dumps({"environment": environment(args.seed), "raw_untraced": res["raw"]},
                     sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One CLI invocation of lozenge in a fresh interpreter, as the benchmark runs it.

    python3 child.py RESULT_JSON TRACE_FILE|- [lozenge argv ...]

Imports ``lozenge.cli`` (found through PYTHONPATH), stamps the time the
import finished on the system-wide monotonic clock, calls
``lozenge.cli.main(argv)`` with the process's own stdout, and writes a result
record.  With a trace file, the benchmark's wrappers are installed after the
import and the spans are written to that file at exit.  With no argv the
process only imports, which is how set-up time is sampled.
"""

import sys
import time

import lozenge.cli

t_imported = time.perf_counter()


def peak_rss_kb() -> int:
    """High-water resident set of this process image.

    ``ru_maxrss`` would not do: across fork and exec it keeps the parent's
    high-water mark, so a child of a large benchmark process would report it.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    import json

    result_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = None
    missing = []
    if trace_path != "-":
        import os

        import tracer as tracing

        tracer = tracing.Tracer(run_id=os.getpid())
        missing = tracing.install(tracer)
    rc = None
    if argv:
        rc = lozenge.cli.main(argv)
        sys.stdout.flush()
    if tracer is not None:
        tracer.dump(trace_path)
    with open(result_path, "w") as fh:
        json.dump(
            {
                "t_imported": t_imported,
                "rc": rc,
                "maxrss_kb": peak_rss_kb(),
                "lozenge_file": lozenge.__file__,
                "trace_missing": missing,
            },
            fh,
        )
    return 0 if rc in (None, 0) else 1


if __name__ == "__main__":
    sys.exit(main())

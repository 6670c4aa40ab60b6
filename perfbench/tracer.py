"""Outside-in span tracing for the lozenge benchmark.

Wrappers are installed from the benchmark's files onto functions of the
``lozenge`` package: at the module that defines each function and at every
``lozenge`` module that imported it by name.  The program's own code is not
changed.  Each call records a span (name, start, end, parent, run id) in
memory; ``Tracer.dump`` writes them out when the traced process ends.

``mpmath.workdps`` is wrapped as a *marker*: its spans are recorded with the
enclosing span as parent, but they do not become parents themselves and do
not count as child time when self times are computed.  A marker whose parent
is ``exact.to_float`` is one mpmath pass of the float conversion.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from time import perf_counter

# (module, attribute, span name).  Span names start with the layer, which
# is the module's short name.  An attribute "Class.method" wraps a method.
TARGETS = [
    ("lozenge.cli", "main", "cli.main"),
    ("lozenge.lattice", "pairable", "lattice.pairable"),
    ("lozenge.exact", "det_exact", "exact.det_exact"),
    ("lozenge.exact", "SqrtPiPoly.__float__", "exact.to_float"),
    ("lozenge.coupling", "coupling_p", "coupling.coupling_p"),
    ("lozenge.coupling", "_eval_reduced", "coupling.eval_reduced"),
    ("lozenge.correlation", "omega", "correlation.omega"),
    ("lozenge.correlation", "placement_probability", "correlation.placement_probability"),
    ("lozenge.correlation", "occupation_probability", "correlation.occupation_probability"),
    ("lozenge.correlation", "discrete_field", "correlation.discrete_field"),
    ("lozenge.surface", "average_surface", "surface.average_surface"),
    ("lozenge.surface", "edge_increment", "surface.edge_increment"),
    ("lozenge.surface", "export_mesh", "surface.export_mesh"),
    ("lozenge.surface", "compare_to_helicoids", "surface.compare_to_helicoids"),
    ("lozenge.continuum", "build_limit_matrices", "continuum.build_limit_matrices"),
    ("lozenge.continuum", "field_ratio", "continuum.field_ratio"),
    ("lozenge.continuum", "field_ratio_closed_form", "continuum.field_ratio_closed_form"),
    ("lozenge.continuum", "sample_limit_config", "continuum.sample_limit_config"),
    ("lozenge.continuum", "helicoids_for_config", "continuum.helicoids_for_config"),
    ("lozenge.verify", "verify_field_identity", "verify.verify_field_identity"),
    ("lozenge.oracle", "hexagon", "oracle.hexagon"),
    ("lozenge.oracle", "Region.remove", "oracle.region_remove"),
    ("lozenge.oracle", "count_tilings", "oracle.count_tilings"),
    ("lozenge.oracle", "log_count_tilings", "oracle.log_count_tilings"),
    ("lozenge.oracle", "oracle_probability", "oracle.oracle_probability"),
    ("lozenge.oracle", "oracle_probability_float", "oracle.oracle_probability_float"),
]

MARKER = "mpmath.workdps"

# span fields
NAME, START, END, PARENT, RUN, OK, SIZE, IS_MARKER = range(8)


class Tracer:
    """In-memory span store for one traced process."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, size_of=None):
        """Return ``fn`` wrapped in a span; results and exceptions pass through."""
        spans, stack, run_id = self.spans, self._stack, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, True,
                   size_of(args) if size_of else None, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[OK] = False
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()

        return traced

    def wrap_marker(self, name: str, factory):
        """Wrap a context-manager factory so each ``with`` block is a marker span."""
        tracer = self

        @functools.wraps(factory)
        def traced(*args, **kwargs):
            return _MarkedContext(tracer, name, factory(*args, **kwargs))

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


class _MarkedContext:
    def __init__(self, tracer: Tracer, name: str, inner):
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self._rec = None

    def __enter__(self):
        t = self._tracer
        self._rec = [self._name, perf_counter(), 0.0,
                     t._stack[-1] if t._stack else -1, t.run_id, True, None, True]
        t.spans.append(self._rec)
        return self._inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._rec[END] = perf_counter()
            self._rec[OK] = exc[0] is None

    def __call__(self, f):
        return self._inner(f)


def _det_size(args) -> int:
    return len(args[0])


SIZE_OF = {"exact.det_exact": _det_size}


def install(tracer: Tracer) -> list[str]:
    """Install wrappers on every target; return the targets not found."""
    missing = []
    loaded = [m for name, m in list(sys.modules.items())
              if m is not None and (name == "lozenge" or name.startswith("lozenge."))]
    for modname, attr, span in TARGETS:
        try:
            mod = importlib.import_module(modname)
        except ImportError:
            missing.append(f"{modname}.{attr}")
            continue
        owner_name, _, meth = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = getattr(owner, meth, None) if owner is not None else None
        if fn is None:
            missing.append(f"{modname}.{attr}")
            continue
        wrapped = tracer.wrap(span, fn, SIZE_OF.get(span))
        setattr(owner, meth, wrapped)
        if owner is mod:
            for other in loaded:
                for key, val in list(vars(other).items()):
                    if val is fn:
                        setattr(other, key, wrapped)
    import mpmath

    mpmath.workdps = tracer.wrap_marker(MARKER, mpmath.workdps)
    return missing


# --- aggregation ----------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct non-marker children."""
    selfs = [s[END] - s[START] for s in spans]
    for s in spans:
        if not s[IS_MARKER] and s[PARENT] >= 0:
            selfs[s[PARENT]] -= s[END] - s[START]
    return selfs


ITEM_SPANS = (
    "correlation.occupation_probability",
    "correlation.placement_probability",
    "correlation.discrete_field",
)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


LAYERS = ("cli", "lattice", "exact", "coupling", "correlation",
          "surface", "continuum", "oracle", "verify")


def summarize(processes: list[list[list]]) -> dict[str, float]:
    """Per-layer figures for one workload iteration (one span list per process)."""
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    incl: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    det_sizes: dict[int, int] = {}
    to_float_passes = 0
    fallbacks = 0
    continuum_passes = 0
    misses = 0
    items: list[float] = []
    main_s = 0.0
    for spans in processes:
        st = self_times(spans)
        entered_mpmath: set[int] = set()
        for i, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
            if s[IS_MARKER]:
                if parent == "exact.to_float":
                    to_float_passes += 1
                    entered_mpmath.add(s[PARENT])
                elif parent is not None and layer_of(parent) == "continuum":
                    continuum_passes += 1
                continue
            calls[name] = calls.get(name, 0) + 1
            selfs[name] = selfs.get(name, 0.0) + st[i]
            incl[name] = incl.get(name, 0.0) + dur
            layer = layer_of(name)
            layer_self[layer] = layer_self.get(layer, 0.0) + st[i]
            if name == "cli.main":
                main_s += dur
            elif name == "exact.det_exact":
                det_sizes[s[SIZE]] = det_sizes.get(s[SIZE], 0) + 1
            elif name == "coupling.eval_reduced" and parent == "coupling.coupling_p":
                misses += 1
            elif name in ITEM_SPANS and s[OK]:
                k = s[PARENT]
                while k >= 0 and spans[k][NAME] not in ITEM_SPANS:
                    k = spans[k][PARENT]
                if k < 0:
                    items.append(dur)
        fallbacks += len(entered_mpmath)

    def c(name):
        return calls.get(name, 0)

    omega_calls = c("correlation.omega")
    det_calls = c("exact.det_exact")
    to_float = c("exact.to_float")
    coupling_calls = c("coupling.coupling_p")
    out = {
        "exact.det_exact.calls": det_calls,
        "exact.det_exact.self_s": selfs.get("exact.det_exact", 0.0),
        "exact.det_exact.max_n": max(det_sizes, default=0),
    }
    for n in (2, 3, 4, 5):
        out[f"exact.det_exact.calls_n{n}"] = det_sizes.get(n, 0)
    out["exact.det_exact.calls_n_other"] = sum(
        v for k, v in det_sizes.items() if k not in (2, 3, 4, 5))
    out.update({
        "exact.to_float.calls": to_float,
        "exact.to_float.self_s": selfs.get("exact.to_float", 0.0),
        "exact.to_float.fallbacks": fallbacks,
        "exact.to_float.mpmath_passes": to_float_passes,
        "exact.to_float.fast_ratio": (1.0 - fallbacks / to_float) if to_float else 0.0,
        "correlation.omega.calls": omega_calls,
        "correlation.omega.self_s": selfs.get("correlation.omega", 0.0),
        "correlation.items": len(items),
        "correlation.omega.per_item": omega_calls / len(items) if items else 0.0,
        "correlation.item.p50_us": _percentile(items, 50) * 1e6,
        "correlation.item.p95_us": _percentile(items, 95) * 1e6,
        "coupling.coupling_p.calls": coupling_calls,
        "coupling.coupling_p.self_s": selfs.get("coupling.coupling_p", 0.0),
        "coupling.cache_misses": misses,
        "coupling.hit_ratio": (1.0 - misses / coupling_calls) if coupling_calls else 0.0,
        "lattice.pairable.calls": c("lattice.pairable"),
        "lattice.pairable.self_s": selfs.get("lattice.pairable", 0.0),
        "surface.edges": c("surface.edge_increment"),
        "surface.average_surface.self_s": selfs.get("surface.average_surface", 0.0),
        "surface.export_mesh.s": incl.get("surface.export_mesh", 0.0),
        "surface.compare_to_helicoids.s": incl.get("surface.compare_to_helicoids", 0.0),
        "continuum.build_limit_matrices.calls": c("continuum.build_limit_matrices"),
        "continuum.build_limit_matrices.self_s": selfs.get("continuum.build_limit_matrices", 0.0),
        "continuum.field_ratio.self_s": selfs.get("continuum.field_ratio", 0.0),
        "continuum.mpmath_passes": continuum_passes,
        "verify.verify_field_identity.s": incl.get("verify.verify_field_identity", 0.0),
        "oracle.hexagon.s": incl.get("oracle.hexagon", 0.0),
        "oracle.count_tilings.calls": c("oracle.count_tilings"),
        "oracle.count_tilings.s": incl.get("oracle.count_tilings", 0.0),
        "oracle.log_count_tilings.calls": c("oracle.log_count_tilings"),
        "oracle.log_count_tilings.s": incl.get("oracle.log_count_tilings", 0.0),
        "cli.main.self_s": selfs.get("cli.main", 0.0),
        "trace.main_s": main_s,
    })
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layer_self[layer]
    return out

"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 bad configuration,
3 numeric failure.  Bad configuration covers JSON with a value of the
wrong kind, a missing required key or an unknown key (each object's keys
are its type's fields), overlapping side-2 holes, whether from a
``--holes`` file or from ``converge`` placing a limit configuration on
the lattice, a hole system whose correlation vanishes and an ``oracle
compare`` region with no tilings.  All floats are emitted with 17
significant digits so repeated runs are byte-identical.  ``field``
evaluates its whole probe grid as one batch of placement probabilities,
and ``coupling-table`` its whole range as one batch of coupling values.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
from collections import Counter

from . import __version__
from .lattice import HoleSystem, LozengeLocation, left
from .coupling import MAX_CLOSED_FORM_N, coupling_p, prefill, reduce_domain

FMT = "%.17g"


def _fmt(x: float) -> str:
    return FMT % x


def _read(path: str, cls):
    """``cls.from_json`` of a file's text."""
    with open(path) as fh:
        return cls.from_json(fh.read())


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# --- subcommands ---------------------------------------------------------------


def cmd_coupling(args) -> int:
    val = coupling_p(args.x, args.y)
    if args.float_only:
        print(_fmt(float(val)))
        return 0
    rx, ry = reduce_domain(args.x, args.y)
    print(f"P({args.x},{args.y}) = {val.rational_part} + {val.root_part}*(sqrt3/pi)")
    print(f"reduced = ({rx},{ry})")
    print(f"float = {_fmt(float(val))}")
    return 0


def cmd_coupling_table(args) -> int:
    n = args.range
    if n < 0:
        raise ValueError(f"--range must be non-negative, got {n}")
    span = range(-n, n + 1)
    prefill(itertools.product(span, span))
    lines = ["x,y,p_num,p_den,r_num,r_den,float"]
    for x, y in itertools.product(span, span):
        v = coupling_p(x, y)
        p, r = v.rational_part, v.root_part
        lines.append(
            f"{x},{y},{p.numerator},{p.denominator},"
            f"{r.numerator},{r.denominator},{_fmt(float(v))}"
        )
    _write_lines(args.out, lines)
    return 0


def _spec(flag: str, shape: str, spec: str, cast=int) -> list:
    """The comma-separated values of ``spec``, one per name in ``shape`` (after any "kind:")."""
    head = shape[:shape.find(":") + 1]
    values = spec[len(head):].split(",")
    if not spec.startswith(head) or len(values) != shape.count(",") + 1:
        raise ValueError(f"{flag} must look like {shape}, got {spec!r}")
    return [cast(v) for v in values]


def cmd_field(args) -> int:
    from .correlation import discrete_fields

    x0, y0, x1, y1 = _spec("--probes", "grid:x0,y0,x1,y1", args.probes)
    if x1 < x0 or y1 < y0:
        raise ValueError(f"empty probe grid {args.probes!r}: need x0 <= x1 and y0 <= y1")
    probes = [(a, b) for a in range(x0, x1 + 1) for b in range(y0, y1 + 1)]
    hs = _read(args.holes, HoleSystem)
    lines = ["a,b,p1,p2,p3,Fx,Fy,exactness"]
    for (a, b), fs in zip(probes, discrete_fields([left(a, b) for a, b in probes], hs)):
        if fs is not None:  # probes inside a hole are skipped
            lines.append(
                f"{a},{b},{_fmt(fs.p1)},{_fmt(fs.p2)},{_fmt(fs.p3)},"
                f"{_fmt(fs.fx)},{_fmt(fs.fy)},{fs.exactness}"
            )
    _write_lines(args.out, lines)
    skipped = len(probes) - (len(lines) - 1)  # rows after the header
    if skipped:
        print(f"field: skipped {skipped} of {len(probes)} probes (inside a hole)", file=sys.stderr)
    return 0


def cmd_coulomb(args) -> int:
    from .continuum import CoincidentPoints, LimitConfig, LimitFields, Probe, coulomb_field

    x0, y0, x1, y1, nx, ny = _spec("--grid", "x0,y0,x1,y1,nx,ny", args.grid, float)
    if not (nx.is_integer() and ny.is_integer() and nx > 0 and ny > 0):
        raise ValueError(f"bad coulomb grid {args.grid!r}: need integers nx > 0 and ny > 0")
    if not all(math.isfinite(v) for v in (x0, y0, x1, y1)):
        raise ValueError(f"bad coulomb grid {args.grid!r}: bounds must be finite")
    nx, ny = int(nx), int(ny)
    if not 0 < args.R < math.inf:
        raise ValueError(f"--R must be positive and finite, got {args.R}")
    cfg = _read(args.config, LimitFields)  # each grid point is the probe; the file's is never read
    charges = (*cfg.positives, *cfg.negatives)
    distinct = len({(c.x, c.y) for c in charges}) == len(charges)
    lines = ["x,y,Fx,Fy"]
    skipped: Counter[str] = Counter()
    for i in range(nx):
        for j in range(ny):
            x = x0 + (x1 - x0) * i / max(nx - 1, 1)
            y = y0 + (y1 - y0) * j / max(ny - 1, 1)
            try:
                c = LimitConfig(cfg.positives, cfg.negatives, Probe(x, y), cfg.q)
                fx, fy = coulomb_field(c, args.R)
            except CoincidentPoints as exc:  # a grid point on a charge is skipped, not fatal
                if not distinct:  # two charges coincide, so every grid point fails
                    raise
                skipped[f"{type(exc).__name__}: {exc}"] += 1
                continue
            lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(fx)},{_fmt(fy)}")
    _write_lines(args.out, lines)
    if skipped:
        reasons = "; ".join(f"{n} x {reason}" for reason, n in sorted(skipped.items()))
        print(
            f"coulomb: skipped {sum(skipped.values())} of {nx * ny} grid points ({reasons})",
            file=sys.stderr,
        )
    return 0


def cmd_converge(args) -> int:
    from .continuum import LimitConfig
    from .convergence import field_convergence_table

    scales = [int(r) for r in args.r_list.split(",")]
    if min(scales) <= 0:
        raise ValueError(f"--R-list scales must be positive, got {min(scales)}")
    cfg = _read(args.holes, LimitConfig)
    rows = field_convergence_table(cfg, scales)
    lines = ["R,RFx,RFy,limit_Fx,limit_Fy,rel_error"]
    for row in rows:
        lines.append(
            f"{row.R},{_fmt(row.r_fx)},{_fmt(row.r_fy)},"
            f"{_fmt(row.limit_fx)},{_fmt(row.limit_fy)},{_fmt(row.rel_error)}"
        )
    _write_lines(args.out, lines)
    return 0


def cmd_surface(args) -> int:
    from .surface import Window, average_surface, export_mesh

    if args.compare and not 0 < args.R < math.inf:
        raise ValueError(f"--R must be positive and finite, got {args.R}")
    if args.sheets < 1:
        raise ValueError(f"--sheets must be at least 1, got {args.sheets}")
    hs = _read(args.holes, HoleSystem)
    a0, b0, a1, b1 = _spec("--window", "a0,b0,a1,b1", args.window)
    sheet = average_surface(hs, Window(a0, b0, a1, b1))
    if args.compare:  # before any output, so a failing comparison writes nothing
        from .surface import compare_to_helicoids, helicoid_specs_for_system

        report = compare_to_helicoids(sheet, args.R, helicoid_specs_for_system(hs, args.R))
    export_mesh(sheet, args.sheets, args.out)
    print(f"residual = {_fmt(sheet.residual)}")
    if args.compare:  # an unmeasured gradient error prints as null
        fields = {k: v if v is None else float(_fmt(v)) for k, v in report._asdict().items()}
        print(json.dumps(fields, sort_keys=True))
    return 0


# the verifications that sample --trials random cases
TRIAL_CHECKS = ("identity31", "lemma33", "lemma34")


def cmd_verify(args) -> int:
    from . import verify as ver

    if args.what in TRIAL_CHECKS and args.trials <= 0:
        raise ValueError(f"--trials must be positive, got {args.trials}")
    rng = random.Random(args.seed)
    if args.what == "identity31":
        res = ver.verify_field_identity(trials=args.trials, rng=rng)
    elif args.what == "lemma33":
        res = ver.verify_block_shift(trials=args.trials, rng=rng)
    elif args.what == "lemma34":
        res = ver.verify_border_shift(trials=args.trials, rng=rng)
    elif args.what == "symmetries":
        if args.limit < 0:
            raise ValueError(f"--limit must be non-negative, got {args.limit}")
        if args.limit > MAX_CLOSED_FORM_N // 2:  # the orbit of (L, L) reaches n = 2L
            raise ValueError(f"--limit must be at most {MAX_CLOSED_FORM_N // 2}, whose couplings "
                             f"stay within the closed form's bound, got {args.limit}")
        res = ver.verify_symmetries(limit=args.limit)
    else:  # circulation
        res = ver.verify_circulation()
    print(f"{args.what}: max residual = {_fmt(res.max_residual)} over {res.cases} cases")
    return 0 if res.ok else 1


def cmd_oracle(args) -> int:
    from .oracle import (
        count_tilings,
        hexagon,
        oracle_probability,
        oracle_probability_float,
    )

    region = hexagon(*_spec("--region", "hex:a,b,c", args.region))
    hs = _read(args.holes, HoleSystem) if args.holes else HoleSystem(())
    if args.holes:
        region = region.remove(hs)
    if args.action == "count":
        print(count_tilings(region))
        return 0
    # compare
    if args.lozenge is None:
        raise ValueError("oracle compare needs --lozenge x,y,direction")
    from .correlation import placement_probability

    x, y, d = _spec("--lozenge", "x,y,direction", args.lozenge)
    loz = LozengeLocation(x, y, d)
    bulk = placement_probability(loz, hs)
    if len(region) <= 600:
        finite = float(oracle_probability(loz, region))
    else:
        finite = oracle_probability_float(loz, region)
    print(f"finite_region = {_fmt(finite)}")
    print(f"bulk = {_fmt(bulk)}")
    print(f"gap = {_fmt(abs(finite - bulk))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lozenge", description=__doc__)
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coupling", help="evaluate the coupling function at one point")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--float", dest="float_only", action="store_true")
    p.set_defaults(func=cmd_coupling)

    p = sub.add_parser("coupling-table", help="dump coupling values on a square range")
    p.add_argument("--range", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_coupling_table)

    p = sub.add_parser("field", help="discrete field over a probe grid")
    p.add_argument("--holes", required=True)
    p.add_argument("--probes", required=True, help="grid:x0,y0,x1,y1 (oblique coords)")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("coulomb", help="limit field on a grid of probe positions")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True, help="x0,y0,x1,y1,nx,ny")
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_coulomb)

    p = sub.add_parser("converge", help="exact field vs limit field over an R list")
    p.add_argument("--holes", required=True, help="limit configuration json")
    p.add_argument("--R-list", dest="r_list", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("surface", help="average lifting surface as an OBJ mesh")
    p.add_argument("--holes", required=True)
    p.add_argument("--window", required=True, help="node bounds a0,b0,a1,b1")
    p.add_argument("--R", type=float, default=16.0)
    p.add_argument("--sheets", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--compare", action="store_true")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("verify", help="run one of the identity checks")
    p.add_argument("what", choices=[*TRIAL_CHECKS, "symmetries", "circulation"])
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--limit", type=int, default=12)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="finite-region enumeration cross-checks")
    p.add_argument("action", choices=["count", "compare"])
    p.add_argument("--region", required=True, help="hex:a,b,c")
    p.add_argument("--holes", default=None)
    p.add_argument("--lozenge", default=None, help="x,y,direction")
    p.set_defaults(func=cmd_oracle)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

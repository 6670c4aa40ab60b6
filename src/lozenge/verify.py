"""Verification battery behind ``lozenge verify``.

Each check returns a small result record; the CLI turns ``ok`` into the
process exit status.  The same functions back the acceptance tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .continuum import (
    border_block,
    border_block_reduced,
    border_block_target,
    field_ratio,
    field_ratio_closed_form,
    random_zeta_function,
    sample_limit_config,
    shift_block,
    shift_block_cols,
    shift_block_rows,
)
from .coupling import _eval_reduced, coupling_p_quadrature, reduce_domain
from .lattice import HoleSystem, hole
from .surface import FIBER_MODULUS, enclosed_charge, loop_circulation, rectangle_loop


@dataclass
class VerifyResult:
    ok: bool
    max_residual: float
    cases: int


def verify_field_identity(trials: int = 100, rng: random.Random | None = None,
                          tolerance: float = 1e-8) -> VerifyResult:
    """Determinant field ratio against its closed form on random configs."""
    rng = rng or random.Random(7)
    worst = 0.0
    for _ in range(trials):
        cfg = sample_limit_config(rng)
        lhs = field_ratio(cfg)
        rhs = field_ratio_closed_form(cfg)
        resid = abs(lhs - rhs) / (1.0 + abs(rhs))
        worst = max(worst, resid)
    return VerifyResult(ok=worst <= tolerance, max_residual=worst, cases=trials)


def verify_block_shift(trials: int = 20, rng: random.Random | None = None) -> VerifyResult:
    """Row and column operations shift the 2x2 bracket block exactly."""
    rng = rng or random.Random(7)
    bad = 0
    for _ in range(trials):
        f = random_zeta_function(rng)
        a = rng.randint(-6, 6)
        if shift_block_rows(shift_block(a, f)) != shift_block(a - 1, f):
            bad += 1
        if shift_block_cols(shift_block(a, f)) != shift_block(a + 1, f):
            bad += 1
    return VerifyResult(ok=bad == 0, max_residual=float(bad), cases=2 * trials)


def verify_border_shift(trials: int = 20, rng: random.Random | None = None) -> VerifyResult:
    """Bordered 3x3 reduction lands exactly on its displayed target."""
    rng = rng or random.Random(7)
    bad = 0
    for _ in range(trials):
        f = random_zeta_function(rng)
        al, be, ga = (rng.randint(-6, 6) for _ in range(3))
        if border_block_reduced(border_block(al, be, ga, f)) != border_block_target(al, be, ga, f):
            bad += 1
    return VerifyResult(ok=bad == 0, max_residual=float(bad), cases=trials)


def verify_symmetries(limit: int = 12, quad_limit: int = 8,
                      quad_tol: float = 1e-10) -> VerifyResult:
    """Coupling symmetries and the local equation exactly, plus the quadrature cross-check.

    Every orbit representative with first coordinate <= -1 is evaluated
    independently through the defining integral, so agreement is a real
    consistency statement and not a cache artifact.  On the same box the
    local equation P(x,y) + P(x-1,y) + P(x,y-1) = [x = y = 0] is checked
    from those values; it does not add to ``cases``.
    """
    cases = 0
    worst = 0.0
    ok = True
    memo: dict[tuple[int, int], object] = {}

    def value(x: int, y: int):
        r = reduce_domain(x, y)
        if r not in memo:
            memo[r] = _eval_reduced(*r)
        return memo[r]

    seen_orbits: set[frozenset] = set()
    for x in range(-limit, limit + 1):
        for y in range(-limit, limit + 1):
            orbit = frozenset({
                (x, y), (y, x), (-x - y - 1, x), (x, -x - y - 1),
                (y, -x - y - 1), (-x - y - 1, y),
            })
            if orbit in seen_orbits:
                continue
            seen_orbits.add(orbit)
            vals = [value(*r) for r in {reduce_domain(*p) for p in orbit}]
            cases += 1
            if any(v != vals[0] for v in vals[1:]):
                ok = False
    for x in range(-limit, limit + 1):
        for y in range(-limit, limit + 1):
            total = value(x, y) + value(x - 1, y) + value(x, y - 1)
            if total != (1 if x == y == 0 else 0):
                ok = False
    for x in range(-quad_limit, 0):
        for y in range(-quad_limit, quad_limit + 1):
            exact = float(_eval_reduced(x, y))
            approx = coupling_p_quadrature(x, y)
            worst = max(worst, abs(exact - approx))
            cases += 1
    if worst > quad_tol:
        ok = False
    return VerifyResult(ok=ok, max_residual=worst, cases=cases)


def verify_circulation(tolerance: float = 1e-8) -> VerifyResult:
    """Loop sums of height increments match the enclosed charge.

    A loop enclosing no net charge has circulation exactly zero and must
    close within a tenth of the tolerance.
    """
    hs = HoleSystem((hole("E", 0, 0), hole("W", 6, 0)))
    worst = 0.0
    ok = True
    cases = 0
    loops = [
        (-4, -8, 4, 6),      # around the positive hole
        (2, -14, 12, 0),     # around the negative hole
        (-4, -14, 12, 6),    # around both
        (-8, 0, -4, 4),      # contractible
        (8, 2, 12, 6),       # contractible
    ]
    for rect in loops:
        loop = rectangle_loop(*rect)
        total = loop_circulation(loop, hs)
        q = enclosed_charge(rect, hs)
        resid = abs(total + FIBER_MODULUS * q)
        ok = ok and resid <= (tolerance if q else tolerance / 10)
        worst = max(worst, resid)
        cases += 1
    return VerifyResult(ok=ok, max_residual=worst, cases=cases)

"""Convergence harness: exact finite-R quantities against their limits."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .continuum import LimitConfig, coulomb_field
from .correlation import discrete_field
from .lattice import HoleSystem, MultiHole, left


class ConvergenceRow(NamedTuple):
    R: int
    r_fx: float
    r_fy: float
    limit_fx: float
    limit_fy: float
    rel_error: float


# largest |R*x| placed on the lattice: one coupling value at that distance
# takes about a minute, and far beyond it exhausts memory
MAX_SCALED_COORDINATE = 2 ** 16


def _scaled(R: int, x: float) -> int:
    """round(R*x); a ValueError if |R*x| exceeds ``MAX_SCALED_COORDINATE``."""
    v = R * x
    if not abs(v) <= MAX_SCALED_COORDINATE:
        raise ValueError(f"scaled coordinate {R}*{x!r} lies beyond {MAX_SCALED_COORDINATE}")
    return round(v)


def lattice_system_at_scale(cfg: LimitConfig, R: int) -> HoleSystem:
    """Place the limit configuration on the lattice at scale R.

    Each weight-s charge becomes a horizontal string of s side-2 holes
    (slope 1, indices 0, 2, ..., 2s-2) anchored at the rounded position.
    A scaled coordinate beyond ``MAX_SCALED_COORDINATE`` raises ValueError
    before the hole system is built.
    """
    holes = []
    for sign_kind, charges in (("E", cfg.positives), ("W", cfg.negatives)):
        for c in charges:
            anchor = (_scaled(R, c.x), _scaled(R, c.y))
            holes.append(
                MultiHole(sign_kind, Fraction(1), tuple(range(0, 2 * c.size, 2)), anchor)
            )
    return HoleSystem(tuple(holes))


def field_convergence_table(cfg: LimitConfig, r_values: list[int]) -> list[ConvergenceRow]:
    """R * (exact field) vs the limit coefficient, row per scale; every scale is placed first."""
    probe = cfg.probe
    placed = [(R, lattice_system_at_scale(cfg, R), left(_scaled(R, probe.x), _scaled(R, probe.y)))
              for R in r_values]
    rows = []
    lim_fx, lim_fy = coulomb_field(cfg, 1.0)  # 1/R coefficient
    norm = math.hypot(lim_fx, lim_fy)
    for R, hs, probe in placed:
        fs = discrete_field(probe, hs)
        rfx, rfy = R * fs.fx, R * fs.fy
        err = math.hypot(rfx - lim_fx, rfy - lim_fy) / norm if norm else math.inf
        rows.append(
            ConvergenceRow(
                R=R,
                r_fx=rfx,
                r_fy=rfy,
                limit_fx=lim_fx,
                limit_fy=lim_fy,
                rel_error=err,
            )
        )
    return rows


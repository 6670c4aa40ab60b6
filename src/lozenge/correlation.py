"""Joint correlations of monomers and holes via exact determinants.

The correlation of a balanced monomer configuration is the absolute value
of a determinant whose entries are coupling values at coordinate
differences; charge-imbalanced configurations (more rights than lefts)
append column pairs of asymptotic-series coefficients, two per surplus
pair.  Every coefficient has a closed form in Q*(sqrt(3)/pi), so every
determinant is evaluated exactly in Q[sqrt(3)/pi].

A placement probability is |omega(holes + lozenge)| / |omega(holes)|.  The
lozenge borders the hole matrix M with one row (its right monomer), one
column (its left monomer) and a corner, so the numerator is
corner*D - row*adj(M)*col with D = det M (Kenyon's local statistics in
bordered-determinant form).  ``hole_context`` builds M, D and adj(M) once
per hole system.  Every numerator of that system goes through one batched
path: the lozenges are sorted by left monomer, adj(M)*col is built once
per left monomer, and each lozenge then costs one row dot plus corner*D,
all on integer numerators over one denominator.  ``numerator``,
``probability``, ``discrete_field`` and ``occupation_probabilities`` call
that path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .exact import BorderedDet, SqrtPiPoly, adjugate_exact, det_exact
from .coupling import coupling_p, u_exact
from .lattice import (
    LEFT,
    RIGHT,
    HoleSystem,
    LozengeLocation,
    Monomer,
    UnpairableConfiguration,
    lozenges_covering,
    pairable,
)

EXACT = "exact"
EXTRAPOLATED = "extrapolated"

SQRT3_2 = math.sqrt(3.0) / 2.0

# Unit vectors along the long diagonals of the three lozenge classes
# (polar directions 0, 2pi/3, 4pi/3 in the node frame).
E1 = (1.0, 0.0)
E2 = (-0.5, SQRT3_2)
E3 = (-0.5, -SQRT3_2)


class ZeroDenominator(ZeroDivisionError):
    pass


class ProbeOverlapsHole(ValueError):
    pass


def _reflects(monomers: Sequence[Monomer]) -> bool:
    """True if rights are in deficit, so the configuration is reflected.

    The reflection is across a vertical lattice line, which swaps species.
    """
    return sum(1 for m in monomers if m.kind == RIGHT) * 2 < len(monomers)


@dataclass(frozen=True)
class MonomerConfig:
    rights: tuple[tuple[int, int], ...]
    lefts: tuple[tuple[int, int], ...]

    @classmethod
    def from_monomers(cls, monomers: Sequence[Monomer]) -> "MonomerConfig":
        ms = list(monomers)
        if _reflects(ms):
            ms = [m.reflect_vertical() for m in ms]
        rights = tuple((m.a, m.b) for m in ms if m.kind == RIGHT)
        lefts = tuple((m.a, m.b) for m in ms if m.kind == LEFT)
        return cls(rights, lefts)

    @property
    def surplus(self) -> int:
        return len(self.rights) - len(self.lefts)


@dataclass(frozen=True)
class CorrelationValue:
    value: float
    exactness: str
    signed: SqrtPiPoly

    def __float__(self) -> float:
        return self.value


def _exact_row(a: int, b: int, lefts, halves: int) -> list[SqrtPiPoly]:
    """Row of the right monomer (a, b): couplings to the lefts, then u_s columns."""
    row = [coupling_p(a - c, b - d) for c, d in lefts]
    for s in range(halves):
        row.append(u_exact(s, a, b + 1))
        row.append(u_exact(s, a + 1, b))
    return row


def _exact_matrix(cfg: MonomerConfig) -> list[list[SqrtPiPoly]]:
    halves = cfg.surplus // 2
    return [_exact_row(a, b, cfg.lefts, halves) for a, b in cfg.rights]


def correlation_det(cfg: MonomerConfig, check_pairing: bool = True) -> CorrelationValue:
    """Correlation of the configuration as a determinant magnitude."""
    m, n = len(cfg.rights), len(cfg.lefts)
    if (m + n) % 2:
        raise UnpairableConfiguration("odd number of monomers")
    if check_pairing:
        monomers = [Monomer(RIGHT, a, b) for a, b in cfg.rights] + [
            Monomer(LEFT, c, d) for c, d in cfg.lefts
        ]
        if not pairable(monomers):
            raise UnpairableConfiguration(
                "monomers cannot be paired sharing vertices"
            )
    det = det_exact(_exact_matrix(cfg))
    return CorrelationValue(
        value=abs(float(det)),
        exactness=EXACT if m == n else EXTRAPOLATED,
        signed=det,
    )


def _decompose(
    hs: HoleSystem, probes: Sequence[LozengeLocation | Monomer]
) -> list[Monomer]:
    out: list[Monomer] = []
    for p in probes:
        if isinstance(p, LozengeLocation):
            out.extend(p.monomers())
        else:
            out.append(p)
    for t in hs.tri_holes():
        out.extend(sorted(t.decompose()))
    return out


def omega(
    hs: HoleSystem, probes: Sequence[LozengeLocation | Monomer] = ()
) -> CorrelationValue:
    """Joint correlation of the hole system plus optional probes."""
    cfg = MonomerConfig.from_monomers(_decompose(hs, probes))
    return correlation_det(cfg)


class HoleContext:
    """What every placement probability of one hole system shares.

    Holds the decomposed hole monomers, whether they are reflected, the hole
    triangles, the denominator omega(holes) (whose single ``pairable`` call
    gives the pairability verdict) and, when D != 0, the exact matrix M,
    D = det M and adj(M).  An invalid system keeps its exception and raises
    it when a probability is asked for, so that probe overlap is still
    reported first.
    """

    def __init__(self, hs: HoleSystem):
        self.hs = hs
        self.monomers = tuple(_decompose(hs, ()))
        self.reflect = _reflects(self.monomers)
        self.triangles = hs.triangles()
        self.cfg = MonomerConfig.from_monomers(self.monomers)
        self.error: Exception | None = None
        self.den: CorrelationValue | None = None
        self.matrix: tuple[tuple[SqrtPiPoly, ...], ...] | None = None
        self.adjugate: tuple[tuple[SqrtPiPoly, ...], ...] | None = None
        self.bordered: BorderedDet | None = None
        try:
            self.den = omega(hs)
        except UnpairableConfiguration as exc:
            self.error = exc
            return
        if not self.den.signed.is_zero():
            # tuples: the memoised context is shared by every caller
            self.matrix = tuple(map(tuple, _exact_matrix(self.cfg)))
            self.adjugate = tuple(map(tuple, adjugate_exact(self.matrix)))
            self.bordered = BorderedDet(self.den.signed, self.adjugate)

    def check_clear(self, probe_triangles: frozenset) -> None:
        if probe_triangles & self.triangles:
            raise ProbeOverlapsHole("probe intersects a hole")

    def denominator(self) -> CorrelationValue:
        if self.error is not None:
            raise type(self.error)(*self.error.args)
        return self.den

    def _bordered_numerators(self, Ls: Sequence[LozengeLocation]) -> Iterator[tuple[int, SqrtPiPoly]]:
        """(index, corner*D - row*adj(M)*col) for each lozenge; needs ``bordered``.

        The lozenges are taken in order of their (reflected) left monomer,
        which fixes the column: adj(M)*col is built once per left monomer
        and dropped before the next, so each lozenge costs one row dot and
        corner*D.
        """
        lefts, rights = self.cfg.lefts, self.cfg.rights
        halves = self.cfg.surplus // 2
        keyed = []
        for i, L in enumerate(Ls):
            r, l = L.monomers()
            if self.reflect:
                r, l = l.reflect_vertical(), r.reflect_vertical()
            keyed.append((l.a, l.b, r.a, r.b, i))
        keyed.sort()
        column = None
        for la, lb, ra, rb, i in keyed:
            if column != (la, lb):
                column = (la, lb)
                adj_col = self.bordered.adj_col([coupling_p(a - la, b - lb) for a, b in rights])
            row = _exact_row(ra, rb, lefts, halves)
            yield i, self.bordered.border(row, adj_col, coupling_p(ra - la, rb - lb))

    def numerator_values(self, Ls: Sequence[LozengeLocation]) -> list[float]:
        """|omega(holes + L)| for each lozenge, in input order."""
        self.denominator()  # an invalid system raises here
        if self.bordered is None:
            # D = 0, where adj(M) is not built
            return [omega(self.hs, [L]).value for L in Ls]
        out = [0.0] * len(Ls)
        for i, det in self._bordered_numerators(Ls):
            out[i] = abs(float(det))
        return out

    def numerator(self, L: LozengeLocation) -> CorrelationValue:
        """omega(holes + L), as a bordered determinant unless D = 0."""
        den = self.denominator()
        if self.bordered is None:
            return omega(self.hs, [L])
        ((_, det),) = self._bordered_numerators([L])
        return CorrelationValue(value=abs(float(det)), exactness=den.exactness, signed=det)

    def parts(self, L: LozengeLocation) -> tuple[CorrelationValue, CorrelationValue]:
        self.check_clear(L.triangles())
        return self.numerator(L), self.denominator()

    def probabilities(self, Ls: Sequence[LozengeLocation]) -> list[float]:
        """Placement probabilities of lozenges that are clear of the holes."""
        den = self.denominator().value
        if den == 0.0:
            raise ZeroDenominator("correlation of the hole system vanishes")
        return [v / den for v in self.numerator_values(Ls)]

    def probability(self, L: LozengeLocation) -> float:
        self.check_clear(L.triangles())
        return self.probabilities([L])[0]


@functools.lru_cache(maxsize=64)
def hole_context(hs: HoleSystem) -> HoleContext:
    """The memoised ``HoleContext`` of a hole system."""
    return HoleContext(hs)


def placement_parts(
    L: LozengeLocation, hs: HoleSystem
) -> tuple[CorrelationValue, CorrelationValue]:
    return hole_context(hs).parts(L)


def placement_probability(L: LozengeLocation, hs: HoleSystem) -> float:
    """Probability that the lozenge location is occupied, as a raw ratio."""
    return hole_context(hs).probability(L)


def occupation_probability(L: LozengeLocation, hs: HoleSystem) -> float:
    """Like ``placement_probability`` but 0 for locations overlapping a hole."""
    return occupation_probabilities([L], hs)[0]


def occupation_probabilities(Ls: Sequence[LozengeLocation], hs: HoleSystem) -> list[float]:
    """``occupation_probability`` of every lozenge, from one batched pass."""
    ctx = hole_context(hs)
    overlaps = [bool(L.triangles() & ctx.triangles) for L in Ls]
    clear = [L for L, o in zip(Ls, overlaps) if not o]
    # overlapping lozenges alone raise nothing, even for an invalid system
    probs = iter(ctx.probabilities(clear) if clear else ())
    return [0.0 if o else next(probs) for o in overlaps]


@dataclass(frozen=True)
class FieldSample:
    probe: Monomer
    p1: float
    p2: float
    p3: float
    fx: float
    fy: float
    exactness: str

    @property
    def vector(self) -> tuple[float, float]:
        """Cartesian field vector reconstructed from the class probabilities."""
        sign = 1.0 if self.probe.kind == LEFT else -1.0
        return (
            sign * (self.p1 * E1[0] + self.p2 * E2[0] + self.p3 * E3[0]),
            sign * (self.p1 * E1[1] + self.p2 * E2[1] + self.p3 * E3[1]),
        )


def discrete_field(e: Monomer, hs: HoleSystem) -> FieldSample:
    """Average-orientation field at a monomer from exact placement ratios.

    For right-pointing probes the mirror convention applies: the long
    diagonals are taken as pointing toward the partner monomer, which
    negates all three class vectors.
    """
    ctx = hole_context(hs)
    ctx.check_clear(frozenset({e}))
    p1, p2, p3 = ctx.probabilities(lozenges_covering(e))
    sign = 1.0 if e.kind == LEFT else -1.0
    return FieldSample(
        probe=e,
        p1=p1,
        p2=p2,
        p3=p3,
        fx=sign * SQRT3_2 * (p1 - p2),
        fy=sign * SQRT3_2 * (p1 - p3),
        # holes and lozenges share one surplus, so numerators inherit this
        exactness=ctx.den.exactness,
    )


def test_charge_field(
    x: int, y: int, alpha: int, beta: int, hs: HoleSystem
) -> float:
    """Relative change of the correlation under displacing a probe hole."""
    from .lattice import TriHole

    if alpha == 0 and beta == 0:
        raise ValueError("displacement (alpha, beta) must be nonzero")
    here = TriHole("E", x, y)
    there = TriHole("E", x + alpha, y + beta)
    blocked = hs.triangles()
    for t in (here, there):
        if t.triangles() & blocked:
            raise ProbeOverlapsHole(f"test hole {t} intersects the system")
    num = omega(hs, sorted(there.decompose()))
    den = omega(hs, sorted(here.decompose()))
    if den.value == 0.0:
        raise ZeroDenominator("correlation with the test hole vanishes")
    if num.signed == den.signed:
        ratio = 1.0  # exact-field equality, e.g. translation invariance
    else:
        ratio = num.value / den.value
    return (ratio - 1.0) / math.sqrt(alpha * alpha + alpha * beta + beta * beta)

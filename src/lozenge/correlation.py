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
bordered-determinant form).  ``HoleContext`` builds M once for each call
of ``placement_probability``, ``discrete_fields``, ``average_surface`` or
``loop_circulation`` and takes D and adj(M) from its one elimination,
keeping adj(M) as integer polynomials over one denominator; no context
outlives its call.  One batched loop, ``HoleContext.batch``, borders it
itself to form the numerators of a list of lozenges given as int codes
(``LozengeLocation.code``).  The batch owns its coupling values: one
``coupling.prefill`` returns them as a table of integer pairs over one
denominator L, which the batch reads and drops when it returns.  The
lozenges are sorted by left monomer, adj(M)*col is built once per left
monomer, each row once per right monomer and corner*D once per direction,
and each lozenge then costs one row dot, all on integer numerators over
one batch-wide denominator.  The batch returns them exactly or as
|numerator| / |D|, rounded from the unreduced integers;
``HoleContext.probabilities`` encodes a list of ``LozengeLocation``s into
it, and every placement probability, field sample, surface height and
loop circulation goes through it.  The batch is also the one place that
gives a lozenge over a hole probability 0
(``placement_probability`` refuses one).
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple, Sequence

from .exact import SqrtPiPoly, _int_dot, _make, _over_common_denominator, det_exact, to_float
from .coupling import coupling_p, prefill, reduce_domain, u_exact
from .lattice import (
    CODE_BITS,
    LEFT,
    RIGHT,
    RIGHT_OFFSET,
    HoleSystem,
    LozengeLocation,
    Monomer,
    UnpairableConfiguration,
    ZeroDenominator,
    charge,
    lozenges_covering,
    pack,
    pairable,
    unpack,
)

EXACT = "exact"
EXTRAPOLATED = "extrapolated"

SQRT3_2 = math.sqrt(3.0) / 2.0

# the batch key of a lozenge is its code above INDEX_BITS bits of its input index
INDEX_BITS = 32
INDEX_MASK = (1 << INDEX_BITS) - 1
# the direction of a lozenge's mirror image: reflection swaps the offsets (-1, 0) and (0, -1)
MIRRORED = (None, 1, 3, 2)
# the packed offset of each direction's right monomer from its left one
RIGHT_PACKED = (None, *(pack(*RIGHT_OFFSET[d]) for d in (1, 2, 3)))


class ProbeOverlapsHole(ValueError):
    pass


def _reflects(monomers: Sequence[Monomer]) -> bool:
    """True if rights are in deficit, so the configuration is reflected.

    The reflection is across a vertical lattice line, which swaps species.
    """
    return charge(monomers) < 0


class MonomerConfig(NamedTuple):
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


class CorrelationValue(NamedTuple):
    value: float
    exactness: str
    signed: SqrtPiPoly


def _u_columns(a: int, b: int, halves: int) -> list[SqrtPiPoly]:
    """The surplus columns of the right monomer (a, b)'s row, one pair per s < halves:
    u_s(a, b + 1), then u_s(a + 1, b).  The matrix and the batch's rows share this layout."""
    return [u for s in range(halves) for u in (u_exact(s, a, b + 1), u_exact(s, a + 1, b))]


def _exact_row(a: int, b: int, lefts, halves: int) -> list[SqrtPiPoly]:
    """Row of the right monomer (a, b): couplings to the lefts, then u_s columns."""
    return [coupling_p(a - c, b - d) for c, d in lefts] + _u_columns(a, b, halves)


def _exact_matrix(cfg: MonomerConfig) -> list[list[SqrtPiPoly]]:
    halves = cfg.surplus // 2
    return [_exact_row(a, b, cfg.lefts, halves) for a, b in cfg.rights]


def _check_pairable(cfg: MonomerConfig) -> None:
    """Raise ``UnpairableConfiguration`` unless the monomers can be paired sharing vertices."""
    if (len(cfg.rights) + len(cfg.lefts)) % 2:
        raise UnpairableConfiguration("odd number of monomers")
    monomers = [Monomer(RIGHT, a, b) for a, b in cfg.rights] + [
        Monomer(LEFT, c, d) for c, d in cfg.lefts
    ]
    if not pairable(monomers):
        raise UnpairableConfiguration("monomers cannot be paired sharing vertices")


def _value(cfg: MonomerConfig, det: SqrtPiPoly) -> CorrelationValue:
    """The correlation whose signed determinant is ``det``."""
    return CorrelationValue(
        value=abs(float(det)),
        exactness=EXACT if len(cfg.rights) == len(cfg.lefts) else EXTRAPOLATED,
        signed=det,
    )


def correlation_det(cfg: MonomerConfig) -> CorrelationValue:
    """Correlation of the configuration as a determinant magnitude."""
    _check_pairable(cfg)
    return _value(cfg, det_exact(_exact_matrix(cfg)))


def _decompose(hs: HoleSystem, probes: Sequence[LozengeLocation]) -> list[Monomer]:
    out = [m for p in probes for m in p.monomers()]
    for t in hs.tri_holes():
        out.extend(sorted(t.decompose()))
    return out


def omega(hs: HoleSystem, probes: Sequence[LozengeLocation] = ()) -> CorrelationValue:
    """Joint correlation of the hole system plus optional probes."""
    cfg = MonomerConfig.from_monomers(_decompose(hs, probes))
    return correlation_det(cfg)


class HoleContext:
    """What every placement probability of one hole system shares.

    Holds the hole triangles, whether the decomposed hole monomers are
    reflected, their configuration, the denominator D = omega(holes) and,
    when D != 0, adj(M) ready for bordering.  The constructor raises
    ``UnpairableConfiguration`` if the hole monomers cannot be paired (no
    ``HoleSystem`` decomposes into such a set).
    """

    def __init__(self, hs: HoleSystem):
        monomers = _decompose(hs, ())
        self.reflect = _reflects(monomers)
        self.triangles = hs.triangles()
        # the one overlap rule: a lozenge overlaps a hole iff it covers a hole triangle
        self.covering = frozenset(L.code() for t in self.triangles for L in lozenges_covering(t))
        self.cfg = MonomerConfig.from_monomers(monomers)
        _check_pairable(self.cfg)
        det, adj = det_exact(_exact_matrix(self.cfg), adjugate=True)  # the one elimination of M
        self.den = _value(self.cfg, det)
        self.adj = None  # adj(M) as one denominator and rows of integer polynomials, if D != 0
        if adj is not None:
            n, (adj_den, flat) = len(adj), _over_common_denominator([x for r in adj for x in r])
            self.adj = adj_den, [flat[k * n:(k + 1) * n] for k in range(n)]

    def probabilities(self, Ls: Sequence[LozengeLocation]) -> list[float]:
        """Placement probabilities |omega(holes + L)| / |D| of each lozenge, in input order."""
        return self.batch([L.code() for L in Ls])

    def batch(self, codes: Sequence[int], exact: bool = False) -> list:
        """The placement probability of each coded lozenge (``LozengeLocation.code``), in input
        order, or with ``exact`` its signed numerator omega(holes + L) as a ``SqrtPiPoly``.

        Each probability is rounded from its numerator's unreduced integers as
        soon as it is formed, so a surface's batch builds no ``SqrtPiPoly`` and
        never holds thousands of exact numerators at once.

        A lozenge over a hole is never placed: one in ``covering`` gets
        numerator 0 and no bordered determinant.  The formula gives 0 there
        too, except on a hole's own interior pair (+-D).

        The coupling values of the corners and of the batch's distinct columns
        and rows come first, from one ``prefill``: a table of integer pairs
        over one denominator L, owned by this call and dropped when it
        returns.  Every coupling value the batch reads is in it.

        The other lozenges are keyed by one int, their (reflected) code above
        their input index, and taken in key order: by column and row of the
        left monomer, which fixes the column of the border, so adj(M)*col is
        built once per left monomer and dropped before the next.  A right
        monomer is at most one column left of its lozenge's left monomer, so
        each row is read from the table once and kept while its column is
        live.  Rows, columns and corners share the table's L, so every
        numerator is over one batch-wide denominator L*m, and each lozenge
        costs one dot of its row with adj(M)*col, both scaled once, and with
        corner*D*L*m, formed once per direction.
        """
        if self.adj is None:
            raise ZeroDenominator("correlation of the hole system vanishes")
        den = self.den.value
        convert = _make if exact else lambda nums, d: abs(to_float(nums, d)) / den
        zero = convert([], 1)
        lefts, rights = self.cfg.lefts, self.cfg.rights
        halves = self.cfg.surplus // 2
        out, keys = [None] * len(codes), []
        cols, rws = set(), set()  # the distinct (reflected) left and right monomers, packed
        covering, reflect = self.covering, self.reflect
        bits, mask, right_packed = INDEX_BITS, INDEX_MASK, RIGHT_PACKED  # local in both loops
        for i, c in enumerate(codes):
            if c in covering:
                out[i] = zero
                continue
            if reflect:  # left (a, b) becomes right (-b, -a), right (ra, rb) left (-rb, -ra)
                (a, b), d = unpack(c >> 2), c & 3
                da, db = RIGHT_OFFSET[d]
                c = -pack(b + db, a + da) * 4 + MIRRORED[d]
            keys.append(c << bits | i)
            q = c >> 2
            cols.add(q)
            rws.add(q + right_packed[c & 3])
        keys.sort()
        # the corner couplings P(r - l), (reflected) right minus left: reflection swaps
        # each offset's coordinates, which leaves the set of offsets as it is
        table_den, table = prefill(chain(
            RIGHT_OFFSET.values(),
            ((a - la, b - lb) for la, lb in map(unpack, cols) for a, b in rights),
            ((ra - c, rb - d) for ra, rb in map(unpack, rws) for c, d in lefts)))
        del cols, rws
        adj_den, adj = self.adj
        det = self.den.signed
        # a row's u_s entries are over 1 or 2, so rows are over row_den = lcm(L, 2) with a surplus
        row_den = math.lcm(table_den, 2) if halves else table_den
        scale = row_den // table_den
        # corner*D is over L*det.den and row*adj(M)*col over L*row_den*adj_den: both go
        # over the batch-wide L*m, m = lcm(det.den, row_den*adj_den)
        m = math.lcm(det.den, row_den * adj_den)
        outer_scale, inner_scale, num_den = m // det.den, m // (row_den * adj_den), table_den * m
        corners = [None]  # C_d = corner*D*L*m, once per direction
        for d in (1, 2, 3):
            corner = table[reduce_domain(*RIGHT_OFFSET[d])]
            corners.append([o * outer_scale for o in _int_dot([corner], [det.nums])])
        col = cla = None
        rows: dict[int, list] = {}  # the rows of the rights in columns la-1 and la, by position
        for k in keys:
            c = k >> bits
            q, d = c >> 2, c & 3
            if q != col:
                col, (la, lb) = q, unpack(q)
                if la != cla:  # keep the rows from the least position of column la - 1 on
                    cla, live = la, pack(la - 1, -(1 << CODE_BITS - 1))
                    rows = {r: v for r, v in rows.items() if r >= live}
                # -adj(M)*col*L*m/row_den as integer polynomials, then C_d: a row ending
                # in 1 dotted with it is corner*D - row*adj(M)*col over L*m, unreduced
                cs = [table[reduce_domain(a - la, b - lb)] for a, b in rights]
                ac = [[-v * inner_scale for v in _int_dot(adj_j, cs)] for adj_j in adj]
                acs = [None] + [ac + [c_d] for c_d in corners[1:]]
            r = q + right_packed[d]
            row = rows.get(r)
            if row is None:
                ra, rb = unpack(r)
                row = [table[reduce_domain(ra - x, rb - y)] for x, y in lefts]
                if scale != 1:
                    row = [(p * scale, g * scale) for p, g in row]
                row += [[n * (row_den // u.den) for n in u.nums] for u in _u_columns(ra, rb, halves)]
                row.append((1,))
                rows[r] = row
            out[k & mask] = convert(_int_dot(row, acs[d]), num_den)
        return out


def placement_probability(L: LozengeLocation, hs: HoleSystem) -> float:
    """Probability that the lozenge location is occupied, as a raw ratio."""
    ctx = HoleContext(hs)
    code = L.code()
    if code in ctx.covering:
        raise ProbeOverlapsHole("probe intersects a hole")
    return ctx.batch([code])[0]


class FieldSample(NamedTuple):
    probe: Monomer
    p1: float
    p2: float
    p3: float
    fx: float
    fy: float
    exactness: str


def discrete_fields(probes: Sequence[Monomer], hs: HoleSystem) -> list[FieldSample | None]:
    """``discrete_field`` of every probe from one batch of placement probabilities; None inside a hole."""
    ctx = HoleContext(hs)
    clear = [e for e in probes if e not in ctx.triangles]
    # probes all inside holes evaluate nothing, so a vanishing denominator does not raise
    probs = iter(ctx.probabilities([L for e in clear for L in lozenges_covering(e)]) if clear else ())
    out: list[FieldSample | None] = []
    for e in probes:
        if e in ctx.triangles:
            out.append(None)
            continue
        p1, p2, p3 = next(probs), next(probs), next(probs)
        sign = 1.0 if e.kind == LEFT else -1.0
        # holes and lozenges share one surplus, so numerators inherit its exactness
        out.append(FieldSample(e, p1, p2, p3, sign * SQRT3_2 * (p1 - p2), sign * SQRT3_2 * (p1 - p3),
                               ctx.den.exactness))
    return out


def discrete_field(e: Monomer, hs: HoleSystem) -> FieldSample:
    """Average-orientation field at a monomer from exact placement ratios.

    For right-pointing probes the mirror convention applies: the long
    diagonals are taken as pointing toward the partner monomer, which
    negates all three class vectors.
    """
    (fs,) = discrete_fields([e], hs)
    if fs is None:
        raise ProbeOverlapsHole("probe intersects a hole")
    return fs


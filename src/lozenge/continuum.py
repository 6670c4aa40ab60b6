"""Scaling-limit closed forms and the limit determinant machinery.

The 1/R coefficient of each placement probability is a ratio of
determinants of small matrices whose entries are brackets
f(zeta) - f(1/zeta), zeta = exp(2*pi*i/3), of rational functions f with
rational data.  Writing f(zeta) = a + b*zeta, each bracket is i*sqrt(3)*b,
so every matrix is i*sqrt(3) times a rational matrix, built exactly over
Q(zeta) and stored as integer rows over row denominators.  The numerators
border the base with the same column 0 and differ only in row 0, so each
ratio is i*sqrt(3) times numer[0][0] - row0 . base^-1 col0, from one
fraction-free integer elimination of the base by ``exact.bareiss``, the
kernel ``det_exact`` runs on polynomials.  Floats appear only at the end,
as correctly rounded values of exact numbers.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exact import SqrtPiPoly, ZetaFrac, back_substitute, bareiss, round_sqrt3_times, zeta_bracket
from .lattice import _fields, _integer, _number, distance, slope, to_cartesian

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


class CoincidentPoints(ValueError):
    pass


class SingularDenominator(ZeroDivisionError):
    pass


class ChargeImbalance(ValueError):
    """Raised when the negative total weight exceeds the positive one.

    The limit matrices have column blocks of width 2*(S - T); mirror the
    configuration through a vertical line (swapping hole species) instead
    of asking for negative widths.
    """


class CenterSingularity(ValueError):
    pass


class _ChargeFields(NamedTuple):
    x: float
    y: float
    size: int = 1
    alpha: int = 0
    beta: int = 0


class Charge(_ChargeFields):
    """One multihole in the scaling limit: position, weight, residues."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):  # size and residues are read as lattice indices are
        x, y, size, alpha, beta = _ChargeFields(*args, **kwargs)
        self = super().__new__(cls, _number(x, "x"), _number(y, "y"), _integer(size, "size"),
                               _integer(alpha, "alpha"), _integer(beta, "beta"))
        if self.size < 1:
            raise ValueError(f"{self}: size must be a positive integer")
        return self


class _ProbeFields(NamedTuple):
    x: float
    y: float
    alpha: int = 0
    beta: int = 0


class Probe(_ProbeFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):  # read as a charge's coordinates and residues are
        x, y, alpha, beta = _ProbeFields(*args, **kwargs)
        return super().__new__(cls, _number(x, "x"), _number(y, "y"),
                               _integer(alpha, "alpha"), _integer(beta, "beta"))


class LimitFields(NamedTuple):
    """A limit configuration's fields as given: ``LimitConfig`` is the same record, checked."""

    positives: tuple[Charge, ...] = ()
    negatives: tuple[Charge, ...] = ()
    probe: Probe = Probe(0.0, 0.0)
    q: Fraction = Fraction(1)

    @classmethod
    def from_json(cls, text: str):
        """A ``cls`` from JSON whose keys are the fields of each type, each object read
        as its type and ``q`` as a slope."""
        data = _fields(json.loads(text), "", "positives negatives probe q", "a limit configuration")
        try:
            for key in ("positives", "negatives"):
                if key in data:
                    data[key] = [Charge(**_fields(c, "x y", "size alpha beta", "a charge"))
                                 for c in data[key]]
            if "probe" in data:
                data["probe"] = Probe(**_fields(data["probe"], "x y", "alpha beta", "a probe"))
            if "q" in data:
                data["q"] = slope(data["q"])
            return cls(**data)
        except TypeError as exc:  # a value of the wrong JSON type
            raise ValueError(f"malformed limit configuration: {exc}") from None


class LimitConfig(LimitFields):
    """Charges, a probe and a slope with 3 | 1 - q, at distinct points."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        positives, negatives, probe, q = LimitFields(*args, **kwargs)
        self = super().__new__(cls, tuple(positives), tuple(negatives), probe, slope(q))
        if (1 - self.q).numerator % 3 != 0:
            raise ValueError(f"slope {self.q}: 3 does not divide 1 - q")
        pts = [(c.x, c.y) for c in (*self.positives, *self.negatives, self.probe)]
        for i, p in enumerate(pts):
            if p in pts[i + 1:]:
                raise CoincidentPoints(f"points {p} coincide")
        return self

    @property
    def total_positive(self) -> int:
        return sum(c.size for c in self.positives)

    @property
    def total_negative(self) -> int:
        return sum(c.size for c in self.negatives)

    @property
    def tail_width(self) -> int:
        return self.total_positive - self.total_negative - 1


class ZetaMatrixSet(NamedTuple):
    """The limit matrices divided by i*sqrt(3), as integer rows (den, nums) = nums / den.

    ``rows`` are rows 1..2S of both numerators, which differ only in row 0
    (``row0_x``, ``row0_y``); the base is a numerator without row and column 0.
    """

    rows: list[tuple[int, list[int]]]
    row0_x: tuple[int, list[int]]
    row0_y: tuple[int, list[int]]


def build_limit_matrices(cfg: LimitConfig) -> ZetaMatrixSet:
    """Assemble the three limit matrices for the configuration.

    Each entry <zeta^e f> is stored as its i*sqrt(3) coefficient,
    ``zeta_bracket(e, f)``, with f = (1 - q*zeta)^(t-1) / D(zeta)^t
    (times a binomial) or f = C (1 - q*zeta)^p (x - y*zeta)^power in Q(zeta)
    and the charge positions taken exactly.  The numerators differ only in
    row 0, so every entry of the other rows is evaluated once and shared.
    """
    if cfg.tail_width < -1:
        raise ChargeImbalance("total negative weight exceeds total positive weight; reflect first")
    S = cfg.total_positive
    nu = cfg.tail_width
    size = 2 * S + 1
    one_minus_qz = ZetaFrac(1, -cfg.q)
    probe = ZetaFrac(cfg.probe.x, -cfg.probe.y)  # a point (x, y) is x - y*zeta
    rho0 = cfg.probe.alpha - cfg.probe.beta

    def couplings(a: ZetaFrac, b: ZetaFrac, count: int) -> list[ZetaFrac]:
        # (1 - q*zeta)^(t-1) / D(zeta)^t for t = 1..count, where
        # D(zeta) = b_x - a_x - (b_y - a_y) zeta
        d = b - a
        if d.is_zero():
            raise CoincidentPoints("vanishing denominator in limit matrix entry")
        out = [d.inverse()]
        step = one_minus_qz * out[0]
        while len(out) < count:
            out.append(out[-1] * step)
        return out

    # numer_x, then row 0 of numer_y; each entry is a bracket's rational B
    m = [[Fraction(0)] * size for _ in range(size + 1)]
    negs = [(neg, ZetaFrac(neg.x, -neg.y)) for neg in cfg.negatives]

    # row blocks, one pair of rows per unit of positive weight; each coupling
    # or power block is the 2x2 shift block of its function
    r0 = 1
    for pos in cfg.positives:
        rho_pos = pos.alpha - pos.beta
        point = ZetaFrac(pos.x, -pos.y)
        to_probe = couplings(point, probe, pos.size)
        to_negs = [couplings(point, z, pos.size + neg.size - 1) for neg, z in negs]
        for i in range(1, pos.size + 1):
            rho = rho_pos - rho0
            m[r0][0], m[r0 + 1][0] = (zeta_bracket(e + rho, to_probe[i - 1]) for e in (-2, 0))
            col = 1
            for (neg, _), fs in zip(negs, to_negs):
                rho = rho_pos - (neg.alpha - neg.beta)
                for j in range(1, neg.size + 1):
                    f = fs[i + j - 2] * math.comb(i + j - 2, j - 1)
                    m[r0][col:col + 2], m[r0 + 1][col:col + 2] = shift_block(rho, f)
                    col += 2
            for kappa in range(nu + 1):
                c = math.comb(kappa, i - 1)
                if c:
                    f = one_minus_qz ** (i - 1) * point ** (kappa - (i - 1)) * c
                    m[r0][col:col + 2], m[r0 + 1][col:col + 2] = shift_block(rho_pos, f)
                col += 2
            r0 += 2

    # first row: coupling column blocks for each negative charge, then tail
    firsts = [(rho0 - (neg.alpha - neg.beta), f)
              for neg, z in negs for f in couplings(probe, z, neg.size)]
    firsts += [(rho0, probe ** kappa) for kappa in range(nu + 1)]
    for col, (rho, f) in enumerate(firsts):
        m[0][2 * col + 1:2 * col + 3] = zeta_bracket(rho, f), zeta_bracket(rho - 2, f)
        m[size][2 * col + 1:2 * col + 3] = zeta_bracket(rho - 1, f), zeta_bracket(rho - 3, f)

    rows = []
    for entries in m:
        den = math.lcm(*(v.denominator for v in entries))
        rows.append((den, [v.numerator * (den // v.denominator) for v in entries]))
    return ZetaMatrixSet(rows=rows[1:size], row0_x=rows[0], row0_y=rows[size])


def _schur_ratios(ms: ZetaMatrixSet) -> tuple[Fraction, Fraction]:
    """(r_x, r_y) with det(numer)/det(base) = i*sqrt(3)*r for each numerator.

    A numerator is the base bordered by its row 0 and the shared column 0,
    so r = numer[0][0] - row0 . x with base x = col0.  One fraction-free
    elimination (``exact.bareiss``) of the integer rows [base | col0] gives
    d = +-det(base) and triangular rows, whose back substitution
    (``exact.back_substitute``) gives the integers d*x (Cramer); then
    r = (d*numer[0][0] - row0 . d*x) / d.  Row denominators cancel in x
    but row 0's; column contents (gcds) cancel but column 0's.  Raises
    SingularDenominator when det(base) is exactly zero.
    """
    n = len(ms.rows)
    tops = (ms.row0_x, ms.row0_y)
    mat = [nums[1:] + nums[:1] for _, nums in ms.rows + list(tops)]  # column 0 last
    col_g = [math.gcd(*c) or 1 for c in zip(*mat)]
    mat = [[v // g for v, g in zip(r, col_g)] for r in mat]
    # short rows first: the minors, and so the integers, grow more slowly
    mat[:n] = sorted(mat[:n], key=lambda r: sum(v.bit_length() for v in r))
    if not bareiss(mat, n, 1):
        raise SingularDenominator("denominator determinant vanishes")
    d = mat[n - 1][n - 1] if n else 1
    dx = back_substitute(mat, n, n)
    return tuple(Fraction((d * top[n] - sum(t * v for t, v in zip(top, dx))) * col_g[n], d * den)
                 for top, (den, _) in zip(mat[n:], tops))


def field_ratio(cfg: LimitConfig) -> complex:
    """Determinant ratio (det numer_x - det numer_y)/det base.

    It governs the 1/R field coefficient.  The ratio is i*sqrt(3)*(r_x - r_y)
    with r_x, r_y rational, so the imaginary part is correctly rounded and
    the real part is zero.
    """
    r_x, r_y = _schur_ratios(build_limit_matrices(cfg))
    return complex(0.0, round_sqrt3_times(r_x - r_y))


def _oblique_charge_sums(cfg: LimitConfig) -> tuple[float, float]:
    """The discrete Coulomb kernel sums at the probe, one per oblique axis.

    Each charge of signed weight s at offset (dx, dy) from the probe adds
    s*(2dx + dy)/d2 and s*(dx + 2dy)/d2, where d2 = dx^2 + dx*dy + dy^2 is
    the squared oblique distance.  ``LimitConfig`` keeps the probe off every
    charge, so d2 is 0 only when it underflows: OverflowError names the points.
    """
    x0, y0 = cfg.probe.x, cfg.probe.y
    sx = sy = 0.0
    for sign, charges in ((1, cfg.positives), (-1, cfg.negatives)):
        for c in charges:
            dx, dy = x0 - c.x, y0 - c.y
            den = dx * dx + dx * dy + dy * dy
            if den == 0:
                raise OverflowError(f"squared distance from the probe ({x0!r}, {y0!r}) to the "
                                    f"charge at ({c.x!r}, {c.y!r}) underflows to 0")
            sx += sign * c.size * (2 * dx + dy) / den
            sy += sign * c.size * (dx + 2 * dy) / den
    return (sx, sy)


def field_ratio_closed_form(cfg: LimitConfig) -> complex:
    """Closed form of the determinant ratio: the discrete Coulomb kernel sum."""
    sx, _ = _oblique_charge_sums(cfg)
    return complex(0.0, SQRT3 * sx)


def coulomb_field(cfg: LimitConfig, R: float) -> tuple[float, float]:
    """Oblique-axis projections of the limiting Coulomb field at scale R;
    OverflowError when a component is not a finite float."""
    fx, fy = _oblique_charge_sums(cfg)
    scale = 3.0 / (4.0 * math.pi * R)
    field = (scale * fx, scale * fy)
    if not all(map(math.isfinite, field)):
        p = cfg.probe
        raise OverflowError(f"coulomb field at ({p.x!r}, {p.y!r}) with R = {R!r} "
                            f"is not finite: {field}")
    return field


def p_asymptotics(cfg: LimitConfig, R: float) -> tuple[float, float, float]:
    """Limit placement probabilities (p1, p2, p3) at scale R.

    p_k = 1/3 + i*sqrt(3)*r_k / (2*pi*i*R) = 1/3 + (sqrt(3)/pi) * r_k/(2R)
    and p3 = 1 - p1 - p2 are exact elements of Q[sqrt(3)/pi].
    """
    ratios = _schur_ratios(build_limit_matrices(cfg))
    p1, p2 = (SqrtPiPoly.from_pair(Fraction(1, 3), r / (2 * Fraction(R))) for r in ratios)
    return (float(p1), float(p2), float(SqrtPiPoly.one() - p1 - p2))


def surface_gradient_limit(
    cfg: LimitConfig, point: tuple[float, float]
) -> tuple[float, float]:
    """Cartesian gradient g of the limiting average surface at a Cartesian point.

    (-g_y, g_x) / (sqrt(2)*R) is the Cartesian field of ``coulomb_field`` at scale R.
    """
    return helicoid_gradient(helicoids_for_config(cfg), point)


# --- helicoids ---------------------------------------------------------------

class HelicoidSpec(NamedTuple):
    """Half-refined helicoid at a Cartesian center."""

    center: tuple[float, float]
    pitch: float          # the c of the underlying helicoid z = c*theta
    refinement: int = 1

    @property
    def fiber_modulus(self) -> float:
        return abs(2.0 * math.pi * self.pitch / self.refinement)


def helicoids(positives: Sequence[Charge], negatives: Sequence[Charge]) -> list[HelicoidSpec]:
    """The helicoid sum the rescaled average surface converges to: one per charge
    of size s, positives first, centred at ``to_cartesian(x, y)``, with pitch
    -3s/(sqrt(2) pi) (positive) or +3s/(sqrt(2) pi) (negative) and refinement 2s."""
    return [
        HelicoidSpec(center=to_cartesian(c.x, c.y),
                     pitch=sign * 3.0 * c.size / (SQRT2 * math.pi), refinement=2 * c.size)
        for sign, charges in ((-1, positives), (1, negatives)) for c in charges
    ]


def helicoids_for_config(cfg: LimitConfig) -> list[HelicoidSpec]:
    return helicoids(cfg.positives, cfg.negatives)


def helicoid_fiber(
    specs: Sequence[HelicoidSpec], point: tuple[float, float]
) -> tuple[float, float]:
    """Fiber (representative, modulus) of the helicoid sum above a point.

    Representatives use the atan2 branch theta in (-pi, pi], so they jump
    across the negative x-ray from each center; the coset itself does not.
    """
    if not specs:
        return (0.0, math.inf)
    rep = 0.0
    modulus = None
    for spec in specs:
        dx = point[0] - spec.center[0]
        dy = point[1] - spec.center[1]
        if dx == 0.0 and dy == 0.0:
            raise CenterSingularity("fiber requested at a helicoid axis")
        rep += spec.pitch * math.atan2(dy, dx)
        m = spec.fiber_modulus
        if modulus is None:
            modulus = m
        elif not math.isclose(modulus, m, rel_tol=1e-12):
            raise ValueError("helicoid sum needs a common fiber modulus")
    return (rep, modulus)


def helicoid_gradient(
    specs: Sequence[HelicoidSpec], point: tuple[float, float]
) -> tuple[float, float]:
    """Cartesian gradient of the helicoid sum at a point off every axis."""
    gx = gy = 0.0
    for s in specs:
        dx = point[0] - s.center[0]
        dy = point[1] - s.center[1]
        r2 = dx * dx + dy * dy
        if r2 == 0:
            raise CoincidentPoints("gradient evaluated at a charge center")
        gx += -s.pitch * dy / r2
        gy += s.pitch * dx / r2
    return (gx, gy)


def fiber_distance(value: float, rep: float, modulus: float) -> float:
    """Distance from ``value`` to the coset rep + modulus*Z."""
    if not math.isfinite(modulus):
        return abs(value - rep)
    d = (value - rep) % modulus
    return min(d, modulus - d)


# --- exact matrix-operation identities ---------------------------------------


def shift_block(a: int, f: ZetaFrac) -> list[list[Fraction]]:
    """The 2x2 bracket block with exponent offsets [[-1,-3],[1,-1]] plus a."""
    return [[zeta_bracket(a - 1, f), zeta_bracket(a - 3, f)],
            [zeta_bracket(a + 1, f), zeta_bracket(a - 1, f)]]


def shift_block_rows(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Row operations {R1 <- R2, R2 <- -R1 - R2}; shifts the block down by one."""
    r1, r2 = m
    return [list(r2), [-(a + b) for a, b in zip(r1, r2)]]


def shift_block_cols(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Column operations {C1 <- C2, C2 <- -C1 - C2}; shifts the block up by one."""
    return [[row[1], -(row[0] + row[1])] for row in m]


def border_block(alpha: int, beta: int, gamma: int, f: ZetaFrac) -> list[list[Fraction]]:
    """Bordered 3x3 bracket matrix whose corner reduction is exact."""
    return [[Fraction(0), zeta_bracket(1 + alpha, f), zeta_bracket(-1 + alpha, f)],
            [zeta_bracket(-3 + beta, f), zeta_bracket(-1 + gamma, f), zeta_bracket(-3 + gamma, f)],
            [zeta_bracket(-1 + beta, f), zeta_bracket(1 + gamma, f), zeta_bracket(-1 + gamma, f)]]


def border_block_reduced(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Apply {C2 <- -C2-C3, C3 <- C2} then {R2 <- -R2-R3, R3 <- R2}."""
    r1, r2, r3 = [[row[0], -(row[1] + row[2]), row[1]] for row in m]
    return [r1, [-(a + b) for a, b in zip(r2, r3)], list(r2)]


def border_block_target(alpha: int, beta: int, gamma: int, f: ZetaFrac) -> list[list[Fraction]]:
    return [[Fraction(0), zeta_bracket(alpha, f), zeta_bracket(-2 + alpha, f)],
            [zeta_bracket(-2 + beta, f), zeta_bracket(-1 + gamma, f), zeta_bracket(-3 + gamma, f)],
            [zeta_bracket(beta, f), zeta_bracket(1 + gamma, f), zeta_bracket(-1 + gamma, f)]]


def random_zeta_function(rng: random.Random) -> ZetaFrac:
    """Random invertible rational function of zeta with small rational data."""
    def frac() -> Fraction:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    while True:
        num, den = ZetaFrac(frac(), frac()), ZetaFrac(frac(), frac())
        if not num.is_zero() and not den.is_zero():
            return num / den


# --- random configurations for identity sweeps --------------------------------

_SLOPES = (Fraction(1), Fraction(-2), Fraction(4), Fraction(1, 4))
_MAX_EACH = 2  # charges of each sign
_MAX_SIZE = 2  # weight of each charge
_BOX = 3.0  # points lie in [-_BOX, _BOX]^2
_MIN_SEPARATION = 0.5  # between any two points, in both metrics


def sample_limit_config(rng: random.Random) -> LimitConfig:
    """Random admissible configuration with S >= T and separated points."""
    while True:
        m = rng.randint(1, _MAX_EACH)
        n = rng.randint(0, _MAX_EACH)
        sizes_pos = [rng.randint(1, _MAX_SIZE) for _ in range(m)]
        sizes_neg = [rng.randint(1, _MAX_SIZE) for _ in range(n)]
        if sum(sizes_pos) < sum(sizes_neg):
            continue
        pts: list[tuple[float, float]] = []
        ok = True
        for _ in range(m + n + 1):
            for _attempt in range(200):
                cand = (rng.uniform(-_BOX, _BOX), rng.uniform(-_BOX, _BOX))
                if all(math.dist(cand, p) >= _MIN_SEPARATION
                       and distance(cand, p) >= _MIN_SEPARATION for p in pts):
                    pts.append(cand)
                    break
            else:
                ok = False
                break
        if not ok:
            continue
        res = lambda: rng.randint(0, 2)
        positives = tuple(Charge(*pts[i], sizes_pos[i], res(), res()) for i in range(m))
        negatives = tuple(Charge(*pts[m + j], sizes_neg[j], res(), res()) for j in range(n))
        probe = Probe(pts[m + n][0], pts[m + n][1], res(), res())
        return LimitConfig(positives, negatives, probe, rng.choice(_SLOPES))

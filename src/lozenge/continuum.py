"""Scaling-limit closed forms and the limit determinant machinery.

The 1/R coefficient of each placement probability is a ratio of
determinants of small matrices whose entries are brackets
f(zeta) - f(1/zeta), zeta = exp(2*pi*i/3), of rational functions f with
rational data.  Writing f(zeta) = a + b*zeta, each bracket is i*sqrt(3)*b,
so every matrix is i*sqrt(3) times a rational matrix, built exactly over
Q(zeta) with ``zeta_bracket``, and each ratio is i*sqrt(3) times a
rational number.  The two numerators border the same base block with the
same column 0 and differ only in row 0, so each ratio is the Schur
complement numer[0][0] - row0 . base^-1 col0, from one exact solve against
the base; no numerator is reduced.  Floats appear only at the end, as
correctly rounded values of exact numbers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .exact import SqrtPiPoly, ZetaFrac, round_sqrt3_times, solve_exact, zeta_bracket
from .lattice import distance

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


@dataclass(frozen=True)
class Charge:
    """One multihole in the scaling limit: position, weight, residues."""

    x: float
    y: float
    size: int = 1
    alpha: int = 0
    beta: int = 0


@dataclass(frozen=True)
class Probe:
    x: float
    y: float
    alpha: int = 0
    beta: int = 0


@dataclass(frozen=True)
class LimitConfig:
    positives: tuple[Charge, ...]
    negatives: tuple[Charge, ...]
    probe: Probe = Probe(0.0, 0.0)
    q: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "positives", tuple(self.positives))
        object.__setattr__(self, "negatives", tuple(self.negatives))
        object.__setattr__(self, "q", Fraction(self.q))
        if (1 - self.q).numerator % 3 != 0:
            raise ValueError(f"slope {self.q}: 3 does not divide 1 - q")
        pts = [(c.x, c.y) for c in self.positives + self.negatives]
        pts.append((self.probe.x, self.probe.y))
        for i, p in enumerate(pts):
            for q2 in pts[i + 1:]:
                if p == q2:
                    raise CoincidentPoints(f"points {p} coincide")

    @property
    def total_positive(self) -> int:
        return sum(c.size for c in self.positives)

    @property
    def total_negative(self) -> int:
        return sum(c.size for c in self.negatives)

    @property
    def tail_width(self) -> int:
        return self.total_positive - self.total_negative - 1


@dataclass
class ZetaMatrixSet:
    """The limit matrices divided by i*sqrt(3), entry by entry."""

    base: list[list[Fraction]]      # denominator matrix, size 2S
    numer_x: list[list[Fraction]]   # first-class numerator, size 2S+1
    numer_y: list[list[Fraction]]   # second-class numerator, size 2S+1


def _exact_point(c: Charge | Probe) -> tuple[Fraction, Fraction]:
    return (Fraction(c.x), Fraction(c.y))


def build_limit_matrices(cfg: LimitConfig) -> ZetaMatrixSet:
    """Assemble the three limit matrices for the configuration.

    Each entry <zeta^e f> is stored as its i*sqrt(3) coefficient
    ``zeta_bracket(e, f).a``, with f = (1 - q*zeta)^p / D(zeta)^d or
    f = C (1 - q*zeta)^p (x - y*zeta)^power in Q(zeta) and the charge
    positions taken exactly.  The numerators differ only in row 0, so every
    entry of the other rows is evaluated once and shared; the base is
    numer_x without row and column 0.
    """
    if cfg.tail_width < -1:
        raise ChargeImbalance(
            "total negative weight exceeds total positive weight; reflect first"
        )
    S = cfg.total_positive
    nu = cfg.tail_width
    size = 2 * S + 1
    one_minus_qz = ZetaFrac(1, -cfg.q)
    probe = _exact_point(cfg.probe)
    rho0 = cfg.probe.alpha - cfg.probe.beta

    def coef(exponent: int, f: ZetaFrac) -> Fraction:
        return zeta_bracket(exponent, f).a

    def d_between(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]) -> ZetaFrac:
        # D(zeta) = b_x - a_x - (b_y - a_y) zeta
        d = ZetaFrac(b[0] - a[0], a[1] - b[1])
        if d.is_zero():
            raise CoincidentPoints("vanishing denominator in limit matrix entry")
        return d

    m1 = [[Fraction(0)] * size for _ in range(size)]

    def put_block(r0: int, col: int, block: list[list[ZetaFrac]]) -> None:
        for r, brow in enumerate(block):
            m1[r0 + r][col:col + 2] = [v.a for v in brow]

    # row blocks, one pair of rows per unit of positive weight; each coupling
    # or power block is the 2x2 shift block of its function
    row = 1
    for pos in cfg.positives:
        rho_pos = pos.alpha - pos.beta
        xi, yi = point = _exact_point(pos)
        dprobe = d_between(point, probe)
        basei = ZetaFrac(xi, -yi)
        for i in range(1, pos.size + 1):
            r0, r1 = row + 2 * (i - 1), row + 2 * (i - 1) + 1
            rho = rho_pos - rho0
            f = one_minus_qz ** (i - 1) / dprobe ** i
            m1[r0][0] = coef(-2 + rho, f)
            m1[r1][0] = coef(0 + rho, f)
            col = 1
            for neg in cfg.negatives:
                rho = rho_pos - (neg.alpha - neg.beta)
                denom = d_between(point, _exact_point(neg))
                for j in range(1, neg.size + 1):
                    c = math.comb(i + j - 2, j - 1)
                    f = one_minus_qz ** (i + j - 2) / denom ** (i + j - 1) * c
                    put_block(r0, col, shift_block(rho, f))
                    col += 2
            for kappa in range(nu + 1):
                c = math.comb(kappa, i - 1)
                if c:
                    f = one_minus_qz ** (i - 1) * basei ** (kappa - (i - 1)) * c
                    put_block(r0, col, shift_block(rho_pos, f))
                col += 2
        row += 2 * pos.size
    m2 = [list(r) for r in m1]

    # first row: coupling column blocks for each negative charge, then tail
    col = 1
    for neg in cfg.negatives:
        rho = rho0 - (neg.alpha - neg.beta)
        denom = d_between(probe, _exact_point(neg))
        for j in range(1, neg.size + 1):
            f = one_minus_qz ** (j - 1) / denom ** j
            m1[0][col], m1[0][col + 1] = coef(0 + rho, f), coef(-2 + rho, f)
            m2[0][col], m2[0][col + 1] = coef(-1 + rho, f), coef(-3 + rho, f)
            col += 2
    base0 = ZetaFrac(probe[0], -probe[1])
    for kappa in range(nu + 1):
        f = base0 ** kappa
        m1[0][col], m1[0][col + 1] = coef(0 + rho0, f), coef(-2 + rho0, f)
        m2[0][col], m2[0][col + 1] = coef(-1 + rho0, f), coef(-3 + rho0, f)
        col += 2

    return ZetaMatrixSet(base=[r[1:] for r in m1[1:]], numer_x=m1, numer_y=m2)


def _schur_ratios(ms: ZetaMatrixSet) -> tuple[Fraction, Fraction]:
    """(r_x, r_y) with det(numer)/det(base) = i*sqrt(3)*r for each numerator.

    Each numerator is the base bordered by its row 0 and the shared column
    0, so r = numer[0][0] - row0 . base^-1 col0, from one solve against the
    base.  Raises SingularDenominator when det(base) is exactly zero.
    """
    try:
        sol = solve_exact(ms.base, [r[0] for r in ms.numer_x[1:]])
    except ZeroDivisionError:
        raise SingularDenominator("denominator determinant vanishes") from None
    return tuple(
        numer[0][0] - sum(a * s for a, s in zip(numer[0][1:], sol))
        for numer in (ms.numer_x, ms.numer_y)
    )


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
    the squared oblique distance.
    """
    x0, y0 = cfg.probe.x, cfg.probe.y
    sx = sy = 0.0
    for sign, charges in ((1, cfg.positives), (-1, cfg.negatives)):
        for c in charges:
            dx, dy = x0 - c.x, y0 - c.y
            den = dx * dx + dx * dy + dy * dy
            if den == 0:
                raise CoincidentPoints("probe coincides with a charge")
            sx += sign * c.size * (2 * dx + dy) / den
            sy += sign * c.size * (dx + 2 * dy) / den
    return (sx, sy)


def field_ratio_closed_form(cfg: LimitConfig) -> complex:
    """Closed form of the determinant ratio: the discrete Coulomb kernel sum."""
    sx, _ = _oblique_charge_sums(cfg)
    return complex(0.0, SQRT3 * sx)


def coulomb_field(cfg: LimitConfig, R: float) -> tuple[float, float]:
    """Oblique-axis projections of the limiting Coulomb field at scale R."""
    fx, fy = _oblique_charge_sums(cfg)
    scale = 3.0 / (4.0 * math.pi * R)
    return (scale * fx, scale * fy)


def _oblique_to_cart(a: float, b: float) -> tuple[float, float]:
    s = SQRT3 / 2.0
    return (s * (a + b), (b - a) / 2.0)


def coulomb_field_vector(cfg: LimitConfig, R: float) -> tuple[float, float]:
    """Cartesian field vector from the superposition of radial charge terms."""
    px, py = _oblique_to_cart(cfg.probe.x, cfg.probe.y)
    fx = fy = 0.0
    for sign, charges in ((1, cfg.positives), (-1, cfg.negatives)):
        for c in charges:
            cx, cy = _oblique_to_cart(c.x, c.y)
            dx, dy = px - cx, py - cy
            r2 = dx * dx + dy * dy
            if r2 == 0:
                raise CoincidentPoints("probe coincides with a charge")
            ch = sign * 2 * c.size
            fx += ch * dx / r2
            fy += ch * dy / r2
    scale = 3.0 / (4.0 * math.pi * R)
    return (scale * fx, scale * fy)


def p_asymptotics(cfg: LimitConfig, R: float) -> tuple[float, float, float]:
    """Limit placement probabilities (p1, p2, p3) at scale R.

    p_k = 1/3 + i*sqrt(3)*r_k / (2*pi*i*R) = 1/3 + (sqrt(3)/pi) * r_k/(2R)
    and p3 = 1 - p1 - p2 are exact elements of Q[sqrt(3)/pi].
    """
    ratios = _schur_ratios(build_limit_matrices(cfg))
    p1, p2 = (SqrtPiPoly.from_pair(Fraction(1, 3), r / (2 * Fraction(R))) for r in ratios)
    return (float(p1), float(p2), float(SqrtPiPoly.one() - p1 - p2))


def one_minus_3p1_coefficient(cfg: LimitConfig) -> float:
    """Coefficient of 1/R in 1 - 3*p1, in closed form."""
    sx, sy = _oblique_charge_sums(cfg)
    return -SQRT3 / (2.0 * math.pi) * (sx + sy)


def surface_gradient_limit(
    cfg: LimitConfig, point: tuple[float, float]
) -> tuple[float, float]:
    """Cartesian gradient of the limiting average surface at a Cartesian point."""
    return helicoid_gradient(helicoids_for_config(cfg), point)


# --- helicoids ---------------------------------------------------------------

HALF_REFINED = "half"
DOTTED_REFINED = "dotted"


@dataclass(frozen=True)
class HelicoidSpec:
    """Refined (half or dotted) helicoid at a Cartesian center."""

    center: tuple[float, float]
    pitch: float          # the c of the underlying helicoid z = c*theta
    refinement: int = 1
    variant: str = HALF_REFINED

    @property
    def fiber_modulus(self) -> float:
        period = 2.0 * math.pi if self.variant == HALF_REFINED else math.pi
        return abs(period * self.pitch / self.refinement)


def helicoids_for_config(cfg: LimitConfig) -> list[HelicoidSpec]:
    """The helicoid sum the rescaled average surface converges to."""
    specs = []
    for c in cfg.positives:
        specs.append(
            HelicoidSpec(
                center=_oblique_to_cart(c.x, c.y),
                pitch=-3.0 * c.size / (SQRT2 * math.pi),
                refinement=2 * c.size,
            )
        )
    for c in cfg.negatives:
        specs.append(
            HelicoidSpec(
                center=_oblique_to_cart(c.x, c.y),
                pitch=3.0 * c.size / (SQRT2 * math.pi),
                refinement=2 * c.size,
            )
        )
    return specs


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


def shift_block(a: int, f: ZetaFrac) -> list[list[ZetaFrac]]:
    """The 2x2 bracket block with exponent offsets [[-1,-3],[1,-1]] plus a."""
    return [
        [zeta_bracket(a - 1, f), zeta_bracket(a - 3, f)],
        [zeta_bracket(a + 1, f), zeta_bracket(a - 1, f)],
    ]


def shift_block_rows(m: list[list[ZetaFrac]]) -> list[list[ZetaFrac]]:
    """Row operations {R1 <- R2, R2 <- -R1 - R2}; shifts the block down by one."""
    r1, r2 = m
    return [list(r2), [-(a + b) for a, b in zip(r1, r2)]]


def shift_block_cols(m: list[list[ZetaFrac]]) -> list[list[ZetaFrac]]:
    """Column operations {C1 <- C2, C2 <- -C1 - C2}; shifts the block up by one."""
    return [[row[1], -(row[0] + row[1])] for row in m]


def border_block(alpha: int, beta: int, gamma: int, f: ZetaFrac) -> list[list[ZetaFrac]]:
    """Bordered 3x3 bracket matrix whose corner reduction is exact."""
    return [
        [ZetaFrac(0), zeta_bracket(1 + alpha, f), zeta_bracket(-1 + alpha, f)],
        [zeta_bracket(-3 + beta, f), zeta_bracket(-1 + gamma, f), zeta_bracket(-3 + gamma, f)],
        [zeta_bracket(-1 + beta, f), zeta_bracket(1 + gamma, f), zeta_bracket(-1 + gamma, f)],
    ]


def border_block_reduced(m: list[list[ZetaFrac]]) -> list[list[ZetaFrac]]:
    """Apply {C2 <- -C2-C3, C3 <- C2} then {R2 <- -R2-R3, R3 <- R2}."""
    cols = [[row[0], -(row[1] + row[2]), row[1]] for row in m]
    r1, r2, r3 = cols
    return [r1, [-(a + b) for a, b in zip(r2, r3)], list(r2)]


def border_block_target(alpha: int, beta: int, gamma: int, f: ZetaFrac) -> list[list[ZetaFrac]]:
    return [
        [ZetaFrac(0), zeta_bracket(alpha, f), zeta_bracket(-2 + alpha, f)],
        [zeta_bracket(-2 + beta, f), zeta_bracket(-1 + gamma, f), zeta_bracket(-3 + gamma, f)],
        [zeta_bracket(beta, f), zeta_bracket(1 + gamma, f), zeta_bracket(-1 + gamma, f)],
    ]


def random_zeta_function(rng: random.Random) -> ZetaFrac:
    """Random invertible rational function of zeta with small rational data."""
    while True:
        num = ZetaFrac(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                       Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        den = ZetaFrac(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                       Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        if not num.is_zero() and not den.is_zero():
            return num / den


# --- random configurations for identity sweeps --------------------------------

_SLOPES = (Fraction(1), Fraction(-2), Fraction(4), Fraction(1, 4))


def sample_limit_config(
    rng: random.Random,
    max_each: int = 2,
    max_size: int = 2,
    box: float = 3.0,
    min_separation: float = 0.5,
) -> LimitConfig:
    """Random admissible configuration with S >= T and separated points."""
    while True:
        m = rng.randint(1, max_each)
        n = rng.randint(0, max_each)
        sizes_pos = [rng.randint(1, max_size) for _ in range(m)]
        sizes_neg = [rng.randint(1, max_size) for _ in range(n)]
        if sum(sizes_pos) < sum(sizes_neg):
            continue
        pts: list[tuple[float, float]] = []
        ok = True
        for _ in range(m + n + 1):
            for _attempt in range(200):
                cand = (rng.uniform(-box, box), rng.uniform(-box, box))
                if all(
                    math.dist(cand, p) >= min_separation
                    and distance(cand, p) >= min_separation
                    for p in pts
                ):
                    pts.append(cand)
                    break
            else:
                ok = False
                break
        if not ok:
            continue
        res = lambda: rng.randint(0, 2)
        positives = tuple(
            Charge(pts[i][0], pts[i][1], sizes_pos[i], res(), res()) for i in range(m)
        )
        negatives = tuple(
            Charge(pts[m + j][0], pts[m + j][1], sizes_neg[j], res(), res())
            for j in range(n)
        )
        probe = Probe(pts[m + n][0], pts[m + n][1], res(), res())
        return LimitConfig(positives, negatives, probe, rng.choice(_SLOPES))

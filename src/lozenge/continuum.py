"""Scaling-limit closed forms and the limit determinant machinery.

The 1/R coefficient of each placement probability is a ratio of
determinants of small complex matrices whose entries are antisymmetrized
rational expressions in zeta = exp(2*pi*i/3).  The two numerators border
the same base block with the same column 0 and differ only in row 0, so
each ratio det(numer)/det(base) is the Schur complement
numer[0,0] - row0 . base^-1 col0, taken from one LU of the base; no
numerator is factored.  Everything is evaluated in a private mpmath context
at generous precision, so identity tests at 1e-9 have headroom and
mpmath's global precision is neither read nor set.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .exact import ZetaFrac, zeta_bracket
from .lattice import distance

WORKING_DPS = 40

# every limit-matrix number lives in this context; its precision is never changed
CTX = mp.MPContext()
CTX.dps = WORKING_DPS

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
    base: "mp.matrix"       # denominator matrix, size 2S
    numer_x: "mp.matrix"    # first-class numerator, size 2S+1
    numer_y: "mp.matrix"    # second-class numerator, size 2S+1


def _zeta(ctx) -> "mp.mpc":
    return ctx.expjpi(ctx.mpf(2) / 3)


def _bracket(zeta, exponent: int, q, one_minus_qz_pow: int, denom, denom_pow: int):
    """<zeta^e (1-q zeta)^p / D(zeta)^d> with D evaluated at zeta and 1/zeta.

    Arithmetic runs in the context of ``zeta``.
    """

    def side(z):
        num = z ** (exponent % 3) * (1 - q * z) ** one_minus_qz_pow
        d = denom(z)
        if d == 0:
            raise CoincidentPoints("vanishing denominator in limit matrix entry")
        return num / d ** denom_pow

    zbar = 1 / zeta
    return side(zeta) - side(zbar)


def _power_entry(zeta, exponent: int, q, qpow: int, base, power: int, binom: int):
    """<zeta^e C (1-q zeta)^p (x - y zeta)^power>; zero when the binomial is."""
    if binom == 0:
        return 0

    def side(z):
        return z ** (exponent % 3) * (1 - q * z) ** qpow * (base(z)) ** power

    zbar = 1 / zeta
    return binom * (side(zeta) - side(zbar))


def build_limit_matrices(cfg: LimitConfig) -> ZetaMatrixSet:
    """Assemble the three limit matrices for the configuration.

    The numerators differ only in row 0, so every entry of the other rows is
    evaluated once and shared; the base is numer_x without row and column 0.
    """
    if cfg.tail_width < -1:
        raise ChargeImbalance(
            "total negative weight exceeds total positive weight; reflect first"
        )
    ctx = CTX
    zeta = _zeta(ctx)
    q = ctx.mpf(cfg.q.numerator) / ctx.mpf(cfg.q.denominator)
    S = cfg.total_positive
    nu = cfg.tail_width
    size = 2 * S + 1
    x0, y0 = ctx.mpf(cfg.probe.x), ctx.mpf(cfg.probe.y)
    rho0 = cfg.probe.alpha - cfg.probe.beta

    def d_between(x, y, z, w):
        # D(zeta) = z - x - (w - y) zeta, conjugate side via zeta -> 1/zeta
        def denom(zz):
            return (z - x) - (w - y) * zz

        return denom

    m1 = ctx.zeros(size, size)

    # row blocks, one pair of rows per unit of positive weight
    row = 1
    for pos in cfg.positives:
        rho_pos = pos.alpha - pos.beta
        xi, yi = ctx.mpf(pos.x), ctx.mpf(pos.y)
        dprobe = d_between(xi, yi, x0, y0)
        basei = lambda z, xi=xi, yi=yi: xi - yi * z
        for i in range(1, pos.size + 1):
            r0, r1 = row + 2 * (i - 1), row + 2 * (i - 1) + 1
            rho = rho_pos - rho0
            m1[r0, 0] = _bracket(zeta, -2 + rho, q, i - 1, dprobe, i)
            m1[r1, 0] = _bracket(zeta, 0 + rho, q, i - 1, dprobe, i)
            col = 1
            for neg in cfg.negatives:
                rho = rho_pos - (neg.alpha - neg.beta)
                denom = d_between(xi, yi, ctx.mpf(neg.x), ctx.mpf(neg.y))
                for j in range(1, neg.size + 1):
                    c = math.comb(i + j - 2, j - 1)
                    qpow, dpow = i + j - 2, i + j - 1
                    m1[r0, col] = c * _bracket(zeta, -1 + rho, q, qpow, denom, dpow)
                    m1[r0, col + 1] = c * _bracket(zeta, -3 + rho, q, qpow, denom, dpow)
                    m1[r1, col] = c * _bracket(zeta, 1 + rho, q, qpow, denom, dpow)
                    m1[r1, col + 1] = c * _bracket(zeta, -1 + rho, q, qpow, denom, dpow)
                    col += 2
            for kappa in range(nu + 1):
                c = math.comb(kappa, i - 1)
                power = kappa - (i - 1)
                m1[r0, col] = _power_entry(zeta, -1 + rho_pos, q, i - 1, basei, power, c)
                m1[r0, col + 1] = _power_entry(zeta, -3 + rho_pos, q, i - 1, basei, power, c)
                m1[r1, col] = _power_entry(zeta, 1 + rho_pos, q, i - 1, basei, power, c)
                m1[r1, col + 1] = _power_entry(zeta, -1 + rho_pos, q, i - 1, basei, power, c)
                col += 2
        row += 2 * pos.size
    m2 = m1.copy()

    # first row: coupling column blocks for each negative charge, then tail
    col = 1
    for neg in cfg.negatives:
        rho = rho0 - (neg.alpha - neg.beta)
        denom = d_between(x0, y0, ctx.mpf(neg.x), ctx.mpf(neg.y))
        for j in range(1, neg.size + 1):
            m1[0, col] = _bracket(zeta, 0 + rho, q, j - 1, denom, j)
            m1[0, col + 1] = _bracket(zeta, -2 + rho, q, j - 1, denom, j)
            m2[0, col] = _bracket(zeta, -1 + rho, q, j - 1, denom, j)
            m2[0, col + 1] = _bracket(zeta, -3 + rho, q, j - 1, denom, j)
            col += 2
    base0 = lambda z: x0 - y0 * z
    for kappa in range(nu + 1):
        m1[0, col] = _power_entry(zeta, 0 + rho0, q, 0, base0, kappa, 1)
        m1[0, col + 1] = _power_entry(zeta, -2 + rho0, q, 0, base0, kappa, 1)
        m2[0, col] = _power_entry(zeta, -1 + rho0, q, 0, base0, kappa, 1)
        m2[0, col + 1] = _power_entry(zeta, -3 + rho0, q, 0, base0, kappa, 1)
        col += 2

    base = ctx.zeros(size - 1, size - 1)
    for i in range(1, size):
        for j in range(1, size):
            base[i - 1, j - 1] = m1[i, j]
    return ZetaMatrixSet(base=base, numer_x=m1, numer_y=m2)


def _base_solve(ms: ZetaMatrixSet) -> list:
    """base^-1 times the numerators' shared column 0, from one LU of the base.

    Raises SingularDenominator when det(base) is below 10^-(dps/2).  The
    determinant is taken from the factorization's pivots and diagonal
    exactly as ``CTX.det`` takes it, and a factorization that finds the
    base numerically singular counts as det = 0.
    """
    n = ms.base.rows
    if n == 0:
        return []
    try:
        lu, perm = CTX.LU_decomp(ms.base)
    except ZeroDivisionError:
        den = 0
    else:
        den = (-1) ** sum(i != e for i, e in enumerate(perm))
        for i in range(n):
            den *= lu[i, i]
    if abs(den) < CTX.mpf(10) ** (-WORKING_DPS // 2):
        raise SingularDenominator("denominator determinant vanishes")
    col0 = CTX.matrix([ms.numer_x[i, 0] for i in range(1, n + 1)])
    sol = CTX.U_solve(lu, CTX.L_solve(lu, col0, perm))
    return [sol[i] for i in range(n)]


def _numerator_ratio(numer, sol: list):
    """det(numer)/det(base) by the Schur complement of the base block.

    ``numer`` is the base bordered by row 0 and the shared column 0, so the
    ratio is numer[0,0] - row0 . base^-1 col0.
    """
    return numer[0, 0] - CTX.fdot([numer[0, j + 1] for j in range(len(sol))], sol)


def field_ratio(cfg: LimitConfig) -> complex:
    """Determinant ratio (det numer_x - det numer_y)/det base.

    It governs the 1/R field coefficient.  Both numerator ratios come from
    one solve against one LU of the base.
    """
    ms = build_limit_matrices(cfg)
    sol = _base_solve(ms)
    return complex(_numerator_ratio(ms.numer_x, sol) - _numerator_ratio(ms.numer_y, sol))


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
    """Limit placement probabilities (p1, p2, p3) at scale R."""
    ms = build_limit_matrices(cfg)
    sol = _base_solve(ms)
    coeff = 1 / (2j * CTX.pi * R)
    p1 = CTX.mpf(1) / 3 + coeff * _numerator_ratio(ms.numer_x, sol)
    p2 = CTX.mpf(1) / 3 + coeff * _numerator_ratio(ms.numer_y, sol)
    for p in (p1, p2):
        if abs(CTX.im(p)) > CTX.mpf(10) ** (-15):
            raise SingularDenominator(f"probability came out complex: {p}")
    p1f, p2f = float(CTX.re(p1)), float(CTX.re(p2))
    return (p1f, p2f, 1.0 - p1f - p2f)


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

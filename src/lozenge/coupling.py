"""The dimer coupling function P and its asymptotic machinery.

``coupling_p`` evaluates the defining contour integral exactly: after the
domain reduction x <= -1 the factor (-1-t)^(-x-1) is a polynomial, and each
arc integral of an integer power of t is a rational multiple of either
2*pi*i/3 or i*sqrt(3).  Every value therefore lies in Q + Q*(sqrt(3)/pi).

The asymptotic-series coefficients ``u_coefficient`` are recovered by an
exact Vandermonde fit of (3r)*P(-3r-1+a, b-1) in powers of 1/(3r); the
series index 0 also has a closed form used as the exactness anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .exact import SqrtPiPoly, chi, solve_exact

ZETA = complex(-0.5, math.sqrt(3.0) / 2.0)

_cache: dict[tuple[int, int], SqrtPiPoly] = {}


class PrecisionLoss(ArithmeticError):
    pass


class InsufficientNodes(ValueError):
    pass


class DegenerateDirection(ValueError):
    pass


class IllConditioned(ArithmeticError):
    pass


class NonIntegerArgument(ValueError):
    pass


def reduce_domain(x: int, y: int) -> tuple[int, int]:
    """Map (x, y) into the region x <= -1 using the two coupling symmetries."""
    if x <= -1:
        return (x, y)
    if y <= -1:
        return (y, x)
    return (-x - y - 1, x)


def _eval_reduced(x: int, y: int) -> SqrtPiPoly:
    """Direct evaluation of the contour integral; requires x <= -1."""
    if x > -1:
        raise ValueError("direct evaluation needs x <= -1; reduce first")
    n = -x - 1
    sign = -1 if n % 2 else 1
    rational = Fraction(sign, 3) * math.comb(n, y) if 0 <= y <= n else Fraction(0)

    # sum over k != y of C(n,k) * chi(k-y) / (k-y), over a shared denominator
    denoms = {abs(k - y) for k in range(n + 1) if k != y and chi(k - y)}
    if denoms:
        big_d = math.lcm(*denoms)
        total = 0
        binom = 1  # C(n, 0)
        for k in range(n + 1):
            if k != y:
                c = chi(k - y)
                if c:
                    d = k - y
                    total += c * binom * (big_d // abs(d)) * (1 if d > 0 else -1)
            binom = binom * (n - k) // (k + 1)
        root = Fraction(-sign * total, 2 * big_d)
    else:
        root = Fraction(0)
    return SqrtPiPoly.from_pair(rational, root)


def coupling_p(x: int, y: int) -> SqrtPiPoly:
    """Exact coupling value, memoized on the reduced argument."""
    key = reduce_domain(x, y)
    val = _cache.get(key)
    if val is None:
        val = _eval_reduced(*key)
        _cache.setdefault(key, val)
    return val


def _gauss_nodes(order: int):
    import numpy as np

    cached = _gauss_cache.get(order)
    if cached is None:
        cached = np.polynomial.legendre.leggauss(order)
        _gauss_cache.setdefault(order, cached)
    return cached


_gauss_cache: dict[int, tuple] = {}


def coupling_p_quadrature(x: int, y: int, order: int = 260) -> float:
    """Gauss-Legendre evaluation of the defining arc integral (cross-check).

    Requires the reduced domain x <= -1 so the integrand is smooth.
    """
    import numpy as np

    x, y = reduce_domain(x, y)
    nodes, weights = _gauss_nodes(order)
    theta = (nodes + 3.0) * (math.pi / 3.0)  # map [-1,1] -> [2pi/3, 4pi/3]
    t = np.exp(1j * theta)
    integrand = t ** (-y - 1) * (-1.0 - t) ** (-x - 1) * 1j * t
    val = (weights * integrand).sum() * (math.pi / 3.0) / (2j * math.pi)
    return float(val.real)


def divided_difference(f: Callable[[int], float], nodes: Sequence[int], order: int):
    """Newton divided difference of the given order at the first node."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if len(nodes) < order + 1:
        raise InsufficientNodes(f"need {order + 1} nodes, got {len(nodes)}")
    if any(c2 <= c1 for c1, c2 in zip(nodes, nodes[1:])):
        raise ValueError("nodes must be strictly increasing")
    table = [f(c) for c in nodes[: order + 1]]
    for r in range(1, order + 1):
        table = [
            (table[j + 1] - table[j]) / (nodes[j + r] - nodes[j])
            for j in range(len(table) - 1)
        ]
    return table[0]


def _bracket_complex(f: Callable[[complex], complex]) -> complex:
    return f(ZETA) - f(ZETA.conjugate())


def dd_p_leading(k: int, l: int, r_n: int, s_n: int, q: Fraction) -> float:
    """Leading term of the doubly divided-differenced coupling asymptotics."""
    if r_n == 0 and s_n == 0:
        raise DegenerateDirection("(r_n, s_n) must not be (0, 0)")
    qf = float(q)

    def f(z: complex) -> complex:
        return z ** ((r_n - s_n - 1) % 3) * (1 - qf * z) ** (k + l) / (
            (-r_n + s_n * z) ** (k + l + 1)
        )

    val = math.comb(k + l, k) * _bracket_complex(f) / (2j * math.pi)
    if abs(val.imag) > 1e-12 * (1.0 + abs(val.real)):
        raise PrecisionLoss(f"leading term should be real, got {val}")
    return val.real


def dd_p_exact(
    k: int,
    l: int,
    r_n: int,
    s_n: int,
    q: Fraction,
    x_nodes: Sequence[int],
    y_nodes: Sequence[int],
) -> float:
    """Exact divided differences of P along the two node sequences.

    Computes D^l_y { D^k_x P(r_n + x + y, s_n + q(x + y)) } at the first
    nodes.  All arithmetic stays exact until the final float conversion,
    so no cancellation is lost even when the result is O(n^-(k+l+1)).
    """
    q = Fraction(q)
    if len(x_nodes) < k + 1 or len(y_nodes) < l + 1:
        raise InsufficientNodes("not enough nodes for the requested orders")
    xs = list(x_nodes[: k + 1])
    ys = list(y_nodes[: l + 1])
    for grid in (xs, ys):
        if any(c2 <= c1 for c1, c2 in zip(grid, grid[1:])):
            raise ValueError("node sequences must be strictly increasing")

    def p_val(x: int, y: int) -> SqrtPiPoly:
        second = s_n + q * (x + y)
        if second.denominator != 1:
            raise NonIntegerArgument(
                f"q*(x+y) = {q * (x + y)} does not land on the lattice"
            )
        return coupling_p(r_n + x + y, int(second))

    # inner divided difference in x (exact), then outer in y
    def dd_x(y: int) -> SqrtPiPoly:
        table = [p_val(x, y) for x in xs]
        for r in range(1, k + 1):
            table = [
                (table[j + 1] - table[j]) * Fraction(1, xs[j + r] - xs[j])
                for j in range(len(table) - 1)
            ]
        return table[0]

    table = [dd_x(y) for y in ys]
    for r in range(1, l + 1):
        table = [
            (table[j + 1] - table[j]) * Fraction(1, ys[j + r] - ys[j])
            for j in range(len(table) - 1)
        ]
    return float(table[0])


@dataclass(frozen=True)
class UCoefficient:
    s: int
    a: int
    b: int
    value: float
    error: float

    def __float__(self) -> float:
        return self.value


def u0_exact(a: int, b: int) -> SqrtPiPoly:
    """Closed form of the series-index-0 coefficient: one of 0, +-sqrt(3)/(2pi)."""
    return SqrtPiPoly.from_pair(0, Fraction(chi(a - b - 1), 2))


def _fit_u(a: int, b: int, radii: Sequence[int]) -> list[SqrtPiPoly]:
    """Solve the exact Vandermonde system for the truncated series."""
    xs = [Fraction(1, 3 * r) for r in radii]
    rhs = [coupling_p(-3 * r - 1 + a, -1 + b) * (3 * r) for r in radii]
    return solve_exact([[x ** j for j in range(len(xs))] for x in xs], rhs)


_u_cache: dict[tuple[int, int, int, int, int], UCoefficient] = {}


def u_coefficient(
    s: int,
    a: int,
    b: int,
    base_radius: int = 200,
    guard: int = 3,
    tolerance: float | None = None,
) -> UCoefficient:
    """Series coefficient estimated from exact samples at several radii.

    The error estimate comes from repeating the fit with the radii shifted;
    if a tolerance is supplied and exceeded, raises ``IllConditioned``.
    """
    key = (s, a, b, base_radius, guard)
    hit = _u_cache.get(key)
    if hit is None:
        count = s + guard + 1
        radii_a = [base_radius * (i + 1) for i in range(count)]
        radii_b = [base_radius * (i + 2) for i in range(count)]
        fit_a = _fit_u(a, b, radii_a)
        fit_b = _fit_u(a, b, radii_b)
        value = float(fit_a[s])
        err = abs(value - float(fit_b[s]))
        hit = UCoefficient(s, a, b, value, err)
        _u_cache.setdefault(key, hit)
    if tolerance is not None and hit.error > tolerance:
        raise IllConditioned(
            f"series fit error {hit.error:.3e} exceeds tolerance {tolerance:.3e}"
        )
    return hit


def clear_caches() -> None:
    _cache.clear()
    _u_cache.clear()

"""The dimer coupling function P and its asymptotic machinery.

``coupling_p`` evaluates the defining contour integral exactly: after the
domain reduction x <= -1 the factor (-1-t)^(-x-1) is a polynomial, and each
arc integral of an integer power of t is a rational multiple of either
2*pi*i/3 or i*sqrt(3).  Every value therefore lies in Q + Q*(sqrt(3)/pi).
``prefill`` evaluates a batch of points at once, mostly from the local
equation, and returns them as a table over one denominator that its caller
owns; the module keeps no coupling value between calls.

The asymptotic-series coefficients ``u_exact`` of (3r)*P(-3r-1+a, b-1) in
powers of 1/(3r) come from the endpoints of the same arc integral, so they
too lie in Q*(sqrt(3)/pi) and take no fit; so does ``dd_p_leading``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .exact import SqrtPiPoly, ZetaFrac, _make, _over_common_denominator, chi, zeta_bracket


class InsufficientNodes(ValueError):
    pass


class DegenerateDirection(ValueError):
    pass


class NonIntegerArgument(ValueError):
    pass


# largest n = -x-1 the closed form evaluates: its terms share the lcm of up to n
# denominators (about 1.44*n bits), so far beyond it one value exhausts time and
# memory. ``converge`` places coordinates within 2**16, so its couplings reach
# n <= 2**18 plus the holes' own extent.
MAX_CLOSED_FORM_N = 2 ** 19


def reduce_domain(x: int, y: int) -> tuple[int, int]:
    """Map (x, y) into the region x <= -1 using the two coupling symmetries."""
    if x <= -1:
        return (x, y)
    if y <= -1:
        return (y, x)
    return (-x - y - 1, x)


def _eval_reduced(x: int, y: int) -> SqrtPiPoly:
    """Direct evaluation of the contour integral; requires x <= -1, and n = -x-1 up to
    ``MAX_CLOSED_FORM_N``."""
    if x > -1:
        raise ValueError("direct evaluation needs x <= -1; reduce first")
    n = -x - 1
    if n > MAX_CLOSED_FORM_N:
        raise ValueError(f"coupling at reduced point ({x}, {y}): n = {n} exceeds "
                         f"the closed form's bound {MAX_CLOSED_FORM_N}")
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
    """Exact coupling value, from the closed form at the reduced argument."""
    return _eval_reduced(*reduce_domain(x, y))


def prefill(points: Iterable[tuple[int, int]]
            ) -> tuple[int, dict[tuple[int, int], tuple[int, int]]]:
    """The coupling values of a batch of points, as one table over one denominator.

    Returns ``(L, table)``: ``table`` maps each distinct reduced point (x, y)
    to the integers (r, s) with P(x, y) = (r + s*sqrt(3)/pi) / L.  The
    values come from the local equation P(x-1, y) = -P(x, y) - P(x, y-1)
    for x <= -1: the columns are filled from x = -1, seeded by the closed
    form, as integer numerator pairs over L, each column over the y-range
    it needs and the rows the next one reads.  A batch whose fill would have
    more cells than the closed forms of its distinct points have terms (a
    few far points) takes the closed form of each point instead, put over
    the lcm L of their denominators.  The caller owns the table: nothing
    outlives it.
    """
    cols: dict[int, list[int]] = {}
    for x, y in {reduce_domain(*p) for p in points}:
        cols.setdefault(x, []).append(y)
    terms = -sum(x * len(ys) for x, ys in cols.items())
    x0 = min(cols)
    spans = None
    if x0 * (x0 - 1) // 2 <= terms:  # column x0 + k spans at least k + 1 rows
        need = {x: (min(ys), max(ys)) for x, ys in cols.items()}
        spans = [need[x0]]  # column x0 + k fills its own range and the rows column x0 + k - 1 reads
        for x in range(x0 + 1, 0):
            lo, hi = need.get(x, spans[-1])
            spans.append((min(lo, spans[-1][0] - 1), max(hi, spans[-1][1])))
        if sum(hi - lo + 1 for lo, hi in spans) > terms:
            spans = None
    if spans is None:
        keys = [(x, y) for x, ys in cols.items() for y in ys]
        den, nums = _over_common_denominator([_eval_reduced(*k) for k in keys])
        return den, {k: (*n, 0, 0)[:2] for k, n in zip(keys, nums)}
    lo, hi = spans[-1]
    den, seeds = _over_common_denominator([_eval_reduced(-1, y) for y in range(lo, hi + 1)])
    rat, root = ([s[k] if len(s) > k else 0 for s in seeds] for k in (0, 1))
    table = {}
    for x in range(-1, x0 - 1, -1):
        if x < -1:  # column x from column x+1, whose range starts at least one row lower
            new_lo, new_hi = spans[x - x0]
            a, n = new_lo - lo, new_hi - new_lo + 1
            rat, root = ([-(u + v) for u, v in zip(c[a:a + n], c[a - 1:])] for c in (rat, root))
            lo = new_lo
        for y in cols.get(x, ()):
            table[x, y] = rat[y - lo], root[y - lo]
    return den, table


# Gauss-Legendre nodes of the quadrature cross-check
QUAD_ORDER = 260


@functools.cache
def _gauss_nodes():
    """Nodes and weights of the order-``QUAD_ORDER`` Gauss-Legendre rule."""
    import numpy as np

    return np.polynomial.legendre.leggauss(QUAD_ORDER)


def coupling_p_quadrature(x: int, y: int) -> float:
    """Gauss-Legendre evaluation of the defining arc integral (cross-check).

    Requires the reduced domain x <= -1 so the integrand is smooth.
    """
    import numpy as np

    x, y = reduce_domain(x, y)
    nodes, weights = _gauss_nodes()
    theta = (nodes + 3.0) * (math.pi / 3.0)  # map [-1,1] -> [2pi/3, 4pi/3]
    t = np.exp(1j * theta)
    integrand = t ** (-y - 1) * (-1.0 - t) ** (-x - 1) * 1j * t
    val = (weights * integrand).sum() * (math.pi / 3.0) / (2j * math.pi)
    return float(val.real)


def divided_difference(f: Callable[[int], float | SqrtPiPoly], nodes: Sequence[int], order: int):
    """Newton divided difference of the given order at the first node, of floats or exact values."""
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


def dd_p_leading(k: int, l: int, r_n: int, s_n: int, q: Fraction) -> float:
    """Leading term of the doubly divided-differenced coupling asymptotics.

    C(k+l, k) <f> / (2*pi*i) for f(z) = z^(r_n-s_n-1) (1 - q*z)^(k+l) / (-r_n + s_n*z)^(k+l+1);
    the bracket <f> is i*sqrt(3)*B with B rational, so the term is C(k+l, k) B/2 sqrt(3)/pi.
    """
    if r_n == 0 and s_n == 0:
        raise DegenerateDirection("(r_n, s_n) must not be (0, 0)")
    n = k + l
    f = ZetaFrac(1, -q) ** n * ZetaFrac(-r_n, s_n) ** -(n + 1)
    b = zeta_bracket((r_n - s_n - 1) % 3, f)
    return float(SqrtPiPoly.from_pair(0, math.comb(n, k) * b / 2))


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

    def p_val(x: int, y: int) -> SqrtPiPoly:
        second = s_n + q * (x + y)
        if second.denominator != 1:
            raise NonIntegerArgument(
                f"q*(x+y) = {q * (x + y)} does not land on the lattice"
            )
        return coupling_p(r_n + x + y, int(second))

    # inner divided difference in x (exact), then outer in y
    return float(divided_difference(
        lambda y: divided_difference(lambda x: p_val(x, y), x_nodes, k), y_nodes, l))


def u_exact(s: int, a: int, b: int) -> SqrtPiPoly:
    """Series coefficient u_s(a, b) of (3r)*P(-3r-1+a, b-1) ~ sum_s u_s (3r)^-s.

    The integrand is h_0(t) (-1-t)^(3r) dt/(1+t) with h_0 = (1+t) t^-b
    (-1-t)^-a, and (-1-t)^(3r) = 1 at both arc ends zeta, 1/zeta, so
    repeated integration by parts gives u_s = (-1)^(s+1) Im h_s(zeta) / pi
    with h_(k+1) = (1+t) h_k'.  h is kept as terms c t^m (1+t)^n; at zeta,
    1+t = -zeta^2 and Im zeta^k = chi(k) sqrt(3)/2.
    """
    h = {(-b, 1 - a): -1 if a % 2 else 1}  # h_0 = (-1)^a t^-b (1+t)^(1-a)
    for _ in range(s):
        # (1+t) d/dt of c t^m (1+t)^n is c m t^(m-1) (1+t)^(n+1) + c n t^m (1+t)^n
        nxt: dict[tuple[int, int], int] = {}
        for (m, n), c in h.items():
            nxt[m - 1, n + 1] = nxt.get((m - 1, n + 1), 0) + c * m
            nxt[m, n] = nxt.get((m, n), 0) + c * n
        h = nxt
    total = sum(c * (-1 if n % 2 else 1) * chi(m + 2 * n) for (m, n), c in h.items())
    return _make([0, total if s % 2 else -total], 2)

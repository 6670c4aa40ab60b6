"""Test-only helpers: divided differences of the coupling, the golden pair,
Q(zeta) views, the Cartesian field vector and Fraction views of the limit
matrices.  No command runs them, so they live beside the tests."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from lozenge.continuum import Charge, LimitConfig, Probe, ZetaMatrixSet
from lozenge.correlation import SQRT3_2, FieldSample, HoleContext
from lozenge.coupling import coupling_p
from lozenge.exact import SqrtPiPoly, ZetaFrac, zeta_bracket
from lozenge.lattice import LEFT, LozengeLocation

# --- divided differences of the coupling ----------------------------------------


class InsufficientNodes(ValueError):
    pass


class DegenerateDirection(ValueError):
    pass


class NonIntegerArgument(ValueError):
    pass


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


# --- the golden pair ----------------------------------------------------------------

# distance between the golden pair's charges
GOLDEN_SEPARATION = 2.0


def golden_pair_config() -> LimitConfig:
    """The standard convergence family: opposite unit charges on a line,
    probe offset along their perpendicular bisector."""
    return LimitConfig(
        positives=(Charge(0.0, 0.0, 1),),
        negatives=(Charge(GOLDEN_SEPARATION, 0.0, 1),),
        probe=Probe(GOLDEN_SEPARATION / 8.0, 3.0 * GOLDEN_SEPARATION / 4.0),
    )


# --- Q(zeta) ------------------------------------------------------------------------


def zeta_pow(n: int) -> ZetaFrac:
    return ZetaFrac(*((1, 0), (0, 1), (-1, -1))[n % 3])  # zeta^2 = -1 - zeta


def to_complex(z: ZetaFrac) -> complex:
    return complex(z.a) + complex(z.b) * complex(-0.5, math.sqrt(3.0) / 2.0)


# --- placement numerators and the field vector --------------------------------------


def numerators(ctx: HoleContext, Ls: Sequence[LozengeLocation]) -> list[SqrtPiPoly]:
    """Signed omega(holes + L) = corner*D - row*adj(M)*col of each lozenge, in input order."""
    return ctx.batch([L.code() for L in Ls], exact=True)


# Unit vectors along the long diagonals of the three lozenge classes
# (polar directions 0, 2pi/3, 4pi/3 in the node frame).
E1 = (1.0, 0.0)
E2 = (-0.5, SQRT3_2)
E3 = (-0.5, -SQRT3_2)


def field_vector(fs: FieldSample) -> tuple[float, float]:
    """Cartesian field vector reconstructed from the class probabilities."""
    sign = 1.0 if fs.probe.kind == LEFT else -1.0
    return (
        sign * (fs.p1 * E1[0] + fs.p2 * E2[0] + fs.p3 * E3[0]),
        sign * (fs.p1 * E1[1] + fs.p2 * E2[1] + fs.p3 * E3[1]),
    )


# --- the limit matrices as Fractions ------------------------------------------------


def _fractions(rows: list[tuple[int, list[int]]]) -> list[list[Fraction]]:
    return [[Fraction(v, den) for v in nums] for den, nums in rows]


def base(ms: ZetaMatrixSet) -> list[list[Fraction]]:
    """The base: a numerator without row and column 0."""
    return [r[1:] for r in _fractions(ms.rows)]


def numer_x(ms: ZetaMatrixSet) -> list[list[Fraction]]:
    return _fractions([ms.row0_x, *ms.rows])


def numer_y(ms: ZetaMatrixSet) -> list[list[Fraction]]:
    return _fractions([ms.row0_y, *ms.rows])

"""Coupling function: exact values, symmetries, asymptotics."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lozenge.coupling import (
    DegenerateDirection,
    InsufficientNodes,
    _eval_reduced,
    coupling_p,
    coupling_p_quadrature,
    dd_p_exact,
    dd_p_leading,
    divided_difference,
    reduce_domain,
    u0_exact,
    u_coefficient,
)
from lozenge.exact import SqrtPiPoly, chi

G = math.sqrt(3.0) / math.pi


def test_known_values():
    assert coupling_p(0, 0).coeffs == (Fraction(1, 3),)
    assert coupling_p(-1, 0).coeffs == (Fraction(1, 3),)
    assert coupling_p(-1, -1).coeffs == (0, Fraction(-1, 2))
    assert float(coupling_p(-1, -1)) == pytest.approx(-math.sqrt(3) / (2 * math.pi))


def test_reduce_examples():
    assert reduce_domain(-3, 5) == (-3, 5)
    assert reduce_domain(5, -3) == (-3, 5)
    assert reduce_domain(2, 1) == (-4, 2)


@given(st.integers(-200, 200), st.integers(-200, 200))
def test_reduce_lands_in_domain(x, y):
    rx, ry = reduce_domain(x, y)
    assert rx <= -1
    # reduced point is in the symmetry orbit of the input
    orbit = {(x, y), (y, x), (-x - y - 1, x), (x, -x - y - 1),
             (y, -x - y - 1), (-x - y - 1, y)}
    assert (rx, ry) in orbit


def test_symmetries_exact_range():
    # all orbit representatives evaluated independently through the integral
    for x in range(-10, 11):
        for y in range(-10, 11):
            orbit = {(x, y), (y, x), (-x - y - 1, x)}
            reps = {reduce_domain(*p) for p in orbit}
            vals = [_eval_reduced(*r) for r in reps]
            assert all(v == vals[0] for v in vals[1:]), (x, y)


def test_quadrature_cross_check():
    worst = 0.0
    for x in range(-9, 0):
        for y in range(-9, 10):
            worst = max(worst, abs(float(_eval_reduced(x, y)) - coupling_p_quadrature(x, y)))
    assert worst < 1e-10


def test_local_equation_exact():
    # P is the inverse Kasteleyn matrix of the hexagonal lattice: at every
    # vertex the three neighbouring values sum to the delta at the origin
    for x in range(-12, 12):
        for y in range(-12, 12):
            total = coupling_p(x, y) + coupling_p(x - 1, y) + coupling_p(x, y - 1)
            assert total == (1 if (x, y) == (0, 0) else 0), (x, y)


def test_verify_symmetries_fails_on_a_wrong_local_equation(monkeypatch):
    import lozenge.verify as verify

    # shift one whole orbit by the same amount: the symmetries still hold,
    # so only the local equation can notice
    x, y = 2, 3
    orbit = {(x, y), (y, x), (-x - y - 1, x), (x, -x - y - 1), (y, -x - y - 1), (-x - y - 1, y)}
    reps = {reduce_domain(*p) for p in orbit}
    shift = SqrtPiPoly.from_pair(Fraction(1, 7), 0)
    good = verify.verify_symmetries(limit=6, quad_limit=0)
    assert good.ok
    monkeypatch.setattr(verify, "_eval_reduced",
                        lambda a, b: _eval_reduced(a, b) + shift if (a, b) in reps else _eval_reduced(a, b))
    bad = verify.verify_symmetries(limit=6, quad_limit=0)
    assert not bad.ok and bad.cases == good.cases


def test_float_fast_path_matches_asymptotics():
    # the leading far-field term carries an O(1/n) relative error
    leading = dd_p_leading(0, 0, -500, 200, Fraction(1))
    assert leading == pytest.approx(float(coupling_p(-500, 200)), rel=1e-3)


def test_divided_difference_basics():
    nodes = [0, 1, 2, 3, 4]
    assert divided_difference(lambda c: c * 2.5 + 1, nodes, 0) == 1.0
    assert divided_difference(lambda c: c * 2.5 + 1, nodes, 1) == pytest.approx(2.5)
    # annihilates polynomials of lower degree
    assert divided_difference(lambda c: c ** 2 - 3 * c, nodes, 3) == pytest.approx(0.0)
    # leading coefficient recovery
    assert divided_difference(lambda c: 2 * c ** 3, nodes, 3) == pytest.approx(2.0)
    with pytest.raises(InsufficientNodes):
        divided_difference(lambda c: c, [0, 1], 2)


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_divided_difference_linearity(a, b, c):
    nodes = [0, 2, 5, 9]
    f = lambda t: a * t * t + b * t + c
    g = lambda t: b * t * t - c * t + a
    lhs = divided_difference(lambda t: f(t) + 2 * g(t), nodes, 2)
    rhs = divided_difference(f, nodes, 2) + 2 * divided_difference(g, nodes, 2)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_dd_leading_real_and_degenerate():
    val = dd_p_leading(1, 1, 7, -3, Fraction(1))
    assert isinstance(val, float)
    with pytest.raises(DegenerateDirection):
        dd_p_leading(0, 0, 0, 0, Fraction(1))


def test_dd_leading_specialization():
    # k=l=0, q=1: (1/2 pi i) < zeta^(r-s-1) / (-r + s zeta) >
    r, s = 5, -7
    zeta = complex(-0.5, math.sqrt(3) / 2)

    def f(z):
        return z ** ((r - s - 1) % 3) / (-r + s * z)

    want = ((f(zeta) - f(zeta.conjugate())) / (2j * math.pi)).real
    assert dd_p_leading(0, 0, r, s, Fraction(1)) == pytest.approx(want, rel=1e-12)


def test_dd_exact_convergence_order():
    # |exact - leading| * n^(k+l+2) bounded along a residue-aligned direction
    u, v = Fraction(-9, 10), Fraction(3, 10)
    for k, l in [(0, 0), (1, 0), (1, 1)]:
        scaled = []
        for n in (60, 120, 240):
            rn, sn = int(u * n), int(v * n)
            exact = dd_p_exact(k, l, rn, sn, Fraction(1),
                               list(range(k + 1)), list(range(l + 1)))
            lead = dd_p_leading(k, l, rn, sn, Fraction(1))
            scaled.append(abs(exact - lead) * n ** (k + l + 2))
        assert max(scaled) / min(scaled) < 3.0


def test_dd_exact_with_fractional_slope():
    # q = 1/4 requires nodes in 4Z for the second coordinate to stay integral
    q = Fraction(1, 4)
    val = dd_p_exact(1, 1, -80, 20, q, [0, 4], [0, 4])
    lead = dd_p_leading(1, 1, -80, 20, q)
    assert val == pytest.approx(lead, rel=0.2)


def test_u0_closed_form():
    assert float(u0_exact(1, 0)) == 0.0
    assert float(u0_exact(2, 0)) == pytest.approx(math.sqrt(3) / (2 * math.pi))
    for a, b in [(0, 0), (3, 1), (-2, 5)]:
        assert float(u0_exact(a, b)) == pytest.approx(
            math.sqrt(3) / (2 * math.pi) * chi(a - b - 1)
        )


def test_u_extrapolation_matches_closed_form():
    for a, b in [(1, 0), (2, 0), (0, 0), (3, -2)]:
        est = u_coefficient(0, a, b)
        assert est.value == pytest.approx(float(u0_exact(a, b)), abs=1e-8)
        assert est.error < 1e-8


def test_u1_lower_order_constant_is_residue_stable():
    # the fitted index-1 coefficient differs from its leading closed form by
    # a constant depending only on the residue class of a - b
    lead = lambda a, b: math.sqrt(3) / (2 * math.pi) * (a * chi(a - b - 1) - b * chi(a - b))
    c1 = u_coefficient(1, 2, 0).value - lead(2, 0)
    c2 = u_coefficient(1, 0, 1).value - lead(0, 1)
    assert c1 == pytest.approx(c2, abs=1e-9)

"""Coupling function: exact values, symmetries, asymptotics."""

import math
import random
from fractions import Fraction
from itertools import product

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from lozenge.coupling import (
    DegenerateDirection,
    InsufficientNodes,
    NonIntegerArgument,
    _eval_reduced,
    coupling_p,
    coupling_p_quadrature,
    dd_p_exact,
    dd_p_leading,
    divided_difference,
    prefill,
    reduce_domain,
    u_exact,
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


def _assert_table_matches_closed_form(points):
    # the table holds every distinct reduced point of the batch and nothing else,
    # over one denominator, equal in value to the closed form
    den, table = prefill(points)
    assert table.keys() == {reduce_domain(*p) for p in points}
    for key, (rat, root) in table.items():
        direct = _eval_reduced(*key)
        assert SqrtPiPoly([Fraction(rat, den), Fraction(root, den)]) == direct, key


def test_table_matches_closed_form_on_the_criterion_1_grid():
    _assert_table_matches_closed_form(list(product(range(-60, 61), repeat=2)))


def test_table_matches_closed_form_on_a_random_far_batch():
    rng = random.Random(15)
    _assert_table_matches_closed_form(
        [(rng.randint(-120, 120), rng.randint(-120, 120)) for _ in range(1500)])


def test_far_lookup_takes_the_closed_form(monkeypatch):
    # one far point would need a fill of ~80,000 cells, so its table entry is its
    # closed form, the one evaluation; each distinct point's closed-form terms count
    # once, however often it repeats
    import lozenge.coupling as coupling

    calls = []
    monkeypatch.setattr(coupling, "_eval_reduced",
                        lambda x, y: calls.append((x, y)) or _eval_reduced(x, y))
    direct = _eval_reduced(-400, 3)
    for points in ([(-400, 3)], [(-400, 3)] * 300 + [(3, -400)] * 300):
        calls.clear()
        den, table = prefill(points)
        assert calls == [(-400, 3)]
        assert table == {(-400, 3): tuple(n * den // direct.den for n in direct.nums)}


def test_far_column_is_let_go_before_its_spans_are_listed():
    # column -10**6 alone needs at least 5e11 cells against 10**6 terms, so prefill takes
    # the closed form before it lists one span per column (about 100 MB here, gigabytes for
    # holes 10**8 apart), and the closed form refuses n = 10**6 - 1 at once
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the closed form's bound"):
            prefill([(-10 ** 6, 0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


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


@pytest.mark.parametrize("q", [Fraction(1), Fraction(1, 4), Fraction(-2)])
def test_dd_leading_within_two_ulps_of_mpmath(q):
    # criterion-7 grid; the bracket in complex floats was off by up to 21 ulps
    dirs = [(Fraction(-9, 10), Fraction(3, 10)), (Fraction(3, 10), Fraction(-9, 10)),
            (Fraction(6, 10), Fraction(6, 10))]
    with mp.workdps(50):
        zeta, qm = mp.exp(2j * mp.pi / 3), mp.mpf(q.numerator) / q.denominator
        for k, l, (u, v), n in product(range(3), range(3), dirs, (50, 100, 200, 400)):
            r, s = int(u * n), int(v * n)

            def f(z):
                e, m = (r - s - 1) % 3, k + l
                return z ** e * (1 - qm * z) ** m / (-r + s * z) ** (m + 1)

            want = (math.comb(k + l, k) * (f(zeta) - f(mp.conj(zeta))) / (2j * mp.pi)).real
            got = dd_p_leading(k, l, r, s, q)
            assert abs(got - want) <= 2 * math.ulp(float(want)), (k, l, r, s)


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


def test_dd_exact_refuses_nodes_off_the_lattice():
    # q = 1/4 with y nodes 0, 1: q*(x + y) = 1/4 is no lattice coordinate
    with pytest.raises(NonIntegerArgument, match=r"^q\*\(x\+y\) = 1/4 does not land on the lattice$"):
        dd_p_exact(0, 1, -80, 20, Fraction(1, 4), [0], [0, 1])


def test_u0_closed_form():
    assert float(u_exact(0, 1, 0)) == 0.0
    assert float(u_exact(0, 2, 0)) == pytest.approx(math.sqrt(3) / (2 * math.pi))
    for a, b in [(0, 0), (3, 1), (-2, 5)]:
        assert float(u_exact(0, a, b)) == pytest.approx(
            math.sqrt(3) / (2 * math.pi) * chi(a - b - 1)
        )
    # index 0 is one of 0, +-sqrt(3)/(2pi), set by the residue of a - b
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert u_exact(0, a, b) == SqrtPiPoly.from_pair(0, Fraction(chi(a - b - 1), 2))


def _solve_fractions(mat, rhs):
    """Gauss-Jordan solve of a square system over the rationals."""
    n = len(mat)
    m = [list(r) + [v] for r, v in zip(mat, rhs)]
    for k in range(n):
        piv = next(i for i in range(k, n) if m[i][k])
        m[k], m[piv] = m[piv], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return [r[n] for r in m]


def _fit_series(a, b, radii):
    """Exact Vandermonde fit of (3r)*P(-3r-1+a, b-1) in powers of 1/(3r)."""
    xs = [Fraction(1, 3 * r) for r in radii]
    vals = [coupling_p(-3 * r - 1 + a, b - 1) * (3 * r) for r in radii]
    mat = [[x ** j for j in range(len(xs))] for x in xs]
    rational = _solve_fractions(mat, [v.rational_part for v in vals])
    root = _solve_fractions(mat, [v.root_part for v in vals])
    return [SqrtPiPoly.from_pair(p, q) for p, q in zip(rational, root)]


def _fitted_u(s, a, b, base_radius=200, guard=3):
    """(near, far): u_s fitted at radii base*(1..n) and at base*(2..n+1)."""
    count = s + guard + 1
    near = _fit_series(a, b, [base_radius * (i + 1) for i in range(count)])
    far = _fit_series(a, b, [base_radius * (i + 2) for i in range(count)])
    return float(near[s]), float(far[s])


def test_u_extrapolation_matches_closed_form():
    for a, b in [(1, 0), (2, 0), (0, 0), (3, -2)]:
        near, far = _fitted_u(0, a, b)
        assert near == pytest.approx(float(u_exact(0, a, b)), abs=1e-8)
        assert abs(near - far) < 1e-8


def test_u_closed_form_matches_vandermonde_fits():
    # the farther fit is the better one, and the closed form lies within
    # the two fits' difference of it
    for s, a, b in [(1, 8, 1), (1, 9, 0), (1, -2, 3), (2, 0, 1), (2, 1, 0), (2, 3, -2)]:
        exact = float(u_exact(s, a, b))
        near, far = _fitted_u(s, a, b)
        assert abs(far - exact) <= abs(near - exact), (s, a, b)
        assert abs(far - exact) <= abs(near - far), (s, a, b)
        assert abs(far - exact) <= 1e-8 * max(1.0, abs(exact)), (s, a, b)


@pytest.mark.parametrize("a, b, roots", [
    (0, 0, ["-1/2", "1/2", "-1/2"]),
    (8, 0, ["1/2", "7/2", "49/2"]),
    (7, 1, ["-1/2", "-3", "-17"]),
    (-1, 1, ["0", "-1/2", "3/2"]),
    (0, -2, ["1/2", "-3/2", "7/2", "-15/2"]),
])
def test_u_closed_form_table(a, b, roots):
    # limits of Vandermonde fits at radii 400..3200, in units of sqrt(3)/pi
    assert [u_exact(s, a, b) for s in range(len(roots))] == [
        SqrtPiPoly.from_pair(0, Fraction(r)) for r in roots]


def test_u_local_equation_exact():
    # every u_s inherits the local equation of P away from the origin
    for s in range(5):
        for a in range(-8, 9):
            for b in range(-8, 9):
                total = u_exact(s, a, b) + u_exact(s, a - 1, b) + u_exact(s, a, b - 1)
                assert total.is_zero(), (s, a, b)


def test_u1_lower_order_constant_is_residue_stable():
    # the index-1 coefficient differs from its leading closed form by a
    # constant depending only on the residue class of a - b
    def lead(a, b):
        return SqrtPiPoly.from_pair(0, Fraction(a * chi(a - b - 1) - b * chi(a - b), 2))

    c1 = u_exact(1, 2, 0) - lead(2, 0)
    c2 = u_exact(1, 0, 1) - lead(0, 1)
    assert c1 == c2

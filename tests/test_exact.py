"""Exact arithmetic: the polynomial ring in sqrt(3)/pi and Q(zeta)."""

import math
import random
import struct
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

import lozenge.exact as exact
from lozenge.correlation import hole_context
from lozenge.coupling import coupling_p
from lozenge.exact import (
    SQRT3_OVER_PI,
    BorderedDet,
    SqrtPiPoly,
    ZetaFrac,
    adjugate_exact,
    chi,
    det_exact,
    round_sqrt3_times,
    zeta_bracket,
)
from lozenge.lattice import HoleSystem, hole, left, lozenges_covering

G = math.sqrt(3.0) / math.pi
fracs = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


def test_chi_period():
    assert [chi(n) for n in range(-3, 4)] == [0, 1, -1, 0, 1, -1, 0]


def test_pair_roundtrip():
    v = SqrtPiPoly.from_pair(Fraction(1, 3), Fraction(-1, 2))
    assert v.rational_part == Fraction(1, 3)
    assert v.root_part == Fraction(-1, 2)
    assert float(v) == pytest.approx(1 / 3 - G / 2, abs=1e-15)


@given(fracs, fracs, fracs, fracs)
def test_ring_ops_match_floats(a, b, c, d):
    x = SqrtPiPoly.from_pair(a, b)
    y = SqrtPiPoly.from_pair(c, d)
    fx, fy = float(x), float(y)
    assert float(x + y) == pytest.approx(fx + fy, abs=1e-12)
    assert float(x * y) == pytest.approx(fx * fy, abs=1e-12)
    assert float(x - y) == pytest.approx(fx - fy, abs=1e-12)


def test_multiplication_raises_degree():
    g = SqrtPiPoly.from_pair(0, 1)
    assert (g * g).coeffs == (0, 0, 1)
    assert float(g * g) == pytest.approx(3 / math.pi ** 2, abs=1e-15)


def test_exact_division_roundtrip():
    a = SqrtPiPoly((1, 2, 3))
    b = SqrtPiPoly((Fraction(1, 2), 5))
    assert (a * b).exact_div(b) == a
    with pytest.raises(ArithmeticError):
        SqrtPiPoly((1, 1)).exact_div(SqrtPiPoly((0, 0, 1)))


def _rounded(v, digits):
    """Nearest float to v from mpmath at ``digits`` digits, checked at twice that."""
    out = []
    for dps in (digits, 2 * digits):
        with mp.workdps(dps):
            g = mp.sqrt(3) / mp.pi
            acc = mp.mpf(0)
            for c in reversed(v.coeffs):
                acc = acc * g + mp.mpf(c.numerator) / c.denominator
            out.append(float(acc))
    assert out[0] == out[1], "reference precision too low"
    return out[0]


def _cancelled():
    # huge opposite coefficients hiding a tiny value: r*g + p with p chosen
    # as a 19-digit rational approximation of -r*g
    r = Fraction(-10 ** 60)
    p = -r * Fraction(5513288954217920772, 10 ** 19)
    return SqrtPiPoly((p, r))


def _horner_zero():
    # float Horner gives 1.0*g - g == 0.0 exactly; the value is g - float(g)
    return SqrtPiPoly((-Fraction(SQRT3_OVER_PI), 1))


def test_float_survives_catastrophic_cancellation():
    v = _cancelled()
    ref = _rounded(v, 300)
    assert ref != 0.0
    assert float(v) == ref


@pytest.mark.parametrize("make, digits", [
    (lambda: -_cancelled(), 300),
    (lambda: coupling_p(-400, 150), 300),
    (lambda: coupling_p(-400, 150) * coupling_p(-300, 77) * coupling_p(-350, 200), 600),
    (_horner_zero, 300),
], ids=["negative", "binomial", "degree3", "horner-zero"])
def test_float_is_correctly_rounded_past_the_fast_path(make, digits):
    v = make()
    ref = _rounded(v, digits)
    assert ref != 0.0
    assert float(v) == ref


def test_horner_zero_case_reaches_the_exact_path(monkeypatch):
    v = _horner_zero()
    val = 0.0
    for c in reversed(v.coeffs):
        val = val * SQRT3_OVER_PI + float(c)
    assert val == 0.0
    precs = []
    inner = exact._round_nearest
    monkeypatch.setattr(exact, "_round_nearest", lambda p, prec: precs.append(prec) or inner(p, prec))
    float(v)
    assert precs == [80]  # no bits seen to cancel: the exact path starts at 80


def _sqrt3_times_rounded(r, digits):
    out = []
    for dps in (digits, 2 * digits):
        with mp.workdps(dps):
            out.append(float(mp.sqrt(3) * mp.mpf(r.numerator) / r.denominator))
    assert out[0] == out[1], "reference precision too low"
    return out[0]


def test_round_sqrt3_times_is_correctly_rounded():
    rng = random.Random(4)
    cases = [Fraction(0), Fraction(1), Fraction(-7, 3)]
    cases += [Fraction(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** 30))
              for _ in range(200)]
    # sqrt(3)*r within 2**-400 (relative) below the midpoint of two floats:
    # 64 and 128 bits cannot decide, so the loop has to double its precision
    f = 1.2345
    mid = Fraction(f) + Fraction(math.nextafter(f, 2.0) - f) / 2
    near = mid * Fraction(math.isqrt(3 << 800), 3 << 400)
    cases += [near, -near]
    for r in cases:
        assert round_sqrt3_times(r) == _sqrt3_times_rounded(r, 160), r
    assert round_sqrt3_times(near) == f
    assert round_sqrt3_times(Fraction(0)) == 0.0


def test_fixed_point_g_encloses_sqrt3_over_pi(monkeypatch):
    monkeypatch.setattr(exact, "_G_FIXED", (0, 0))
    with mp.workdps(3100):
        g = mp.sqrt(3) / mp.pi
        # built, shifted down from the cache, then grown past it
        for prec in (80, 10000, 97, 4096, 2, 10001):
            G = exact._g_fixed(prec)
            assert G - 1 <= g * mp.mpf(2) ** prec <= G + 2, prec


def _numerators_and_grid():
    """The +-60 coupling grid and the bordered numerators of a charged system."""
    vals = [coupling_p(x, y) for x in range(-60, 61, 3) for y in range(-60, 61, 3)]
    ctx = hole_context(HoleSystem((hole("E", 0, 0), hole("W", 12, 0), hole("E", 4, 9))))
    for a in range(-5, 16):
        for b in range(-5, 16):
            if left(a, b) not in ctx.triangles:
                vals.extend(ctx.numerator(L).signed for L in lozenges_covering(left(a, b)))
    return vals


def test_float_error_by_path(monkeypatch):
    exact_calls = []
    inner = exact._round_nearest
    monkeypatch.setattr(exact, "_round_nearest",
                        lambda p, prec: exact_calls.append(p) or inner(p, prec))
    fast = worst = 0
    for v in _numerators_and_grid():
        before = len(exact_calls)
        got = float(v)
        ref = _rounded(v, 300)
        if len(exact_calls) == before:
            fast += 1
            worst = max(worst, abs(got - ref) / math.ulp(ref))
        else:
            assert got == ref, v
    assert worst <= 512
    assert fast > 0 and exact_calls  # both paths are exercised


def _reference_float(v):
    """The Fraction-coefficient conversion the integer storage replaced."""
    coeffs = v.coeffs
    if not coeffs:
        return 0.0
    log2_g = -0.8589190189574097
    top = max(
        (c.numerator.bit_length() - c.denominator.bit_length()) + k * log2_g
        for k, c in enumerate(coeffs)
        if c
    )
    if top < 900:
        val = 0.0
        for c in reversed(coeffs):
            val = val * SQRT3_OVER_PI + float(c)
        if val != 0.0 and math.log2(abs(val)) > top - 8.0:
            return val
    else:
        val = 0.0
    loss = top - (math.log2(abs(val)) if val else top)
    return exact._round_nearest(v, int(loss) + 80)


def test_float_bit_identical_to_fraction_reference():
    values = _numerators_and_grid() + [_cancelled(), -_cancelled(), _horner_zero()]
    bits = lambda x: struct.pack("<d", x)
    for v in values:
        assert bits(float(v)) == bits(_reference_float(v)), v


def test_integer_storage_is_canonical():
    # the same value reached through different denominators and trailing zeros
    a = SqrtPiPoly((Fraction(2, 6), Fraction(-3, 9), 0, 0))
    b = SqrtPiPoly.from_pair(Fraction(1, 3), Fraction(-1, 3))
    c = SqrtPiPoly((Fraction(5, 6), Fraction(1, 3))) - SqrtPiPoly((Fraction(1, 2), Fraction(2, 3)))
    for v in (a, b, c, b * 6 * Fraction(1, 6), (b * b).exact_div(b)):
        assert (v.nums, v.den) == ((1, -1), 3)
        assert v == b and hash(v) == hash(b)
        assert v.coeffs == (Fraction(1, 3), Fraction(-1, 3))
    assert (SqrtPiPoly((0, 0)).nums, SqrtPiPoly((0, 0)).den) == ((), 1)
    assert SqrtPiPoly((Fraction(4, 2),)) == 2 and SqrtPiPoly(()) == 0
    rng = random.Random(9)
    for _ in range(300):
        cs = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(rng.randint(0, 4))]
        v = SqrtPiPoly(cs)
        assert v.den > 0 and math.gcd(v.den, *v.nums) == 1
        assert not v.nums or v.nums[-1] != 0
        while cs and cs[-1] == 0:
            cs.pop()
        assert v.coeffs == tuple(cs)
        # built again from its own Fractions, or from scaled integers
        w = SqrtPiPoly(Fraction(n * 7, v.den * 7) for n in v.nums)
        assert v == w and hash(v) == hash(w)


@given(fracs, fracs, fracs, fracs)
def test_ring_ops_match_fraction_arithmetic(a, b, c, d):
    x, y = SqrtPiPoly.from_pair(a, b), SqrtPiPoly.from_pair(c, d)
    assert (x + y).coeffs == SqrtPiPoly((a + c, b + d)).coeffs
    assert (x - y).coeffs == SqrtPiPoly((a - c, b - d)).coeffs
    assert (x * y).coeffs == SqrtPiPoly((a * c, a * d + b * c, b * d)).coeffs
    assert (x * c).coeffs == SqrtPiPoly((a * c, b * c)).coeffs
    if not y.is_zero():
        assert (x * y).exact_div(y) == x


def test_float_conversion_uses_no_mpmath_state(monkeypatch):
    values = _numerators_and_grid()[::7] + [_cancelled(), _horner_zero()]

    def forbidden(*args, **kwargs):
        raise AssertionError("float conversion touched mpmath's global context")

    prec = mp.mp.prec
    monkeypatch.setattr(mp, "workdps", forbidden)
    monkeypatch.setattr(mp, "workprec", forbidden)
    serial = [float(v) for v in values]
    # start the threads from an empty fixed-point cache so they race to build it
    monkeypatch.setattr(exact, "_G_FIXED", (0, 0))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = [pool.submit(lambda: [float(v) for v in values]) for _ in range(4)]
            threaded = [f.result(timeout=120) for f in runs]
    finally:
        sys.setswitchinterval(switch)
    bits = lambda xs: [struct.pack("<d", x) for x in xs]
    assert all(bits(t) == bits(serial) for t in threaded)
    assert mp.mp.prec == prec


def test_zero_only_for_zero_coefficients():
    assert SqrtPiPoly(()).is_zero()
    assert float(SqrtPiPoly(())) == 0.0
    assert not SqrtPiPoly((0, 1)).is_zero()


def test_det_exact_small():
    one = SqrtPiPoly.one()
    zero = SqrtPiPoly.zero()
    g = SqrtPiPoly.from_pair(0, 1)
    assert det_exact([[one, g], [g, one]]) == one - g * g
    assert det_exact([[zero, one], [one, zero]]) == -one
    assert det_exact([]).coeffs == (1,)


def test_det_exact_matches_float():
    import random

    rng = random.Random(3)
    rows = [
        [
            SqrtPiPoly.from_pair(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                 Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(4)
        ]
        for _ in range(4)
    ]
    import numpy as np

    ref = np.linalg.det([[float(v) for v in row] for row in rows])
    assert float(det_exact(rows)) == pytest.approx(ref, rel=1e-10, abs=1e-12)


# --- Q(zeta) -------------------------------------------------------------------


def test_adjugate_and_bordered_det_match_bareiss():
    rng = random.Random(11)

    def entry():
        if rng.random() < 0.25:  # zeros force pivot row swaps
            return SqrtPiPoly.zero()
        return SqrtPiPoly.from_pair(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                                    Fraction(rng.randint(-9, 9), rng.randint(1, 6)))

    checked = 0
    for _ in range(120):
        n = rng.randint(0, 5)
        m = [[entry() for _ in range(n)] for _ in range(n)]
        det = det_exact(m)
        if det.is_zero():
            with pytest.raises(ZeroDivisionError):
                adjugate_exact(m)
            continue
        adj = adjugate_exact(m)
        for i in range(n):
            for j in range(n):
                total = SqrtPiPoly.zero()
                for k in range(n):
                    total = total + adj[i][k] * m[k][j]
                assert total == (det if i == j else SqrtPiPoly.zero())
        row, col, corner = [entry() for _ in range(n)], [entry() for _ in range(n)], entry()
        bordered = [r + [c] for r, c in zip(m, col)] + [row + [corner]]
        bd = BorderedDet(det, adj)
        assert bd.border(row, bd.adj_col(col), corner) == det_exact(bordered)
        checked += 1
    assert checked > 80


def test_zeta_cube_root():
    z = ZetaFrac.zeta_pow(1)
    assert z * z == ZetaFrac.zeta_pow(2)
    assert z * z * z == ZetaFrac(1, 0)
    assert abs(z.to_complex() - complex(-0.5, math.sqrt(3) / 2)) < 1e-15


@given(fracs, fracs)
def test_zeta_conjugation_is_involution(a, b):
    z = ZetaFrac(a, b)
    assert z.conj().conj() == z
    # conjugation agrees with complex conjugation
    assert abs(z.conj().to_complex() - z.to_complex().conjugate()) < 1e-12


@given(fracs, fracs)
def test_zeta_inverse(a, b):
    z = ZetaFrac(a, b)
    if z.is_zero():
        return
    assert z * z.inverse() == ZetaFrac(1, 0)


def test_bracket_is_imaginary():
    # brackets are rational multiples of 1 + 2*zeta = i*sqrt(3)
    f = ZetaFrac(Fraction(2, 3), Fraction(-1, 2))
    for k in range(-4, 5):
        br = zeta_bracket(k, f)
        assert abs(br.to_complex().real) < 1e-14
        # the definition: zeta^k*f minus its conjugate
        v = ZetaFrac.zeta_pow(k) * f
        assert br == v - v.conj() and br.b == 2 * br.a


@given(fracs, fracs, st.integers(-4, 4))
def test_zeta_power(a, b, n):
    z = ZetaFrac(a, b)
    if z.is_zero():
        return
    want = ZetaFrac(1)
    for _ in range(abs(n)):
        want = want * z
    assert z ** n == (want if n >= 0 else want.inverse())
    assert z ** n * z ** -n == ZetaFrac(1)

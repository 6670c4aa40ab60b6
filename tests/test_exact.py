"""Exact arithmetic: the polynomial ring in sqrt(3)/pi and Q(zeta)."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lozenge.exact import (
    BorderedDet,
    SqrtPiPoly,
    ZetaFrac,
    adjugate_exact,
    chi,
    det_exact,
    zeta_bracket,
)

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


def test_float_survives_catastrophic_cancellation():
    # huge opposite coefficients hiding a tiny value: r*g + p with p chosen
    # as a 19-digit rational approximation of -r*g
    r = Fraction(-10 ** 60)
    p = -r * Fraction(5513288954217920772, 10 ** 19)
    v = SqrtPiPoly((p, r))
    import mpmath as mp

    with mp.workdps(120):
        ref = float(mp.mpf(p.numerator) / p.denominator
                    + (mp.mpf(r.numerator) / r.denominator) * mp.sqrt(3) / mp.pi)
    assert ref != 0.0
    assert float(v) == pytest.approx(ref, rel=1e-12)


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
        assert BorderedDet(det, adj)(row, col, corner) == det_exact(bordered)
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

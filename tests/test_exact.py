"""Exact arithmetic: the polynomial ring in sqrt(3)/pi and Q(zeta)."""

import itertools
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
from lozenge.convergence import golden_pair_config, lattice_system_at_scale
from lozenge.correlation import hole_context
from lozenge.coupling import coupling_p
from lozenge.exact import (
    SQRT3_OVER_PI,
    BorderedDet,
    SqrtPiPoly,
    ZetaFrac,
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


def test_float_of_coefficients_beyond_the_float_range():
    # a bordered numerator of the golden pair's probe at R=2048: its
    # coefficients lie ~2^2100 beyond its denominator, its value near 1.5e-9,
    # so the exact path's first bounds overflow and only leave it undecided
    cfg, R = golden_pair_config(), 2048
    probe = left(round(R * cfg.probe.x), round(R * cfg.probe.y))
    ctx = hole_context(lattice_system_at_scale(cfg, R))
    v = ctx.numerators(lozenges_covering(probe)[:1])[0]
    assert max(abs(n) for n in v.nums) > v.den << 2000
    assert float(v) == _rounded(v, 3000)


@pytest.mark.parametrize("nums", [(2 ** 1100,), (-2 ** 1100,), (1, 2 ** 1100)])
def test_float_beyond_the_float_range_raises(nums):
    with pytest.raises(OverflowError):
        float(SqrtPiPoly(nums))


def test_horner_zero_case_reaches_the_exact_path(monkeypatch):
    v = _horner_zero()
    val = 0.0
    for c in reversed(v.coeffs):
        val = val * SQRT3_OVER_PI + float(c)
    assert val == 0.0
    precs = []
    inner = exact._round_nearest
    monkeypatch.setattr(exact, "_round_nearest",
                        lambda nums, den, prec: precs.append(prec) or inner(nums, den, prec))
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


def test_cached_bound_tables_enclose_powers_of_sqrt3_over_pi(monkeypatch):
    # built from empty caches, then again with each G shifted down from a larger build
    monkeypatch.setattr(exact, "_G_FIXED", (0, 0))
    exact._bounds.cache_clear()
    with mp.workdps(3100):
        g = mp.sqrt(3) / mp.pi
        for larger in (None, 20002):
            if larger:
                exact._g_fixed(larger)
                exact._bounds.cache_clear()
            for prec in (2, 80, 97, 4096, 10001):
                for degree in range(6):
                    G = exact._g_fixed(prec)
                    table = exact._bounds(G, prec, degree)
                    assert exact._bounds(G, prec, degree) is table  # read from the cache
                    assert isinstance(table, tuple) and len(table) == degree + 1
                    for k, (lo, hi) in enumerate(table):
                        assert lo <= g ** k * mp.mpf(2) ** (degree * prec) <= hi, (prec, degree, k)
    assert exact._bounds.cache_info().maxsize == 128


def _numerators_and_grid():
    """The +-60 coupling grid and the bordered numerators of a charged system."""
    vals = [coupling_p(x, y) for x in range(-60, 61, 3) for y in range(-60, 61, 3)]
    ctx = hole_context(HoleSystem((hole("E", 0, 0), hole("W", 12, 0), hole("E", 4, 9))))
    for a in range(-5, 16):
        for b in range(-5, 16):
            if left(a, b) not in ctx.triangles:
                vals.extend(ctx.numerators(lozenges_covering(left(a, b))))
    return vals


def test_float_error_by_path(monkeypatch):
    exact_calls = []
    inner = exact._round_nearest
    monkeypatch.setattr(exact, "_round_nearest",
                        lambda nums, den, prec: exact_calls.append((nums, den)) or inner(nums, den, prec))
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
    return exact._round_nearest(v.nums, v.den, int(loss) + 80)


def test_float_bit_identical_to_fraction_reference():
    values = _numerators_and_grid() + [_cancelled(), -_cancelled(), _horner_zero()]
    bits = lambda x: struct.pack("<d", x)
    for v in values:
        assert bits(float(v)) == bits(_reference_float(v)), v


def _unreduced_cases(rng):
    """(canonical value, common factor) pairs near the float path's two decisions.

    A degree-1 value with about 8 bits cancelling sits near the fast path's
    accept/reject line; one with ~2^900 coefficients sits near the float
    range's edge.  Odd factors move a coefficient's bit lengths by one;
    powers of 2 leave them unchanged.
    """
    factors = (3, 9, 5, 3 << 7, 1 << 11)
    for _ in range(500):
        n1 = rng.randrange(2 ** 40, 2 ** 41) * rng.choice((1, 3, 9))
        cancel = Fraction(2.0 ** -rng.uniform(6, 10))
        n0 = -round(n1 * Fraction(SQRT3_OVER_PI) * (1 - cancel))
        den = rng.choice((1, 3, 7, 9, 27, 45))
        yield SqrtPiPoly((Fraction(n0, den), Fraction(n1, den))), rng.choice(factors)
    for _ in range(300):
        e = rng.randrange(896, 904)
        coeffs = (rng.randrange(-2 ** (e - 1), 2 ** (e - 1)), rng.randrange(2 ** e, 2 ** (e + 1)))
        den = rng.choice((1, 3, 9, 27))
        yield SqrtPiPoly([Fraction(c, den) for c in coeffs]), rng.choice(factors)


def test_unreduced_numerators_round_like_their_lowest_terms(monkeypatch):
    reduced = []
    top = exact._top
    monkeypatch.setattr(exact, "_top",
                        lambda nums, den, reduce: reduced.append(reduce) or top(nums, den, reduce))
    bits = lambda x: struct.pack("<d", x)
    in_band = flipped = 0
    for v, f in _unreduced_cases(random.Random(5)):
        nums, den = [n * f for n in v.nums], v.den * f
        reduced.clear()
        assert bits(exact.to_float(nums, den)) == bits(_reference_float(v)), (v, f)
        in_band += True in reduced
        # the decisions the unreduced bit lengths alone would take
        raw, low = top(nums, den, False), top(nums, den, True)
        val = 0.0
        for c in reversed(v.coeffs):
            val = val * SQRT3_OVER_PI + float(c)
        flipped += (raw < 900) != (low < 900) or (
            low < 900 and math.log2(abs(val)) > raw - 8.0) != (math.log2(abs(val)) > low - 8.0)
    # the lowest-terms branch runs, and without it some values would round differently
    assert in_band > 100 and flipped > 20


def test_coefficients_are_reduced_only_near_a_decision(monkeypatch):
    values = _numerators_and_grid()
    calls = []
    top = exact._top
    monkeypatch.setattr(exact, "_top",
                        lambda nums, den, reduce: calls.append(reduce) or top(nums, den, reduce))
    for v in values:
        float(v)
    assert calls.count(False) == len(values)
    assert 0 < calls.count(True) < len(values) // 10


def test_beyond_range_numerators_take_at_most_two_passes(monkeypatch):
    # the exact path starts from the coefficients' bits beyond the float
    # range, not from 80 bits (which took six Ziv passes, 80 to 2560 bits)
    cfg, R = golden_pair_config(), 2048
    probe = left(round(R * cfg.probe.x), round(R * cfg.probe.y))
    ctx = hole_context(lattice_system_at_scale(cfg, R))
    passes = []
    g_fixed = exact._g_fixed
    monkeypatch.setattr(exact, "_g_fixed", lambda prec: passes.append(prec) or g_fixed(prec))
    for v in ctx.numerators(lozenges_covering(probe)):
        assert max(abs(n) for n in v.nums) > v.den << 2000
        passes.clear()
        assert float(v) == _rounded(v, 3000)
        assert 1 <= len(passes) <= 2


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
    # start the threads from empty fixed-point and bound caches so they race to build them
    monkeypatch.setattr(exact, "_G_FIXED", (0, 0))
    exact._bounds.cache_clear()
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


def _leibniz_det(m):
    """Reference: det M by permutation expansion, independent of any elimination."""
    n, total = len(m), SqrtPiPoly.zero()
    for perm in itertools.permutations(range(n)):
        term = SqrtPiPoly.one()
        for i in range(n):
            term = term * m[i][perm[i]]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


def test_det_exact_matches_permutation_expansion():
    rng = random.Random(12)

    def entry():
        if rng.random() < 0.3:  # zeros force pivot row swaps
            return SqrtPiPoly.zero()
        return SqrtPiPoly.from_pair(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                                    Fraction(rng.randint(-9, 9), rng.randint(1, 6)))

    mats = [[]]  # n = 0: the empty product
    for _ in range(60):
        n = rng.randint(1, 5)
        mats.append([[entry() for _ in range(n)] for _ in range(n)])
    singular_last = 0
    for n in range(2, 6):
        for _ in range(6):
            # a zero first pivot: the elimination must swap rows
            m = [[entry() for _ in range(n)] for _ in range(n)]
            m[0][0] = SqrtPiPoly.zero()
            mats.append(m)
            # the last row a combination of the others, whose leading block is
            # nonsingular: every pivot but the last exists, and the last is zero
            m = [[entry() for _ in range(n)] for _ in range(n - 1)]
            if _leibniz_det([r[:n - 1] for r in m]).is_zero():
                continue
            cs = [entry() for _ in m]
            m.append([sum((c * r[j] for c, r in zip(cs, m)), SqrtPiPoly.zero()) for j in range(n)])
            mats.append(m)
            singular_last += 1
    assert singular_last >= 12
    for m in mats:
        want = _leibniz_det(m)
        assert det_exact(m) == want
        assert det_exact(m, adjugate=True)[0] == want


# --- Q(zeta) -------------------------------------------------------------------


def test_adjugate_and_bordered_det_match_bareiss():
    rng = random.Random(11)

    def entry():
        if rng.random() < 0.25:  # zeros force pivot row swaps
            return SqrtPiPoly.zero()
        return SqrtPiPoly.from_pair(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                                    Fraction(rng.randint(-9, 9), rng.randint(1, 6)))

    checked = singular = 0
    for _ in range(120):
        n = rng.randint(0, 5)
        m = [[entry() for _ in range(n)] for _ in range(n)]
        det, adj = det_exact(m, adjugate=True)
        assert det == det_exact(m)
        if det.is_zero():
            assert adj is None  # a singular matrix has no adjugate to border with
            singular += 1
            continue
        for i in range(n):
            for j in range(n):
                total = SqrtPiPoly.zero()
                for k in range(n):
                    total = total + adj[i][k] * m[k][j]
                assert total == (det if i == j else SqrtPiPoly.zero())
        row, col, corner = [entry() for _ in range(n)], [entry() for _ in range(n)], entry()
        bordered = [r + [c] for r, c in zip(m, col)] + [row + [corner]]
        bd = BorderedDet(det, adj)
        assert exact._make(*bd.border(bd.row(row), bd.adj_col(col), bd.corner(corner))) == det_exact(bordered)
        checked += 1
    assert checked > 80 and singular > 0


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


def _pair_mul(p, q):
    (a, b), (c, d) = p, q
    return (a * c - b * d, a * d + b * c - b * d)  # zeta^2 = -1 - zeta


def _pair_inverse(p):
    a, b = p
    norm = a * a - a * b + b * b
    return ((a - b) / norm, -b / norm)


def _pair_pow(p, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        out = _pair_mul(out, p)
    return out if n >= 0 else _pair_inverse(out)


def _canonical(z):
    return z.den > 0 and math.gcd(z.x, z.y, z.den) == 1 and (z.a, z.b) == (
        Fraction(z.x, z.den), Fraction(z.y, z.den))


@given(fracs, fracs, fracs, fracs, st.integers(-4, 4), st.integers(-7, 7))
def test_zeta_ops_match_fraction_pairs(a, b, c, d, n, k):
    # reference: a + b*zeta as a pair of Fractions
    z, w = ZetaFrac(a, b), ZetaFrac(c, d)
    p, q = (a, b), (c, d)
    got = {
        "+": (z + w, (a + c, b + d)),
        "-": (z - w, (a - c, b - d)),
        "neg": (-z, (-a, -b)),
        "*": (z * w, _pair_mul(p, q)),
        "* Fraction": (z * c, (a * c, b * c)),
        "int *": (3 * z, (3 * a, 3 * b)),
        "conj": (z.conj(), (a - b, -b)),
        "bracket": (zeta_bracket(k, z), ((b, a - b, -a)[k % 3], 2 * (b, a - b, -a)[k % 3])),
    }
    if c or d:
        got["/"] = (z / w, _pair_mul(p, _pair_inverse(q)))
        got["inverse"] = (w.inverse(), _pair_inverse(q))
    if a or b or n >= 0:
        got["**"] = (z ** n, _pair_pow(p, n))
    for op, (v, want) in got.items():
        assert (v.a, v.b) == want, op
        assert _canonical(v), op
        assert v == ZetaFrac(*want) and hash(v) == hash(ZetaFrac(*want)), op
    if not (c or d):
        with pytest.raises(ZeroDivisionError):
            w.inverse()


@given(fracs, fracs, fracs, fracs)
def test_zeta_equal_values_store_equal_integers(a, b, c, d):
    z, w = ZetaFrac(a, b), ZetaFrac(c, d)
    # the same value reached along different paths
    for v, u in (((z + w) - w, z), (z * w, w * z), (z.conj().conj(), z),
                 (ZetaFrac(a * 6, b * 6) * Fraction(1, 6), z)):
        assert (v.x, v.y, v.den) == (u.x, u.y, u.den)
        assert v == u and hash(v) == hash(u)
    assert (ZetaFrac().x, ZetaFrac().y, ZetaFrac().den) == (0, 0, 1)


@pytest.mark.parametrize("what, want", [
    ("lemma33", "lemma33: max residual = 0 over 200 cases\n"),
    ("lemma34", "lemma34: max residual = 0 over 100 cases\n"),
])
def test_block_lemmas_stdout_pinned(capsys, what, want):
    from lozenge.cli import main

    assert main(["verify", what, "--seed", "7"]) == 0
    assert capsys.readouterr().out == want


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

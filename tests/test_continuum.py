"""Limit matrices, closed forms, helicoids and the exact block identities."""

import json
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from lozenge import continuum, exact
from lozenge.continuum import (
    CenterSingularity,
    Charge,
    ChargeImbalance,
    CoincidentPoints,
    HelicoidSpec,
    LimitConfig,
    Probe,
    SingularDenominator,
    ZetaMatrixSet,
    _schur_ratios,
    border_block,
    border_block_reduced,
    border_block_target,
    build_limit_matrices,
    coulomb_field,
    fiber_distance,
    field_ratio,
    field_ratio_closed_form,
    helicoid_fiber,
    helicoids_for_config,
    p_asymptotics,
    random_zeta_function,
    sample_limit_config,
    shift_block,
    shift_block_cols,
    shift_block_rows,
    surface_gradient_limit,
)
from lozenge.exact import SqrtPiPoly, det_exact
from lozenge.lattice import to_cartesian

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def simple_config(**kw):
    return LimitConfig(
        positives=(Charge(0.0, 0.0, 1),),
        negatives=(Charge(2.0, 0.0, 1),),
        probe=Probe(0.5, 1.0),
        **kw,
    )


def test_config_validation():
    with pytest.raises(CoincidentPoints):
        LimitConfig((Charge(0, 0),), (Charge(0, 0),), Probe(1, 1))
    with pytest.raises(ValueError):
        LimitConfig((Charge(0, 0),), (), Probe(1, 1), q=Fraction(2))
    with pytest.raises(ChargeImbalance):
        build_limit_matrices(LimitConfig((Charge(0, 0, 1),), (Charge(2, 0, 2),), Probe(1, 1)))
    for size in (0, -1, 1.5):
        with pytest.raises(ValueError):
            Charge(0, 0, size)
    with pytest.raises(ValueError):
        Charge(0, 0, 1, alpha=0.5)


def test_size_error_prints_the_charge():
    # the check runs on the normalised record, so its repr shows the values as read
    with pytest.raises(ValueError) as exc:
        Charge(0, 0, 0)
    assert str(exc.value) == ("Charge(x=0.0, y=0.0, size=0, alpha=0, beta=0): "
                              "size must be a positive integer")


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, True, "0.25", [1], 10 ** 400])
def test_coordinates_are_finite_numbers(x):
    with pytest.raises(ValueError, match="is not a finite number"):
        Charge(x, 0)
    with pytest.raises(ValueError, match="is not a finite number"):
        Probe(0, x)


def test_limit_config_json_keys_are_the_fields():
    # every default is the records'
    assert LimitConfig.from_json("{}") == LimitConfig()
    text = json.dumps({"positives": [{"x": 0, "y": 0}], "negatives": [{"x": 2, "y": 0, "size": 1}],
                       "probe": {"x": 0.5, "y": 1.0}})
    assert LimitConfig.from_json(text) == simple_config()
    with pytest.raises(ValueError, match=r"^a probe: missing keys \['y'\], unknown keys \[\]$"):
        LimitConfig.from_json('{"probe": {"x": 1}}')


def test_matrix_shapes_and_structure():
    cfg = LimitConfig(
        (Charge(0.0, 0.0, 2, 1, 0), Charge(-1.5, 2.0, 1, 0, 2)),
        (Charge(2.0, 0.0, 1, 2, 1),),
        Probe(0.4, -1.1, 1, 1),
        Fraction(-2),
    )
    ms = build_limit_matrices(cfg)
    S = cfg.total_positive
    for m, n in ((ms.numer_x, 2 * S + 1), (ms.numer_y, 2 * S + 1), (ms.base, 2 * S)):
        assert len(m) == n and all(len(r) == n for r in m)
        assert all(isinstance(v, Fraction) for r in m for v in r)
    # deleting the first row and column of the first numerator gives the base
    for i in range(2 * S):
        for j in range(2 * S):
            assert ms.base[i][j] == ms.numer_x[i + 1][j + 1]
    # numerators share everything but the first row
    for i in range(1, 2 * S + 1):
        for j in range(2 * S + 1):
            assert ms.numer_x[i][j] == ms.numer_y[i][j]
    # first-row entries of the two numerators come from integrands that
    # differ by one power of zeta: check the second-class entries against an
    # independent reconstruction that shifts every exponent down by one; a
    # stored entry r stands for the bracket i*sqrt(3)*r
    with mp.workdps(30):
        zeta = mp.expjpi(mp.mpf(2) / 3)
        qv = mp.mpf(cfg.q.numerator) / cfg.q.denominator
        x0, y0 = mp.mpf(cfg.probe.x), mp.mpf(cfg.probe.y)
        rho0 = cfg.probe.alpha - cfg.probe.beta

        def bracket(expo, qpow, denom_fn, dpow):
            def side(z):
                return z ** (expo % 3) * (1 - qv * z) ** qpow / denom_fn(z) ** dpow
            return side(zeta) - side(1 / zeta)

        col = 1
        for neg in cfg.negatives:
            rho = rho0 - (neg.alpha - neg.beta)
            dfn = lambda z, neg=neg: (neg.x - x0) - (neg.y - y0) * z
            for j in range(1, neg.size + 1):
                for off, shift in ((0, 0), (-2, 1)):
                    want_x = bracket(off + rho, j - 1, dfn, j)
                    want_y = bracket(off - 1 + rho, j - 1, dfn, j)
                    assert abs(_bracket_value(ms.numer_x[0][col + shift]) - want_x) < 1e-24
                    assert abs(_bracket_value(ms.numer_y[0][col + shift]) - want_y) < 1e-24
                col += 2


def _bracket_value(r):
    """The bracket a stored rational matrix entry stands for, at mpmath's precision."""
    return mp.mpc(0, mp.sqrt(3) * mp.mpf(r.numerator) / r.denominator)


def test_smallest_instance():
    cfg = LimitConfig((Charge(0.0, 0.0, 1),), (), Probe(1.0, 0.0))
    ms = build_limit_matrices(cfg)
    assert len(ms.base) == 2
    assert field_ratio(cfg) == pytest.approx(2 * SQRT3 * 1j, abs=1e-20)
    assert field_ratio_closed_form(cfg) == pytest.approx(2 * SQRT3 * 1j)


def _det(mat):
    return det_exact([[SqrtPiPoly((v,)) for v in row] for row in mat]).rational_part


def test_schur_ratios_match_three_determinants():
    # reference: the three-determinant formula, every determinant exact
    rng = random.Random(5)
    cfgs = [sample_limit_config(rng) for _ in range(200)]
    cfgs.append(LimitConfig((Charge(0.0, 0.0, 1),), (), Probe(1.0, 0.0)))
    eps = 2.0 ** -52
    R = 16
    for cfg in cfgs:
        ms = build_limit_matrices(cfg)
        den = _det(ms.base)
        rx, ry = _det(ms.numer_x) / den, _det(ms.numer_y) / den
        assert _schur_ratios(ms) == (rx, ry)
        # the public values are roundings of the exact ones: the field ratio
        # correctly rounded, the probabilities within a few ulps
        with mp.workdps(60):
            want = float(mp.sqrt(3) * (mp.mpf((rx - ry).numerator) / (rx - ry).denominator))
            sqrt3_pi = mp.sqrt(3) / mp.pi
            p1, p2 = (mp.mpf(1) / 3 + sqrt3_pi * mp.mpf(r.numerator) / r.denominator / (2 * R)
                      for r in (rx, ry))
            exact_ps = [float(p1), float(p2), float(1 - p1 - p2)]
        got = field_ratio(cfg)
        assert got.real == 0.0 and got.imag == want
        got = p_asymptotics(cfg, R)
        assert max(abs(g - w) for g, w in zip(got, exact_ps)) <= 4 * eps


def test_one_base_factorization_per_call(monkeypatch):
    # one matrix build and one elimination, of the base's 2S rows, per call,
    # by the one kernel behind every exact determinant; no numerator is
    # reduced on its own and no Fraction solve or second elimination is left
    builds, sizes, eliminations = [], [], []
    real_build, real_ratios = continuum.build_limit_matrices, continuum._schur_ratios
    real_bareiss = exact.bareiss

    def counting_build(cfg):
        builds.append(cfg)
        return real_build(cfg)

    def counting_ratios(ms):
        sizes.append(len(ms.rows))
        return real_ratios(ms)

    monkeypatch.setattr(continuum, "build_limit_matrices", counting_build)
    def counting_bareiss(m, n, one):
        eliminations.append(n)
        return real_bareiss(m, n, one)

    monkeypatch.setattr(continuum, "_schur_ratios", counting_ratios)
    monkeypatch.setattr(continuum, "bareiss", counting_bareiss)
    assert not hasattr(continuum, "solve_exact")
    assert not hasattr(exact, "_gauss_jordan")
    rng = random.Random(5)
    for cfg in [simple_config()] + [sample_limit_config(rng) for _ in range(10)]:
        for call in (field_ratio, lambda c: p_asymptotics(c, 16.0)):
            builds.clear()
            sizes.clear()
            eliminations.clear()
            call(cfg)
            assert builds == [cfg]
            assert sizes == eliminations == [2 * cfg.total_positive]


def _gauss_jordan_ratios(ms):
    """Reference: r = numer[0][0] - row0 . base^-1 col0, by Fraction Gauss-Jordan."""
    n = len(ms.rows)
    aug = [row + [r[0]] for row, r in zip(ms.base, ms.numer_x[1:])]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            raise ZeroDivisionError("singular base")
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[c])]
    x = [r[n] for r in aug]
    return tuple(numer[0][0] - sum(a * v for a, v in zip(numer[0][1:], x))
                 for numer in (ms.numer_x, ms.numer_y))


def _random_int_rows(rng, n):
    """Integer rows over random denominators, with zeros enough for row swaps."""
    def row():
        nums = [rng.choice((0, rng.randint(-9, 9), rng.randint(-9, 9))) for _ in range(n + 1)]
        return (rng.randint(1, 12), nums)
    return ZetaMatrixSet(rows=[row() for _ in range(n)], row0_x=row(), row0_y=row())


def test_schur_ratios_match_gauss_jordan_reference():
    sets = []
    for seed in (56, 57, 58):  # trial 20 of seed 56 has |det(base)| = 2.8e-21
        rng = random.Random(seed)
        sets += [build_limit_matrices(sample_limit_config(rng)) for _ in range(100)]
    assert abs(float(_det(sets[20].base))) < 1e-20
    rng = random.Random(9)
    sets += [_random_int_rows(rng, n) for n in (0, 1, 2, 3, 4, 6) for _ in range(40)]
    one = (1, [0, 1, 1])
    zero = (1, [0, 0, 0])
    sets.append(ZetaMatrixSet(rows=[one, one], row0_x=zero, row0_y=zero))  # exactly singular
    singular = 0
    for ms in sets:
        try:
            want = _gauss_jordan_ratios(ms)
        except ZeroDivisionError:
            singular += 1
            with pytest.raises(SingularDenominator):
                _schur_ratios(ms)
        else:
            assert _schur_ratios(ms) == want
    assert singular >= 10


def test_singular_base_factorization_counts_as_zero_denominator():
    # an exactly singular base: the elimination finds no pivot
    ones = (1, [0, 1, 1])
    zero = (1, [0, 0, 0])
    with pytest.raises(SingularDenominator, match="denominator determinant vanishes"):
        _schur_ratios(ZetaMatrixSet(rows=[ones, ones], row0_x=zero, row0_y=zero))


def test_closed_form_examples():
    cfg = LimitConfig((Charge(0.0, 0.0, 1),), (), Probe(1.0, 0.0))
    assert field_ratio_closed_form(cfg) == pytest.approx(complex(0, 2 * SQRT3))
    # probe at the midpoint of two equal charges: odd kernel cancels
    cfg2 = LimitConfig((Charge(-1.0, 0.0, 1), Charge(1.0, 0.0, 1)), (), Probe(0.0, 0.0))
    assert abs(field_ratio_closed_form(cfg2)) < 1e-15


def test_identity_random_sweep():
    rng = random.Random(11)
    for _ in range(25):
        cfg = sample_limit_config(rng)
        lhs = field_ratio(cfg)
        rhs = field_ratio_closed_form(cfg)
        assert abs(lhs - rhs) <= 1e-8 * (1 + abs(rhs))


def test_identity_residue_invariance():
    base = dict(
        positives=(Charge(0.3, -0.4, 2, 0, 0), Charge(-2.0, 1.0, 1, 0, 0)),
        negatives=(Charge(1.5, 1.5, 2, 0, 0),),
        q=Fraction(4),
    )
    vals = []
    rng = random.Random(5)
    for _ in range(6):
        res = lambda: rng.randint(0, 2)
        cfg = LimitConfig(
            tuple(Charge(c.x, c.y, c.size, res(), res()) for c in base["positives"]),
            tuple(Charge(c.x, c.y, c.size, res(), res()) for c in base["negatives"]),
            Probe(0.1, -1.8, res(), res()),
            base["q"],
        )
        vals.append(field_ratio(cfg))
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-9


def test_identity_slope_invariance():
    for q in (Fraction(1), Fraction(-2), Fraction(4), Fraction(1, 4)):
        cfg = LimitConfig(
            (Charge(0.0, 0.0, 2),), (Charge(1.0, 1.0, 1),), Probe(-1.0, 0.5), q
        )
        assert abs(field_ratio(cfg) - field_ratio_closed_form(cfg)) < 1e-9


def test_balanced_weights_supported():
    # equal positive and negative weight: empty tail blocks
    cfg = simple_config()
    assert cfg.tail_width == -1
    assert abs(field_ratio(cfg) - field_ratio_closed_form(cfg)) < 1e-10


def test_coulomb_field_examples():
    cfg = LimitConfig((Charge(0.0, 0.0, 1),), (), Probe(1.0, 0.0))
    fx, fy = coulomb_field(cfg, R=2.0)
    assert fx == pytest.approx(3 / (4 * math.pi), rel=1e-14)
    assert fy == pytest.approx(3 / (8 * math.pi), rel=1e-14)


def test_coulomb_field_charge_negation():
    cfg = LimitConfig((Charge(0.3, 0.4, 2),), (Charge(-1.0, 1.0, 1),), Probe(1.5, -0.5))
    neg = LimitConfig((Charge(-1.0, 1.0, 1),), (Charge(0.3, 0.4, 2),), Probe(1.5, -0.5))
    f1 = coulomb_field(cfg, 1.0)
    f2 = coulomb_field(neg, 1.0)
    assert f1[0] == pytest.approx(-f2[0]) and f1[1] == pytest.approx(-f2[1])


def test_coulomb_field_superposition():
    a = LimitConfig((Charge(0.0, 0.0, 1),), (), Probe(1.0, 1.0))
    b = LimitConfig((), (Charge(-2.0, 1.0, 2),), Probe(1.0, 1.0))
    both = LimitConfig((Charge(0.0, 0.0, 1),), (Charge(-2.0, 1.0, 2),), Probe(1.0, 1.0))
    fa, fb, fab = coulomb_field(a, 1), coulomb_field(b, 1), coulomb_field(both, 1)
    assert fab[0] == pytest.approx(fa[0] + fb[0])
    assert fab[1] == pytest.approx(fa[1] + fb[1])


def test_polar_form_matches_projections():
    rng = random.Random(3)
    u1 = (SQRT3 / 2, -0.5)
    u2 = (SQRT3 / 2, 0.5)
    for _ in range(10):
        cfg = sample_limit_config(rng)
        fx, fy = coulomb_field(cfg, 1.0)
        # the Cartesian field is the limit surface gradient turned a quarter turn
        gx, gy = surface_gradient_limit(cfg, to_cartesian(cfg.probe.x, cfg.probe.y))
        vx, vy = -gy / SQRT2, gx / SQRT2
        assert vx * u1[0] + vy * u1[1] == pytest.approx(fx, rel=1e-10, abs=1e-12)
        assert vx * u2[0] + vy * u2[1] == pytest.approx(fy, rel=1e-10, abs=1e-12)


def test_p_asymptotics_no_holes():
    cfg = LimitConfig((), (), Probe(0.0, 0.0))
    assert p_asymptotics(cfg, 10.0) == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_p_asymptotics_matches_closed_form_coefficient():
    # the 1/R coefficient of 1 - 3*p1 in closed form, -(2/sqrt(3))*(Fx + Fy)
    rng = random.Random(23)
    for _ in range(8):
        cfg = sample_limit_config(rng)
        p1, _, _ = p_asymptotics(cfg, R=1.0)
        fx, fy = coulomb_field(cfg, 1.0)
        assert 1 - 3 * p1 == pytest.approx(-(2 / SQRT3) * (fx + fy), abs=1e-9)


def test_probabilities_sum_to_one():
    cfg = simple_config()
    p1, p2, p3 = p_asymptotics(cfg, 16.0)
    assert p1 + p2 + p3 == pytest.approx(1.0, abs=1e-14)


def test_limit_determinants_ignore_global_precision(monkeypatch):
    rng = random.Random(23)
    cfgs = [simple_config()] + [sample_limit_config(rng) for _ in range(3)]
    want = [(field_ratio(c), p_asymptotics(c, 16.0)) for c in cfgs]

    def forbidden(*args, **kwargs):
        raise AssertionError("limit determinants touched mpmath's global context")

    monkeypatch.setattr(mp, "workdps", forbidden)
    monkeypatch.setattr(mp.mp, "dps", 5)  # restored by monkeypatch
    assert [(field_ratio(c), p_asymptotics(c, 16.0)) for c in cfgs] == want
    assert mp.mp.dps == 5


def test_limit_probabilities_track_exact_finite_scale():
    # residue-matched limit probabilities against the exact determinant
    # probabilities of the golden pair placed at scale R
    from lozenge.correlation import discrete_field
    from lozenge.lattice import HoleSystem, hole, left

    errs = {}
    for R in (16, 64):
        x0r, y0r = R // 4, 3 * R // 2
        hs = HoleSystem((hole("E", 0, 0), hole("W", 2 * R, 0)))
        fs = discrete_field(left(x0r, y0r), hs)
        cfg = LimitConfig(
            (Charge(0.0, 0.0, 1, 0, 0),),
            (Charge(2.0, 0.0, 1, (2 * R) % 3, 0),),
            Probe(0.25, 1.5, x0r % 3, y0r % 3),
        )
        p1, p2, p3 = p_asymptotics(cfg, R)
        errs[R] = max(abs(fs.p1 - p1), abs(fs.p2 - p2), abs(fs.p3 - p3))
    assert errs[64] < errs[16] / 2  # o(1/R): faster than the signal shrinks
    assert errs[64] < 1e-4


def test_smallest_balanced_block_pattern():
    # one unit positive and one unit negative charge: the base matrix is the
    # single 2x2 coupling block with exponent offsets [[-1,-3],[1,-1]]
    cfg = LimitConfig(
        (Charge(0.0, 0.0, 1, 2, 1),), (Charge(1.0, -2.0, 1, 0, 2),), Probe(3.0, 3.0)
    )
    ms = build_limit_matrices(cfg)
    assert len(ms.base) == 2
    with mp.workdps(30):
        zeta = mp.expjpi(mp.mpf(2) / 3)
        rho = (2 - 1) - (0 - 2)
        d = lambda z: (1.0 - 0.0) - (-2.0 - 0.0) * z

        def want(e):
            side = lambda z: z ** (e % 3) / d(z)
            return side(zeta) - side(1 / zeta)

        for (i, j), e in {(0, 0): -1 + rho, (0, 1): -3 + rho,
                          (1, 0): 1 + rho, (1, 1): -1 + rho}.items():
            assert abs(_bracket_value(ms.base[i][j]) - want(e)) < 1e-24


def test_surface_gradient_example():
    cfg = LimitConfig((), (Charge(0.0, 0.0, 1),), Probe(9.0, 9.0))
    gx, gy = surface_gradient_limit(cfg, (1.0, 0.0))
    assert gy == pytest.approx(3 / (math.sqrt(2) * math.pi), rel=1e-13)
    assert gx == pytest.approx(0.0, abs=1e-13)


def test_gradient_matches_fiber_finite_differences():
    cfg = LimitConfig(
        (Charge(0.0, 0.0, 1),), (Charge(2.0, 0.0, 1),), Probe(9.0, 9.0)
    )
    specs = helicoids_for_config(cfg)
    h = 1e-4
    for pt in [(0.9, 0.7), (-0.5, 0.3), (1.2, -1.4)]:
        gx, gy = surface_gradient_limit(cfg, pt)
        fdx = (helicoid_fiber(specs, (pt[0] + h, pt[1]))[0]
               - helicoid_fiber(specs, (pt[0] - h, pt[1]))[0]) / (2 * h)
        fdy = (helicoid_fiber(specs, (pt[0], pt[1] + h))[0]
               - helicoid_fiber(specs, (pt[0], pt[1] - h))[0]) / (2 * h)
        assert fdx == pytest.approx(gx, abs=1e-6)
        assert fdy == pytest.approx(gy, abs=1e-6)


def test_helicoid_fiber_basics():
    spec = HelicoidSpec((0.0, 0.0), pitch=1.5, refinement=1)
    rep, modulus = helicoid_fiber([spec], (2.0, 0.0))
    assert rep == 0.0
    assert modulus == pytest.approx(2 * math.pi * 1.5)
    with pytest.raises(Exception):
        helicoid_fiber([spec], (0.0, 0.0))


def test_helicoid_fiber_refuses_a_centre_and_mixed_moduli():
    specs = [HelicoidSpec((0.0, 0.0), pitch=1.5), HelicoidSpec((1.0, 2.0), pitch=-1.5)]
    with pytest.raises(CenterSingularity, match="^fiber requested at a helicoid axis$"):
        helicoid_fiber(specs, (1.0, 2.0))
    mixed = [HelicoidSpec((0.0, 0.0), pitch=1.5), HelicoidSpec((1.0, 2.0), pitch=1.5, refinement=2)]
    with pytest.raises(ValueError, match="^helicoid sum needs a common fiber modulus$"):
        helicoid_fiber(mixed, (3.0, 0.0))


def test_half_plus_half_period_translate_is_dotted():
    # fibers of a half helicoid united with its half-period vertical
    # translate form the dotted helicoid's fiber, which is the half
    # helicoid refined twice
    c = 0.8
    half = HelicoidSpec((0.0, 0.0), c, 1)
    dotted = HelicoidSpec((0.0, 0.0), c, 2)
    pt = (1.3, 0.4)
    rep_h, mod_h = helicoid_fiber([half], pt)
    rep_d, mod_d = helicoid_fiber([dotted], pt)
    assert mod_d == pytest.approx(mod_h / 2)
    shift = math.pi * c
    union = sorted({(rep_h + k * mod_h) % mod_h for k in range(-2, 3)}
                   | {(rep_h + shift + k * mod_h) % mod_h for k in range(-2, 3)})
    dotted_set = sorted({(rep_d + k * mod_d) % mod_h for k in range(-4, 5)})
    assert all(any(abs(u - d) < 1e-12 for u in union) for d in dotted_set)


def test_refinement_doubling_halves_modulus():
    s1 = HelicoidSpec((0.0, 0.0), pitch=2.0, refinement=2)
    s2 = HelicoidSpec((0.0, 0.0), pitch=2.0, refinement=4)
    assert s2.fiber_modulus == pytest.approx(s1.fiber_modulus / 2)


def test_helicoid_sum_fiber_modulus():
    cfg = LimitConfig(
        (Charge(0.0, 0.0, 2),), (Charge(2.0, 0.0, 2),), Probe(9.0, 9.0)
    )
    specs = helicoids_for_config(cfg)
    _, modulus = helicoid_fiber(specs, (0.7, 0.9))
    assert modulus == pytest.approx(3 / math.sqrt(2))
    # pitch magnitude is 3s/(sqrt(2) pi), negative for positive charges
    assert specs[0].pitch == pytest.approx(-6 / (math.sqrt(2) * math.pi))
    assert specs[1].pitch == pytest.approx(6 / (math.sqrt(2) * math.pi))


def test_fiber_distance():
    assert fiber_distance(5.0, 0.0, 2.0) == pytest.approx(1.0)
    assert fiber_distance(4.1, 0.0, 2.0) == pytest.approx(0.1)
    assert fiber_distance(3.9, 0.0, 2.0) == pytest.approx(0.1)


# --- exact 2x2 / 3x3 block identities ------------------------------------------


def test_shift_block_identities():
    rng = random.Random(19)
    for _ in range(20):
        f = random_zeta_function(rng)
        a = rng.randint(-6, 6)
        assert shift_block_rows(shift_block(a, f)) == shift_block(a - 1, f)
        assert shift_block_cols(shift_block(a, f)) == shift_block(a + 1, f)


def test_border_block_identity():
    rng = random.Random(19)
    for _ in range(20):
        f = random_zeta_function(rng)
        al, be, ga = (rng.randint(-6, 6) for _ in range(3))
        got = border_block_reduced(border_block(al, be, ga, f))
        assert got == border_block_target(al, be, ga, f)


def test_block_ops_preserve_determinant():
    rng = random.Random(2)
    f = random_zeta_function(rng)
    m = shift_block(2, f)
    det = lambda b: b[0][0] * b[1][1] - b[0][1] * b[1][0]
    assert det(shift_block_rows(m)) == det(m)
    assert det(shift_block_cols(m)) == det(m)


def test_surface_gradient_at_charge_center_raises():
    cfg = LimitConfig(
        (Charge(0.0, 0.0, 1),), (Charge(2.0, 0.0, 1),), Probe(9.0, 9.0)
    )
    for spec in helicoids_for_config(cfg):
        with pytest.raises(CoincidentPoints):
            surface_gradient_limit(cfg, spec.center)

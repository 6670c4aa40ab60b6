"""Correlations, placement probabilities and the discrete field."""

import math
import random
from fractions import Fraction

import pytest

import lozenge.correlation as correlation
from lozenge.correlation import (
    EXACT,
    EXTRAPOLATED,
    MonomerConfig,
    ProbeOverlapsHole,
    ZeroDenominator,
    correlation_det,
    discrete_field,
    hole_context,
    occupation_probabilities,
    occupation_probability,
    omega,
    placement_parts,
    placement_probability,
)
from lozenge.correlation import test_charge_field as charge_displacement
from lozenge.coupling import coupling_p, u0_exact
from lozenge.exact import SqrtPiPoly, det_exact
from lozenge.lattice import (
    EMPTY_SYSTEM,
    HoleSystem,
    LozengeLocation,
    MultiHole,
    UnpairableConfiguration,
    hole,
    left,
    lozenges_covering,
    right,
)

PAIR6 = HoleSystem((hole("E", 0, 0), hole("W", 6, 0)))
PAIR12 = HoleSystem((hole("E", 0, 0), hole("W", 12, 0)))


def test_single_pair_is_one_third():
    cfg = MonomerConfig(((0, 0),), ((0, 0),))
    val = correlation_det(cfg)
    assert val.exactness == EXACT
    assert val.signed.coeffs == (Fraction(1, 3),)


def test_single_lozenge_omega():
    val = omega(EMPTY_SYSTEM, [LozengeLocation(0, 0, 1)])
    assert val.signed.coeffs == (Fraction(1, 3),)


def test_unpairable_raises():
    cfg = MonomerConfig(((0, 0),), ((30, 30),))
    with pytest.raises(UnpairableConfiguration):
        correlation_det(cfg)


def test_translation_invariance_balanced():
    v1 = omega(PAIR6)
    moved = HoleSystem((hole("E", 5, -7), hole("W", 11, -7)))
    v2 = omega(moved)
    assert v1.signed == v2.signed  # exact equality in the ring


def test_reflection_preserves_omega():
    # vertical reflection swaps species: E(a,b) -> W(-b,-a)
    reflected = HoleSystem((hole("W", 0, 0), hole("E", -6, 0)))
    assert omega(PAIR6).signed == omega(reflected).signed


def test_golden_pair_value():
    val = omega(PAIR6)
    assert val.signed.coeffs == (0, Fraction(1, 42), Fraction(-3, 80))
    assert val.value == pytest.approx(0.0017282453026606197, rel=1e-14)


def test_single_hole_charged_value():
    # pure series-coefficient 2x2 determinant
    val = omega(HoleSystem((hole("E", 0, 0),)))
    assert val.exactness == EXTRAPOLATED
    assert val.value == pytest.approx(3 / (4 * math.pi ** 2), rel=1e-13)
    # exact translation invariance (closed-form columns)
    val2 = omega(HoleSystem((hole("E", 9, -4),)))
    assert val.signed == val2.signed


def test_charged_value_matches_compensation_limit():
    # omega(E) is the d^2-scaled limit of omega(E, W_d)
    target = omega(HoleSystem((hole("E", 0, 0),))).value
    gaps = []
    for d in (40, 80, 160):
        v = omega(HoleSystem((hole("E", 0, 0), hole("W", d, 0)))).value
        gaps.append(abs(v * d * d - target))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 5e-4


def test_probabilities_uniform_without_holes():
    for d in (1, 2, 3):
        p = placement_probability(LozengeLocation(7, -2, d), EMPTY_SYSTEM)
        assert p == pytest.approx(1 / 3, abs=1e-15)


def test_probe_overlap_rejected():
    with pytest.raises(ProbeOverlapsHole):
        placement_probability(LozengeLocation(0, 0, 1), PAIR6)


def test_golden_placement_probability():
    p = placement_probability(LozengeLocation(1, 0, 1), PAIR12)
    assert p == pytest.approx(0.6240328500346739, rel=1e-12)


def test_sum_rule_exact_in_window():
    den = omega(PAIR6).signed
    den = den if float(den) >= 0 else -den
    for e in (left(3, 0), left(-2, 1), left(2, 2), left(8, -1)):
        total = SqrtPiPoly.zero()
        for L in lozenges_covering(e):
            num = omega(PAIR6, [L]).signed
            total = total + (num if float(num) >= 0 else -num)
        assert total == den, e


def test_discrete_field_empty_system():
    fs = discrete_field(left(0, 0), EMPTY_SYSTEM)
    assert (fs.fx, fs.fy) == (0.0, 0.0)
    assert fs.vector == (0.0, 0.0)


def test_field_projection_formula():
    fs = discrete_field(left(3, 1), PAIR6)
    assert fs.fx == pytest.approx(math.sqrt(3) / 2 * (fs.p1 - fs.p2), abs=1e-15)
    assert fs.fy == pytest.approx(math.sqrt(3) / 2 * (fs.p1 - fs.p3), abs=1e-15)
    assert fs.p1 + fs.p2 + fs.p3 == pytest.approx(1.0, abs=1e-10)
    # Cartesian reconstruction projects back to the oblique components
    vx, vy = fs.vector
    sq = math.sqrt(3) / 2
    assert vx * sq + vy * (-0.5) == pytest.approx(fs.fx, abs=1e-12)
    assert vx * sq + vy * 0.5 == pytest.approx(fs.fy, abs=1e-12)


def test_field_mirror_reflection_identity():
    # reflecting everything across the vertical lattice line through the
    # origin (E(a,b) -> W(-b,-a), l(p,q) -> r(-q,-p)) swaps the two axis
    # projections and negates them; exact because the determinants coincide
    fs = discrete_field(left(3, 1), PAIR6)
    reflected = HoleSystem((hole("W", 0, 0), hole("E", 0, -6)))
    fs_r = discrete_field(right(-1, -3), reflected)
    assert fs_r.fx == -fs.fy
    assert fs_r.fy == -fs.fx


def test_mirror_field_far_limit():
    # right-probe field approaches the negated left-probe field away from holes
    diffs = []
    for d in (6, 12, 24):
        hs = HoleSystem((hole("E", 0, 0), hole("W", 3, 0)))
        fl = discrete_field(left(d, d), hs)
        fr = discrete_field(right(d, d), hs)
        diffs.append(math.hypot(fr.fx + fl.fx, fr.fy + fl.fy)
                     / max(math.hypot(fl.fx, fl.fy), 1e-30))
    assert diffs[0] > diffs[-1]


def test_golden_field_table():
    golden = {
        4: (0.039552104530485126, 0.019776052265243572),
        8: (0.019864312587078829, 0.0099321562935381653),
        16: (0.0099434114980906322, 0.0049717057490357014),
        32: (0.0049731199251244395, 0.0024865599625622436),
    }
    for R, (fx, fy) in golden.items():
        hs = HoleSystem((hole("E", 0, 0), hole("W", 12 * R, 0)))
        fs = discrete_field(left(6 * R, 0), hs)
        assert fs.fx == pytest.approx(fx, rel=1e-12)
        assert fs.fy == pytest.approx(fy, rel=1e-12)


def test_test_charge_empty_and_golden():
    assert charge_displacement(0, 0, 1, 0, EMPTY_SYSTEM) == 0.0
    t = charge_displacement(0, 0, 1, 0, HoleSystem((hole("W", 12, 0),)))
    assert t == pytest.approx(0.18181818181818388, rel=1e-10)


def test_test_charge_antisymmetry_far():
    hs = HoleSystem((hole("W", 40, 0),))
    tp = charge_displacement(0, 0, 1, 1, hs)
    tm = charge_displacement(0, 0, -1, -1, hs)
    assert tp == pytest.approx(-tm, rel=0.15)


def test_test_charge_normalization():
    hs = HoleSystem((hole("W", 30, 0),))
    t1 = charge_displacement(0, 0, 1, 0, hs)
    t2 = charge_displacement(0, 0, 2, 0, hs)
    # roughly projection-linear in the displacement at large separation
    assert t2 == pytest.approx(t1, rel=0.25)


def test_multihole_string_correlation_runs():
    m = MultiHole("E", Fraction(1), (0, 2))
    w = MultiHole("W", Fraction(1), (0, 2), (14, 0))
    val = omega(HoleSystem((m, w)))
    assert val.exactness == EXACT
    assert val.value > 0


def test_higher_series_path_matches_compensation_limit():
    # four rights and no lefts exercises the extrapolated series columns;
    # compensating with two far negative holes reduces to pure exact
    # determinants, and the rescaled values must drift toward the same number
    hs = HoleSystem((hole("E", 0, 0), hole("E", 8, 0)))
    val = omega(hs)
    assert val.exactness == EXTRAPOLATED and val.cond is not None
    ratios = []
    for R, S in [(24, 600), (48, 1200), (96, 2400)]:
        inner = omega(
            HoleSystem((hole("E", 0, 0), hole("E", 8, 0), hole("W", R, 0), hole("W", S, 0)))
        )
        assert inner.exactness == EXACT
        ratios.append(inner.value * S ** 2 * R ** 4 / val.value)
    gaps = [abs(r - 1.0) for r in ratios]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 0.1


def test_concurrent_evaluation_consistent():
    # the coupling cache must tolerate concurrent readers and writers
    from concurrent.futures import ThreadPoolExecutor

    from lozenge.coupling import clear_caches, coupling_p

    clear_caches()
    points = [(x, y) for x in range(-12, 13, 3) for y in range(-12, 13, 3)]

    def work(_):
        return [float(coupling_p(x, y)) for x, y in points]

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, range(8)))
    assert all(r == results[0] for r in results[1:])


CHARGED = HoleSystem((hole("E", 0, 0), hole("W", 12, 0), hole("E", 4, 9)))
NEGATIVE = HoleSystem((hole("W", 0, 0), hole("E", 12, 0), hole("W", 4, 9)))
STRINGS = HoleSystem((
    MultiHole("E", Fraction(1), (0, 2, 4)),
    MultiHole("W", Fraction(1), (0, 2, 4), (14, 0)),
))
PROBES = [LozengeLocation(a, b, d) for a, b in ((3, 1), (-2, 2), (7, -3), (5, 6)) for d in (1, 2, 3)]


@pytest.fixture
def fresh_contexts():
    hole_context.cache_clear()
    yield
    hole_context.cache_clear()


@pytest.mark.parametrize("hs, surplus, reflect", [
    (PAIR6, 0, False),
    (CHARGED, 2, False),   # u0 columns
    (NEGATIVE, 2, True),   # more lefts than rights: reflected
    (EMPTY_SYSTEM, 0, False),
    (STRINGS, 0, False),   # two multiholes of three constituents
])
def test_bordered_numerator_matches_full_determinant(hs, surplus, reflect):
    ctx = hole_context(hs)
    assert (ctx.cfg.surplus, ctx.reflect) == (surplus, reflect)
    # the identity holds for lozenges overlapping a hole triangle too
    overlapping = [LozengeLocation(0, 0, 1), LozengeLocation(0, 0, 2)]
    assert hs == EMPTY_SYSTEM or all(L.triangles() & ctx.triangles for L in overlapping)
    for L in PROBES + overlapping:
        num = ctx.numerator(L)
        full = omega(hs, [L])
        assert num.signed in (full.signed, -full.signed), L
        assert num.value == full.value and num.exactness == full.exactness


@pytest.mark.parametrize("hs, surplus, reflect", [
    (PAIR6, 0, False),
    (CHARGED, 2, False),
    (NEGATIVE, 2, True),
])
def test_batched_numerators_match_full_bordered_determinants(hs, surplus, reflect):
    ctx = hole_context(hs)
    assert (ctx.cfg.surplus, ctx.reflect) == (surplus, reflect)
    window = [LozengeLocation(a, b, d) for a in range(-3, 8) for b in range(-3, 8) for d in (1, 2, 3)]
    Ls = [L for L in window if not L.triangles() & ctx.triangles]
    random.Random(5).shuffle(Ls)
    signed = dict(ctx._bordered_numerators(Ls))
    values = ctx.numerator_values(Ls)
    probs = occupation_probabilities(window, hs)
    for i, L in enumerate(Ls):
        r, l = L.monomers()
        if reflect:
            r, l = l.reflect_vertical(), r.reflect_vertical()
        rights = ctx.cfg.rights + ((r.a, r.b),)
        lefts = ctx.cfg.lefts + ((l.a, l.b),)
        # the bordered matrix [[M, col], [row, corner]]: the new left's
        # column comes after the two u0 columns, an even permutation
        full = [
            [coupling_p(a - c, b - d) for c, d in ctx.cfg.lefts]
            + ([u0_exact(a, b + 1), u0_exact(a + 1, b)] if surplus else [])
            + [coupling_p(a - l.a, b - l.b)]
            for a, b in rights
        ]
        det = det_exact(full)
        assert signed[i] == det, L
        assert values[i] == abs(float(det)) == ctx.numerator(L).value
        assert probs[window.index(L)] == occupation_probability(L, hs) == ctx.probability(L)
    assert all(p == 0.0 for L, p in zip(window, probs) if L.triangles() & ctx.triangles)


@pytest.mark.parametrize("hs", [PAIR6, CHARGED, NEGATIVE, STRINGS])
def test_adjugate_times_matrix_is_det_identity(hs):
    ctx = hole_context(hs)
    m, adj = ctx.matrix, ctx.adjugate
    n = len(m)
    det = det_exact(m)
    assert ctx.den.signed == det
    for i in range(n):
        for j in range(n):
            total = SqrtPiPoly.zero()
            for k in range(n):
                total = total + adj[i][k] * m[k][j]
            assert total == (det if i == j else SqrtPiPoly.zero()), (i, j)


@pytest.mark.parametrize("monomers, message", [
    ([right(0, 0)], "odd number of monomers"),
    ([right(0, 0), left(30, 30)], "monomers cannot be paired sharing vertices"),
])
def test_invalid_systems_raise_as_before(monkeypatch, fresh_contexts, monomers, message):
    # holes always decompose into even, pairable sets, so the invalid
    # monomer sets are injected behind the decomposition of a real system
    monkeypatch.setattr(correlation, "_decompose", lambda hs, probes: list(probes) + monomers)
    L = LozengeLocation(3, 1, 1)
    for call in (lambda: placement_probability(L, PAIR6),
                 lambda: placement_parts(L, PAIR6),
                 lambda: occupation_probability(L, PAIR6),
                 lambda: discrete_field(left(3, 1), PAIR6)):
        with pytest.raises(UnpairableConfiguration, match=message):
            call()
    # probe overlap is still reported first, and overlap is not an error here
    with pytest.raises(ProbeOverlapsHole):
        placement_probability(LozengeLocation(0, 0, 1), PAIR6)
    assert occupation_probability(LozengeLocation(0, 0, 1), PAIR6) == 0.0


def test_zero_denominator_raises_as_before():
    # doubled holes repeat rows, so the exact hole determinant vanishes
    hs = HoleSystem((hole("E", 0, 0), hole("E", 0, 0), hole("W", 6, 0), hole("W", 6, 0)))
    L = LozengeLocation(3, 1, 1)
    with pytest.raises(ZeroDenominator, match="correlation of the hole system vanishes"):
        placement_probability(L, hs)
    with pytest.raises(ZeroDenominator):
        discrete_field(left(3, 1), hs)
    num, den = placement_parts(L, hs)
    assert den.value == 0.0 and den.signed.is_zero()
    assert num.signed == omega(hs, [L]).signed


def test_surface_det_count_independent_of_edges(monkeypatch, fresh_contexts):
    from lozenge.surface import Window, average_surface

    calls = []

    def counting(rows):
        calls.append(len(rows))
        return det_exact(rows)

    monkeypatch.setattr(correlation, "det_exact", counting)
    hs = HoleSystem((hole("E", 0, 0), hole("W", 16, 0)))
    counts, edges = [], []
    for window in (Window(-4, -18, 20, 4), Window(-6, -27, 23, 10)):
        hole_context.cache_clear()
        calls.clear()
        sheet = average_surface(hs, window)
        counts.append(len(calls))
        edges.append(len(sheet.increments))
    assert edges[0] < edges[1]
    assert counts == [1, 1]

"""Correlations, placement probabilities and the discrete field."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import lozenge.correlation as correlation
import lozenge.exact as exact
from helpers import field_vector, numerators
from lozenge.correlation import (
    EXACT,
    EXTRAPOLATED,
    HoleContext,
    MonomerConfig,
    ProbeOverlapsHole,
    ZeroDenominator,
    correlation_det,
    discrete_field,
    discrete_fields,
    omega,
    placement_probability,
)
from lozenge.coupling import coupling_p, u_exact
from lozenge.exact import SqrtPiPoly, det_exact
from lozenge.lattice import (
    EMPTY_SYSTEM,
    HoleSystem,
    LatticeError,
    LozengeLocation,
    MultiHole,
    OverlappingHoles,
    UnpairableConfiguration,
    hole,
    left,
    lozenges_covering,
    pairable,
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
    assert field_vector(fs) == (0.0, 0.0)


def test_field_projection_formula():
    fs = discrete_field(left(3, 1), PAIR6)
    assert fs.fx == pytest.approx(math.sqrt(3) / 2 * (fs.p1 - fs.p2), abs=1e-15)
    assert fs.fy == pytest.approx(math.sqrt(3) / 2 * (fs.p1 - fs.p3), abs=1e-15)
    assert fs.p1 + fs.p2 + fs.p3 == pytest.approx(1.0, abs=1e-10)
    # Cartesian reconstruction projects back to the oblique components
    vx, vy = field_vector(fs)
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


def test_multihole_string_correlation_runs():
    m = MultiHole("E", Fraction(1), (0, 2))
    w = MultiHole("W", Fraction(1), (0, 2), (14, 0))
    val = omega(HoleSystem((m, w)))
    assert val.exactness == EXACT
    assert val.value > 0


def test_higher_series_path_matches_compensation_limit():
    # four rights and no lefts exercises the u_0 and u_1 series columns;
    # compensating with two far negative holes reduces to pure exact
    # determinants, and the rescaled values must drift toward the same number
    hs = CHARGE4
    val = omega(hs)
    assert val.exactness == EXTRAPOLATED and val.signed is not None
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
    # coupling values keep no shared state, so concurrent callers agree
    from concurrent.futures import ThreadPoolExecutor

    from lozenge.coupling import coupling_p

    points = [(x, y) for x in range(-12, 13, 3) for y in range(-12, 13, 3)]

    def work(_):
        return [float(coupling_p(x, y)) for x, y in points]

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, range(8)))
    assert all(r == results[0] for r in results[1:])


CHARGED = HoleSystem((hole("E", 0, 0), hole("W", 12, 0), hole("E", 4, 9)))
CHARGE4 = HoleSystem((hole("E", 0, 0), hole("E", 8, 0)))
NEGATIVE = HoleSystem((hole("W", 0, 0), hole("E", 12, 0), hole("W", 4, 9)))
STRINGS = HoleSystem((
    MultiHole("E", Fraction(1), (0, 2, 4)),
    MultiHole("W", Fraction(1), (0, 2, 4), (14, 0)),
))
# the even-side holes of the paper: a side-4 E hole of three E holes around a W hole,
# and its mirror image, which together give the 8x8 M
SIDE4 = HoleSystem((hole("E", -3, 1), hole("E", -5, 1), hole("E", -3, -1), hole("W", -4, 0),
                    hole("W", 3, -1), hole("W", 3, 1), hole("W", 5, -1), hole("E", 4, 0)))
PROBES = [LozengeLocation(a, b, d) for a, b in ((3, 1), (-2, 2), (7, -3), (5, 6)) for d in (1, 2, 3)]


@pytest.mark.parametrize("hs, surplus, reflect", [
    (PAIR6, 0, False),
    (CHARGED, 2, False),   # u0 columns
    (NEGATIVE, 2, True),   # more lefts than rights: reflected
    (EMPTY_SYSTEM, 0, False),
    (STRINGS, 0, False),   # two multiholes of three constituents
    (CHARGE4, 4, False),   # u_0 and u_1 columns
])
def test_bordered_numerator_matches_full_determinant(hs, surplus, reflect):
    ctx = HoleContext(hs)
    assert (ctx.cfg.surplus, ctx.reflect) == (surplus, reflect)
    # the batch never places a lozenge over a hole: its numerator is 0
    overlapping = [LozengeLocation(0, 0, 1), LozengeLocation(0, 0, 2)]
    assert hs == EMPTY_SYSTEM or all(L.triangles() & ctx.triangles for L in overlapping)
    Ls = PROBES + overlapping
    for L, num in zip(Ls, numerators(ctx, Ls)):
        if L.triangles() & ctx.triangles:
            assert num.is_zero(), L
            continue
        full = omega(hs, [L])
        assert num in (full.signed, -full.signed), L
        assert abs(float(num)) == full.value and ctx.den.exactness == full.exactness


def _translated(hs, dx, dy):
    return HoleSystem(tuple(m._replace(anchor=(m.anchor[0] + dx, m.anchor[1] + dy)) for m in hs.multiholes))


@pytest.mark.parametrize("hs", [PAIR6, NEGATIVE], ids=["pair", "reflected"])
@pytest.mark.parametrize("dx, dy", [(2**40, -2**41), (-2**61, 2**61)])
def test_batch_far_from_the_origin_matches_the_full_determinant(hs, dx, dy):
    # the batch keys lozenges by packed ints: far from the origin, columns and rows
    # are large and of either sign, and a balanced system's numerators do not move
    far = _translated(hs, dx, dy)
    Ls = [L._replace(a=L.a + dx, b=L.b + dy) for L in PROBES]
    ctx = HoleContext(far)
    assert ctx.reflect == (hs == NEGATIVE)
    for L, num in zip(Ls, numerators(ctx, Ls)):
        full = omega(far, [L]).signed
        assert num in (full, -full), L
    if hs == PAIR6:
        assert numerators(ctx, Ls) == numerators(HoleContext(hs), PROBES)


@pytest.mark.parametrize("hs, surplus, reflect", [
    (PAIR6, 0, False),
    (CHARGED, 2, False),
    (NEGATIVE, 2, True),
    (CHARGE4, 4, False),
    (EMPTY_SYSTEM, 0, False),  # a 0x0 M: the corner alone
    (STRINGS, 0, False),
    (SIDE4, 0, False),  # the largest M bordered, on a smaller window
])
def test_batched_numerators_match_full_bordered_determinants(hs, surplus, reflect):
    ctx = HoleContext(hs)
    assert (ctx.cfg.surplus, ctx.reflect) == (surplus, reflect)
    span = range(-3, 5) if hs == SIDE4 else range(-3, 8)
    window = [LozengeLocation(a, b, d) for a in span for b in span for d in (1, 2, 3)]
    Ls = [L for L in window if not L.triangles() & ctx.triangles]
    random.Random(5).shuffle(Ls)
    signed = numerators(ctx, Ls)
    values = ctx.probabilities(Ls)
    probs = ctx.probabilities(window)
    for i, L in enumerate(Ls):
        r, l = L.monomers()
        if reflect:
            r, l = l.reflect_vertical(), r.reflect_vertical()
        rights = ctx.cfg.rights + ((r.a, r.b),)
        lefts = ctx.cfg.lefts + ((l.a, l.b),)
        # the bordered matrix [[M, col], [row, corner]]: the new left's
        # column comes after the u_s column pairs, an even permutation
        full = [
            [coupling_p(a - c, b - d) for c, d in ctx.cfg.lefts]
            + [u for s in range(surplus // 2) for u in (u_exact(s, a, b + 1), u_exact(s, a + 1, b))]
            + [coupling_p(a - l.a, b - l.b)]
            for a, b in rights
        ]
        det = det_exact(full)
        assert signed[i] == det and numerators(ctx, [L]) == [det], L
        assert values[i] == abs(float(det)) / ctx.den.value
        assert probs[window.index(L)] == values[i]
        assert ctx.probabilities([L]) == [values[i]] == [placement_probability(L, hs)]
    assert all(p == 0.0 for L, p in zip(window, probs) if L.triangles() & ctx.triangles)


def test_side4_holes_match_their_triangles():
    # the side-4 pair's omega is the correlation of all 32 of its triangles as monomers
    assert len(SIDE4.triangles()) == 32 and len(HoleContext(SIDE4).cfg.rights) == 8
    whole = correlation_det(MonomerConfig.from_monomers(sorted(SIDE4.triangles())))
    assert omega(SIDE4).signed in (whole.signed, -whole.signed)
    assert abs(placement_probability(LozengeLocation(0, 4, 1), SIDE4) - 0.4540787) < 5e-8


@pytest.mark.parametrize("hs", [PAIR6, CHARGED, NEGATIVE, STRINGS, CHARGE4])
def test_adjugate_times_matrix_is_det_identity(hs):
    ctx = HoleContext(hs)
    m = correlation._exact_matrix(ctx.cfg)
    det, adj = det_exact(m, adjugate=True)
    n = len(m)
    assert det == det_exact(m) == ctx.den.signed
    for i in range(n):
        for j in range(n):
            total = SqrtPiPoly.zero()
            for k in range(n):
                total = total + adj[i][k] * m[k][j]
            assert total == (det if i == j else SqrtPiPoly.zero()), (i, j)


@pytest.mark.parametrize("hs", [
    HoleSystem((hole("E", 0, 0), hole("W", 32, 0))),  # the surface-pair system
    CHARGED,
    CHARGE4,
])
def test_numerators_around_a_triangle_sum_to_the_denominator(hs):
    # the three lozenges covering a triangle share its row (a right) or its
    # column (a left), and the local equations of P and of every u_s sum
    # that border to the corner unit, so n1 + n2 + n3 = D exactly
    ctx = HoleContext(hs)
    probes = [m for a in range(-6, 20) for b in range(-6, 20) for m in (left(a, b), right(a, b))
              if m not in ctx.triangles]
    covering = [lozenges_covering(m) for m in probes]
    Ls = sorted({L for Ls in covering for L in Ls})
    signed = dict(zip(Ls, numerators(ctx, Ls)))
    assert len(probes) > 1300
    for m, Ls in zip(probes, covering):
        assert signed[Ls[0]] + signed[Ls[1]] + signed[Ls[2]] == ctx.den.signed, m


@pytest.mark.parametrize("hs", [
    PAIR6,
    CHARGED,
    NEGATIVE,
    CHARGE4,
    HoleSystem((hole("E", 0, 0), hole("W", 2, 0))),
    HoleSystem((hole("E", 0, 0), hole("E", 2, 0))),
    STRINGS,
    HoleSystem((MultiHole("E", Fraction(-2), (0, 1, 2)),)),
], ids=["pair", "charged", "reflected", "charge4", "adjacent-EW", "adjacent-EE", "strings", "slope-2"])
def test_lozenges_over_a_hole_get_numerator_zero(hs):
    # the batch gives every lozenge sharing a triangle with a hole numerator
    # 0 without forming it; the full determinant agrees except on a hole's
    # interior pair, which the hole tiles itself (+-D), and no command asks
    ctx = HoleContext(hs)
    Ls = sorted({L for m in ctx.triangles for L in lozenges_covering(m)})
    interior = set()
    for t in hs.tri_holes():
        l, r = sorted(t.triangles() - t.decompose())  # a left sorts before a right
        interior.add(LozengeLocation.from_pair(r, l))
    assert len(interior) == len(hs.tri_holes()) and interior <= set(Ls)
    for L in Ls:
        full = omega(hs, [L]).signed
        if L in interior:
            assert full in (ctx.den.signed, -ctx.den.signed), L
        else:
            assert full.is_zero(), L
    assert all(num.is_zero() for num in numerators(ctx, Ls))
    assert ctx.probabilities(Ls) == [0.0] * len(Ls)


@pytest.mark.parametrize("hs", [CHARGED, CHARGE4, NEGATIVE], ids=["charged", "charge4", "reflected"])
def test_batched_fields_match_the_per_probe_path(hs):
    probes = [m for a in range(-3, 11) for b in range(-3, 11) for m in (left(a, b), right(a, b))]
    batch = discrete_fields(probes, hs)
    inside = HoleContext(hs).triangles
    assert 0 < sum(m in inside for m in probes) < len(probes)
    for m, fs in zip(probes, batch):
        if m in inside:
            assert fs is None
            with pytest.raises(ProbeOverlapsHole):
                discrete_field(m, hs)
            continue
        one = discrete_field(m, hs)
        got, want = (tuple(x.hex() for x in (f.p1, f.p2, f.p3, f.fx, f.fy)) for f in (fs, one))
        assert (fs.probe, got, fs.exactness) == (one.probe, want, one.exactness), m


@pytest.mark.parametrize("monomers, message", [
    ([right(0, 0)], "odd number of monomers"),
    ([right(0, 0), left(30, 30)], "monomers cannot be paired sharing vertices"),
])
def test_invalid_systems_raise_as_before(monkeypatch, monomers, message):
    # holes always decompose into even, pairable sets (see the property test
    # below), so the invalid monomer sets are injected behind the
    # decomposition of a real system; the hole context raises as it is built
    monkeypatch.setattr(correlation, "_decompose", lambda hs, probes: list(probes) + monomers)
    L = LozengeLocation(3, 1, 1)
    for call in (lambda: HoleContext(PAIR6),
                 lambda: placement_probability(L, PAIR6),
                 lambda: HoleContext(PAIR6).probabilities([L]),
                 lambda: discrete_field(left(3, 1), PAIR6)):
        with pytest.raises(UnpairableConfiguration, match=message):
            call()


SLOPES = (Fraction(1), Fraction(-2), Fraction(4), Fraction(1, 4))


@st.composite
def multiholes(draw):
    q = draw(st.sampled_from(SLOPES))
    steps = draw(st.sets(st.integers(-3, 3), min_size=1, max_size=3))
    anchor = (draw(st.integers(-6, 6)), draw(st.integers(-6, 6)))
    # q*i must be an integer, so indices are multiples of q's denominator
    indices = tuple(sorted(k * q.denominator for k in steps))
    return MultiHole(draw(st.sampled_from("EW")), q, indices, anchor)


@given(st.lists(multiholes(), min_size=1, max_size=4), st.booleans())
def test_every_hole_system_decomposes_into_a_pairable_set(holes, doubled):
    # a system builds exactly when its side-2 holes are disjoint (doubled
    # holes never are), and each hole decomposes into two monomers sharing a
    # vertex, so every system that builds is pairable
    holes = tuple(holes + holes if doubled else holes)
    constituents = [t for m in holes for t in m.constituents()]
    covered = set().union(*(t.triangles() for t in constituents))
    if len(covered) < 4 * len(constituents):
        with pytest.raises(OverlappingHoles):
            HoleSystem(holes)
    else:
        assert pairable(correlation._decompose(HoleSystem(holes), ()))


def test_zero_denominator_raises_as_before():
    # three disjoint east holes whose exact hole determinant vanishes
    hs = HoleSystem((hole("E", 0, 0), hole("E", 1, 1), hole("E", 2, -1)))
    L = LozengeLocation(3, 1, 1)
    with pytest.raises(ZeroDenominator, match="correlation of the hole system vanishes"):
        placement_probability(L, hs)
    with pytest.raises(ZeroDenominator):
        discrete_field(left(3, 1), hs)
    ctx = HoleContext(hs)
    assert ctx.den.value == 0.0 and ctx.den.signed.is_zero()
    with pytest.raises(ZeroDenominator, match="correlation of the hole system vanishes"):
        numerators(ctx, [L])


def test_surface_det_count_independent_of_edges(monkeypatch):
    from lozenge.surface import Window, average_surface

    # every elimination of the hole matrix M, with or without its adjugate
    calls = []
    monkeypatch.setattr(correlation, "det_exact",
                        lambda rows, **kw: calls.append(len(rows)) or det_exact(rows, **kw))
    hs = HoleSystem((hole("E", 0, 0), hole("W", 16, 0)))
    counts, nodes = [], []
    for window in (Window(-4, -18, 20, 4), Window(-6, -27, 23, 10)):
        calls.clear()
        sheet = average_surface(hs, window)
        counts.append(len(calls))
        nodes.append(len(sheet.heights))
    assert nodes[0] < nodes[1]
    assert counts == [1, 1]


def _surface_pair_batch(monkeypatch):
    """The lozenge codes whose probabilities the benchmark's R=16 surface asks for, in one batch."""
    from lozenge.surface import Window, average_surface

    hs = HoleSystem((hole("E", 0, 0), hole("W", 32, 0)))
    batches = []
    batch = correlation.HoleContext.batch

    def recording(ctx, codes, exact=False):
        batches.append(list(codes))
        return batch(ctx, batches[-1], exact)

    monkeypatch.setattr(correlation.HoleContext, "batch", recording)
    average_surface(hs, Window(-12, -52, 44, 20))
    monkeypatch.undo()
    (codes,) = batches
    return hs, codes


def _field_charged_batch(monkeypatch):
    hs = HoleSystem((hole("E", 0, 0), hole("W", 12, 0), hole("E", 4, 9)))
    triangles = hs.triangles()
    probes = [left(a, b) for a in range(-5, 16) for b in range(-5, 16)]
    return hs, [L.code() for e in probes if e not in triangles for L in lozenges_covering(e)]


@pytest.mark.parametrize("batch, points, entries", [(_surface_pair_batch, 8303, 1887),
                                                    (_field_charged_batch, 2699, 590)],
                         ids=["surface-pair", "field-charged"])
def test_batch_reads_every_coupling_value_from_its_one_table(monkeypatch, batch, points, entries):
    # each batch builds one coupling table, of its distinct reduced points, and evaluates
    # no coupling value after it: the corners and the distinct rows and columns of the
    # batch name every value it reads
    from lozenge import coupling

    hs, codes = batch(monkeypatch)
    ctx = HoleContext(hs)
    calls = {"prefill": 0, "after": 0}
    sizes = []
    eval_reduced, prefill = coupling._eval_reduced, correlation.prefill

    def counting_eval(x, y):
        calls["after"] += calls["prefill"] > 0
        return eval_reduced(x, y)

    def counting_prefill(args):
        args = list(args)
        den, table = prefill(args)
        sizes.append((len(args), len(table)))
        calls["prefill"] += 1
        return den, table

    monkeypatch.setattr(coupling, "_eval_reduced", counting_eval)
    monkeypatch.setattr(correlation, "prefill", counting_prefill)
    ctx.batch(codes)
    assert calls == {"prefill": 1, "after": 0}
    assert sizes == [(points, entries)]
    ctx.batch(codes[:1])
    assert calls["prefill"] == 2  # a second batch builds its own table


def test_batch_rejects_a_lozenge_without_a_direction_class():
    with pytest.raises(LatticeError, match="direction must be 1, 2 or 3, got 4"):
        placement_probability(LozengeLocation(3, 1, 4), PAIR6)
    with pytest.raises(LatticeError, match="direction must be 1, 2 or 3, got 0"):
        HoleContext(NEGATIVE).probabilities([LozengeLocation(3, 1, 1), LozengeLocation(3, 1, 0)])


@pytest.mark.parametrize("batch, conversions, passes", [(_surface_pair_batch, 3647, 3654),
                                                        (_field_charged_batch, 957, 957)],
                         ids=["surface-pair", "field-charged"])
def test_batch_exact_path_work_is_pinned(monkeypatch, batch, conversions, passes):
    # exact-path conversions (_round_nearest calls) and Ziv passes (_bounds calls)
    # of each benchmark batch, its hole context's denominator included
    hs, codes = batch(monkeypatch)
    calls = []
    round_nearest, bounds = exact._round_nearest, exact._bounds
    monkeypatch.setattr(exact, "_round_nearest",
                        lambda *args: calls.append("conversion") or round_nearest(*args))
    monkeypatch.setattr(exact, "_bounds", lambda *args: calls.append("pass") or bounds(*args))
    HoleContext(hs).batch(codes)
    assert (calls.count("conversion"), calls.count("pass")) == (conversions, passes)


@pytest.mark.parametrize("batch, size", [(_surface_pair_batch, 5939), (_field_charged_batch, 1308)],
                         ids=["surface-pair", "field-charged"])
def test_probabilities_round_the_exact_numerators_bit_for_bit(monkeypatch, batch, size):
    # the batch rounds each unreduced bordered numerator; the canonical
    # SqrtPiPoly of the same value must give the same float
    hs, codes = batch(monkeypatch)
    assert len(codes) == size
    ctx = HoleContext(hs)
    got = ctx.batch(codes)
    want = [abs(float(n)) / ctx.den.value for n in ctx.batch(codes, exact=True)]
    assert [p.hex() for p in got] == [p.hex() for p in want]

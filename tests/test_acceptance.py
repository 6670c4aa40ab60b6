"""Acceptance suite: one test per criterion, with a pass line per case.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
summary lines and timings.
"""

import math
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from lozenge.continuum import Charge, LimitConfig, Probe
from lozenge.convergence import field_convergence_table, golden_pair_config
from lozenge.correlation import discrete_field, omega
from lozenge.coupling import coupling_p, dd_p_exact, dd_p_leading
from lozenge.exact import SqrtPiPoly
from lozenge.lattice import (
    HoleSystem,
    LozengeLocation,
    hole,
    left,
    lozenges_covering,
)
from lozenge.oracle import (
    TorusSpec,
    count_tilings,
    count_tilings_brute,
    hexagon,
    oracle_probability_float,
    torus_count,
    torus_count_brute,
)
from lozenge.surface import (
    Window,
    average_surface,
    compare_to_helicoids,
    helicoid_specs_for_system,
)
from lozenge.verify import (
    verify_block_shift,
    verify_border_shift,
    verify_circulation,
    verify_field_identity,
    verify_symmetries,
)

GOLDEN_PAIR = HoleSystem((hole("E", 0, 0), hole("W", 6, 0)))


def report(name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_coupling_exactness():
    t0 = time.time()
    assert coupling_p(0, 0).coeffs == (Fraction(1, 3),)
    # symmetry orbits on [-30, 30]^2, quadrature on [-15, -1] x [-15, 15]
    res = verify_symmetries(limit=30, quad_limit=15)
    elapsed = time.time() - t0
    report(
        "criterion 1 (coupling exactness)",
        res.ok and elapsed < 5.0,
        f"quadrature max err={res.max_residual:.2e} over {res.cases} cases, time={elapsed:.2f}s",
    )


def test_criterion_2_field_identity():
    t0 = time.time()
    res = verify_field_identity(100, random.Random(7))
    elapsed = time.time() - t0
    report(
        "criterion 2 (determinant ratio identity)",
        res.ok and res.cases == 100 and elapsed < 30.0,
        f"max residual={res.max_residual:.2e} over {res.cases} configs, time={elapsed:.2f}s",
    )


def test_criterion_3_block_identities():
    shift = verify_block_shift(20, random.Random(7))
    border = verify_border_shift(20, random.Random(7))
    bad = shift.max_residual + border.max_residual
    report(
        "criterion 3 (exact block operations)",
        shift.ok and border.ok,
        f"failures={bad:g} over 20 + 20 random rational functions (exact arithmetic)",
    )


def _expansion_check(cfg, scales):
    """How G = R*F settles over doubling ``scales``: (rate, Richardson error).

    G = E + C1/R + C2/R^2 + ..., so R*(G - E) = C1 + C2/R + ... and its
    successive differences shrink like 1/R: the rate is minus the fitted
    slope of their log2 norms against log2 R, about 1.  Richardson
    extrapolation over the last three scales, R, 2R and 4R, cancels the
    1/R and 1/R^2 terms and leaves E; its error is relative to E.
    """
    rows = field_convergence_table(cfg, scales)
    lim = rows[0].limit_fx, rows[0].limit_fy
    h = [(r.R * (r.r_fx - lim[0]), r.R * (r.r_fy - lim[1])) for r in rows]
    rate = -statistics.linear_regression(
        [math.log2(r.R) for r in rows[1:]], [math.log2(math.dist(a, b)) for a, b in zip(h, h[1:])]
    ).slope
    g1, g2, g4 = ((r.r_fx, r.r_fy) for r in rows[-3:])
    rich = [(8 * c - 6 * b + a) / 3 for a, b, c in zip(g1, g2, g4)]
    return rate, math.dist(rich, lim) / math.hypot(*lim)


def test_criterion_4_field_convergence():
    t0 = time.time()
    cfg = golden_pair_config()
    rows = field_convergence_table(cfg, [8, 16, 32, 64])
    errs = [r.rel_error for r in rows]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    # the finite-scale fields use exact determinants only
    hs = HoleSystem((hole("E", 0, 0), hole("W", 2 * 8, 0)))
    assert discrete_field(left(2, 12), hs).exactness == "exact"
    rate, rich_err = _expansion_check(cfg, [96, 192, 384, 768, 1536])
    # two charged systems: a size-2 charge and a unit negative, and three charges
    charged = [
        LimitConfig((Charge(0.0, 0.0, 2),), (Charge(2.0, 0.0),), Probe(0.5, 1.5)),
        LimitConfig((Charge(0.0, 0.0), Charge(0.0, 3.0)), (Charge(3.0, 0.0),), Probe(1.25, 1.0)),
    ]
    charged_checks = [_expansion_check(c, [96, 192, 384, 768]) for c in charged]
    elapsed = time.time() - t0
    report(
        "criterion 4 (field converges to the Coulomb form)",
        decreasing and errs[-1] <= 0.05 and rich_err <= 1e-7 and 0.9 <= rate <= 1.1
        and all(0.9 <= r <= 1.1 and e <= 5e-7 for r, e in charged_checks) and elapsed < 60.0,
        f"relative errors={['%.4f' % e for e in errs]}, "
        f"golden pair R=96..1536 rate={rate:.3f}, Richardson R=384/768/1536 error={rich_err:.1e}; "
        f"charged R=96..768 (rate, Richardson R=192/384/768 error)="
        f"{['%.3f, %.1e' % c for c in charged_checks]}, time={elapsed:.2f}s",
    )


def test_criterion_5_probability_axioms():
    den = omega(GOLDEN_PAIR).signed
    den = den if float(den) >= 0 else -den
    holes = GOLDEN_PAIR.triangles()
    checked = 0
    bad_range = 0
    bad_sum = 0
    for a in range(-7, 13):
        for b in range(-10, 10):
            e = left(a, b)
            covers = lozenges_covering(e)
            if e in holes or any(L.triangles() & holes for L in covers):
                continue
            total = SqrtPiPoly.zero()
            for L in covers:
                num = omega(GOLDEN_PAIR, [L]).signed
                p = float(num) / float(den)
                if not (0.0 <= p <= 1.0):
                    bad_range += 1
                total = total + (num if float(num) >= 0 else -num)
            if total != den:
                bad_sum += 1
            checked += 1
    report(
        "criterion 5 (probability axioms on a 20x20 window)",
        bad_range == 0 and bad_sum == 0 and checked > 300,
        f"probes={checked}, out-of-range={bad_range}, inexact sums={bad_sum}",
    )


def test_criterion_6_circulation():
    # charged loops within 1e-8, loops enclosing no net charge within 1e-9
    res = verify_circulation()
    report(
        "criterion 6 (monodromy around holes)",
        res.ok and res.cases == 5,
        f"max residual={res.max_residual:.2e} over {res.cases} loops",
    )


def test_criterion_7_divided_difference_asymptotics():
    t0 = time.time()
    dirs = [
        (Fraction(-9, 10), Fraction(3, 10)),
        (Fraction(3, 10), Fraction(-9, 10)),
        (Fraction(6, 10), Fraction(6, 10)),
    ]
    worst_band = 0.0
    for k in (0, 1, 2):
        for l in (0, 1, 2):
            for u, v in dirs:
                scaled = []
                for n in (50, 100, 200, 400):
                    rn, sn = int(u * n), int(v * n)
                    exact = dd_p_exact(k, l, rn, sn, Fraction(1),
                                       list(range(k + 1)), list(range(l + 1)))
                    lead = dd_p_leading(k, l, rn, sn, Fraction(1))
                    scaled.append(abs(exact - lead) * n ** (k + l + 2))
                worst_band = max(worst_band, max(scaled) / min(scaled))
    elapsed = time.time() - t0
    report(
        "criterion 7 (divided-difference asymptotics)",
        worst_band <= 3.0 and elapsed < 120.0,
        f"worst band={worst_band:.2f} over k,l in 0..2 and 3 directions, time={elapsed:.2f}s",
    )


def test_criterion_8_surface_convergence():
    t0 = time.time()
    results = {}
    scales = (8, 16, 32, 64)
    for R in scales:
        hs = HoleSystem((hole("E", 0, 0), hole("W", 2 * R, 0)))
        mu = 0.6
        alo = int(-mu * 2 * R / math.sqrt(3)) - 1
        ahi = 2 * R + int(mu * 2 * R / math.sqrt(3)) + 1
        blo, bhi = int(-2 * R - 2 * mu * R) - 1, int(2 * mu * R) + 1
        sheet = average_surface(hs, Window(alo, blo, ahi, bhi))
        results[R] = compare_to_helicoids(sheet, R, helicoid_specs_for_system(hs, R))
    maxes = [results[R].max_abs for R in scales]
    # the fiber error is O(1/R): each doubling of R halves it (measured 1.94,
    # 2.03, 2.00 with each helicoid at its hole's anchor)
    ratios = [a / b for a, b in zip(maxes, maxes[1:])]
    halving = all(1.9 <= r <= 2.1 for r in ratios)
    grads = [results[R].grad_max_rel for R in (32, 64)]
    elapsed = time.time() - t0
    report(
        "criterion 8 (surface converges to the helicoid sum)",
        halving and max(grads) <= 0.10,
        f"fiber max={['%.4f' % m for m in maxes]}, ratios={['%.3f' % r for r in ratios]}, "
        f"gradient rel err at R=32, 64: {['%.4f' % g for g in grads]}, time={elapsed:.1f}s",
    )


def test_criterion_9_oracle_agreement():
    t0 = time.time()
    corpus = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2)]
    regions = [hexagon(*abc) for abc in corpus]
    h4 = hexagon(4, 4, 4)
    regions.append(h4.remove(LozengeLocation(1, 1, 1)))
    regions.append(h4.remove(HoleSystem((hole("E", -1, 0), hole("W", 2, 0)))))
    mismatches = sum(
        1
        for reg in regions
        if len(reg) <= 48 and count_tilings(reg) != count_tilings_brute(reg)
    )
    h222 = count_tilings_brute(hexagon(2, 2, 2))
    torus_ok = torus_count(TorusSpec(4)) == torus_count_brute(TorusSpec(4))

    pair = HoleSystem((hole("E", -3, 0), hole("W", 3, 0)))
    loz = LozengeLocation(0, 3, 1)
    from lozenge.correlation import placement_probability

    bulk = placement_probability(loz, pair)
    gaps = []
    for side in (8, 16, 24):
        reg = hexagon(side, side, side)
        assert pair.triangles() <= reg.triangles and loz.triangles() <= reg.triangles
        finite = oracle_probability_float(loz, reg.remove(pair))
        gaps.append(abs(finite - bulk))
    elapsed = time.time() - t0
    report(
        "criterion 9 (enumeration oracle agreement)",
        mismatches == 0 and h222 == 20 and torus_ok and gaps[0] > gaps[1] > gaps[2],
        f"corpus mismatches={mismatches}, hex(2,2,2)={h222}, "
        f"gaps={['%.2e' % g for g in gaps]}, time={elapsed:.1f}s",
    )


def test_criterion_10_cli_determinism(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(GOLDEN_PAIR.to_json())
    limit = tmp_path / "limit.json"
    limit.write_text(
        '{"positives":[{"x":0.0,"y":0.0}],"negatives":[{"x":2.0,"y":0.0}],'
        '"probe":{"x":0.25,"y":1.5},"q":"1"}'
    )

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "lozenge.cli", *args],
            capture_output=True, timeout=600,
        )

    commands = [
        ("coupling", "--x", "4", "--y", "-9"),
        ("coupling-table", "--range", "3", "--out", "-"),
        ("field", "--holes", str(pair), "--probes", "grid:2,0,3,1", "--out", "-"),
        ("coulomb", "--config", str(limit), "--grid", "3,3,4,4,2,2", "--out", "-"),
        ("converge", "--holes", str(limit), "--R-list", "4,8", "--out", "-"),
        ("verify", "identity31", "--trials", "5", "--seed", "7"),
        ("verify", "lemma33", "--seed", "7"),
        ("verify", "lemma34", "--seed", "7"),
        ("oracle", "count", "--region", "hex:2,2,2"),
    ]
    bad = []
    for cmd in commands:
        a, b = run(*cmd), run(*cmd)
        if a.returncode != 0 or a.stdout != b.stdout:
            bad.append(cmd[0])
    # surface writes a file; compare bytes
    s1, s2 = tmp_path / "s1.obj", tmp_path / "s2.obj"
    args = ("surface", "--holes", str(pair), "--window=-6,-14,14,6", "--R", "8")
    run(*args, "--out", str(s1))
    run(*args, "--out", str(s2))
    if s1.read_bytes() != s2.read_bytes():
        bad.append("surface")
    report(
        "criterion 10 (deterministic CLI output)",
        not bad,
        f"non-deterministic commands: {bad or 'none'}",
    )

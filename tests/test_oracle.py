"""Enumeration oracles: brute force, signed determinants, tori."""

import ast
import math
import pathlib
from fractions import Fraction

import pytest

from lozenge.lattice import HoleSystem, LozengeLocation, hole, left, right
from lozenge.oracle import (
    Region,
    TorusSpec,
    count_tilings,
    count_tilings_brute,
    count_tilings_kasteleyn,
    hexagon,
    log_count_tilings,
    macmahon,
    oracle_probability,
    oracle_probability_float,
    torus_count,
    torus_count_brute,
    torus_count_kasteleyn,
)

CORPUS = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2)]


def test_hexagon_sizes():
    for a, b, c in CORPUS:
        assert len(hexagon(a, b, c)) == 2 * (a * b + b * c + c * a)


def test_unit_hexagon():
    assert count_tilings_brute(hexagon(1, 1, 1)) == 2


def test_brute_matches_product_formula():
    for abc in CORPUS:
        assert count_tilings_brute(hexagon(*abc)) == macmahon(*abc)


def test_kasteleyn_matches_brute_on_corpus():
    regions = [hexagon(*abc) for abc in CORPUS]
    h = hexagon(4, 4, 4)
    regions.append(h.remove(LozengeLocation(1, 1, 1)))
    regions.append(h.remove(HoleSystem((hole("E", -1, 0), hole("W", 2, 0)))))
    regions.append(h.remove(HoleSystem((hole("E", 0, 0),))))
    for reg in regions:
        if len(reg) <= 40 or len(reg) <= 48:
            assert count_tilings_kasteleyn(reg) == count_tilings_brute(reg), len(reg)


def test_kasteleyn_large_hexagon():
    assert count_tilings_kasteleyn(hexagon(4, 4, 4)) == macmahon(4, 4, 4)


def test_unbalanced_region_zero():
    reg = Region(frozenset({left(0, 0), left(1, 0), right(0, 0)}))
    assert count_tilings(reg) == 0
    assert count_tilings(Region(frozenset({left(0, 0), left(1, 5)}))) == 0


def test_empty_region_one():
    assert count_tilings(Region(frozenset())) == 1


def test_oracle_probability_exact():
    reg = hexagon(1, 1, 1)
    # two tilings; the central horizontal lozenge is occupied in exactly one
    tris = sorted(reg.triangles)
    loz = None
    for t in tris:
        if t.kind == "L":
            cand = LozengeLocation(t.a, t.b, 1)
            if cand.triangles() <= reg.triangles:
                loz = cand
                break
    p = oracle_probability(loz, reg)
    assert isinstance(p, Fraction)
    assert p == Fraction(1, 2)
    assert 0 <= p <= 1


def test_float_probability_matches_exact():
    reg = hexagon(4, 4, 4)
    loz = LozengeLocation(0, 1, 1)
    assert loz.triangles() <= reg.triangles
    exact = oracle_probability(loz, reg)
    approx = oracle_probability_float(loz, reg)
    assert approx == pytest.approx(float(exact), rel=1e-9)


def test_bulk_probability_drifts_to_one_third():
    gaps = []
    for n in (4, 6, 8):
        reg = hexagon(n, n, n)
        loz = LozengeLocation(0, 1, 1)
        assert loz.triangles() <= reg.triangles
        gaps.append(abs(oracle_probability_float(loz, reg) - 1 / 3))
    assert gaps[0] > gaps[1] > gaps[2]


def test_torus_small_counts():
    assert torus_count_brute(TorusSpec(2)) == 9  # golden, by enumeration
    assert torus_count(TorusSpec(2)) == 9
    for spec in (TorusSpec(2), TorusSpec(3), TorusSpec(4)):
        assert torus_count_kasteleyn(spec) == torus_count_brute(spec)


def test_torus_with_holes_matches_brute():
    specs = [
        TorusSpec(4, HoleSystem((hole("E", 0, 0), hole("W", 2, 2)))),
        TorusSpec(4, HoleSystem((hole("E", 0, 0), hole("W", 0, 2)))),
        TorusSpec(4, HoleSystem((hole("E", 1, 1),))),
    ]
    for spec in specs:
        assert torus_count_kasteleyn(spec) == torus_count_brute(spec)


def test_torus_unbalanced_holes_zero():
    # a lone charged hole unbalances the torus
    assert torus_count(TorusSpec(4, HoleSystem((hole("E", 0, 0),)))) == 0


def test_torus_ratio_converges_to_correlation():
    from lozenge.correlation import omega

    hs = HoleSystem((hole("E", 0, 0), hole("W", 3, 0)))
    target = omega(hs).value
    gaps = []
    for n in (6, 8, 10):
        ratio = torus_count(TorusSpec(n, hs)) / torus_count(TorusSpec(n))
        gaps.append(abs(ratio - target))
    assert gaps[0] > gaps[1] > gaps[2]


def test_far_apart_components_multiply():
    # two hexagons far enough apart to share no triangle edge
    a, b = hexagon(2, 2, 2), hexagon(3, 2, 2)
    moved = Region(frozenset(t.translate(40, 0) for t in b.triangles))
    both = Region(a.triangles | moved.triangles)
    product = macmahon(2, 2, 2) * macmahon(3, 2, 2)
    assert count_tilings_kasteleyn(both) == product
    sign, logv = log_count_tilings(both)
    assert sign == 1 and abs(logv - math.log(product)) <= 1e-12

    # one more component with a lone triangle unbalances the whole region
    lone = Region(both.triangles | {right(80, 0)})
    assert count_tilings_kasteleyn(lone) == 0
    assert log_count_tilings(lone) == (0, -math.inf)
    # two 3-triangle components, one right-heavy and one left-heavy, balance
    # the region but not themselves
    extra = {right(80, 0), left(80, 0), left(81, 0), left(0, 80), right(0, 80), right(-1, 80)}
    pair = Region(both.triangles | extra)
    assert pair.balanced()
    assert count_tilings_kasteleyn(pair) == 0
    assert log_count_tilings(pair) == (0, -math.inf)


def test_oracle_imports_only_lattice():
    # the oracles check the determinant code from the outside, so they may
    # share lattice geometry with it but no arithmetic
    src = pathlib.Path(__file__).parents[1] / "src" / "lozenge" / "oracle.py"
    tree = ast.parse(src.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                imported.append("lozenge." + (node.module or ""))
            elif node.module.split(".")[0] == "lozenge":
                imported.append(node.module)
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name.split(".")[0] == "lozenge"]
    assert imported and set(imported) == {"lozenge.lattice"}

"""Enumeration oracles: brute force, signed determinants, tori."""

import ast
import itertools
import math
import random
import pathlib
from fractions import Fraction

import pytest

from lozenge.lattice import HoleSystem, LozengeLocation, hole, left, right
from lozenge.oracle import (
    Region,
    TorusSpec,
    _canon,
    _embedded_graph,
    _face_defect,
    _faces,
    _fix_face_parity,
    _int_det,
    _solved_signs,
    _torus_faces_and_signs,
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


def test_solved_signs_satisfy_every_bounded_face():
    h = hexagon(4, 4, 4)
    regions = [hexagon(*abc) for abc in CORPUS] + [
        h.remove(LozengeLocation(1, 1, 1)),
        h.remove(HoleSystem((hole("E", -1, 0), hole("W", 2, 0)))),
        h.remove(HoleSystem((hole("E", 0, 0),))),
    ]
    for reg in regions:
        adj, pos = _embedded_graph(reg)
        sign = _solved_signs(adj, pos)
        # the face set does not depend on the order walks start in
        faces = _faces(adj, [(u, v) for u in adj for v in adj[u]])

        def area(cycle):
            pts = [pos[u] for u, _ in cycle]
            return sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]))

        # bounded faces, hole faces included, run counterclockwise; the one
        # clockwise face is the outer root, which the solver leaves free
        assert sum(1 for f in faces if area(f) < 0) == 1
        assert all(_face_defect(f, sign) == 0 for f in faces if area(f) > 0)

    for spec in (TorusSpec(2), TorusSpec(3), TorusSpec(4), TorusSpec(6),
                 TorusSpec(4, HoleSystem((hole("E", 0, 0), hole("W", 2, 2)))),
                 TorusSpec(4, HoleSystem((hole("E", 0, 0), hole("W", 0, 2)))),
                 TorusSpec(6, HoleSystem((hole("E", 0, 0), hole("W", 3, 0))))):
        faces, sign = _torus_faces_and_signs(spec)
        assert all(_face_defect(f, sign) == 0 for f in faces[1:])


def test_sign_solver_fixes_a_four_cycle():
    # hexagonal faces hold with all signs plus; a 4-cycle, which the
    # triangle lattice cannot form, needs an odd number of minus signs
    r1, r2, l1, l2 = right(0, 0), right(5, 0), left(0, 5), left(5, 5)
    adj = {r1: [l1, l2], l1: [r2, r1], r2: [l2, l1], l2: [r1, r2]}
    faces = _faces(adj, sorted((u, v) for u in adj for v in adj[u]))
    assert sorted(len(f) for f in faces) == [4, 4]
    all_plus = {_canon(*d): 1 for d in faces[0]}
    assert _face_defect(faces[1], all_plus) == 1
    sign = _fix_face_parity(faces, 0)
    assert _face_defect(faces[1], sign) == 0
    # the signed determinant counts both perfect matchings; all-plus gives 0
    assert abs(_int_det([[sign[(r, l)] for l in (l1, l2)] for r in (r1, r2)])) == 2
    assert _int_det([[1, 1], [1, 1]]) == 0


def test_int_det_matches_permutation_expansion():
    # zero pivots, row swaps, singular and empty matrices included
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(0, 6)
        mat = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
        want = 0
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            want += (-1) ** inversions * math.prod(mat[i][perm[i]] for i in range(n))
        assert _int_det(mat) == want


def _fraction_det(mat):
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in mat]
    n, det = len(m), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def test_int_det_lazy_rescale_matches_fraction_elimination():
    # sparse rows stay idle across several pivots before a cross term
    # reaches them; zero pivots force swaps of rows with different scales
    rng = random.Random(7)
    zero_diagonal = 0
    for _ in range(200):
        n = rng.randint(1, 14)
        mat = [[rng.choice((0,) * 6 + (1, -1, 2, -3, 5)) for _ in range(n)] for _ in range(n)]
        zero_diagonal += any(mat[k][k] == 0 for k in range(n))
        assert _int_det(mat) == _fraction_det(mat)
    assert zero_diagonal > 100


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

"""Enumeration oracles: brute force, signed determinants, tori."""

import ast
import hashlib
import itertools
import math
import random
import pathlib
import tracemalloc
from fractions import Fraction

import pytest

from brute import _partners, count_tilings_brute, macmahon, torus_count_brute
from lozenge import oracle
from lozenge.lattice import RIGHT, HoleSystem, LozengeLocation, hole, left, right
from lozenge.oracle import (
    HoleTooLarge,
    Region,
    SignedRegion,
    TorusSpec,
    ZeroDenominator,
    _canon,
    _face_defect,
    _faces,
    _fix_face_parity,
    _index,
    _int_det,
    _torus_faces_and_signs,
    _torus_index,
    count_tilings,
    hexagon,
    log_count_tilings,
    oracle_probability,
    oracle_probability_float,
    torus_count,
)

CORPUS = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2)]
ORACLE_PAIR = HoleSystem((hole("E", -3, 0), hole("W", 3, 0)))
# two hexagons far enough apart to share no triangle edge
TWO_HEXAGONS = Region(hexagon(2, 2, 2).triangles
                      | {t.translate(40, 0) for t in hexagon(3, 2, 2).triangles})


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
        if len(reg) <= 48:
            assert count_tilings(reg) == count_tilings_brute(reg), len(reg)


def test_kasteleyn_large_hexagon():
    assert count_tilings(hexagon(4, 4, 4)) == macmahon(4, 4, 4)
    # 432 rows, at most 12 places off the diagonal: the banded elimination, exactly
    assert count_tilings(hexagon(12, 12, 12)) == macmahon(12, 12, 12)


def test_exact_count_holds_no_dense_matrix():
    # hex:16 minus the benchmark's oracle pair: 764 rows and 2,238 entries,
    # which as a dense list matrix took 10.3 MB
    region = hexagon(16, 16, 16).remove(ORACLE_PAIR)
    signed = SignedRegion(region)
    tracemalloc.start()
    try:
        count = count_tilings(region, signed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.log(count) == pytest.approx(log_count_tilings(region, signed)[1], rel=1e-12)
    assert peak <= 2 * 2**20, peak


def test_unbalanced_region_zero():
    reg = Region(frozenset({left(0, 0), left(1, 0), right(0, 0)}))
    assert count_tilings(reg) == 0
    assert log_count_tilings(reg) == (0, -math.inf)
    assert count_tilings(Region(frozenset({left(0, 0), left(1, 5)}))) == 0


def test_empty_region_one():
    assert count_tilings(Region(frozenset())) == 1
    assert log_count_tilings(Region(frozenset())) == (1, 0.0)


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
    # golden: brute force and determinants agreed on these while they built
    # their graphs separately, so they do not depend on ``_index``
    for n, want in ((2, 9), (3, 42), (4, 417), (5, 7623)):
        assert torus_count(TorusSpec(n)) == want
        assert torus_count_brute(TorusSpec(n)) == want
    # two holes cover the whole 2-torus: the empty matching is its one tiling
    empty = TorusSpec(2, HoleSystem((hole("E", 0, 0), hole("W", 1, 1))))
    assert _torus_index(empty) == ([], [])
    assert torus_count(empty) == torus_count_brute(empty) == 1


def test_torus_too_small_or_colliding():
    # the brute-force reference reads the same torus index, so it rejects the same sides
    for n in (0, 1, -2):
        for count in (torus_count, torus_count_brute):
            with pytest.raises(HoleTooLarge, match="torus side must be at least 2"):
                count(TorusSpec(n))
    # E(4,0) wraps onto E(0,0) on the 4-torus
    with pytest.raises(HoleTooLarge, match="hole triangles collide on the torus"):
        torus_count(TorusSpec(4, HoleSystem((hole("E", 0, 0), hole("E", 4, 0)))))


def test_torus_with_holes_matches_brute():
    specs = [
        (TorusSpec(4, HoleSystem((hole("E", 0, 0), hole("W", 2, 2)))), 15),
        (TorusSpec(4, HoleSystem((hole("E", 0, 0), hole("W", 0, 2)))), 22),
        (TorusSpec(4, HoleSystem((hole("E", 1, 1),))), 0),
    ]
    for spec, want in specs:
        assert torus_count(spec) == torus_count_brute(spec) == want
    assert torus_count(TorusSpec(6, HoleSystem((hole("E", 0, 0), hole("W", 3, 0))))) == 5646


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
    both = TWO_HEXAGONS
    product = macmahon(2, 2, 2) * macmahon(3, 2, 2)
    assert count_tilings(both) == product
    sign, logv = log_count_tilings(both)
    assert sign == 1 and abs(logv - math.log(product)) <= 1e-12

    # one more component with a lone triangle unbalances the whole region
    lone = Region(both.triangles | {right(80, 0)})
    assert count_tilings(lone) == 0
    assert log_count_tilings(lone) == (0, -math.inf)
    # two 3-triangle components, one right-heavy and one left-heavy, balance
    # the region but not themselves
    extra = {right(80, 0), left(80, 0), left(81, 0), left(0, 80), right(0, 80), right(-1, 80)}
    pair = Region(both.triangles | extra)
    assert pair.balanced()
    assert count_tilings(pair) == 0
    assert log_count_tilings(pair) == (0, -math.inf)


@pytest.mark.parametrize("name", ["hex8-pair", "hex16-pair", "two-components", "empty"])
def test_log_count_matches_slogdet_of_numpy_zeros_bit_for_bit(name):
    # the oracle's bytes follow the matrix's values, not where its memory
    # comes from: a C-ordered np.zeros matrix gives the same bits
    import numpy as np

    others = {"two-components": TWO_HEXAGONS, "empty": Region(())}
    region = others[name] if name in others else _pinned_region(name)
    n, entries = SignedRegion(region).matrix_of(region)
    mat = np.zeros((n, n))
    for i, j, x in entries:
        mat[i, j] = x
    sgn, logdet = np.linalg.slogdet(mat)
    got = log_count_tilings(region)
    assert (got[0], got[1].hex()) == (int(round(sgn)), float(logdet).hex())


def _components(nbr):
    """Components of an index graph, as sorted index lists in order of least index."""
    seen = bytearray(len(nbr))
    comps = []
    for i in range(len(nbr)):
        if not seen[i]:
            seen[i] = 1
            comp, stack = [i], [i]
            while stack:
                for v in nbr[stack.pop()]:
                    if not seen[v]:
                        seen[v] = 1
                        comp.append(v)
                        stack.append(v)
            comps.append(sorted(comp))
    return comps


def _centroid(t):
    """Cartesian centroid of a triangle."""
    vs = t.vertices()
    return (sum(v[0] for v in vs) / 3 * math.sqrt(3) / 2, sum(v[1] for v in vs) / 6)


def test_solved_signs_satisfy_every_bounded_face():
    h = hexagon(4, 4, 4)
    regions = [hexagon(*abc) for abc in CORPUS] + [
        h.remove(LozengeLocation(1, 1, 1)),
        h.remove(HoleSystem((hole("E", -1, 0), hole("W", 2, 0)))),
        h.remove(HoleSystem((hole("E", 0, 0),))),
    ]
    for reg in regions:
        signed = SignedRegion(reg)
        assert len(_components(signed.nbr)) == 1
        pos = [_centroid(t) for t in signed.tris]
        # the face set does not depend on the order walks start in
        nbr = signed.nbr
        faces = _faces(nbr, [(u, v) for u in range(len(nbr)) for v in nbr[u]])

        def area(cycle):
            pts = [pos[u] for u, _ in cycle]
            return sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]))

        # bounded faces, hole faces included, run counterclockwise; the one
        # clockwise face is the outer root, which the solver leaves free
        assert sum(1 for f in faces if area(f) < 0) == 1
        assert all(_face_defect(f, signed.sign) == 0 for f in faces if area(f) > 0)

    for spec in (TorusSpec(2), TorusSpec(3), TorusSpec(4), TorusSpec(6),
                 TorusSpec(4, HoleSystem((hole("E", 0, 0), hole("W", 2, 2)))),
                 TorusSpec(4, HoleSystem((hole("E", 0, 0), hole("W", 0, 2)))),
                 TorusSpec(6, HoleSystem((hole("E", 0, 0), hole("W", 3, 0))))):
        faces, sign = _torus_faces_and_signs(_torus_index(spec)[1])  # keyed by index
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
    sign = _fix_face_parity(faces, {0})
    assert _face_defect(faces[1], sign) == 0
    # the signed determinant counts both perfect matchings; all-plus gives 0
    assert abs(_det([[sign[(r, l)] for l in (l1, l2)] for r in (r1, r2)])) == 2
    assert _det([[1, 1], [1, 1]]) == 0


_SHUFFLE = random.Random(0)  # not the tests' generators, so their matrices are unchanged


def _det(mat):
    """``_int_det`` of a dense matrix, given its nonzero entries in shuffled order."""
    entries = [(i, j, x) for i, row in enumerate(mat) for j, x in enumerate(row) if x]
    return _int_det(len(mat), _SHUFFLE.sample(entries, len(entries)))


def test_int_det_matches_permutation_expansion():
    # zero pivots, row swaps, singular and empty matrices included
    rng = random.Random(2)
    mats = [[[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
            for n in (rng.randint(0, 6) for _ in range(300))]
    # an all-zero row, an all-zero column, no rows at all
    mats += [[[1, 2, 0], [0, 0, 0], [3, 0, 1]], [[0, 2, 1], [0, -1, 3], [0, 5, 1]], []]
    for mat in mats:
        n = len(mat)
        want = 0
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            want += (-1) ** inversions * math.prod(mat[i][perm[i]] for i in range(n))
        assert _det(mat) == want


def _fraction_det(mat, swaps=None):
    """Determinant by Gaussian elimination over the rationals; the rows
    swapped, as (k, i), are appended to ``swaps``."""
    m = [[Fraction(x) for x in row] for row in mat]
    n, det = len(m), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
            if swaps is not None:
                swaps.append((k, piv))
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
        assert _det(mat) == _fraction_det(mat)
    assert zero_diagonal > 100

    # banded, with zero diagonals: a swap lifts row i > k to row k, so its
    # span reaches past k + above and the band widens above the diagonal
    widened = nonsingular = 0
    for _ in range(200):
        n = rng.randint(2, 24)
        below, above = rng.randint(1, 4), rng.randint(0, 4)
        mat = [[rng.choice((0, 1, -1, 2, -3)) if -below <= j - i <= above else 0
                for j in range(n)] for i in range(n)]
        for k in rng.sample(range(n), n // 3):
            mat[k][k] = 0
        swaps = []
        want = _fraction_det(mat, swaps)
        assert _det(mat) == want
        widened += bool(swaps)
        nonsingular += want != 0
    assert widened > 80 and nonsingular > 80


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


def test_brute_imports_only_the_index_graphs():
    # the brute-force references check the determinant code from the outside as
    # well, so they share only lattice geometry and the oracle's index graphs
    tree = ast.parse((pathlib.Path(__file__).parent / "brute.py").read_text())
    reached = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "lozenge" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "lozenge":
            reached |= {(node.module, a.name) for a in node.names}
    assert {module for module, _ in reached} == {"lozenge.lattice", "lozenge.oracle"}
    assert {name for module, name in reached if module == "lozenge.oracle"} <= {
        "_index", "_torus_index", "Region", "TorusSpec"}


def _hexagon_by_vertices(a, b, c):
    """The hexagon as first built: every candidate triangle tests its corners."""
    n0 = (-(a + b) // 2, -((-a + b + 2 * c) // 2))
    if sum(n0) % 2:
        n0 = (n0[0] + 1, n0[1])
    steps = [(a, (1, -1)), (b, (1, 1)), (c, (0, 2)), (a, (-1, 1)), (b, (-1, -1)), (c, (0, -2))]
    verts = [n0]
    for count, (da, db) in steps:
        for _ in range(count):
            verts.append((verts[-1][0] + da, verts[-1][1] + db))
    sides = []
    pos = n0
    for count, d in steps:
        sides.append((pos, d))
        pos = (pos[0] + count * d[0], pos[1] + count * d[1])

    def inside(node):
        return all(dx * (node[1] - vy) - dy * (node[0] - vx) >= 0
                   for (vx, vy), (dx, dy) in sides)

    tris = set()
    for A in range(min(v[0] for v in verts) - 1, max(v[0] for v in verts) + 2):
        for B in range(min(v[1] for v in verts) - 1, max(v[1] for v in verts) + 2):
            if (A + B) % 2:
                continue
            p, q = (A - B) // 2, (A + B) // 2
            for mk in (left, right):
                t = mk(p, q)
                if all(inside(v) for v in t.vertices()):
                    tris.add(t)
    return Region(frozenset(tris))


def test_hexagon_matches_vertex_check_construction():
    for a, b, c in itertools.product(range(1, 9), repeat=3):
        assert hexagon(a, b, c) == _hexagon_by_vertices(a, b, c), (a, b, c)


def test_rotation_orders_match_polar_angle_order():
    # the index graph's counterclockwise orders against an atan2 sort of
    # the neighbours' centroids, list for list
    h = hexagon(6, 6, 6)
    for reg in (h, h.remove(HoleSystem((hole("E", -1, 0), hole("W", 2, 0))))):
        tris, nbr = _index(reg.triangles)
        assert tris == sorted(reg.triangles)
        pos = [_centroid(t) for t in tris]
        for i, nbrs in enumerate(nbr):
            x, y = pos[i]
            by_angle = sorted(nbrs, key=lambda p: math.atan2(pos[p][1] - y, pos[p][0] - x))
            assert nbrs == by_angle, tris[i]
            assert [tris[j] for j in nbrs] == [p for p in _partners(tris[i]) if p in reg.triangles]
        assert sum(len(v) for v in nbr) > 2 * len(reg)


def _bridged_hexagons():
    """Two hexagons joined only through the lozenge r(-2,0), l(-2,1)."""
    bridge = LozengeLocation(-2, 1, 3)
    a = hexagon(2, 2, 2).triangles
    b = frozenset(t.translate(-5, 2) for t in a)
    return Region(a | b | bridge.triangles()), bridge


def test_region_signs_count_every_lozenge_deletion():
    # Kenyon's argument: one signing of the region signs each minor that
    # deletes a lozenge's two triangles, including ones that cut it in two
    h3 = hexagon(3, 3, 3)
    bridged, bridge = _bridged_hexagons()
    assert len(_components(SignedRegion(bridged).nbr)) == 1
    assert len(_components(SignedRegion(bridged.remove(bridge)).nbr)) == 2
    regions = [
        hexagon(2, 2, 2),
        hexagon(3, 2, 2),
        hexagon(3, 3, 2),
        h3.remove(HoleSystem((hole("E", -1, 0), hole("W", 1, 0)))),
        h3.remove(LozengeLocation(0, 1, 1)),
        h3.remove(HoleSystem((hole("E", 0, 0),))),  # unbalanced: no tilings
        bridged,
    ]
    checked = 0
    for reg in regions:
        signed = SignedRegion(reg)
        assert count_tilings(reg, signed) == count_tilings_brute(reg)
        for r in sorted(t for t in reg.triangles if t.kind == RIGHT):
            for l in _partners(r):
                if l not in reg.triangles:
                    continue
                sub = reg.remove({r, l})
                want = count_tilings_brute(sub)
                assert count_tilings(sub, signed) == want, (r, l)
                assert count_tilings(sub) == want, (r, l)
                checked += 1
    assert checked > 300
    assert count_tilings_brute(bridged.remove(bridge)) == macmahon(2, 2, 2) ** 2


@pytest.fixture
def parity_calls(monkeypatch):
    """The face counts of every ``_fix_face_parity`` call, in order."""
    calls = []
    real = oracle._fix_face_parity

    def counting(faces, roots):
        calls.append(len(faces))
        return real(faces, roots)

    monkeypatch.setattr(oracle, "_fix_face_parity", counting)
    return calls


def test_probabilities_solve_signs_once_per_region(parity_calls):
    calls = parity_calls
    far = Region(hexagon(2, 2, 2).triangles
                 | {t.translate(40, 0) for t in hexagon(3, 2, 2).triangles})
    holed = hexagon(4, 4, 4).remove(HoleSystem((hole("E", -1, 0), hole("W", 2, 0))))
    bridged, bridge = _bridged_hexagons()
    for reg, loz, n_comps in ((far, LozengeLocation(0, 1, 1), 2),
                              (holed, LozengeLocation(0, 1, 1), 1),
                              (bridged, bridge, 1)):
        assert loz.triangles() <= reg.triangles
        calls.clear()
        assert len(_components(SignedRegion(reg).nbr)) == n_comps and len(calls) == 1
        for probability in (oracle_probability, oracle_probability_float):
            calls.clear()
            probability(loz, reg)
            assert len(calls) == 1, (probability.__name__, calls)  # whatever n_comps is
        want = Fraction(count_tilings(reg.remove(loz)), count_tilings(reg))
        assert oracle_probability(loz, reg) == want
        assert oracle_probability_float(loz, reg) == pytest.approx(float(want), rel=1e-12)


def test_small_region_probability_matches_brute_force(parity_calls):
    calls = parity_calls
    small = hexagon(2, 2, 2)
    loz = LozengeLocation(0, 1, 1)
    assert loz.triangles() <= small.triangles
    want = Fraction(count_tilings_brute(small.remove(loz)), count_tilings_brute(small))
    assert oracle_probability(loz, small) == want
    assert len(calls) == 1  # one signing, of its one component
    calls.clear()
    # hex:8 still takes one signing, and its value is the benchmark's
    reg = hexagon(8, 8, 8).remove(ORACLE_PAIR)
    p = oracle_probability(LozengeLocation(0, 3, 1), reg)
    assert len(calls) == 1
    assert float(p) == 0.45429948743622445


def test_unbalanced_region_is_rejected_before_it_is_signed(parity_calls):
    # one E hole unbalances hex:24; neither probability signs it first
    reg = hexagon(24, 24, 24).remove(HoleSystem((hole("E", 0, 0),)))
    loz = LozengeLocation(0, 3, 1)
    assert loz.triangles() <= reg.triangles and not reg.balanced()
    for probability in (oracle_probability, oracle_probability_float):
        with pytest.raises(ZeroDenominator, match="region has no tilings"):
            probability(loz, reg)
    assert parity_calls == []


def test_outside_lozenge_is_rejected_before_it_is_signed(parity_calls):
    # both probabilities take the lozenge out first, so a balanced region
    # is not signed or counted before the lozenge is found outside it
    reg = hexagon(8, 8, 8)
    loz = LozengeLocation(40, 40, 1)
    assert reg.balanced() and not loz.triangles() <= reg.triangles
    for probability in (oracle_probability, oracle_probability_float):
        with pytest.raises(HoleTooLarge, match="removed triangles are not inside the region"):
            probability(loz, reg)
    assert parity_calls == []


def test_balanced_region_without_tilings_has_no_probability():
    # two far isolated triangles balance the charge but match nothing
    reg = Region(hexagon(2, 2, 2).triangles | {right(20, 20), left(-20, -20)})
    assert reg.balanced() and count_tilings(reg) == 0
    for probability in (oracle_probability, oracle_probability_float):
        with pytest.raises(ZeroDenominator, match="region has no tilings"):
            probability(LozengeLocation(0, 1, 1), reg)


def test_lozenge_in_no_tiling_has_probability_zero():
    # each hexagon is balanced on its own, so the bridge's two triangles
    # cover each other in every tiling: l(-2,1) never pairs with r(-3,1)
    bridged, _ = _bridged_hexagons()
    loz = LozengeLocation(-2, 1, 2)
    assert loz.triangles() <= bridged.triangles
    assert oracle_probability(loz, bridged) == Fraction(0)
    assert oracle_probability_float(loz, bridged) == 0.0


def kasteleyn_signs(region):
    """Kasteleyn signs of every edge of a planar region, keyed by (right, left) monomers."""
    signed = SignedRegion(region)
    return {(signed.tris[r], signed.tris[l]): s for (r, l), s in signed.sign.items()}


# SHA-256 of repr(sorted(kasteleyn_signs(region).items())), recorded from
# the Monomer-keyed solver that preceded the integer index graph; the two
# components of "hex4-and-hex6-minus-4" from the solver that signed each
# component with its own face walk and parity fix
SIGN_HASHES = {
    "hex8-pair": "73537025fdb55dfb32fafcd06c9d986d1505cf99103c856424d1a2c2bc4c0b26",
    "hex16-pair": "84493247c9b3828f2edb1e28283791d8e99c8c92cd8ee80ee1eab33f73919b2d",
    "hex24-pair": "bc0513462c76932b72084c7533c1e66d7562c86839cb40cbd7dd11ac05964c36",
    "bridged": "e28958b815aec5af29027832ee040b8655cb9d4ab3a56f243a29018d7c0c3574",
    "hex4-minus-4": "b8ed5e1c848bad9eb9fa4b5d1e9d6eaf19af3746aafde7fd1a2a525f67373859",
    "hex6-minus-4": "f43b08a4d68a49bdb5ab024b203b28009ed857800348a33323a643013dc0a4c0",
    "hex4-and-hex6-minus-4": "248b1d7a944dc94e6557d6afb62410ec684dad40d44b109bc79939cc70594e5f",
}


def _pinned_region(name):
    return {
        "hex8-pair": lambda: hexagon(8, 8, 8).remove(ORACLE_PAIR),
        "hex16-pair": lambda: hexagon(16, 16, 16).remove(ORACLE_PAIR),
        "hex24-pair": lambda: hexagon(24, 24, 24).remove(ORACLE_PAIR),
        "bridged": lambda: _bridged_hexagons()[0],
        "hex4-minus-4": lambda: hexagon(4, 4, 4).remove(
            {right(1, 2), right(1, 0), left(1, -3), left(-1, 1)}),
        "hex6-minus-4": lambda: hexagon(6, 6, 6).remove(
            {right(-1, 2), left(-5, 3), right(0, -4), left(-3, 3)}),
        "hex4-and-hex6-minus-4": lambda: Region(
            _pinned_region("hex4-minus-4").triangles
            | {t.translate(40, 0) for t in _pinned_region("hex6-minus-4").triangles}),
    }[name]()


@pytest.mark.parametrize("name", list(SIGN_HASHES))
def test_kasteleyn_signs_match_recorded_hashes(name):
    # the same signs edge for edge, not merely a gauge-equivalent signing:
    # the benchmark's slogdet outputs are pinned byte for byte.  The first
    # four need no flip at all; in the last three the flipped edges move when
    # the dart order or the outer-face roots do, and the last one has flips
    # in both of its components
    signs = kasteleyn_signs(_pinned_region(name))
    assert hashlib.sha256(repr(sorted(signs.items())).encode()).hexdigest() == SIGN_HASHES[name]


def _matrix_from_scratch(region, sign):
    """The signed matrix of a region, assembled on Monomers."""
    rights = sorted(t for t in region.triangles if t.kind == RIGHT)
    cols = {x: j for j, x in enumerate(sorted(t for t in region.triangles if t.kind != RIGHT))}
    if len(rights) != len(cols):
        return None
    return len(rights), [(i, cols[l], sign[(r, l)])
                         for i, r in enumerate(rights) for l in _partners(r) if l in cols]


def test_minus_lozenge_matrices_match_fresh_assembly():
    # the one matrix of region.remove(L), also when the deletion splits the
    # region or it has several components, equals the matrix built afresh
    # with the region's signs
    holed = hexagon(4, 4, 4).remove(HoleSystem((hole("E", -1, 0), hole("W", 2, 0))))
    bridged, bridge = _bridged_hexagons()
    far = Region(hexagon(2, 2, 2).triangles
                 | {t.translate(40, 0) for t in hexagon(3, 2, 2).triangles})
    splits = 0
    for reg in (holed, bridged, far):
        signed = SignedRegion(reg)
        sign = kasteleyn_signs(reg)
        assert signed.matrix_of(reg) == _matrix_from_scratch(reg, sign)
        rights = sorted(t for t in reg.triangles if t.kind == RIGHT)
        assert signed.matrix_of(reg.remove(rights[:1])) is None  # unbalanced
        for r in rights:
            for l in _partners(r):
                if l in reg.triangles:
                    sub = reg.remove({r, l})
                    assert signed.matrix_of(sub) == _matrix_from_scratch(sub, sign), (r, l)
                    splits += len(_components(_index(sub.triangles)[1])) > len(_components(signed.nbr))
    assert splits >= 1  # the bridge


def _lozenges(region):
    return [LozengeLocation.from_pair(r, l) for r in sorted(region.triangles) if r.kind == RIGHT
            for l in _partners(r) if l in region.triangles]


def test_float_probability_is_nonnegative_on_every_lozenge():
    # the sign of the minor's log-determinant times the region's is that of
    # K(r,l) (-1)^(i+j), not of the probability
    holed = hexagon(4, 4, 4).remove(HoleSystem((hole("E", -1, 0), hole("W", 2, 0))))
    bridged, _ = _bridged_hexagons()  # deleting the bridge splits it: a minor of two blocks
    for reg, count in ((hexagon(5, 5, 5), 210), (holed, None), (bridged, None)):
        lozenges = _lozenges(reg)
        assert count is None or len(lozenges) == count
        for loz in lozenges:
            approx = oracle_probability_float(loz, reg)
            assert approx >= 0, loz
            assert approx == pytest.approx(float(oracle_probability(loz, reg)), rel=1e-12, abs=0)

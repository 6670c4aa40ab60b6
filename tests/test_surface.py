"""Height sheets, monodromy, cut independence, mesh export."""

import hashlib
import math
import os
import tracemalloc

import pytest

from lozenge.lattice import (
    CODE_LIMIT,
    EMPTY_SYSTEM,
    HoleSystem,
    LatticeError,
    LozengeLocation,
    hole,
    left,
    right,
    unpack,
)
from lozenge.surface import (
    FIBER_MODULUS,
    Window,
    WindowTooSmall,
    _walk_east,
    average_surface,
    compare_to_helicoids,
    default_cuts,
    enclosed_charge,
    export_mesh,
    helicoid_specs_for_system,
    loop_circulation,
    node_position,
    rectangle_loop,
    step_code,
)
from lozenge.verify import CIRCULATION_TOL

PAIR = HoleSystem((hole("E", 0, 0), hole("W", 6, 0)))


def _lozenge(code: int) -> LozengeLocation:
    return LozengeLocation(*unpack(code >> 2), code & 3)


def test_edge_lozenge_classes():
    for (da, db), direction in (((0, 2), 1), ((1, -1), 3), ((-1, -1), 2)):
        u, v = (2, 4), (2 + da, 4 + db)
        code, sign = step_code(u, v)
        loz = _lozenge(code)
        assert sign == 1 and loz.direction == direction
        # the edge endpoints are vertices of both lozenge triangles
        for t in loz.monomers():
            assert {u, v} <= set(t.vertices())
        # the reversed step crosses the same lozenge, against the orientation
        assert step_code(v, u) == (code, -1)
    with pytest.raises(ValueError, match=r"^\(0, 0\) -> \(0, 4\) is not a lattice step$"):
        step_code((0, 0), (0, 4))
    with pytest.raises(LatticeError, match=r"lies beyond the coordinate bound 2\*\*62$"):
        step_code((CODE_LIMIT, CODE_LIMIT + 2), (CODE_LIMIT, CODE_LIMIT + 4))
    # both triangles of every lozenge a cut crosses lie in the cut's strip, one
    # lozenge per move
    for start, phase in ((right(0, 0), 0), (right(0, 0), 1), (left(7, 0), 1)):
        strip, codes = _walk_east(start, 14, phase)
        assert len(codes) == len(strip) - 1
        assert all(_lozenge(c).triangles() <= strip for c in codes)


def test_flat_sheet():
    sheet = average_surface(EMPTY_SYSTEM, Window(-3, -3, 3, 3))
    assert max(abs(h) for h in sheet.heights.values()) == 0.0
    assert sheet.residual == 0.0


def test_surface_far_from_the_origin_matches_the_surface_near_it():
    # the pair, its window and every node moved 2**40 steps along each lattice axis:
    # the node grid is the window's and the lozenge codes are large and of either sign
    da, db = 2**40, -2**41
    dA, dB = da + db, db - da  # the node offset of that move
    near = average_surface(PAIR, Window(-6, -14, 14, 6))
    far_pair = HoleSystem((hole("E", da, db), hole("W", 6 + da, db)))
    far = average_surface(far_pair, Window(-6 + dA, -14 + dB, 14 + dA, 6 + dB))
    assert far.residual < 1e-9 and len(far.heights) == len(near.heights)
    for (a, b), h in near.heights.items():
        assert far.heights[a + dA, b + dB] == pytest.approx(h, abs=1e-12), (a, b)
    with pytest.raises(LatticeError, match=r"lies beyond the coordinate bound 2\*\*62$"):
        average_surface(EMPTY_SYSTEM, Window(CODE_LIMIT - 2, 0, CODE_LIMIT + 2, 2))


def test_window_too_small():
    with pytest.raises(WindowTooSmall):
        average_surface(PAIR, Window(-1, -1, 3, 3))


def test_residual_small_for_balanced_system():
    sheet = average_surface(PAIR, Window(-6, -14, 14, 6))
    assert sheet.residual < 1e-9


def test_monodromy_loops():
    modulus = FIBER_MODULUS
    # counterclockwise around the positive hole: -2 * 3/sqrt(2)
    total = loop_circulation(rectangle_loop(-4, -8, 4, 6), PAIR)
    assert total == pytest.approx(-2 * modulus, abs=1e-8)
    # around the negative hole
    total = loop_circulation(rectangle_loop(2, -14, 12, 0), PAIR)
    assert total == pytest.approx(2 * modulus, abs=1e-8)
    # around both: zero total charge
    total = loop_circulation(rectangle_loop(-4, -14, 12, 6), PAIR)
    assert total == pytest.approx(0.0, abs=1e-8)
    # contractible
    total = loop_circulation(rectangle_loop(-8, 0, -4, 4), PAIR)
    assert total == pytest.approx(0.0, abs=1e-9)


# the side-4 pair of the paper's even-side holes: an E triangle of three E holes
# around a W hole, and its mirror image
SIDE4 = HoleSystem((hole("E", -3, 1), hole("E", -5, 1), hole("E", -3, -1), hole("W", -4, 0),
                    hole("W", 3, -1), hole("W", 3, 1), hole("W", 5, -1), hole("E", 4, 0)))


def test_monodromy_around_a_side_4_hole_is_twice_a_side_2_holes():
    loops = {}
    for name, rect, hs, q in [("side-4 E", (-10, -2, 0, 12), SIDE4, 4),
                              ("side-4 W", (0, -10, 8, 2), SIDE4, -4),
                              ("side-4 pair", (-10, -10, 8, 12), SIDE4, 0),
                              ("side-2 E", (-4, -8, 4, 6), PAIR, 2)]:
        assert enclosed_charge(rect, hs) == q, name
        loops[name] = loop_circulation(rectangle_loop(*rect), hs)
        tol = CIRCULATION_TOL if q else CIRCULATION_TOL / 10
        assert abs(loops[name] + q * FIBER_MODULUS) <= tol, (name, loops[name])
    assert abs(loops["side-4 E"] - 2 * loops["side-2 E"]) <= 1e-12


def test_enclosed_charge_bookkeeping():
    assert enclosed_charge((-4, -8, 4, 6), PAIR) == 2
    assert enclosed_charge((2, -14, 12, 0), PAIR) == -2
    assert enclosed_charge((-4, -14, 12, 6), PAIR) == 0
    assert enclosed_charge((-8, 0, -4, 4), PAIR) == 0


def test_cut_independence_modulo_fiber():
    window = Window(-6, -14, 14, 6)
    sheet_a = average_surface(PAIR, window)
    # alternative cuts: start from the other admissible strip rows
    alt = default_cuts(HoleSystem((hole("E", 0, 0), hole("W", 6, 0))), window)
    # build a genuinely different family by shifting the walk phase
    _, codes1 = _walk_east(right(0, 0), window.amax, 1)
    _, codes2 = _walk_east(left(7, 0), window.amax, 1)
    cuts_b = frozenset(codes1 | codes2)
    sheet_b = average_surface(PAIR, window, cuts=cuts_b)
    assert sheet_b.skipped != sheet_a.skipped
    # each sheet skips its cuts and the same lozenges inside the holes
    assert sheet_a.skipped - alt == sheet_b.skipped - cuts_b != frozenset()
    for node in sheet_a.heights:
        d = sheet_a.heights[node] - sheet_b.heights[node]
        frac = d % FIBER_MODULUS
        assert min(frac, FIBER_MODULUS - frac) < 1e-9, node


def test_cut_walk_takes_the_second_phase_past_a_blocked_strip(monkeypatch):
    # E(0,2) blocks the first eastward strip from E(0,0), so that hole's
    # cut is its second walk, in the other zigzag phase
    from lozenge import surface
    from lozenge.lattice import right

    walks = []
    real = surface._walk_east

    def counting(start, east_limit, phase=0):
        walks.append((start, phase))
        return real(start, east_limit, phase)

    monkeypatch.setattr(surface, "_walk_east", counting)
    sheet = average_surface(HoleSystem((hole("E", 0, 0), hole("E", 0, 2))), Window(-6, -14, 14, 6))
    assert walks == [(right(0, 0), 0), (right(0, 0), 1), (right(0, 2), 0)]
    assert sheet.residual < 1e-9


def test_helicoids_sit_at_the_hole_anchors():
    # one unit charge at each hole's anchor (a/R, b/R), E holes first
    from lozenge.continuum import Charge, helicoids

    hs = HoleSystem((hole("W", 6, 0), hole("E", 0, 0), hole("E", 3, -2)))
    specs = helicoid_specs_for_system(hs, 4.0)
    assert specs == helicoids([Charge(0.0, 0.0), Charge(0.75, -0.5)], [Charge(1.5, 0.0)])
    assert [s.center for s in specs] == [(0.0, 0.0), (math.sqrt(3) / 8, -0.625),
                                         (math.sqrt(3) * 3 / 4, -0.75)]
    pitch = 3 / (math.sqrt(2) * math.pi)
    assert [(s.pitch, s.refinement) for s in specs] == [(-pitch, 2), (-pitch, 2), (pitch, 2)]


def test_helicoid_comparison_flat():
    sheet = average_surface(EMPTY_SYSTEM, Window(-4, -4, 4, 4))
    report = compare_to_helicoids(sheet, 4.0, [])
    assert report.max_abs == 0.0
    assert report.grad_max_rel is None  # a zero limit gradient is never measured against


def test_average_surface_needs_a_node():
    with pytest.raises(WindowTooSmall, match="^window contains no lattice nodes$"):
        average_surface(EMPTY_SYSTEM, Window(0, 1, 0, 1))


def test_export_mesh_needs_a_sheet(tmp_path):
    path = tmp_path / "s.obj"
    with pytest.raises(ValueError):
        export_mesh(average_surface(EMPTY_SYSTEM, Window(-2, -2, 2, 2)), 0, str(path))
    assert not path.exists()


def test_export_mesh_removes_its_temporary_file_when_the_rename_fails(tmp_path):
    # the path is an existing directory: the text is written beside it, the
    # rename fails and the temporary file is removed again
    out = tmp_path / "D"
    out.mkdir()
    with pytest.raises(IsADirectoryError):
        export_mesh(average_surface(EMPTY_SYSTEM, Window(-2, -2, 2, 2)), 1, str(out))
    assert [p.name for p in tmp_path.iterdir()] == ["D"] and not any(out.iterdir())


def test_helicoid_comparison_shrinks_with_scale():
    results = {}
    for R in (8, 16):
        hs = HoleSystem((hole("E", 0, 0), hole("W", 2 * R, 0)))
        mu = 0.6
        alo = int(-mu * 2 * R / math.sqrt(3)) - 1
        ahi = 2 * R + int(mu * 2 * R / math.sqrt(3)) + 1
        blo, bhi = int(-2 * R - 2 * mu * R) - 1, int(2 * mu * R) + 1
        sheet = average_surface(hs, Window(alo, blo, ahi, bhi))
        results[R] = compare_to_helicoids(sheet, R, helicoid_specs_for_system(hs, R))
    assert results[16].max_abs < results[8].max_abs
    assert results[16].grad_max_rel < results[8].grad_max_rel


def test_mesh_export_flat_and_offset(tmp_path):
    sheet = average_surface(EMPTY_SYSTEM, Window(-2, -2, 2, 2))
    path = tmp_path / "flat.obj"
    export_mesh(sheet, 2, str(path))
    lines = path.read_text().splitlines()
    verts = [tuple(float(v) for v in l.split()[1:]) for l in lines if l.startswith("v ")]
    n = len(verts) // 2
    assert all(v[2] == 0.0 for v in verts[:n])
    assert all(v[2] == pytest.approx(FIBER_MODULUS) for v in verts[n:])
    faces = [l for l in lines if l.startswith("f ")]
    assert faces and len(faces) % 2 == 0


def test_mesh_vertices_at_node_positions(tmp_path):
    sheet = average_surface(EMPTY_SYSTEM, Window(0, 0, 2, 2))
    path = tmp_path / "tiny.obj"
    export_mesh(sheet, 1, str(path))
    lines = [l for l in path.read_text().splitlines() if l.startswith("v ")]
    got = {tuple(round(float(v), 9) for v in l.split()[1:3]) for l in lines}
    want = {tuple(round(c, 9) for c in node_position(n)) for n in sheet.heights}
    assert got == want


GOLDEN_OBJ_SHA256 = "6ca18c4d61209bf2be9ed6d7c34b614f681ddeb90c67f118874da0a3f007ab00"


def test_golden_surface_mesh_hash(tmp_path):
    hs = HoleSystem((hole("E", 0, 0), hole("W", 24, 0)))
    sheet = average_surface(hs, Window(-12, -42, 48, 18))
    assert sheet.residual < 1e-9
    path = tmp_path / "golden.obj"
    export_mesh(sheet, 2, str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_OBJ_SHA256


# the same system as GOLDEN_OBJ_SHA256 with one and with three sheets: the third
# sheet's face block checks the vertex-index offset past the second
GOLDEN_OBJ_SHA256_BY_SHEETS = {
    1: "9a3cbc6f5f3f1afcad991a40b2e4d401eecd673110684d4147355178be5ff80d",
    3: "6e056ee80ecb1e56fe70f9b2ebe9e27ea5bcfbddf32a4c3b35e122953f5cb31e",
}


def test_golden_surface_mesh_hash_one_and_three_sheets(tmp_path):
    hs = HoleSystem((hole("E", 0, 0), hole("W", 24, 0)))
    sheet = average_surface(hs, Window(-12, -42, 48, 18))
    for sheets, want in GOLDEN_OBJ_SHA256_BY_SHEETS.items():
        path = tmp_path / f"golden{sheets}.obj"
        export_mesh(sheet, sheets, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want, sheets


def test_golden_reflected_surface_mesh_hash(tmp_path):
    # more lefts than rights, so the batch keys the reflected lozenges; three
    # holes give another spanning tree, whose heights and residual are pinned
    hs = HoleSystem((hole("W", 0, 0), hole("E", 12, 0), hole("W", 4, 9)))
    sheet = average_surface(hs, Window(-10, -30, 36, 30))
    assert sheet.residual == 4.1511932780124994e-14
    path = tmp_path / "reflected.obj"
    export_mesh(sheet, 2, str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "1705f9905f4203758474075bf01b1ec61f0c5c8993a3777512d29904bd86944e"


def test_golden_criterion_8_surface_mesh_hash_at_r32(tmp_path):
    # criterion 8's geometry at R = 32: negative key ranges and many columns;
    # the digest and residual were recorded before the surface kept integer node ids
    R = 32
    hs = HoleSystem((hole("E", 0, 0), hole("W", 2 * R, 0)))
    sheet = average_surface(hs, Window(-23, -103, 87, 39))
    assert sheet.residual == 5.3686222134530226e-14
    path = tmp_path / "r32.obj"
    export_mesh(sheet, 2, str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "c211b6f5ac24d6c2138855b33232c3a827391978f68147ea5f49c5e475995882"


def test_surfaces_built_and_dropped_leave_no_memory_behind():
    # each placement batch owns its coupling table, so criterion 8's R = 32 surface,
    # built twice and dropped, leaves traced memory within 0.5 MB of its start (0.18 MB
    # measured: the hole context's memo and the rounding's bound tables)
    R = 32
    hs = HoleSystem((hole("E", 0, 0), hole("W", 2 * R, 0)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(2):
            sheet = average_surface(hs, Window(-23, -103, 87, 39))
            del sheet
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert left <= 500_000, left


def test_surface_and_export_memory_is_pinned(tmp_path):
    # the benchmark geometry from cold caches: average_surface plus a 2-sheet
    # export peaked at 3.28 MB traced with per-edge tuples and locations, a
    # frozenset of edges and whole-sheet text; 2.14 MB with node ids, int codes
    # and block writes, pinned here with 15 % to spare
    from lozenge.correlation import hole_context

    hs = HoleSystem((hole("E", 0, 0), hole("W", 32, 0)))
    hole_context.cache_clear()
    tracemalloc.start()
    try:
        export_mesh(average_surface(hs, Window(-12, -52, 44, 20)), 2, str(tmp_path / "s.obj"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_460_000, peak

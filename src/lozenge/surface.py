"""Average lifting surfaces built from exact placement probabilities.

Nodes are integer pairs (A, B), A + B even, sitting at Cartesian
(A*sqrt(3)/2, B/2).  Lattice edges are oriented in the polar directions
pi/2, -pi/6 and -5pi/6; crossing an edge changes the surface height by
(1 - 3p)/sqrt(2), where p is the occupation probability of the lozenge
whose short diagonal is that edge.  Every edge is named by that lozenge's
code (``LozengeLocation.code``).  Holes make the height multivalued
with fiber modulus 3/sqrt(2), so sheets are assembled relative to a
family of cuts running from each hole to the window boundary.
"""

from __future__ import annotations

import math
import os
from collections import deque
from typing import NamedTuple, Sequence

from .correlation import hole_context
from .lattice import (
    CODE_LIMIT,
    LEFT,
    HoleSystem,
    LatticeError,
    LozengeLocation,
    Monomer,
    charge,
    left,
    lozenges_covering,
    pack,
    right,
    to_cartesian,
)

SQRT3_2 = math.sqrt(3.0) / 2.0
FIBER_MODULUS = 3.0 / math.sqrt(2.0)
EXPORT_BLOCK = 1024  # nodes per write of ``export_mesh``

Node = tuple[int, int]

# The oriented steps (polar pi/2, -pi/6, -5pi/6), in edge order, each to the code of the
# lozenge (p + dp, q + dq, direction) whose short diagonal is that step from node (A, B),
# (p, q) = ((A - B) / 2, (A + B) / 2), less the node's code: codes are linear, so that
# lozenge's code is _node_code(A, B) + STEP_CODE[step].
STEP_CODE = {step: LozengeLocation(*loz).code()
             for step, loz in (((0, 2), (0, 0, 1)), ((1, -1), (1, 0, 3)), ((-1, -1), (1, -1, 2)))}


class CutsIntersect(ValueError):
    pass


class WindowTooSmall(ValueError):
    pass


def node_position(node: Node) -> tuple[float, float]:
    A, B = node
    return to_cartesian((A - B) // 2, (A + B) // 2)


def _node_code(a: int, b: int) -> int:
    """The code of node (a, b), direction 0: (p, q) = ((a - b) / 2, (a + b) / 2) packed, times 4."""
    return pack((a - b) // 2, (a + b) // 2) * 4


def step_code(u: Node, v: Node) -> tuple[int, int]:
    """The code of the lozenge whose short diagonal is the lattice step u -> v, and +1 if
    the step follows the lattice orientation or -1 if it runs against it."""
    if max(map(abs, (*u, *v))) > CODE_LIMIT:
        raise LatticeError(f"step {u} -> {v} lies beyond the coordinate bound 2**62")
    if (d := (v[0] - u[0], v[1] - u[1])) in STEP_CODE:
        return _node_code(*u) + STEP_CODE[d], 1
    if (d := (-d[0], -d[1])) in STEP_CODE:
        return _node_code(*v) + STEP_CODE[d], -1
    raise ValueError(f"{u} -> {v} is not a lattice step")


class Window(NamedTuple):
    amin: int
    bmin: int
    amax: int
    bmax: int

    def nodes(self) -> list[Node]:
        return [
            (a, b)
            for a in range(self.amin, self.amax + 1)
            for b in range(self.bmin, self.bmax + 1)
            if (a + b) % 2 == 0
        ]

    def contains(self, node: Node) -> bool:
        return self.amin <= node[0] <= self.amax and self.bmin <= node[1] <= self.bmax


# --- cuts ---------------------------------------------------------------------

# Dual walk going east: repeating pattern of moves between edge-adjacent
# triangles, starting from a right-pointing triangle.  Each move crosses the
# short diagonal of the lozenge its two triangles form:
# E: l(p,q) -> r(p,q) crosses lozenge (p, q, 1);
# NE: r(p,q) -> l(p,q+1) crosses lozenge (p, q+1, 3);
# SE: r(p,q) -> l(p+1,q) crosses lozenge (p+1, q, 2).


def default_cuts(hs: HoleSystem, window: Window) -> frozenset[int]:
    """The codes of the lozenges whose short diagonals eastward dual-path cuts from every
    hole to the window boundary cross.

    Each hole gets a zigzag strip of triangles heading east; the edges
    between consecutive strip triangles are deactivated.  Strips must not
    touch other holes or each other; both zigzag phases are tried before
    giving up.
    """
    blocked = set(hs.triangles())
    cuts: set[int] = set()
    used: set[Monomer] = set()
    east_limit = window.amax

    for tri_hole in hs.tri_holes():
        a, b = tri_hole.a, tri_hole.b
        if tri_hole.kind == "E":
            starts = [right(a, b), right(a, b - 1)]
        else:
            starts = [left(a + 1, b), left(a, b + 1)]
        for start, phase in [(s, ph) for s in starts for ph in (0, 1)]:
            strip, codes = _walk_east(start, east_limit, phase)
            body = strip - {start}
            if body & blocked or body & used:
                continue
            used |= body
            cuts |= codes
            break
        else:
            raise CutsIntersect(f"no clear eastward cut for hole {tri_hole}")
    return frozenset(cuts)


def _walk_east(start: Monomer, east_limit: int, phase: int = 0) -> tuple[set[Monomer], set[int]]:
    tri = start
    strip = {start}
    codes: set[int] = set()
    go_ne = phase == 0
    while tri.a + tri.b <= east_limit + 2:
        p, q = tri.a, tri.b
        if tri.kind == LEFT:
            tri, crossed = right(p, q), LozengeLocation(p, q, 1)
        elif go_ne:
            tri, crossed, go_ne = left(p, q + 1), LozengeLocation(p, q + 1, 3), False
        else:
            tri, crossed, go_ne = left(p + 1, q), LozengeLocation(p + 1, q, 2), True
        codes.add(crossed.code())
        strip.add(tri)
    return strip, codes


# --- sheets -------------------------------------------------------------------


class HeightSheet(NamedTuple):
    """The heights step across every edge between two of their nodes except those
    whose lozenge code is in ``skipped``: the cuts and the lozenges inside a hole."""

    heights: dict[Node, float]  # in the order of ``Window.nodes()``
    residual: float
    skipped: frozenset[int]
    hole_triangles: frozenset[Monomer]


def edge_increment(p: float) -> float:
    """Height change along an oriented edge whose lozenge has occupation probability p."""
    return (1.0 - 3.0 * p) / math.sqrt(2.0)


def average_surface(
    hs: HoleSystem,
    window: Window,
    cuts: frozenset[int] | None = None,
) -> HeightSheet:
    """Single-sheet heights over the window, 0 at its first (southwest) node.

    ``cuts`` are lozenge codes, ``default_cuts`` unless given.  Nodes are
    numbered in the order of the node set, which fixes the order of the edges
    and so the spanning tree and every float height.  Edge 3u + s leaves node
    u along step s of ``STEP_CODE``; neighbours are found on the window grid,
    and heads, increments and heights are held in lists of edges and of nodes.
    """
    hole_tris = hs.triangles()
    for t in hole_tris:
        if not all(window.contains(v) for v in t.vertices()):
            raise WindowTooSmall(f"hole triangle {t} leaves the window")
    if max(map(abs, window)) > CODE_LIMIT:
        raise LatticeError(f"window {tuple(window)} lies beyond the coordinate bound 2**62")
    if cuts is None:
        cuts = default_cuts(hs, window)
    nodes = window.nodes()
    if not nodes:
        raise WindowTooSmall("window contains no lattice nodes")
    amin, bmin, amax, bmax = window
    width = bmax - bmin + 5

    def cell(a: int, b: int) -> int:  # on the window grid, padded by one column and two rows
        return (a - amin + 1) * width + b - bmin + 2

    ids = [-1] * ((amax - amin + 3) * width)  # node id at each cell, -1 off the window
    at = [cell(a, b) for a, b in set(nodes)]  # cell of each node id
    for u, g in enumerate(at):
        ids[g] = u
    basepoint = ids[cell(*nodes[0])]
    del nodes

    # the codes of the edges the sheet does not step across: the cuts and the lozenges inside a hole
    skipped = frozenset(cuts).union(L.code() for t in hole_tris for L in lozenges_covering(t)
                                    if L.triangles() <= hole_tris)
    steps = [(da * width + db, rel) for (da, db), rel in STEP_CODE.items()]
    heads: list[int] = []  # heads[3u + s], or -1 where the sheet has no edge 3u + s
    codes: list[int] = []  # the lozenge code of each edge the sheet has, in edge order
    for g in at:
        a, b = divmod(g, width)
        base = _node_code(a + amin - 1, b + bmin - 2)
        for off, rel in steps:
            v, code = ids[g + off], base + rel
            if v < 0 or code in skipped:
                heads.append(-1)
            else:
                heads.append(v)
                codes.append(code)
    probs = iter(hole_context(hs).batch(codes))
    del codes
    incs = [edge_increment(next(probs)) if v >= 0 else None for v in heads]  # the step along each edge

    z: list[float | None] = [None] * len(at)  # the height of each node id
    z[basepoint] = 0.0
    tree = bytearray(len(heads))  # tree[k] = 1 if edge k joined the BFS tree
    queue = deque([basepoint])
    while queue:
        u = queue.popleft()
        g = at[u]
        # the edges at u in edge order: its own three and those from the nodes one step back
        at_u = [3 * u, 3 * u + 1, 3 * u + 2]
        at_u += [3 * t + s for s, (off, _) in enumerate(steps) if (t := ids[g - off]) >= 0]
        for k in sorted(at_u):
            v = heads[k]
            if v < 0:
                continue
            if k // 3 == u:  # along edge k, or against it
                h = z[u] + incs[k]
            else:
                v, h = k // 3, z[u] - incs[k]
            if z[v] is not None:
                continue
            z[v] = h
            tree[k] = 1
            queue.append(v)

    residual = 0.0
    for k, v in enumerate(heads):
        if v < 0 or tree[k] or z[k // 3] is None or z[v] is None:
            continue
        residual = max(residual, abs(z[v] - z[k // 3] - incs[k]))
    heights = {n: h for n in window.nodes() if (h := z[ids[cell(*n)]]) is not None}
    return HeightSheet(heights, residual, skipped, hole_tris)


def loop_circulation(loop: Sequence[Node], hs: HoleSystem) -> float:
    """Sum of oriented height increments around a node loop."""
    codes, signs = zip(*[step_code(u, v) for u, v in zip(loop, list(loop[1:]) + [loop[0]])])
    total = 0.0
    for sign, p in zip(signs, hole_context(hs).batch(codes)):
        total += sign * edge_increment(p)
    return total


def rectangle_loop(a0: int, b0: int, a1: int, b1: int) -> list[Node]:
    """Counterclockwise rectangle loop with zigzag horizontal runs."""
    if (a0 + b0) % 2:
        raise ValueError("corner must be a lattice node")
    if a1 <= a0 or b1 <= b0 or (a1 - a0) % 2 or (b1 - b0) % 2:
        raise ValueError("corners must differ by positive even amounts")
    loop: list[Node] = []
    a, b = a0, b0
    for i in range(a1 - a0):  # east along the bottom
        loop.append((a, b))
        a, b = a + 1, b + (1 if i % 2 == 0 else -1)
    for _ in range((b1 - b0) // 2):  # north up the east side
        loop.append((a, b))
        b += 2
    for i in range(a1 - a0):  # west along the top
        loop.append((a, b))
        a, b = a - 1, b + (-1 if i % 2 == 0 else 1)
    for _ in range((b1 - b0) // 2):  # south down the west side
        loop.append((a, b))
        b -= 2
    return loop


def enclosed_charge(loop_rect: tuple[int, int, int, int], hs: HoleSystem) -> int:
    a0, b0, a1, b1 = loop_rect
    total = 0
    for t in hs.tri_holes():
        A = t.a + t.b
        B = t.b - t.a + 1  # node row of the central monomer midpoint
        if a0 < A < a1 and b0 < B < b1:
            total += charge(t.triangles())
    return total


# --- comparison with the helicoid sum ----------------------------------------


def helicoid_specs_for_system(hs: HoleSystem, R: float):
    """The helicoid sum of the hole system as placed at scale R.

    The one map from a hole system to helicoids, behind ``surface --compare``:
    each side-2 hole is a unit charge at its anchor (a/R, b/R), E holes
    first, as ``converge`` puts a charge at x on the hole anchored at round(R*x).
    """
    from .continuum import Charge, helicoids

    charges = {"E": [], "W": []}
    for t in hs.tri_holes():
        charges[t.kind].append(Charge(t.a / R, t.b / R))
    return helicoids(charges["E"], charges["W"])


class ComparisonReport(NamedTuple):
    max_abs: float
    mean_abs: float
    grad_max_rel: float | None  # None when no node's limit gradient reaches GRAD_FLOOR


# nodes this close to a helicoid center (in units of R) are skipped: the limit is singular there
EXCLUSION = 0.75
# gradient errors are relative, so nodes where the limit gradient is nearly zero are skipped
GRAD_FLOOR = 0.05


def compare_to_helicoids(sheet: HeightSheet, R: float, specs) -> ComparisonReport:
    """Fiber distance and gradient error against the helicoid sum.

    Heights are compared as fibers modulo 3/sqrt(2) after anchoring a single
    global offset at the first admissible node (the sheet's zero is
    arbitrary, the helicoid sum's is not).
    """
    from .continuum import fiber_distance, helicoid_fiber, helicoid_gradient

    centers = [s.center for s in specs]

    def scaled(node: Node) -> tuple[float, float]:
        x, y = node_position(node)
        return x / R, y / R

    def admissible(xy: tuple[float, float]) -> bool:
        return all(math.hypot(xy[0] - cx, xy[1] - cy) >= EXCLUSION for cx, cy in centers)

    # the admissible nodes in order, each with its scaled position, computed once
    nodes = sorted((n, xy) for n, xy in ((n, scaled(n)) for n in sheet.heights) if admissible(xy))
    if not nodes:
        raise WindowTooSmall("no nodes outside the exclusion disks")

    rep0, modulus = helicoid_fiber(specs, nodes[0][1])
    offset = sheet.heights[nodes[0][0]] - rep0

    total = 0.0
    worst = 0.0
    for n, xy in nodes:
        rep, _ = helicoid_fiber(specs, xy)
        d = fiber_distance(sheet.heights[n] - offset, rep, modulus)
        total += d
        worst = max(worst, d)

    # central-difference gradient vectors at each node against the
    # closed-form limit gradient, relative to its norm
    grads = []
    admitted = {n for n, _ in nodes}
    up_code, se_code = STEP_CODE[0, 2], STEP_CODE[1, -1]
    for n, xy in nodes:
        a, b = n
        up, down = (a, b + 2), (a, b - 2)
        se, nw = (a + 1, b - 1), (a - 1, b + 1)
        stencil = (up, down, se, nw)
        if not admitted.issuperset(stencil):
            continue
        # the edges n -> up, down -> n, n -> se and nw -> n
        code = _node_code(a, b)
        if not sheet.skipped.isdisjoint((code + up_code, _node_code(a, b - 2) + up_code,
                                         code + se_code, _node_code(a - 1, b + 1) + se_code)):
            continue
        h = sheet.heights
        d_up = (h[up] - h[down]) / 2.0 * R
        d_se = (h[se] - h[nw]) / 2.0 * R
        est_y = d_up
        est_x = (d_se + 0.5 * d_up) / SQRT3_2
        gx, gy = helicoid_gradient(specs, xy)
        norm = math.hypot(gx, gy)
        if norm >= GRAD_FLOOR:
            grads.append(math.hypot(est_x - gx, est_y - gy) / norm)
    return ComparisonReport(
        max_abs=worst,
        mean_abs=total / len(nodes),
        grad_max_rel=max(grads, default=None),
    )


# --- mesh export --------------------------------------------------------------


def _wound(t: Monomer) -> tuple[Node, Node, Node]:
    """The corners of a triangle, counterclockwise."""
    v0, v1, apex = t.vertices()
    return (v0, v1, apex) if t.kind == LEFT else (v0, apex, v1)


def export_mesh(sheet: HeightSheet, sheets: int, path: str) -> None:
    """Write the surface as a Wavefront OBJ file, one component per sheet.

    Sheet k is the height sheet raised by k fiber moduli.  ``path`` is first
    resolved past symbolic links, so a link stays a link and its target is
    written.  The text goes to ``<resolved>.tmp`` in blocks of ``EXPORT_BLOCK``
    nodes, so no whole sheet's text or face list is held, and is renamed to
    the resolved path; if writing or renaming fails, the temporary file is
    removed and the error raised.  An error opening the file names ``path``.
    """
    if sheets < 1:
        raise ValueError("need at least one sheet")
    nodes = sorted(sheet.heights)
    n_nodes = len(nodes)
    blocks = [nodes[lo:lo + EXPORT_BLOCK] for lo in range(0, n_nodes, EXPORT_BLOCK)]
    # a node's x depends only on its column and its y only on its row: each is formatted once
    xs = {a: f"{node_position((a, a % 2))[0]:.12f}" for a in {a for a, _ in nodes}}
    ys = {b: f"{node_position((b % 2, b))[1]:.12f}" for b in {b for _, b in nodes}}

    # the index of each node on the grid of their bounding box, padded by one column on
    # each side and two rows above
    amin, amax, bmin, bmax = min(xs), max(xs), min(ys), max(ys)
    width = bmax - bmin + 3

    def cell(a: int, b: int) -> int:
        return (a - amin + 1) * width + b - bmin

    index: list[int | None] = [None] * ((amax - amin + 3) * width)
    for i, n in enumerate(nodes):
        index[cell(*n)] = i

    # the left and right triangles whose vertical edge starts at node (a, b) have the
    # corners of those at the origin moved by (a, b); a face is a triple of corner indices
    shapes = [[cell(a, b) - cell(0, 0) for a, b in _wound(t)] for t in (left(0, 0), right(0, 0))]
    holes = {tuple(index[cell(a, b)] if amin <= a <= amax and bmin <= b <= bmax else None
                   for a, b in _wound(t)) for t in sheet.hole_triangles}

    def faces(block):
        for n in block:
            g = cell(*n)
            for o0, o1, o2 in shapes:
                f = (index[g + o0], index[g + o1], index[g + o2])
                if None not in f and f not in holes:
                    yield f

    heights = sheet.heights
    target = os.path.realpath(path)
    tmp = f"{target}.tmp"
    try:
        fh = open(tmp, "w")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            fh.write("# lozenge average lifting surface\n")
            for k in range(sheets):
                dz = k * FIBER_MODULUS
                for block in blocks:
                    fh.write("".join([f"v {xs[n[0]]} {ys[n[1]]} {heights[n] + dz:.12f}\n"
                                      for n in block]))
            for k in range(sheets):
                base = k * n_nodes + 1
                for block in blocks:
                    fh.write("".join([f"f {base + i} {base + j} {base + l}\n"
                                      for i, j, l in faces(block)]))
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise

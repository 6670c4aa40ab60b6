"""Average lifting surfaces built from exact placement probabilities.

Nodes are integer pairs (A, B), A + B even, sitting at Cartesian
(A*sqrt(3)/2, B/2).  Lattice edges are oriented in the polar directions
pi/2, -pi/6 and -5pi/6; crossing an edge changes the surface height by
(1 - 3p)/sqrt(2), where p is the occupation probability of the lozenge
whose short diagonal is that edge.  Holes make the height multivalued
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
    LEFT,
    HoleSystem,
    LozengeLocation,
    Monomer,
    charge,
    left,
    lozenges_covering,
    right,
    to_cartesian,
)

SQRT3_2 = math.sqrt(3.0) / 2.0
FIBER_MODULUS = 3.0 / math.sqrt(2.0)

Node = tuple[int, int]
Edge = tuple[Node, Node]  # (tail, head) following the lattice orientation

# Oriented steps (polar pi/2, -pi/6, -5pi/6), each to the lozenge (p + dp, q + dq, direction)
# whose short diagonal is that step from node (A, B), (p, q) = ((A - B) / 2, (A + B) / 2).
STEP_LOZENGE = {(0, 2): (0, 0, 1), (1, -1): (1, 0, 3), (-1, -1): (1, -1, 2)}
STEPS = tuple(STEP_LOZENGE)


class CutsIntersect(ValueError):
    pass


class WindowTooSmall(ValueError):
    pass


def node_position(node: Node) -> tuple[float, float]:
    A, B = node
    return to_cartesian((A - B) // 2, (A + B) // 2)


def edge_lozenge(edge: Edge) -> LozengeLocation:
    """Lozenge location whose short diagonal is the given oriented edge."""
    (a, b), (a2, b2) = edge
    step = STEP_LOZENGE.get((a2 - a, b2 - b))
    if step is None:
        raise ValueError(f"not an oriented lattice edge: {edge}")
    dp, dq, direction = step
    return LozengeLocation((a - b) // 2 + dp, (a + b) // 2 + dq, direction)


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
# triangles, starting from a right-pointing triangle.  Each move crosses one
# oriented edge between corners (v0, v1, apex) = t.vertices() of the
# triangle t it leaves:
# E: l(p,q) -> r(p,q) crosses (v0, v1);
# NE: r(p,q) -> l(p,q+1) crosses (v1, apex);
# SE: r(p,q) -> l(p+1,q) crosses (apex, v0).


def default_cuts(hs: HoleSystem, window: Window) -> frozenset[Edge]:
    """The deactivated edges of eastward dual-path cuts from every hole to the window boundary.

    Each hole gets a zigzag strip of triangles heading east; the edges
    between consecutive strip triangles are deactivated.  Strips must not
    touch other holes or each other; both zigzag phases are tried before
    giving up.
    """
    blocked = set(hs.triangles())
    all_edges: set[Edge] = set()
    used: set[Monomer] = set()
    east_limit = window.amax

    for tri_hole in hs.tri_holes():
        a, b = tri_hole.a, tri_hole.b
        if tri_hole.kind == "E":
            starts = [right(a, b), right(a, b - 1)]
        else:
            starts = [left(a + 1, b), left(a, b + 1)]
        for start, phase in [(s, ph) for s in starts for ph in (0, 1)]:
            strip, edges = _walk_east(start, east_limit, phase)
            body = strip - {start}
            if body & blocked or body & used:
                continue
            used |= body
            all_edges |= edges
            break
        else:
            raise CutsIntersect(f"no clear eastward cut for hole {tri_hole}")
    return frozenset(all_edges)


def _walk_east(start: Monomer, east_limit: int, phase: int = 0) -> tuple[set[Monomer], set[Edge]]:
    tri = start
    strip = {start}
    edges: set[Edge] = set()
    go_ne = phase == 0
    while tri.a + tri.b <= east_limit + 2:
        p, q = tri.a, tri.b
        v0, v1, apex = tri.vertices()
        if tri.kind == LEFT:
            tri, edge = right(p, q), (v0, v1)
        elif go_ne:
            tri, edge, go_ne = left(p, q + 1), (v1, apex), False
        else:
            tri, edge, go_ne = left(p + 1, q), (apex, v0), True
        edges.add(edge)
        strip.add(tri)
    return strip, edges


# --- sheets -------------------------------------------------------------------


class HeightSheet(NamedTuple):
    heights: dict[Node, float]
    residual: float
    cuts: frozenset[Edge]
    edges: frozenset[Edge]  # the edges the heights step across: none cut, none inside a hole
    hole_triangles: frozenset[Monomer]


def edge_increment(p: float) -> float:
    """Height change along an oriented edge whose lozenge has occupation probability p."""
    return (1.0 - 3.0 * p) / math.sqrt(2.0)


def average_surface(
    hs: HoleSystem,
    window: Window,
    cuts: frozenset[Edge] | None = None,
) -> HeightSheet:
    """Single-sheet heights over the window, 0 at its first (southwest) node."""
    hole_tris = hs.triangles()
    for t in hole_tris:
        if not all(window.contains(v) for v in t.vertices()):
            raise WindowTooSmall(f"hole triangle {t} leaves the window")
    if cuts is None:
        cuts = default_cuts(hs, window)
    nodes = window.nodes()
    if not nodes:
        raise WindowTooSmall("window contains no lattice nodes")
    # each node in the order of the node set, which fixes the edge indices and so the
    # spanning tree and every float height; the edges share these node tuples
    basepoint, nodes = nodes[0], {n: n for n in set(nodes)}
    # the lozenges inside a hole (both monomers in hole triangles), whose edges the sheet skips
    inside = {L for t in hole_tris for L in lozenges_covering(t) if L.triangles() <= hole_tris}

    # edge k is edges[k]; each node lists the indices of the edges at it
    adjacency: dict[Node, list[int]] = {n: [] for n in nodes}
    edges: list[Edge] = []
    lozenges: list[LozengeLocation] = []
    for n in nodes:
        a, b = n
        p, q = (a - b) // 2, (a + b) // 2
        for (da, db), (dp, dq, direction) in STEP_LOZENGE.items():
            head = nodes.get((a + da, b + db))
            if head is not None:
                e = (n, head)
                L = LozengeLocation(p + dp, q + dq, direction)
                if e not in cuts and L not in inside:
                    k = len(edges)
                    adjacency[n].append(k)
                    adjacency[head].append(k)
                    edges.append(e)
                    lozenges.append(L)

    incs = list(map(edge_increment, hole_context(hs).probabilities(lozenges)))
    del lozenges  # this and ``del adjacency`` free what is no longer read before the sheet grows
    heights: dict[Node, float] = {basepoint: 0.0}
    tree = bytearray(len(edges))  # tree[k] = 1 if edge k joined the BFS tree
    queue = deque([basepoint])
    while queue:
        u = queue.popleft()
        for k in adjacency[u]:
            tail, head = edges[k]
            if tail == u:  # along edge k, or against it
                v, h = head, heights[u] + incs[k]
            else:
                v, h = tail, heights[u] - incs[k]
            if v in heights:
                continue
            heights[v] = h
            tree[k] = 1
            queue.append(v)
    del adjacency

    residual = 0.0
    for (u, v), inc, in_tree in zip(edges, incs, tree):
        if in_tree or u not in heights or v not in heights:
            continue
        residual = max(residual, abs(heights[v] - heights[u] - inc))
    return HeightSheet(
        heights=heights,
        residual=residual,
        cuts=cuts,
        edges=frozenset(edges),
        hole_triangles=hole_tris,
    )


def loop_circulation(loop: Sequence[Node], hs: HoleSystem) -> float:
    """Sum of oriented height increments around a node loop."""
    lozenges, signs = [], []
    for u, v in zip(loop, list(loop[1:]) + [loop[0]]):
        d = (v[0] - u[0], v[1] - u[1])
        if d in STEPS:
            lozenges.append(edge_lozenge((u, v)))
            signs.append(1.0)
        elif (-d[0], -d[1]) in STEPS:
            lozenges.append(edge_lozenge((v, u)))
            signs.append(-1.0)
        else:
            raise ValueError(f"{u} -> {v} is not a lattice step")
    total = 0.0
    for sign, p in zip(signs, hole_context(hs).probabilities(lozenges)):
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
    edges = sheet.edges
    for n, xy in nodes:
        a, b = n
        up, down = (a, b + 2), (a, b - 2)
        se, nw = (a + 1, b - 1), (a - 1, b + 1)
        stencil = (up, down, se, nw)
        if not admitted.issuperset(stencil):
            continue
        if not ((n, up) in edges and (down, n) in edges
                and (n, se) in edges and (nw, n) in edges):
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

    Sheet k is the height sheet raised by k fiber moduli.  The text goes to
    ``<path>.tmp`` and is renamed to ``path``; if writing or renaming fails,
    the temporary file is removed and the error raised.
    """
    if sheets < 1:
        raise ValueError("need at least one sheet")
    nodes = sorted(sheet.heights)
    index = {n: i for i, n in enumerate(nodes)}
    n_nodes = len(nodes)

    # the left and right triangles whose vertical edge starts at node (a, b) have the
    # corners of those at the origin moved by (a, b); a face is a triple of corner indices
    get = index.get
    shapes = [_wound(left(0, 0)), _wound(right(0, 0))]
    holes = {tuple(map(get, _wound(t))) for t in sheet.hole_triangles}
    faces: list[tuple[int, int, int]] = []
    for a, b in nodes:
        for (a0, b0), (a1, b1), (a2, b2) in shapes:
            f = (get((a + a0, b + b0)), get((a + a1, b + b1)), get((a + a2, b + b2)))
            if None not in f and f not in holes:
                faces.append(f)

    xys = [f"v {x:.12f} {y:.12f} " for x, y in map(node_position, nodes)]  # shared by every sheet
    heights = [sheet.heights[n] for n in nodes]
    tmp = f"{path}.tmp"
    fh = open(tmp, "w")
    try:
        with fh:  # one write per block: no copy of the whole text
            fh.write("# lozenge average lifting surface\n")
            for k in range(sheets):
                dz = k * FIBER_MODULUS
                fh.write("".join([f"{xy}{h + dz:.12f}\n" for xy, h in zip(xys, heights)]))
            for k in range(sheets):
                base = k * n_nodes + 1
                fh.write("".join([f"f {base + i} {base + j} {base + l}\n" for i, j, l in faces]))
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise

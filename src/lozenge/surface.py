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
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from .correlation import occupation_probabilities, occupation_probability
from .lattice import (
    HoleSystem,
    LozengeLocation,
    Monomer,
    left,
    right,
)

SQRT3_2 = math.sqrt(3.0) / 2.0
FIBER_MODULUS = 3.0 / math.sqrt(2.0)

Node = tuple[int, int]
Edge = tuple[Node, Node]  # (tail, head) following the lattice orientation

# Oriented steps: polar pi/2, -pi/6, -5pi/6.
STEPS = ((0, 2), (1, -1), (-1, -1))


class CutsIntersect(ValueError):
    pass


class WindowTooSmall(ValueError):
    pass


def node_position(node: Node) -> tuple[float, float]:
    return (node[0] * SQRT3_2, node[1] / 2.0)


def edge_lozenge(edge: Edge) -> LozengeLocation:
    """Lozenge location whose short diagonal is the given oriented edge."""
    (a, b), (a2, b2) = edge
    da, db = a2 - a, b2 - b
    if (da, db) == (0, 2):
        return LozengeLocation((a - b) // 2, (a + b) // 2, 1)
    if (da, db) == (1, -1):
        return LozengeLocation((a - b + 2) // 2, (a + b) // 2, 3)
    if (da, db) == (-1, -1):
        return LozengeLocation((a - b + 2) // 2, (a + b - 2) // 2, 2)
    raise ValueError(f"not an oriented lattice edge: {edge}")


@dataclass(frozen=True)
class Window:
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

    def southwest(self) -> Node:
        for a in range(self.amin, self.amax + 1):
            for b in range(self.bmin, self.bmax + 1):
                if (a + b) % 2 == 0:
                    return (a, b)
        raise WindowTooSmall("window contains no lattice nodes")


# --- cuts ---------------------------------------------------------------------

# Dual walk going east: repeating pattern of moves between edge-adjacent
# triangles, starting from a right-pointing triangle.
# NE: r(p,q) -> l(p,q+1); E: l(p,q) -> r(p,q); SE: r(p,q) -> l(p+1,q).


def _neighbor(tri: Monomer, move: str) -> Monomer:
    p, q = tri.a, tri.b
    if tri.kind == "R":
        if move == "NE":
            return left(p, q + 1)
        if move == "SE":
            return left(p + 1, q)
        if move == "W":
            return left(p, q)
    else:
        if move == "E":
            return right(p, q)
    raise ValueError(f"bad move {move} from {tri}")


def _shared_edge(t1: Monomer, t2: Monomer) -> Edge:
    shared = set(t1.vertices()) & set(t2.vertices())
    if len(shared) != 2:
        raise ValueError(f"triangles {t1}, {t2} share no edge")
    u, v = sorted(shared)
    du, dv = v[0] - u[0], v[1] - u[1]
    if (du, dv) in STEPS:
        return (u, v)
    return (v, u)


@dataclass(frozen=True)
class CutFamily:
    """Per-hole chains of deactivated edges plus the triangles they cross."""

    edges: frozenset[Edge]
    strips: tuple[frozenset[Monomer], ...] = ()


def default_cuts(hs: HoleSystem, window: Window) -> CutFamily:
    """Eastward dual-path cuts from every hole to the window boundary.

    Each hole gets a zigzag strip of triangles heading east; the edges
    between consecutive strip triangles are deactivated.  Strips must not
    touch other holes or each other; both zigzag phases are tried before
    giving up.
    """
    blocked = set(hs.triangles())
    all_edges: set[Edge] = set()
    strips: list[frozenset[Monomer]] = []
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
            strips.append(frozenset(strip))
            used |= body
            all_edges |= edges
            break
        else:
            raise CutsIntersect(f"no clear eastward cut for hole {tri_hole}")
    return CutFamily(edges=frozenset(all_edges), strips=tuple(strips))


def _walk_east(start: Monomer, east_limit: int, phase: int = 0) -> tuple[set[Monomer], set[Edge]]:
    tri = start
    strip = {start}
    edges: set[Edge] = set()
    go_ne = phase == 0
    while tri.a + tri.b <= east_limit + 2:
        if tri.kind == "L":
            nxt = _neighbor(tri, "E")
        else:
            nxt = _neighbor(tri, "NE" if go_ne else "SE")
            go_ne = not go_ne
        edges.add(_shared_edge(tri, nxt))
        strip.add(nxt)
        tri = nxt
    return strip, edges


# --- sheets -------------------------------------------------------------------


@dataclass
class HeightSheet:
    window: Window
    heights: dict[Node, float]
    residual: float
    cuts: CutFamily
    basepoint: Node
    increments: dict[Edge, float] = field(default_factory=dict)
    hole_triangles: frozenset[Monomer] = frozenset()


def edge_increment(edge: Edge, hs: HoleSystem, _cache: dict | None = None) -> float:
    """Height change along an oriented edge: (1 - 3p)/sqrt(2).

    ``_cache`` maps lozenges to occupation probabilities already known; a
    missing one is computed and added.
    """
    loz = edge_lozenge(edge)
    if _cache is not None and loz in _cache:
        p = _cache[loz]
    else:
        p = occupation_probability(loz, hs)
        if _cache is not None:
            _cache[loz] = p
    return (1.0 - 3.0 * p) / math.sqrt(2.0)


def _edge_usable(edge: Edge, hole_triangles: frozenset, cuts: CutFamily) -> bool:
    if edge in cuts.edges:
        return False
    # unusable if the flanking lozenge lies entirely inside a hole
    tris = edge_lozenge(edge).triangles()
    return not tris <= hole_triangles


def average_surface(
    hs: HoleSystem,
    window: Window,
    cuts: CutFamily | None = None,
    basepoint: Node | None = None,
) -> HeightSheet:
    """Single-sheet heights over the window, anchored at the basepoint."""
    for t in hs.triangles():
        if not all(window.contains(v) for v in t.vertices()):
            raise WindowTooSmall(f"hole triangle {t} leaves the window")
    if cuts is None:
        cuts = default_cuts(hs, window)
    if basepoint is None:
        basepoint = window.southwest()

    hole_tris = hs.triangles()
    nodes = set(window.nodes())
    if basepoint not in nodes:
        raise WindowTooSmall("basepoint outside the window")

    adjacency: dict[Node, list[tuple[Node, Edge, int]]] = {n: [] for n in nodes}
    edges: list[Edge] = []
    for n in nodes:
        for da, db in STEPS:
            head = (n[0] + da, n[1] + db)
            if head in nodes:
                e = (n, head)
                if _edge_usable(e, hole_tris, cuts):
                    edges.append(e)
                    adjacency[n].append((head, e, +1))
                    adjacency[head].append((n, e, -1))

    # one batch over every edge; edge_lozenge is one to one, so each edge's
    # probability is found in it
    lozenges = [edge_lozenge(e) for e in edges]
    probs = dict(zip(lozenges, occupation_probabilities(lozenges, hs)))
    incs = {e: edge_increment(e, hs, probs) for e in edges}
    heights: dict[Node, float] = {basepoint: 0.0}
    tree_edges: set[Edge] = set()
    queue = deque([basepoint])
    while queue:
        u = queue.popleft()
        for v, e, sgn in adjacency[u]:
            if v in heights:
                continue
            heights[v] = heights[u] + sgn * incs[e]
            tree_edges.add(e)
            queue.append(v)

    residual = 0.0
    for e in edges:
        if e in tree_edges:
            continue
        u, v = e
        if u not in heights or v not in heights:
            continue
        residual = max(residual, abs(heights[v] - heights[u] - incs[e]))
    return HeightSheet(
        window=window,
        heights=heights,
        residual=residual,
        cuts=cuts,
        basepoint=basepoint,
        increments=incs,
        hole_triangles=hole_tris,
    )


def loop_circulation(loop: Sequence[Node], hs: HoleSystem) -> float:
    """Sum of oriented height increments around a node loop."""
    total = 0.0
    cache: dict[LozengeLocation, float] = {}
    for u, v in zip(loop, list(loop[1:]) + [loop[0]]):
        d = (v[0] - u[0], v[1] - u[1])
        if d in STEPS:
            total += edge_increment((u, v), hs, cache)
        elif (-d[0], -d[1]) in STEPS:
            total -= edge_increment((v, u), hs, cache)
        else:
            raise ValueError(f"{u} -> {v} is not a lattice step")
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
            total += t.charge
    return total


# --- comparison with the helicoid sum ----------------------------------------


def helicoid_specs_for_system(hs: HoleSystem, R: float):
    """Helicoid sum matched to the hole system as placed at scale R.

    Centers sit at the geometric centroids of the side-2 holes (these
    converge to the limit positions but remove an O(1/R) bias from
    finite-scale comparisons); pitches are -3s/(sqrt(2)pi) per unit of
    positive charge weight and the mirror image for negative.
    """
    from .continuum import HelicoidSpec

    specs = []
    for t in hs.tri_holes():
        A, B = t.a + t.b, t.b - t.a
        off = -math.sqrt(3) / 6.0 if t.kind == "E" else math.sqrt(3) / 6.0
        center = ((A * SQRT3_2 + off) / R, ((B + 1) / 2.0) / R)
        pitch = (-3.0 if t.kind == "E" else 3.0) / (math.sqrt(2.0) * math.pi)
        specs.append(HelicoidSpec(center=center, pitch=pitch, refinement=2))
    return specs


@dataclass
class ComparisonReport:
    max_abs: float
    mean_abs: float
    grad_max_rel: float
    samples: int


def compare_to_helicoids(
    sheet: HeightSheet,
    R: float,
    specs,
    exclusion: float = 0.75,
    grad_floor: float = 0.05,
) -> ComparisonReport:
    """Fiber distance and gradient error against the helicoid sum.

    Heights are compared as fibers modulo 3/sqrt(2) after anchoring a single
    global offset at the first admissible node (the sheet basepoint is
    arbitrary, the helicoid sum is not).
    """
    from .continuum import fiber_distance, helicoid_fiber, helicoid_gradient

    centers = [s.center for s in specs]

    def admissible(node: Node) -> bool:
        x, y = node_position(node)
        return all(
            math.hypot(x / R - cx, y / R - cy) >= exclusion for cx, cy in centers
        )

    nodes = sorted(n for n in sheet.heights if admissible(n))
    if not nodes:
        raise WindowTooSmall("no nodes outside the exclusion disks")

    def rep_at(node: Node) -> tuple[float, float]:
        x, y = node_position(node)
        return helicoid_fiber(specs, (x / R, y / R))

    rep0, modulus = rep_at(nodes[0])
    offset = sheet.heights[nodes[0]] - rep0

    total = 0.0
    worst = 0.0
    for n in nodes:
        rep, _ = rep_at(n)
        d = fiber_distance(sheet.heights[n] - offset, rep, modulus)
        total += d
        worst = max(worst, d)

    # central-difference gradient vectors at each node against the
    # closed-form limit gradient, relative to its norm
    grad_worst = 0.0
    node_set = set(sheet.heights)
    incs = sheet.increments
    for n in nodes:
        a, b = n
        up, down = (a, b + 2), (a, b - 2)
        se, nw = (a + 1, b - 1), (a - 1, b + 1)
        stencil = (up, down, se, nw)
        if not all(m in node_set and admissible(m) for m in stencil):
            continue
        if not ((n, up) in incs and (down, n) in incs
                and (n, se) in incs and (nw, n) in incs):
            continue
        h = sheet.heights
        d_up = (h[up] - h[down]) / 2.0 * R
        d_se = (h[se] - h[nw]) / 2.0 * R
        est_y = d_up
        est_x = (d_se + 0.5 * d_up) / SQRT3_2
        x, y = node_position(n)
        gx, gy = helicoid_gradient(specs, (x / R, y / R))
        norm = math.hypot(gx, gy)
        if norm >= grad_floor:
            grad_worst = max(
                grad_worst, math.hypot(est_x - gx, est_y - gy) / norm
            )
    return ComparisonReport(
        max_abs=worst,
        mean_abs=total / len(nodes),
        grad_max_rel=grad_worst,
        samples=len(nodes),
    )


# --- mesh export --------------------------------------------------------------


def export_mesh(sheet: HeightSheet, sheets: int, path: str) -> None:
    """Write the surface as a Wavefront OBJ file, one component per sheet.

    Sheet k is the height sheet raised by k fiber moduli.
    """
    if sheets < 1:
        raise ValueError("need at least one sheet")
    nodes = sorted(sheet.heights)
    index = {n: i for i, n in enumerate(nodes)}
    n_nodes = len(nodes)

    faces: list[tuple[int, int, int]] = []
    node_set = set(nodes)
    holes = sheet.hole_triangles
    for a, b in nodes:
        p, q = (a - b) // 2, (a + b) // 2
        # left- and right-pointing triangles with vertical edge (a,b)-(a,b+2)
        if (a, b + 2) in node_set and (a - 1, b + 1) in node_set:
            if left(p, q) not in holes:
                faces.append((index[(a, b)], index[(a, b + 2)], index[(a - 1, b + 1)]))
        if (a, b + 2) in node_set and (a + 1, b + 1) in node_set:
            if right(p, q) not in holes:
                faces.append((index[(a, b)], index[(a + 1, b + 1)], index[(a, b + 2)]))

    lines = ["# lozenge average lifting surface"]
    for k in range(sheets):
        dz = k * FIBER_MODULUS
        for n in nodes:
            x, y = node_position(n)
            z = sheet.heights[n] + dz
            lines.append(f"v {x:.12f} {y:.12f} {z:.12f}")
    for k in range(sheets):
        base = k * n_nodes + 1
        for i, j, l in faces:
            lines.append(f"f {base + i} {base + j} {base + l}")
    text = "\n".join(lines) + "\n"
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    import os

    os.replace(tmp, path)

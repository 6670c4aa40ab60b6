"""Independent tiling-count oracles: brute force, planar Kasteleyn, tori.

These never feed production outputs; they exist to validate the
determinant formulas from the outside.  Lozenge tilings of a region are
perfect matchings of its triangle-adjacency graph, counted three ways:

* recursive matching with forced-move pivoting (small regions);
* an exactly signed biadjacency determinant for planar regions, with the
  edge signs solved face by face from the embedding;
* four twisted determinants for rhombic tori, with the sign combination
  pinned against brute force at small sizes.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .lattice import (
    LEFT,
    RIGHT,
    HoleSystem,
    LozengeLocation,
    Monomer,
    left,
    right,
)


class HoleTooLarge(ValueError):
    pass


class ZeroDenominator(ZeroDivisionError):
    pass


BRUTE_FORCE_LIMIT = 40


@dataclass(frozen=True)
class Region:
    triangles: frozenset[Monomer]

    def __post_init__(self):
        object.__setattr__(self, "triangles", frozenset(self.triangles))

    def remove(self, stuff: Iterable[Monomer] | LozengeLocation | HoleSystem) -> "Region":
        if isinstance(stuff, LozengeLocation):
            gone = stuff.triangles()
        elif isinstance(stuff, HoleSystem):
            gone = stuff.triangles()
        else:
            gone = frozenset(stuff)
        if not gone <= self.triangles:
            raise HoleTooLarge("removed triangles are not inside the region")
        return Region(self.triangles - gone)

    def __len__(self) -> int:
        return len(self.triangles)

    def balanced(self) -> bool:
        rights = sum(1 for t in self.triangles if t.kind == RIGHT)
        return 2 * rights == len(self.triangles)


def _partners(m: Monomer) -> tuple[Monomer, ...]:
    a, b = m.a, m.b
    if m.kind == RIGHT:
        return (left(a, b), left(a + 1, b), left(a, b + 1))
    return (right(a, b), right(a - 1, b), right(a, b - 1))


def hexagon(a: int, b: int, c: int) -> Region:
    """Semiregular hexagon with side lengths a, b, c, roughly centered."""
    if min(a, b, c) < 1:
        raise ValueError("side lengths must be positive")
    n0 = (-(a + b) // 2, -((-a + b + 2 * c) // 2))
    if sum(n0) % 2:
        n0 = (n0[0] + 1, n0[1])
    steps = [(a, (1, -1)), (b, (1, 1)), (c, (0, 2)), (a, (-1, 1)), (b, (-1, -1)), (c, (0, -2))]
    verts = [n0]
    for count, (da, db) in steps:
        for _ in range(count):
            verts.append((verts[-1][0] + da, verts[-1][1] + db))
    verts.pop()  # closed polygon

    sides = []
    pos = n0
    for count, d in steps:
        sides.append((pos, d))
        pos = (pos[0] + count * d[0], pos[1] + count * d[1])

    def inside(node: tuple[int, int]) -> bool:
        for (vx, vy), (dx, dy) in sides:
            cross = dx * (node[1] - vy) - dy * (node[0] - vx)
            if cross < 0:
                return False
        return True

    amin = min(v[0] for v in verts)
    amax = max(v[0] for v in verts)
    bmin = min(v[1] for v in verts)
    bmax = max(v[1] for v in verts)
    tris: set[Monomer] = set()
    for A in range(amin - 1, amax + 2):
        for B in range(bmin - 1, bmax + 2):
            if (A + B) % 2:
                continue
            p, q = (A - B) // 2, (A + B) // 2
            for mk in (left, right):
                t = mk(p, q)
                if all(inside(v) for v in t.vertices()):
                    tris.add(t)
    return Region(frozenset(tris))


def macmahon(a: int, b: int, c: int) -> int:
    """Product-formula count for the hexagon, used as a cross-check."""
    num = den = 1
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                num *= i + j + k - 1
                den *= i + j + k - 2
    return num // den


def count_tilings_brute(region: Region) -> int:
    """Exhaustive matching count with most-constrained-first pivoting."""
    tris = set(region.triangles)
    if len(tris) % 2 or not region.balanced():
        return 0

    def rec(remaining: set[Monomer]) -> int:
        if not remaining:
            return 1
        best, best_opts = None, None
        for t in remaining:
            opts = [p for p in _partners(t) if p in remaining]
            if not opts:
                return 0
            if best is None or len(opts) < len(best_opts):
                best, best_opts = t, opts
                if len(opts) == 1:
                    break
        total = 0
        remaining.discard(best)
        for p in best_opts:
            remaining.discard(p)
            total += rec(remaining)
            remaining.add(p)
        remaining.add(best)
        return total

    return rec(tris)


# --- planar Kasteleyn ---------------------------------------------------------


def _embedded_graph(region: Region):
    """Vertices, neighbor rotation orders (counterclockwise), and positions."""
    tris = region.triangles
    pos = {}
    for t in tris:
        vs = t.vertices()
        pos[t] = (
            sum(v[0] for v in vs) / 3.0 * math.sqrt(3.0) / 2.0,
            sum(v[1] for v in vs) / 3.0 / 2.0,
        )
    adj = {}
    for t in tris:
        nbrs = [p for p in _partners(t) if p in tris]
        nbrs.sort(
            key=lambda p: math.atan2(pos[p][1] - pos[t][1], pos[p][0] - pos[t][0])
        )
        adj[t] = nbrs
    return adj, pos


def _canon(u: Monomer, v: Monomer) -> tuple[Monomer, Monomer]:
    """An undirected edge keyed by its (right, left) dart."""
    return (u, v) if u.kind == RIGHT else (v, u)


def _faces(adj, darts) -> list[list[tuple[Monomer, Monomer]]]:
    """Faces as dart cycles, via next-edge-counterclockwise walking.

    Walks start from the darts in the order given, so the caller fixes the
    face numbering.
    """
    visited = set()
    faces = []
    for start in darts:
        if start in visited:
            continue
        cycle = []
        d = start
        while d not in visited:
            visited.add(d)
            cycle.append(d)
            u, v = d
            # next dart: reverse of the edge after (v->u) clockwise around v
            nbrs = adj[v]
            i = nbrs.index(u)
            d = (v, nbrs[(i - 1) % len(nbrs)])
        faces.append(cycle)
    return faces


def _face_defect(cycle, sign) -> int:
    """1 when the face's count of minus signs has the wrong parity."""
    k = len(cycle) // 2
    minus = sum(1 for d in cycle if sign[_canon(*d)] < 0)
    return (minus + k + 1) % 2


def _fix_face_parity(faces, root: int) -> dict[tuple[Monomer, Monomer], int]:
    """Edge signs satisfying the parity condition on every face but the root.

    Spanning-tree method on the dual: a BFS tree of faces rooted at
    ``root``; faces are fixed deepest first, each by flipping only the edge
    it shares with its parent.  Signs are keyed by ``_canon`` edges.
    """
    edge_faces: dict[tuple, set[int]] = {}
    for idx, cycle in enumerate(faces):
        for d in cycle:
            edge_faces.setdefault(_canon(*d), set()).add(idx)
    sign = {e: 1 for e in edge_faces}

    parent_edge: dict[int, tuple] = {}
    depth = {root: 0}
    queue = deque([root])
    order: list[int] = []
    while queue:
        f = queue.popleft()
        for d in faces[f]:
            e = _canon(*d)
            for g in edge_faces[e]:
                if g not in depth:
                    depth[g] = depth[f] + 1
                    parent_edge[g] = e
                    queue.append(g)
                    order.append(g)
    if len(depth) != len(faces):
        raise ArithmeticError("face graph is disconnected")

    for f in reversed(order):  # deepest first; only the parent edge moves
        if _face_defect(faces[f], sign):
            e = parent_edge[f]
            sign[e] = -sign[e]
    if any(f != root and _face_defect(faces[f], sign) for f in range(len(faces))):
        raise ArithmeticError("face parity conditions are unsatisfied")
    return sign


def _solved_signs(adj, pos):
    """Edge signs of a connected planar component, rooted at its outer face.

    The outer face is the one of least signed area (it runs clockwise).
    """
    darts = sorted(
        ((u, v) for u in adj for v in adj[u]), key=lambda d: (pos[d[0]], pos[d[1]])
    )
    faces = _faces(adj, darts)

    def area(cycle) -> float:
        pts = [pos[u] for u, _ in cycle]
        total = 0.0
        for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
            total += x1 * y2 - x2 * y1
        return total / 2.0

    outer = min(range(len(faces)), key=lambda i: area(faces[i]))
    return _fix_face_parity(faces, outer)


def _signed_components(region: Region):
    """Signed biadjacency matrices of the region's connected components.

    Each component gives ``(n, [(i, j, sign)])``: row i is its i-th right-
    and column j its j-th left-pointing triangle in sorted order.  Returns
    None when some component is unbalanced, so the region has no tilings.
    """
    adj, pos = _embedded_graph(region)
    comps = []
    seen: set[Monomer] = set()
    for t in sorted(region.triangles):
        if t in seen:
            continue
        comp = {t}
        stack = [t]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        if not Region(frozenset(comp)).balanced():
            return None
        rights = sorted(x for x in comp if x.kind == RIGHT)
        lefts = sorted(x for x in comp if x.kind == LEFT)
        signs = _solved_signs({x: adj[x] for x in comp}, pos)
        li = {x: i for i, x in enumerate(lefts)}
        entries = [(i, li[v], signs[(r, v)]) for i, r in enumerate(rights) for v in adj[r]]
        comps.append((len(rights), entries))
    return comps


def count_tilings_kasteleyn(region: Region) -> int:
    """Exact signed-determinant count for a planar region."""
    if len(region) % 2 or not region.balanced():
        return 0
    comps = _signed_components(region)
    if comps is None:
        return 0
    total = 1
    for n, entries in comps:
        mat = [[0] * n for _ in range(n)]
        for i, j, s in entries:
            mat[i][j] = s
        total *= abs(_int_det(mat))
    return total


def _int_det(mat: list[list[int]]) -> int:
    """Fraction-free integer determinant (Bareiss).

    Deliberately separate from ``exact.det_exact``: the oracle shares no
    arithmetic with the code it checks.
    """
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    # a row left alone since its last update, when the pivot was q[i], owes
    # the factor prev/q[i]: idle rows are rescaled only when next used
    q = [1] * n
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    q[k], q[i] = q[i], q[k]
                    sign = -sign
                    break
            else:
                return 0
        row = m[k]
        if q[k] != prev:
            row[k:] = [x * prev // q[k] for x in row[k:]]
        pivot, tail = row[k], row[k + 1:]
        for i in range(k + 1, n):
            a = m[i][k]
            if a:
                qi = q[i]
                m[i][k + 1:] = [(x * pivot - a * y) // qi for x, y in zip(m[i][k + 1:], tail)]
                q[i] = pivot
        prev = pivot
    return sign * (m[n - 1][n - 1] * prev // q[n - 1])


def count_tilings(region: Region) -> int:
    """Exact tiling count; brute force for small regions, determinant beyond."""
    if len(region) <= BRUTE_FORCE_LIMIT:
        return count_tilings_brute(region)
    return count_tilings_kasteleyn(region)


def log_count_tilings(region: Region) -> tuple[int, float]:
    """(sign, log|count|) via floating LU; for regions too large to do exactly."""
    import numpy as np

    if len(region) % 2 or not region.balanced():
        return (0, -math.inf)
    comps = _signed_components(region)
    if comps is None:
        return (0, -math.inf)
    comps_sign = 1
    total_log = 0.0
    for n, entries in comps:
        mat = np.zeros((n, n))
        for i, j, s in entries:
            mat[i][j] = s
        sgn, logdet = np.linalg.slogdet(mat)
        if sgn == 0:
            return (0, -math.inf)
        comps_sign *= int(round(sgn))
        total_log += float(logdet)
    return (comps_sign, total_log)


# --- tori ---------------------------------------------------------------------


@dataclass(frozen=True)
class TorusSpec:
    n: int
    holes: HoleSystem = HoleSystem(())


def _torus_triangles(spec: TorusSpec) -> tuple[set[Monomer], set[Monomer]]:
    n = spec.n
    removed: set[Monomer] = set()
    for t in spec.holes.triangles():
        wrapped = Monomer(t.kind, t.a % n, t.b % n)
        if wrapped in removed:
            raise HoleTooLarge("hole triangles collide on the torus")
        removed.add(wrapped)
    rights = {right(a, b) for a in range(n) for b in range(n)} - removed
    lefts = {left(a, b) for a in range(n) for b in range(n)} - removed
    return rights, lefts


def torus_count_brute(spec: TorusSpec) -> int:
    """Memoized matching count on the torus; practical for n <= 4."""
    n = spec.n
    rights, lefts = _torus_triangles(spec)
    if len(rights) != len(lefts):
        return 0
    order = sorted(rights)
    left_ids = {l: i for i, l in enumerate(sorted(lefts))}

    from functools import lru_cache

    partner_ids = []
    for r in order:
        ids = []
        for l in (left(r.a, r.b), left((r.a + 1) % n, r.b), left(r.a, (r.b + 1) % n)):
            if l in left_ids:
                ids.append(left_ids[l])
        partner_ids.append(tuple(ids))

    @lru_cache(maxsize=None)
    def rec(idx: int, used: int) -> int:
        if idx == len(order):
            return 1
        total = 0
        for i in partner_ids[idx]:
            bit = 1 << i
            if not used & bit:
                total += rec(idx + 1, used | bit)
        return total

    result = rec(0, 0)
    rec.cache_clear()
    return result


def _torus_faces_and_signs(spec: TorusSpec):
    """Base edge signs making every disc face of the torus graph satisfy
    the parity condition; homology twists remain for the four determinants.

    Combinatorial rotation orders (counterclockwise):
      around r(a,b): l(a+1,b), l(a,b+1), l(a,b)
      around l(a,b): r(a,b-1), r(a,b), r(a-1,b)
    """
    n = spec.n
    rights, lefts = _torus_triangles(spec)

    def rot(t: Monomer):
        a, b = t.a, t.b
        if t.kind == RIGHT:
            cand = (left((a + 1) % n, b), left(a, (b + 1) % n), left(a, b))
            pool = lefts
        else:
            cand = (right(a, (b - 1) % n), right(a, b), right((a - 1) % n, b))
            pool = rights
        return [c for c in cand if c in pool]

    adj = {t: rot(t) for t in rights | lefts}
    faces = _faces(adj, sorted((u, v) for u in adj for v in adj[u]))
    sign = _fix_face_parity(faces, 0)
    if _face_defect(faces[0], sign):
        raise ArithmeticError("torus face parity conditions are inconsistent")
    return faces, sign


def torus_count_kasteleyn(spec: TorusSpec) -> int:
    """Exact torus count via four boundary-twisted determinants.

    With all disc faces satisfying the parity condition, determinant
    contributions are constant on each homology class mod 2, so the count
    is the sum of absolute class projections of the four determinants.
    """
    n = spec.n
    if n < 2:
        raise HoleTooLarge("torus side must be at least 2")
    rights, lefts = _torus_triangles(spec)
    if len(rights) != len(lefts):
        return 0
    _, sign = _torus_faces_and_signs(spec)
    order = sorted(rights)
    left_ids = {l: i for i, l in enumerate(sorted(lefts))}

    dets = []
    for theta, phi in ((0, 0), (0, 1), (1, 0), (1, 1)):
        mat = [[0] * len(order) for _ in range(len(order))]
        for i, r in enumerate(order):
            for da, db in ((0, 0), (1, 0), (0, 1)):
                a2, b2 = r.a + da, r.b + db
                l = left(a2 % n, b2 % n)
                if l not in left_ids:
                    continue
                w = sign[(r, l)]
                if a2 >= n and theta:
                    w = -w
                if b2 >= n and phi:
                    w = -w
                mat[i][left_ids[l]] += w
        dets.append(_int_det(mat))
    d00, d01, d10, d11 = dets
    projections = (
        d00 + d01 + d10 + d11,
        d00 - d01 + d10 - d11,
        d00 + d01 - d10 - d11,
        d00 - d01 - d10 + d11,
    )
    if any(p % 4 for p in projections):
        raise ArithmeticError("homology class projections are not integral")
    return sum(abs(p) // 4 for p in projections)


def torus_count(spec: TorusSpec) -> int:
    if spec.n <= 4:
        return torus_count_brute(spec)
    return torus_count_kasteleyn(spec)


def oracle_probability(L: LozengeLocation, region: Region) -> Fraction:
    """Exact occupation probability of a lozenge inside a finite region."""
    den = count_tilings(region)
    if den == 0:
        raise ZeroDenominator("region has no tilings")
    num = count_tilings(region.remove(L))
    return Fraction(num, den)


def oracle_probability_float(L: LozengeLocation, region: Region) -> float:
    """Float occupation probability via log-determinants (large regions)."""
    s1, l1 = log_count_tilings(region.remove(L))
    s2, l2 = log_count_tilings(region)
    if s2 == 0:
        raise ZeroDenominator("region has no tilings")
    if s1 == 0:
        return 0.0
    return (s1 * s2) * math.exp(l1 - l2)

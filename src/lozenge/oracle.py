"""Independent tiling-count oracles: brute force, planar Kasteleyn, tori.

They check the determinant formulas from outside.  Tilings are perfect
matchings of the triangle-adjacency graph.  A planar region's count is
|det K|, K its one signed biadjacency matrix (rights by lefts), with edge
signs solved face by face in each connected component, which has its own
outer face; K of several components is a permuted block-diagonal matrix,
so one determinant multiplies theirs, and is 0 when one is unbalanced.  A
rhombic torus's count (``torus_count``) sums four boundary-twisted
determinants.  ``_matchings`` is the tests' brute-force reference.

A lozenge's probability in a planar region is count(region - lozenge) /
count(region), both from one signing of the region (Kenyon, *Local
statistics of lattice dimers*, 1997): the terms of the signed determinant
share one sign, and those holding the edge (r, l) sum to K(r,l) times the
minor without row r and column l, so that minor counts the region minus
the lozenge, even if that cuts it apart.  ``SignedRegion.matrix_of``
assembles K or that minor.

Plane and torus share one index graph (``_index``: triangles in
``sorted()`` order, lefts then rights: columns, then rows), one face walk
and one parity fix, which builds its dual tree only when a bounded face is
defective under all-plus signs.  In that order a planar matrix is banded;
``_int_det`` (Bareiss) takes its (row, col, sign) entries as signed and
keeps rows as dicts.  ``log_count_tilings`` fills a Fortran-ordered
matrix, the layout ``slogdet`` hands LAPACK, in a private, lazily zeroed
anonymous mapping: only the pages that hold its band become resident,
where numpy's ``zeros`` asks for huge pages and each entry would bring in
2 MB.  The probabilities remove the lozenge, check the balance, then sign.
"""

from __future__ import annotations

import math
import mmap
from bisect import bisect_left
from collections import deque
from fractions import Fraction
from typing import Iterable, NamedTuple

from .lattice import LEFT, RIGHT, HoleSystem, LozengeLocation, Monomer, ZeroDenominator, charge


class HoleTooLarge(ValueError):
    pass


class Region:
    """A planar region as its set of unit triangles (not a tuple: its length is that set's)."""

    __slots__ = ("triangles",)

    def __init__(self, triangles: Iterable[Monomer]):
        self.triangles = frozenset(triangles)

    def __eq__(self, other):
        return self.triangles == other.triangles if isinstance(other, Region) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.triangles)

    def remove(self, stuff: Iterable[Monomer] | LozengeLocation | HoleSystem) -> "Region":
        shape = isinstance(stuff, (LozengeLocation, HoleSystem))
        gone = stuff.triangles() if shape else frozenset(stuff)
        if not gone <= self.triangles:
            raise HoleTooLarge("removed triangles are not inside the region")
        return Region(self.triangles - gone)

    def __len__(self) -> int:
        return len(self.triangles)

    def balanced(self) -> bool:
        return charge(self.triangles) == 0


# each kind's neighbour offsets (kind, da, db) in _partners' rotation order
_ROTATION = {
    RIGHT: ((LEFT, 1, 0), (LEFT, 0, 1), (LEFT, 0, 0)),
    LEFT: ((RIGHT, 0, -1), (RIGHT, 0, 0), (RIGHT, -1, 0)),
}


def _partners(m: Monomer) -> tuple[Monomer, ...]:
    """The three neighbours of a triangle in counterclockwise rotation order.

    Around r(a,b): l(a+1,b), l(a,b+1), l(a,b); around l(a,b): r(a,b-1),
    r(a,b), r(a-1,b).  Each list starts at the least polar angle, so it is
    also the ``atan2`` order of the neighbours' centroids.
    """
    return tuple(Monomer(k, m.a + da, m.b + db) for k, da, db in _ROTATION[m.kind])


def hexagon(a: int, b: int, c: int) -> Region:
    """Semiregular hexagon with side lengths a, b, c, roughly centered."""
    if min(a, b, c) < 1:
        raise ValueError("side lengths must be positive")
    n0 = (-(a + b) // 2, -((-a + b + 2 * c) // 2))
    if sum(n0) % 2:
        n0 = (n0[0] + 1, n0[1])
    steps = [(a, (1, -1)), (b, (1, 1)), (c, (0, 2)), (a, (-1, 1)), (b, (-1, -1)), (c, (0, -2))]
    sides, pos = [], n0
    for count, d in steps:
        sides.append((pos, d))
        pos = (pos[0] + count * d[0], pos[1] + count * d[1])
    # column A's nodes lie between the slanted sides; a triangle is in if its corners are
    column = {
        A: (max(vy + dy * (A - vx) for (vx, vy), (dx, dy) in sides if dx == 1),
            min(vy - dy * (A - vx) for (vx, vy), (dx, dy) in sides if dx == -1))
        for A in range(n0[0], n0[0] + a + b + 1)
    }
    tris = []
    for A, (lo, hi) in column.items():
        for kind, apex in ((LEFT, A - 1), (RIGHT, A + 1)):
            if apex in column:
                alo, ahi = column[apex]
                tris += [Monomer(kind, (A - B) // 2, (A + B) // 2)
                         for B in range(max(lo, alo - 1), min(hi - 2, ahi - 1) + 1, 2)]
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
    """Exhaustive matching count of a planar region (``_matchings``)."""
    return _matchings(_index(region.triangles)[1]) if region.balanced() else 0


def _matchings(nbr: list[list[int]]) -> int:
    """Perfect matchings of an index graph: recursion, most constrained triangle first."""

    def rec(remaining: set[int]) -> int:
        if not remaining:
            return 1
        best, best_opts = None, None
        for t in remaining:
            opts = [p for p in nbr[t] if p in remaining]
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

    return rec(set(range(len(nbr))))


# --- planar Kasteleyn ---------------------------------------------------------


def _index(triangles, n: int = 0) -> tuple[list[Monomer], list[list[int]]]:
    """Triangles in ``sorted()`` order (lefts, then rights: the matrix's
    columns and rows), and each one's neighbours as indices in ``_partners``'
    counterclockwise order; with ``n``, coordinates wrap mod n (the torus)."""
    tris = sorted(triangles)
    index = {t: i for i, t in enumerate(tris)}
    if n:  # a neighbour across the torus's seam is an image one period away
        index.update({(k, a + x, b + y): i for (k, a, b), i in list(index.items())
                      for x in (-n, 0, n) for y in (-n, 0, n)})
    get = index.get
    nbr = [[j for k, da, db in _ROTATION[kind] if (j := get((k, a + da, b + db))) is not None]
           for kind, a, b in tris]
    return tris, nbr


def _components(nbr: list[list[int]]) -> list[list[int]]:
    """Components of the index graph, as sorted index lists in order of least index."""
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


def _canon(u, v):
    """An undirected edge keyed by its (right, left) dart; rights sort last."""
    return (u, v) if u > v else (v, u)


def _faces(adj, darts) -> list[list[tuple]]:
    """Faces as dart cycles, via next-edge-counterclockwise walking.

    Walks start from the darts in the order given, so the caller fixes the
    face numbering.
    """
    visited, faces = set(), []
    for start in darts:
        if start in visited:
            continue
        cycle, d = [], start
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
    minus = sum(1 for d in cycle if sign[_canon(*d)] < 0)
    return (minus + len(cycle) // 2 + 1) % 2


def _fix_face_parity(faces, root: int) -> dict[tuple, int]:
    """Edge signs satisfying the parity condition on every face but the root.

    All plus when no other face has length 4j (the defective ones); else a
    dual BFS tree from ``root``, fixing faces deepest first, each by flipping
    the edge to its parent.  Signs are keyed by ``_canon`` edges.
    """
    if not any(len(cycle) % 4 == 0 for f, cycle in enumerate(faces) if f != root):
        return {(u, v): 1 for cycle in faces for u, v in cycle if u > v}
    edges = [[_canon(*d) for d in cycle] for cycle in faces]
    edge_faces: dict[tuple, set[int]] = {}
    for idx, cycle in enumerate(edges):
        for e in cycle:
            edge_faces.setdefault(e, set()).add(idx)
    sign = dict.fromkeys(edge_faces, 1)

    parent_edge: dict[int, tuple] = {}
    depth = {root: 0}
    queue = deque([root])
    order: list[int] = []
    while queue:
        f = queue.popleft()
        for e in edges[f]:
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


def _solved_signs(key: list[tuple[int, int]], nbr: list[list[int]], comp: list[int]):
    """Edge signs of a connected planar component, rooted at its outer face.

    Darts run in centroid-key (x, y) order: a node's neighbours west, then
    east of it, each in ``_partners``' order.  The outer (clockwise) face
    holds the dart from the least node, the leftmost, to its last neighbour
    counterclockwise.
    """
    order = sorted(comp, key=key.__getitem__)
    faces = _faces(nbr, [(u, v) for u in order for west in (True, False)
                         for v in nbr[u] if (key[v] < key[u]) == west])
    first = (order[0], nbr[order[0]][-1])
    return _fix_face_parity(faces, next(f for f, c in enumerate(faces) if first in c))


class SignedRegion:
    """A planar region on integer triangle indices, with its edge signs.

    ``sign`` holds each edge's sign, keyed by its (right, left) index pair,
    from one face walk and one parity fix per component (each has its own
    outer face).  ``matrix_of`` assembles the one signed matrix K of the
    region, or of a region left by deleting triangles, from those signs.
    """

    def __init__(self, region: Region):
        self.triangles = region.triangles
        self.tris, self.nbr = _index(region.triangles)
        self.n_left = bisect_left(self.tris, (RIGHT,))
        self.comps = _components(self.nbr)
        # three times the centroid in node coordinates (A, B): (3A+-1, 3B+3)
        key = [(3 * (a + b) + (1 if k == RIGHT else -1), 3 * (b - a) + 3) for k, a, b in self.tris]
        self.sign: dict[tuple[int, int], int] = {}
        for comp in self.comps:
            if len(comp) > 1:
                self.sign.update(_solved_signs(key, self.nbr, comp))

    def matrix_of(self, region: Region):
        """The signed matrix ``(n, [(i, j, sign)])`` of this region or of one
        left by deleting triangles: row i its i-th remaining right, column j
        its j-th remaining left, with this region's signs; None when it is
        unbalanced."""
        gone = self.triangles - region.triangles
        if len(region) + len(gone) != len(self.triangles):
            raise ValueError("region is not inside the signed region")
        gone = {bisect_left(self.tris, t) for t in gone}
        nl, nbr, sign = self.n_left, self.nbr, self.sign
        lefts = [v for v in range(nl) if v not in gone]
        rights = [r for r in range(nl, len(nbr)) if r not in gone]
        if len(lefts) != len(rights):
            return None
        col = {v: j for j, v in enumerate(lefts)}
        return len(rights), [(i, col[v], sign[(r, v)])
                             for i, r in enumerate(rights) for v in nbr[r] if v in col]


def count_tilings(region: Region, signed: SignedRegion | None = None) -> int:
    """Exact count, |det K|; ``signed`` is the region's ``SignedRegion`` or a
    larger region's (built when None)."""
    matrix = region.balanced() and (signed or SignedRegion(region)).matrix_of(region)
    return abs(_int_det(*matrix)) if matrix else 0


def _int_det(n: int, entries: Iterable[tuple[int, int, int]]) -> int:
    """Fraction-free integer determinant (Bareiss) of the n x n matrix of
    ``entries`` (row, col, value), separate from ``exact``'s.

    Rows are dicts {col: value}.  Row i starts at column i - below or later
    (kept by swaps in the band and fill-in right of the pivot), so step k
    scans rows k+1..k+below, updating each over its and the pivot row's keys.
    """
    if n == 0:
        return 1
    rows = [{} for _ in range(n)]
    for i, j, x in entries:
        rows[i][j] = x
    if not all(rows):
        return 0  # a row of zeros
    below = max(i - min(r) for i, r in enumerate(rows))
    # a row left alone since its last update, when the pivot was q[i], owes
    # the factor prev/q[i]: idle rows are rescaled only when next used
    q = [1] * n
    sign = prev = 1
    for k in range(n - 1):
        band = range(k + 1, min(n, k + below + 1))
        if not rows[k].get(k):
            for i in band:
                if rows[i].get(k):
                    rows[k], rows[i] = rows[i], rows[k]
                    q[k], q[i] = q[i], q[k]
                    sign = -sign
                    break
            else:
                return 0
        row = rows[k]
        if q[k] != prev:
            row = {j: x * prev // q[k] for j, x in row.items()}
        pivot = row.pop(k)
        for i in band:
            r = rows[i]
            a = r.pop(k, 0)
            if a:
                qi, q[i] = q[i], pivot
                rows[i] = {j: (r.get(j, 0) * pivot - a * row.get(j, 0)) // qi
                           for j in r.keys() | row.keys()}
        prev = pivot
    return sign * (rows[n - 1].get(n - 1, 0) * prev // q[n - 1])


def _lazy_zeros(size: int) -> mmap.mmap:
    """``size`` zero bytes in an anonymous mapping whose pages become resident
    only when written.  Private: a shared one allocates each page it is read
    from, so ``slogdet``'s copy would bring in the whole matrix."""
    if hasattr(mmap, "MAP_PRIVATE"):
        return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    return mmap.mmap(-1, size)  # Windows has no mapping flags


def log_count_tilings(region: Region, signed: SignedRegion | None = None) -> tuple[int, float]:
    """(sign, log|count|) of det K via floating LU, for regions too large to
    do exactly; ``signed`` as for ``count_tilings``."""
    matrix = region.balanced() and (signed or SignedRegion(region)).matrix_of(region)
    if not matrix:
        return (0, -math.inf)
    n, entries = matrix
    if not n:
        return (1, 0.0)  # the empty matrix, which no mapping can hold
    import numpy as np  # after the index and signs: a lower peak RSS

    mat = np.ndarray((n, n), buffer=_lazy_zeros(8 * n * n), order="F")
    if entries:
        rows, cols, vals = np.array(entries).T
        mat[rows, cols] = vals
    sgn, logdet = np.linalg.slogdet(mat)
    return (int(round(sgn)), float(logdet))


# --- tori ---------------------------------------------------------------------


class TorusSpec(NamedTuple):
    n: int
    holes: HoleSystem = HoleSystem(())


def _torus_index(spec: TorusSpec) -> tuple[list[Monomer], list[list[int]]]:
    """``_index`` of the n x n rhombic torus minus the holes' triangles, wrapped mod n."""
    n = spec.n
    if n < 2:
        raise HoleTooLarge("torus side must be at least 2")
    removed: set[Monomer] = set()
    for t in spec.holes.triangles():
        wrapped = Monomer(t.kind, t.a % n, t.b % n)
        if wrapped in removed:
            raise HoleTooLarge("hole triangles collide on the torus")
        removed.add(wrapped)
    cells = {Monomer(k, a, b) for k in (LEFT, RIGHT) for a in range(n) for b in range(n)}
    return _index(cells - removed, n)


def torus_count_brute(spec: TorusSpec) -> int:
    """Exhaustive matching count on the torus (``_matchings``); the tests' reference."""
    tris, nbr = _torus_index(spec)
    return _matchings(nbr) if charge(tris) == 0 else 0


def _torus_faces_and_signs(nbr: list[list[int]]):
    """Faces and (right, left)-keyed edge signs meeting the parity condition
    on every disc face of the torus graph; the four determinants add the
    homology twists."""
    faces = _faces(nbr, [(u, v) for u in range(len(nbr)) for v in sorted(nbr[u])])
    sign = _fix_face_parity(faces, 0)
    if _face_defect(faces[0], sign):
        raise ArithmeticError("torus face parity conditions are inconsistent")
    return faces, sign


def torus_count(spec: TorusSpec) -> int:
    """Exact torus count via four boundary-twisted determinants.

    With all disc faces satisfying the parity condition, determinant
    contributions are constant on each homology class mod 2, so the count
    is the sum of absolute class projections of the four determinants.
    """
    tris, nbr = _torus_index(spec)
    nl = bisect_left(tris, (RIGHT,))
    if 2 * nl != len(tris):
        return 0
    sign = _torus_faces_and_signs(nbr)[1] if nl else {}  # an empty torus has one tiling

    # entries with the seam crossed: 2 if l.a < a, 1 if l.b < b (never both);
    # twist (theta, phi) = 2 * theta + phi flips the signs across its seams
    seamed = [(r - nl, l, sign[(r, l)], 2 * (tris[l].a < tris[r].a) + (tris[l].b < tris[r].b))
              for r in range(nl, len(tris)) for l in nbr[r]]
    d00, d01, d10, d11 = (_int_det(nl, [(i, j, -s if seam & twist else s)
                                        for i, j, s, seam in seamed]) for twist in range(4))
    projections = (d00 + d01 + d10 + d11, d00 - d01 + d10 - d11,
                   d00 + d01 - d10 - d11, d00 - d01 - d10 + d11)
    if any(p % 4 for p in projections):
        raise ArithmeticError("homology class projections are not integral")
    return sum(abs(p) // 4 for p in projections)


def _signed_minus(L: LozengeLocation, region: Region) -> tuple[Region, SignedRegion]:
    """The region minus the lozenge, and the region's signing; a lozenge outside
    the region, then an unbalanced region, are rejected before any signing."""
    sub = region.remove(L)
    if not region.balanced():
        raise ZeroDenominator("region has no tilings")
    return sub, SignedRegion(region)


def oracle_probability(L: LozengeLocation, region: Region) -> Fraction:
    """Exact occupation probability of a lozenge inside a finite region."""
    sub, signed = _signed_minus(L, region)
    den = count_tilings(region, signed)
    if den == 0:
        raise ZeroDenominator("region has no tilings")
    return Fraction(count_tilings(sub, signed), den)


def oracle_probability_float(L: LozengeLocation, region: Region) -> float:
    """Float occupation probability via log-determinants (large regions)."""
    sub, signed = _signed_minus(L, region)
    s1, l1 = log_count_tilings(sub, signed)
    s2, l2 = log_count_tilings(region, signed)
    if s2 == 0:
        raise ZeroDenominator("region has no tilings")
    if s1 == 0:
        return 0.0
    return math.exp(l1 - l2)

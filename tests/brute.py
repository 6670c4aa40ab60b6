"""Brute-force references for the tiling-count oracles.

These count perfect matchings by exhaustive recursion and give the
hexagon's MacMahon product formula, so they check ``lozenge.oracle``'s
signed determinants from outside.  They reach the package only through
``lozenge.lattice`` and the oracle's index graphs (``_index``,
``_torus_index``) and region types; ``test_brute_imports_only_the_index_graphs``
keeps it that way.
"""

from lozenge.lattice import LEFT, RIGHT, Monomer, charge
from lozenge.oracle import Region, TorusSpec, _index, _torus_index


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


def torus_count_brute(spec: TorusSpec) -> int:
    """Exhaustive matching count on the torus (``_matchings``)."""
    tris, nbr = _torus_index(spec)
    return _matchings(nbr) if charge(tris) == 0 else 0


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


def _partners(m: Monomer) -> tuple[Monomer, ...]:
    """The three neighbours of a triangle in counterclockwise rotation order.

    Around r(a,b): l(a+1,b), l(a,b+1), l(a,b); around l(a,b): r(a,b-1),
    r(a,b), r(a-1,b).  Each list starts at the least polar angle, so it is
    also the ``atan2`` order of the neighbours' centroids.
    """
    a, b = m.a, m.b
    if m.kind == RIGHT:
        return (Monomer(LEFT, a + 1, b), Monomer(LEFT, a, b + 1), Monomer(LEFT, a, b))
    return (Monomer(RIGHT, a, b - 1), Monomer(RIGHT, a, b), Monomer(RIGHT, a - 1, b))

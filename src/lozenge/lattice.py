"""Lattice geometry: monomers, triangular holes, lozenge locations.

Coordinates follow the 60-degree oblique system: the point (a, b) sits at
a*u1 + b*u2 in the plane, where u1 and u2 are unit vectors in the polar
directions -pi/6 and +pi/6.  Monomers (unit triangles) are addressed by the
midpoint of their vertical side; lattice nodes live at ((A*sqrt(3)/2, B/2))
for integers A, B with A + B even.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

LEFT = "L"
RIGHT = "R"


class LatticeError(ValueError):
    """Base class for invalid lattice configurations."""


class OverlappingHoles(LatticeError):
    pass


class BadSlope(LatticeError):
    pass


class NonIntegerIndex(LatticeError):
    pass


class UnpairableConfiguration(LatticeError):
    pass


class ZeroDenominator(LatticeError):
    """A hole correlation or a region's tiling count is exactly zero: fixed by the input."""


class Monomer(NamedTuple):
    kind: str  # LEFT or RIGHT
    a: int
    b: int

    def vertices(self) -> tuple[tuple[int, int], ...]:
        """Corner nodes in integer node coordinates (A, B)."""
        A = self.a + self.b
        B = self.b - self.a
        apex = (A - 1, B + 1) if self.kind == LEFT else (A + 1, B + 1)
        return ((A, B), (A, B + 2), apex)

    def translate(self, da: int, db: int) -> "Monomer":
        return Monomer(self.kind, self.a + da, self.b + db)

    def reflect_vertical(self) -> "Monomer":
        """Mirror image across the vertical lattice line through the origin."""
        kind = RIGHT if self.kind == LEFT else LEFT
        return Monomer(kind, -self.b, -self.a)


def left(a: int, b: int) -> Monomer:
    return Monomer(LEFT, a, b)


def right(a: int, b: int) -> Monomer:
    return Monomer(RIGHT, a, b)


def _integer(value, what: str) -> int:
    """An integral int (not a bool) or float as an int; anything else raises ``NonIntegerIndex``."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or (isinstance(value, float) and value.is_integer())):
        raise NonIntegerIndex(f"{what} {value!r} is not an integer")
    return int(value)


def _number(value, what: str) -> float:
    """A finite int (not a bool) or float as a float; anything else raises ``LatticeError``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):  # NaN, an infinity or an int past every float
        raise LatticeError(f"{what} {value!r} is not a finite number")
    return float(value)


def _fields(obj, required: str, optional: str, what: str) -> dict:
    """``obj`` if it is a JSON object with every key named in ``required`` and no key
    outside ``required`` and ``optional`` (each space-separated); else ``LatticeError``."""
    if not isinstance(obj, dict):
        raise LatticeError(f"{what} must be a JSON object")
    need = set(required.split())
    missing, unknown = sorted(need - obj.keys()), sorted(obj.keys() - need - set(optional.split()))
    if missing or unknown:
        raise LatticeError(f"{what}: missing keys {missing}, unknown keys {unknown}")
    return obj


def slope(value) -> Fraction:
    """``value`` as a Fraction; a bool, a zero denominator or an infinity raises ``BadSlope``."""
    if isinstance(value, bool):
        raise BadSlope(f"slope {value!r} is not a number")
    try:
        return Fraction(value)
    except (ZeroDivisionError, OverflowError):
        raise BadSlope(f"slope {value!r} is not a finite rational number") from None


def to_cartesian(a: float, b: float) -> tuple[float, float]:
    """The point a*u1 + b*u2 in the plane."""
    return (math.sqrt(3.0) / 2.0 * (a + b), (b - a) / 2.0)


def distance(p: Sequence[float], q: Sequence[float]) -> float:
    da, db = p[0] - q[0], p[1] - q[1]
    return math.sqrt(da * da + da * db + db * db)


class TriHole(NamedTuple):
    """Side-2 triangular hole, east- or west-pointing."""

    kind: str  # "E" or "W"
    a: int
    b: int

    def triangles(self) -> frozenset[Monomer]:
        a, b = self.a, self.b
        if self.kind == "E":
            return frozenset({left(a, b), right(a, b), right(a - 1, b), right(a, b - 1)})
        return frozenset({right(a, b), left(a, b), left(a + 1, b), left(a, b + 1)})

    def decompose(self) -> frozenset[Monomer]:
        """The two monomers whose removal is equivalent to removing the hole.

        The remaining pair inside the side-2 triangle is forced to tile
        itself, so correlations only see these two.
        """
        a, b = self.a, self.b
        if self.kind == "E":
            return frozenset({right(a - 1, b), right(a, b - 1)})
        return frozenset({left(a + 1, b), left(a, b + 1)})


class _MultiHoleFields(NamedTuple):
    kind: str
    q: Fraction
    indices: tuple[int, ...]
    anchor: tuple[int, int] = (0, 0)


class MultiHole(_MultiHoleFields):
    """Union of side-2 holes along a line of slope q (3 must divide 1 - q)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        kind, q, indices, anchor = _MultiHoleFields(*args, **kwargs)
        self = super().__new__(cls, kind, slope(q), tuple(_integer(i, "index") for i in indices),
                               tuple(_integer(v, "anchor") for v in anchor))
        if self.kind not in ("E", "W"):
            raise LatticeError(f"unknown hole kind {self.kind!r}")
        if len(self.anchor) != 2:
            raise LatticeError(f"anchor {list(self.anchor)} is not a pair")
        if not self.indices:
            raise LatticeError("a multihole needs at least one index")
        if any(x >= y for x, y in zip(self.indices, self.indices[1:])):
            raise NonIntegerIndex("indices must be strictly increasing")
        if (1 - self.q).numerator % 3 != 0:
            raise BadSlope(f"slope {self.q}: 3 does not divide 1 - q")
        for i in self.indices:
            if (self.q * i).denominator != 1:
                raise NonIntegerIndex(f"q*a = {self.q * i} is not an integer")
        return self

    def constituents(self) -> tuple[TriHole, ...]:
        ax, ay = self.anchor
        return tuple(
            TriHole(self.kind, i + ax, int(self.q * i) + ay) for i in self.indices
        )


def hole(kind: str, a: int, b: int) -> MultiHole:
    """Single side-2 hole as a one-constituent multihole anchored at (a, b)."""
    return MultiHole(kind, Fraction(1), (0,), (a, b))


class _HoleSystemFields(NamedTuple):
    multiholes: tuple[MultiHole, ...]


class HoleSystem(_HoleSystemFields):
    """Multiholes whose side-2 holes are disjoint: construction raises ``OverlappingHoles``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        (multiholes,) = _HoleSystemFields(*args, **kwargs)
        self = super().__new__(cls, tuple(multiholes))
        seen: set[Monomer] = set()
        for t in self.tri_holes():
            tris = t.triangles()
            if seen & tris:
                raise OverlappingHoles(f"hole {t} overlaps another hole")
            seen |= tris
        return self

    def tri_holes(self) -> tuple[TriHole, ...]:
        return tuple(t for m in self.multiholes for t in m.constituents())

    def triangles(self) -> frozenset[Monomer]:
        out: set[Monomer] = set()
        for t in self.tri_holes():
            out |= t.triangles()
        return frozenset(out)

    def to_json(self) -> str:
        return json.dumps(
            {
                "multiholes": [
                    {
                        "kind": m.kind,
                        "q": str(m.q),
                        "indices": list(m.indices),
                        "anchor": list(m.anchor),
                    }
                    for m in self.multiholes
                ]
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "HoleSystem":
        data = _fields(json.loads(text), "multiholes", "", "a hole system")
        try:
            holes = tuple(MultiHole(**_fields(h, "kind q indices", "anchor", "a multihole"))
                          for h in data["multiholes"])
        except TypeError as exc:  # a value of the wrong JSON type
            raise LatticeError(f"malformed hole system: {exc}") from None
        return cls(holes)


EMPTY_SYSTEM = HoleSystem(())


# The right monomer of lozenge (a, b, d) is right(a + da, b + db) for (da, db) = RIGHT_OFFSET[d];
# its left monomer is left(a, b).
RIGHT_OFFSET = {1: (0, 0), 2: (-1, 0), 3: (0, -1)}

# Positions and lozenges as ints: (a, b) packs as a * 2**CODE_BITS + b, and lozenge
# (a, b, d) as pack(a, b) * 4 + d.  Both are linear in their fields, sort as the tuples
# do and unpack exactly while every coordinate stays below 2**(CODE_BITS - 1) in size.
# ``LozengeLocation.code`` and ``surface.average_surface`` accept coordinates up to
# CODE_LIMIT, which leaves room for neighbours and the batch's reflection.  Python hashes
# an int modulo 2**61 - 1, so pack(a, b) hashes as a * 2**35 + b with 96 bits; with 64 it
# would hash as 8 * a + b, and a window's positions would collide by the thousand in sets.
CODE_BITS = 96
CODE_LIMIT = 1 << 62


def pack(a: int, b: int) -> int:
    return (a << CODE_BITS) + b


def unpack(q: int) -> tuple[int, int]:
    """The position (a, b) whose packed int is q."""
    a = (q + (1 << CODE_BITS - 1)) >> CODE_BITS
    return a, q - (a << CODE_BITS)


class LozengeLocation(NamedTuple):
    """Lozenge identified by its left monomer and its direction class.

    Direction 1, 2, 3 <-> long diagonal in polar direction 0, 2pi/3, 4pi/3.
    """

    a: int
    b: int
    direction: int

    def right_offset(self) -> tuple[int, int]:
        """``RIGHT_OFFSET`` of the direction; any other direction raises ``LatticeError``."""
        offset = RIGHT_OFFSET.get(self.direction)
        if offset is None:
            raise LatticeError(f"direction must be 1, 2 or 3, got {self.direction}")
        return offset

    def code(self) -> int:
        """This lozenge as one int, pack(a, b) * 4 + direction; ``LatticeError`` for a
        direction outside 1-3 or a coordinate beyond ``CODE_LIMIT``."""
        a, b, d = self
        if d not in RIGHT_OFFSET:
            self.right_offset()  # which raises
        if abs(a) > CODE_LIMIT or abs(b) > CODE_LIMIT:
            raise LatticeError(f"lozenge {tuple(self)} lies beyond the coordinate bound 2**62")
        return pack(a, b) * 4 + d

    def monomers(self) -> tuple[Monomer, Monomer]:
        da, db = self.right_offset()
        return (right(self.a + da, self.b + db), left(self.a, self.b))

    def triangles(self) -> frozenset[Monomer]:
        return frozenset(self.monomers())

    @classmethod
    def from_pair(cls, r: Monomer, l: Monomer) -> "LozengeLocation":
        if r.kind != RIGHT or l.kind != LEFT:
            raise LatticeError("lozenge needs one right and one left monomer")
        for d, (da, db) in RIGHT_OFFSET.items():
            if (l.a + da, l.b + db) == (r.a, r.b):
                return cls(l.a, l.b, d)
        raise LatticeError("monomers do not form a lozenge")


def lozenges_covering(m: Monomer) -> tuple[LozengeLocation, LozengeLocation, LozengeLocation]:
    """The three lozenge locations containing the given monomer.

    For a right monomer the same three direction classes appear, realised by
    the lozenges pairing it with its three left neighbours.
    """
    a, b = m.a, m.b
    if m.kind == LEFT:
        return tuple(LozengeLocation(a, b, d) for d in RIGHT_OFFSET)
    return tuple(LozengeLocation(a - da, b - db, d) for d, (da, db) in RIGHT_OFFSET.items())


def charge(triangles: Iterable[Monomer]) -> int:
    """Right-pointing minus left-pointing unit triangles: the one definition of charge."""
    return sum(1 if t.kind == RIGHT else -1 for t in triangles)


def pairable(monomers: Sequence[Monomer]) -> bool:
    """Can the multiset be split into pairs sharing at least one vertex?

    A perfect matching of the vertex-sharing graph exists iff every
    connected component has one, so an odd component answers False at once;
    each even component is matched by a search memoised on the bitmask of
    its unmatched monomers.
    """
    ms = list(monomers)
    if len(ms) % 2:
        return False
    at_vertex: dict[tuple[int, int], list[int]] = {}
    for i, m in enumerate(ms):
        for v in m.vertices():
            at_vertex.setdefault(v, []).append(i)
    nbrs: list[set[int]] = [set() for _ in ms]
    for group in at_vertex.values():
        for i in group:
            nbrs[i].update(group)
    for i, s in enumerate(nbrs):
        s.discard(i)

    seen = [False] * len(ms)
    components = []
    for start in range(len(ms)):
        if seen[start]:
            continue
        seen[start] = True
        order = [start]  # breadth-first, so neighbours get nearby bits
        for i in order:
            for j in sorted(nbrs[i]):
                if not seen[j]:
                    seen[j] = True
                    order.append(j)
        if len(order) % 2:
            return False
        components.append(order)
    return all(_perfect_matching(order, nbrs) for order in components)


def _perfect_matching(order: list[int], nbrs: list[set[int]]) -> bool:
    bit = {i: 1 << k for k, i in enumerate(order)}
    masks = [sum(bit[j] for j in nbrs[i]) for i in order]
    memo: dict[int, bool] = {0: True}

    def match(free: int) -> bool:
        hit = memo.get(free)
        if hit is None:
            low = free & -free
            rest = free ^ low
            cand = masks[low.bit_length() - 1] & rest
            hit = False
            while cand and not hit:
                b = cand & -cand
                hit = match(rest ^ b)
                cand ^= b
            memo[free] = hit
        return hit

    return match((1 << len(order)) - 1)

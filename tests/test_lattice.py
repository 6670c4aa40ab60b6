"""Lattice geometry, holes, charges and the disjoint-holes check."""

import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lozenge.lattice import (
    CODE_LIMIT,
    BadSlope,
    HoleSystem,
    LatticeError,
    LozengeLocation,
    MultiHole,
    NonIntegerIndex,
    OverlappingHoles,
    TriHole,
    charge,
    distance,
    pairable,
    hole,
    left,
    lozenges_covering,
    right,
    to_cartesian,
    unpack,
)

coords = st.integers(min_value=-50, max_value=50)


def test_charges():
    assert charge(TriHole("E", 0, 0).triangles()) == 2
    assert charge(TriHole("W", 0, 0).triangles()) == -2
    assert charge(LozengeLocation(3, -1, 2).triangles()) == 0
    assert charge(TriHole("E", 5, 2).triangles()) == 2


def test_charge_additive_over_disjoint_union():
    e, w = TriHole("E", 0, 0), TriHole("W", 6, 3)
    union = e.triangles() | w.triangles()
    assert charge(union) == charge(e.triangles()) + charge(w.triangles()) == 0


def test_decompose():
    assert TriHole("E", 0, 0).decompose() == {right(-1, 0), right(0, -1)}
    assert TriHole("W", 0, 0).decompose() == {left(1, 0), left(0, 1)}
    assert TriHole("E", 5, 2).decompose() == {right(4, 2), right(5, 1)}


def test_decompose_lies_inside_hole():
    for h in (TriHole("E", 2, -1), TriHole("W", -3, 4)):
        assert h.decompose() <= h.triangles()


def test_lozenges_covering_left():
    l1, l2, l3 = lozenges_covering(left(0, 0))
    assert l1.monomers() == (right(0, 0), left(0, 0))
    assert l2.monomers() == (right(-1, 0), left(0, 0))
    assert l3.monomers() == (right(0, -1), left(0, 0))
    for loz in (l1, l2, l3):
        assert left(0, 0) in loz.triangles()


def test_lozenges_covering_right():
    for loz in lozenges_covering(right(2, 5)):
        assert right(2, 5) in loz.triangles()


@given(coords, coords)
def test_lozenges_covering_translation_covariant(x, y):
    base = lozenges_covering(left(0, 0))
    moved = lozenges_covering(left(x, y))
    for b, m in zip(base, moved):
        assert (m.a, m.b, m.direction) == (b.a + x, b.b + y, b.direction)


def test_lozenge_from_pair_roundtrip():
    for d in (1, 2, 3):
        loz = LozengeLocation(4, -2, d)
        r, l = loz.monomers()
        assert LozengeLocation.from_pair(r, l) == loz
        assert loz in lozenges_covering(r) and loz in lozenges_covering(l)
    for r in (right(4, -1), right(2, -2), right(3, -1), right(5, -2)):  # not beside left(4, -2)
        with pytest.raises(LatticeError, match="monomers do not form a lozenge"):
            LozengeLocation.from_pair(r, left(4, -2))


def test_lozenge_shares_edge():
    # the two monomers of any lozenge share exactly two vertices
    for d in (1, 2, 3):
        r, l = LozengeLocation(0, 0, d).monomers()
        assert len(set(r.vertices()) & set(l.vertices())) == 2


def test_cartesian_distance_agreement():
    for (a, b), (c, d) in [((0, 0), (1, 0)), ((0, 0), (1, 1)), ((0, 0), (1, -1)),
                           ((3, -2), (-1, 4))]:
        da, db = a - c, b - d
        metric = math.sqrt(da * da + da * db + db * db)
        p, q = to_cartesian(a, b), to_cartesian(c, d)
        assert math.dist(p, q) == pytest.approx(metric, abs=1e-12)
    assert distance((0, 0), (1, 1)) == pytest.approx(math.sqrt(3), abs=1e-15)
    assert distance((0, 0), (1, -1)) == pytest.approx(1.0, abs=1e-15)


def test_multihole_constraints():
    MultiHole("E", Fraction(1), (0, 2, 4))  # fine
    MultiHole("E", Fraction(-2), (0, 1))    # 1-q = 3
    MultiHole("W", Fraction(1, 4), (0, 4))  # 1-q = 3/4, q*a integral
    with pytest.raises(BadSlope):
        MultiHole("E", Fraction(2), (0, 3))
    with pytest.raises(NonIntegerIndex):
        MultiHole("E", Fraction(1, 4), (0, 2))
    with pytest.raises(NonIntegerIndex):
        MultiHole("E", Fraction(1), (2, 2))
    # integral floats are taken as ints; fractional indices and anchors are rejected
    m = MultiHole("E", Fraction(1), (0, 2), (1, -3))
    assert MultiHole("E", Fraction(1), (0.0, 2), (1.0, -3)) == m
    with pytest.raises(NonIntegerIndex):
        MultiHole("E", Fraction(1), (0.5,))
    with pytest.raises(NonIntegerIndex):
        MultiHole("E", Fraction(1), (0,), (0.5, 0))
    # an empty multihole is no hole at all, most likely a mistake in the file;
    # a system with no multiholes is still the empty system
    with pytest.raises(LatticeError, match="^a multihole needs at least one index$"):
        MultiHole("E", Fraction(1), ())
    assert HoleSystem.from_json('{"multiholes": []}') == HoleSystem(())


def test_validate_disjoint_pair():
    hs = HoleSystem((hole("E", 0, 0), hole("W", 6, 0)))
    assert charge(hs.triangles()) == 0 and len(hs.triangles()) == 8


def test_validate_overlap():
    # E(1,0) holds right(0,0), which E(0,0) holds too
    with pytest.raises(OverlappingHoles, match=r"hole TriHole\(kind='E', a=1, b=0\) overlaps another hole"):
        HoleSystem((hole("E", 0, 0), hole("E", 1, 0)))


def test_validate_overlap_from_json():
    text = json.dumps({"multiholes": [
        {"kind": "E", "q": "1", "indices": [0], "anchor": [a, 0]} for a in (0, 1)]})
    with pytest.raises(OverlappingHoles, match="overlaps another hole"):
        HoleSystem.from_json(text)


def test_json_roundtrip():
    hs = HoleSystem(
        (
            MultiHole("E", Fraction(1, 4), (0, 4), (2, -3)),
            MultiHole("W", Fraction(1), (0, 2), (9, 9)),
            MultiHole("E", Fraction(-2), (0, 1, 3), (-20, 7)),
        )
    )
    again = HoleSystem.from_json(hs.to_json())
    assert again == hs
    assert '"q": "1/4"' in hs.to_json() and '"q": "-2"' in hs.to_json()


def test_json_keys_are_the_fields():
    # the anchor's default is MultiHole's; a key outside the fields is an error, not a default
    entry = {"kind": "E", "q": "1", "indices": [0]}
    assert HoleSystem.from_json(json.dumps({"multiholes": [entry]})) == HoleSystem((hole("E", 0, 0),))
    with pytest.raises(LatticeError, match=r"^a multihole: missing keys \[\], unknown keys \['anchr'\]$"):
        HoleSystem.from_json(json.dumps({"multiholes": [{**entry, "anchr": [1, 1]}]}))
    with pytest.raises(LatticeError, match="^a hole system must be a JSON object$"):
        HoleSystem.from_json("[]")


def test_lozenge_direction_must_be_a_class():
    with pytest.raises(LatticeError, match="direction must be 1, 2 or 3, got 4"):
        LozengeLocation(0, 0, 4).monomers()


edge_coords = st.one_of(coords, st.integers(-CODE_LIMIT, CODE_LIMIT),
                        st.sampled_from([-CODE_LIMIT, CODE_LIMIT]))


@given(st.lists(st.tuples(edge_coords, edge_coords, st.sampled_from([1, 2, 3])), min_size=2, max_size=6))
def test_lozenge_codes_unpack_and_sort_as_the_triples(triples):
    codes = [LozengeLocation(*t).code() for t in triples]
    assert [(*unpack(c >> 2), c & 3) for c in codes] == triples
    assert sorted(triples) == [triples[codes.index(c)] for c in sorted(codes)]


def test_lozenge_code_refuses_a_bad_direction_or_a_far_coordinate():
    with pytest.raises(LatticeError, match="direction must be 1, 2 or 3, got 0"):
        LozengeLocation(0, 0, 0).code()
    for a, b in ((CODE_LIMIT + 1, 0), (0, -CODE_LIMIT - 1)):
        with pytest.raises(LatticeError, match=r"lies beyond the coordinate bound 2\*\*62$"):
            LozengeLocation(a, b, 1).code()


def test_multihole_string_matches_bigger_hole_decomposition():
    # a slope-1 string of touching side-2 holes is a valid multihole
    m = MultiHole("E", Fraction(1), (0, 2), (0, 0))
    assert len(m.constituents()) == 2
    assert charge(HoleSystem((m,)).triangles()) == 4
    tris = [t.triangles() for t in m.constituents()]
    assert not (tris[0] & tris[1])


def test_reflection_maps_species():
    e = TriHole("E", 3, -1)
    reflected = {m.reflect_vertical() for m in e.decompose()}
    assert reflected == TriHole("W", 1, -3).decompose()


def _pairable_backtracking(monomers):
    """Reference: plain backtracking over vertex-sharing pairs (exponential)."""
    ms = list(monomers)
    if len(ms) % 2:
        return False

    def share(m1, m2):
        return bool(set(m1.vertices()) & set(m2.vertices()))

    def match(remaining):
        if not remaining:
            return True
        first, rest = remaining[0], remaining[1:]
        return any(
            share(ms[first], ms[j]) and match(rest[:k] + rest[k + 1:])
            for k, j in enumerate(rest)
        )

    return match(list(range(len(ms))))


BLOB = [m(a, b) for a in range(-3, 4) for b in range(-3, 4) for m in (left, right)]


def test_pairable_odd_component_fails_fast():
    # backtracking needed 0.49 s for 21 blob monomers, about 5x more per two
    ms = BLOB[:33] + [left(100, 100)]
    t0 = time.perf_counter()
    assert not pairable(ms)
    assert time.perf_counter() - t0 < 1.0


def test_pairable_even_component_without_matching():
    # a claw: the centre shares one vertex with each of three mutually
    # disjoint monomers, so the component is connected and even, yet unpairable
    claw = [left(0, 0), right(-1, -1), left(-1, 1), left(1, -1)]
    assert not pairable(claw)
    assert not _pairable_backtracking(claw)
    assert not pairable(claw + [left(8, 8), right(8, 8)])  # plus a pairable component
    assert pairable(BLOB[:34])


def test_pairable_agrees_with_backtracking():
    rng = random.Random(20)
    verdicts = set()
    for _ in range(400):
        n = rng.randrange(0, 11)
        ms = [rng.choice((left, right))(rng.randint(-2, 2), rng.randint(-2, 2))
              for _ in range(n)]
        expected = _pairable_backtracking(ms)
        assert pairable(ms) == expected, ms
        verdicts.add(expected)
    assert verdicts == {True, False}

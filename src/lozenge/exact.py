"""Exact arithmetic kernels used throughout the package.

Two small number systems cover everything the exact code paths need:

* ``SqrtPiPoly`` -- polynomials in g = sqrt(3)/pi with rational
  coefficients.  Coupling values are degree <= 1; determinants of
  coupling matrices stay inside the ring.  Since g is transcendental,
  two expressions agree as real numbers iff they agree coefficientwise,
  which is what makes "exact identity" tests meaningful.
* ``ZetaFrac`` -- the field Q(zeta) with zeta = exp(2*pi*i/3), a + b*zeta
  reduced via zeta^2 = -1 - zeta.

Both store integer numerators over one positive denominator in lowest
terms, so arithmetic makes no Fraction per coefficient.

One fraction-free elimination, ``bareiss`` with ``back_substitute``, is
every exact determinant outside the oracle: over ``SqrtPiPoly`` for det M
and adj(M) (``det_exact``), over ``int`` for the limit Schur ratios.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence

SQRT3_OVER_PI = math.sqrt(3.0) / math.pi


def chi(n: int) -> int:
    """Period-3 sign: zeta^n - zeta^(-n) = i*sqrt(3)*chi(n)."""
    return (0, 1, -1)[n % 3]


class SqrtPiPoly:
    """Polynomial in g = sqrt(3)/pi over the rationals.

    Stored as integer numerators ``nums`` over one positive denominator
    ``den`` in canonical form: gcd(den, *nums) is 1 and the last numerator
    is nonzero (zero is ``((), 1)``).  Equal values therefore have equal
    ``(nums, den)``.  ``coeffs`` gives the coefficients as Fractions.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, nums: list[int], den: int) -> None:
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
        self.nums = tuple(nums)
        self.den = den

    @classmethod
    def from_pair(cls, rational: Fraction | int, root_part: Fraction | int) -> "SqrtPiPoly":
        return cls((rational, root_part))

    @classmethod
    def zero(cls) -> "SqrtPiPoly":
        return cls(())

    @classmethod
    def one(cls) -> "SqrtPiPoly":
        return cls((1,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def rational_part(self) -> Fraction:
        return Fraction(self.nums[0], self.den) if self.nums else Fraction(0)

    @property
    def root_part(self) -> Fraction:
        """Coefficient of sqrt(3)/pi (only meaningful for degree <= 1 values)."""
        return Fraction(self.nums[1], self.den) if len(self.nums) > 1 else Fraction(0)

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __add__(self, other: "SqrtPiPoly") -> "SqrtPiPoly":
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        a, b = self.nums, other.nums
        if len(a) < len(b):
            a, b, sa, sb = b, a, sb, sa
        out = [n * sa for n in a]
        for i, n in enumerate(b):
            out[i] += n * sb
        return _make(out, den)

    def __sub__(self, other: "SqrtPiPoly") -> "SqrtPiPoly":
        return self + (-other)

    def __neg__(self) -> "SqrtPiPoly":
        return _make([-n for n in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make([n * other.numerator for n in self.nums], self.den * other.denominator)
        return _make(_int_dot([self.nums], [other.nums]), self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: int | Fraction) -> "SqrtPiPoly":
        return self * (1 / Fraction(other))

    def exact_div(self, other: "SqrtPiPoly") -> "SqrtPiPoly":
        """Divide by an exact divisor; raises if the division leaves a remainder.

        Pseudo-division: lead**(dq+1) * self.nums = quot * other.nums + rem
        with integer quot and rem, where lead is the leading numerator of
        the divisor and dq the degree of the quotient.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        div = other.nums
        dq = len(self.nums) - len(div)
        if dq < 0:
            if self.nums:
                raise ArithmeticError("inexact polynomial division")
            return _make([], 1)
        lead = div[-1]
        scale = lead ** (dq + 1)
        rem = [n * scale for n in self.nums]
        quot = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            q = rem[k + len(div) - 1] // lead
            quot[k] = q
            if q:
                for j, d in enumerate(div):
                    rem[k + j] -= q * d
        if any(rem):
            raise ArithmeticError("inexact polynomial division")
        # self / other = (quot / scale) * other.den / self.den
        den = scale * self.den
        if den < 0:
            quot, den = [-q for q in quot], -den
        return _make([q * other.den for q in quot], den)

    __floordiv__ = exact_div  # so ``bareiss`` runs on polynomials as on ints

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SqrtPiPoly((other,))
        return isinstance(other, SqrtPiPoly) and self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __float__(self) -> float:
        return to_float(self.nums, self.den)

    def __repr__(self) -> str:
        terms = [str(c) if i == 0 else f"{c}*(sqrt3/pi)" + (f"^{i}" if i > 1 else "")
                 for i, c in enumerate(self.coeffs) if c != 0]
        return " + ".join(terms) or "SqrtPiPoly(0)"


LOG2_G = -0.8589190189574097  # log2(sqrt(3)/pi)
_BAND = 1.0 + 2.0 ** -20  # one bit, plus slack for the rounding of k*log2(g)


def _top(nums: Sequence[int], den: int, reduce: bool) -> float:
    """log2 of the largest term from bit lengths, in lowest terms if ``reduce``."""
    top, den_bits = -math.inf, den.bit_length()
    for k, n in enumerate(nums):
        if n:
            if reduce:
                r = math.gcd(n, den)
                bits = (n // r).bit_length() - (den // r).bit_length()
            else:
                bits = n.bit_length() - den_bits
            top = max(top, bits + k * LOG2_G)
    return top


def to_float(nums: Sequence[int], den: int) -> float:
    """Float of sum n_k g^k / den (g = sqrt(3)/pi, den > 0), the same for any common factor.

    Fast path: Horner's rule in floats (each n / den correctly rounded),
    accepted when it keeps all but 8 bits of the largest term in lowest
    terms; its error is pinned by a test at 512 ulps.  Everything else is
    rounded exactly by ``_round_nearest``, from the bits that cancelled or
    lie beyond the float range; values beyond it raise OverflowError.
    Coefficients are reduced only when a decision lies within the one-bit
    error of the unreduced ``_top``.
    """
    top = _top(nums, den, False)
    if top == -math.inf:
        return 0.0
    if abs(top - 900) < _BAND:
        top = _top(nums, den, True)
    if top >= 900:
        return _round_nearest(nums, den, int(top) + 80)
    g = SQRT3_OVER_PI
    val = 0.0
    for n in reversed(nums):
        val = val * g + n / den  # correctly rounded, as float(Fraction)
    if not val:
        # a nonzero coefficient vector is a nonzero number (g transcendental),
        # so an exactly cancelled accumulator only means "not enough bits"
        return _round_nearest(nums, den, 80)
    bits = math.log2(abs(val))
    if abs(bits - (top - 8.0)) < _BAND:
        top = _top(nums, den, True)
    if bits > top - 8.0:
        return val
    return _round_nearest(nums, den, int(top - bits) + 80)


def _arctan_inv(n: int, one: int) -> int:
    """arctan(1/n) * one, truncating: off by less than one per series term."""
    power = total = one // n  # floor(one / n**(2j+1)) exactly, for every j
    n2, k, sign = n * n, 3, -1
    while power:
        power //= n2
        total += sign * (power // k)
        k, sign = k + 2, -sign
    return total


# (prec, G) for the largest prec built so far, G = floor(sqrt(3)/pi * 2**prec)
_G_FIXED: tuple[int, int] = (0, 0)


def _g_fixed(prec: int) -> int:
    """G with sqrt(3)/pi * 2**prec inside [G - 1, G + 2]."""
    global _G_FIXED
    have, g = _G_FIXED
    if prec > have:
        have = max(prec, 2 * have)
        # Machin's formula is off by under 4*w units of 2**-w, and isqrt by
        # under one; the guard bits push both far below one unit of G
        w = have + have.bit_length() + 32
        one = 1 << w
        pi = 4 * (4 * _arctan_inv(5, one) - _arctan_inv(239, one))
        g = (math.isqrt(3 << 2 * w) << have) // pi
        _G_FIXED = (have, g)
    return g >> (have - prec)


def _round_nearest(nums: Sequence[int], den: int, prec: int) -> float:
    """Correctly rounded float of a nonzero p = sum n_k g^k / den, by Ziv's method.

    With x = sqrt(3)/pi * 2**prec inside [G - 1, G + 2] and p = sum n_k g^k
    / den, p * den * 2**(K*prec) = sum n_k x^k 2**((K-k)*prec) lies between
    integers lo and hi that take each term at the end of x its sign favours.
    Int/int division rounds correctly and monotonically, so when lo and hi
    round to the same float of one sign, so does p; otherwise prec doubles.
    A bound beyond the float range leaves the interval undecided, unless
    both bounds lie beyond it on one side: then so does p, which raises
    OverflowError as ``float(int)`` does.
    """
    degree = len(nums) - 1
    while True:
        lo = hi = 0
        for n, (lo_pow, hi_pow) in zip(nums, _bounds(_g_fixed(prec), prec, degree)):
            if n > 0:
                lo += n * lo_pow
                hi += n * hi_pow
            else:
                lo += n * hi_pow
                hi += n * lo_pow
        scale = den << (degree * prec)
        a, b = _quotient(lo, scale), _quotient(hi, scale)
        if a == b and (lo < 0) == (hi < 0):
            if math.isinf(a):
                raise OverflowError("integer division result too large for a float")
            return a
        prec *= 2


@functools.lru_cache(maxsize=128)
def _bounds(g: int, prec: int, degree: int) -> tuple[tuple[int, int], ...]:
    """((G - 1)**k, (G + 2)**k) * 2**((degree - k)*prec) for k = 0..degree, G = ``_g_fixed(prec)``.

    Each is x**k * 2**((degree - k)*prec) at one end of x's interval.  The
    cache is keyed on G too, so a table always matches the G it was built from.
    """
    lo = hi = 1 << (degree * prec)
    out = [(lo, hi)]
    for _ in range(degree):
        lo = (lo >> prec) * (g - 1)
        hi = (hi >> prec) * (g + 2)
        out.append((lo, hi))
    return tuple(out)


def _quotient(n: int, d: int) -> float:
    """n / d correctly rounded, or an infinity of n's sign beyond the float range."""
    try:
        return n / d
    except OverflowError:
        return -math.inf if n < 0 else math.inf


def round_sqrt3_times(r: Fraction) -> float:
    """Correctly rounded float of sqrt(3)*r, by Ziv's method.

    s = isqrt(3 * 4**prec) puts sqrt(3) * 2**prec inside [s, s + 1], so
    sqrt(3) * r * den * 2**prec lies between s*num and (s + 1)*num.  When
    both round to the same float, so does sqrt(3)*r; otherwise prec doubles.
    sqrt(3)*r is irrational unless r = 0, so the loop ends.
    """
    prec = 64
    while True:
        s = math.isqrt(3 << 2 * prec)
        scale = r.denominator << prec
        a, b = s * r.numerator / scale, (s + 1) * r.numerator / scale
        if a == b:
            return a
        prec *= 2


def bareiss(m: list[list], n: int, one) -> int:
    """Fraction-free elimination of the first n columns of rows ``m[:n]``, in place.

    Each step is Bareiss's v <- (v*p - f*w) // prev, p the pivot and prev
    the one before, exact over ``int`` and ``SqrtPiPoly`` (whose unit is
    ``one``) since every entry is a minor (Math. Comp. 22, 1968).  It spans
    every column of ``m[:n]`` and leaves later rows alone.  Returns the sign
    of the row swaps, or 0 when the block is singular; the last pivot
    ``m[n-1][n-1]`` is then sign*det of the block.
    """
    sign, prev = 1, one
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        p, tail = m[k][k], m[k][k + 1:]
        for r in m[k + 1:n]:
            f = r[k]
            r[k + 1:] = [(v * p - f * w) // prev for v, w in zip(r[k + 1:], tail)]
        prev = p
    return sign


def back_substitute(m: list[list], n: int, j: int) -> list:
    """d*x for the solution x of column j, after ``bareiss(m, n, ...)`` found det != 0.

    d = m[n-1][n-1] is the determinant of the permuted block, so d*x is
    Cramer's solution, whose entries are minors: each division is exact.
    """
    dx = [None] * n
    for i in reversed(range(n)):
        row = m[i]
        acc = m[n - 1][n - 1] * row[j]
        for k in range(i + 1, n):
            acc = acc - row[k] * dx[k]
        dx[i] = acc // row[i]
    return dx


def det_exact(rows: Sequence[Sequence[SqrtPiPoly]], *, adjugate: bool = False
              ) -> SqrtPiPoly | tuple[SqrtPiPoly, list[list[SqrtPiPoly]] | None]:
    """det M by one fraction-free elimination (``bareiss``) over the polynomial ring.

    With ``adjugate``, returns ``(det M, adj(M))`` from one elimination of
    [M | I] and n back substitutions: with d the last pivot and P the row
    permutation, d = sign(P)*det M and d*M^-1 = sign(P)*adj(M).  adj(M) is
    None when det M = 0.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    zero, one = SqrtPiPoly.zero(), SqrtPiPoly.one()
    m = [list(r) + ([one if j == i else zero for j in range(n)] if adjugate else [])
         for i, r in enumerate(rows)]
    sign = bareiss(m, n, one)
    if not sign:
        return (zero, None) if adjugate else zero
    det = (m[n - 1][n - 1] if n else one) * sign
    if not adjugate:
        return det
    cols = [back_substitute(m, n, n + c) for c in range(n)]
    return det, [[x * sign for x in r] for r in zip(*cols)]


def _make(nums: list[int], den: int) -> SqrtPiPoly:
    """The canonical SqrtPiPoly of nums / den (den > 0), built without Fractions."""
    p = object.__new__(SqrtPiPoly)
    p._set(nums, den)
    return p


def _over_common_denominator(polys: Sequence[SqrtPiPoly]) -> tuple[int, list[tuple[int, ...]]]:
    """One denominator and integer coefficient tuples with p = ints / den."""
    den = math.lcm(*[p.den for p in polys])
    out = []
    for p in polys:
        s = den // p.den
        out.append(p.nums if s == 1 else tuple([n * s for n in p.nums]))
    return den, out


def _int_dot(xs: Sequence[Sequence[int]], ys: Sequence[Sequence[int]]) -> list[int]:
    """Sum of products of integer coefficient polynomials, as one coefficient list."""
    out: list[int] = []
    for x, y in zip(xs, ys):
        if x and y:
            need = len(x) + len(y) - 1 - len(out)
            if need > 0:
                out += [0] * need
            i = 0  # the degree of a; j runs over the degrees of a*b
            for a in x:
                if a:
                    j = i
                    for b in y:
                        out[j] += a * b
                        j += 1
                i += 1
    return out


class BorderedDet:
    """Determinants of a fixed matrix M bordered by one row, column and corner.

    det [[M, col], [row, corner]] = corner*D - row*adj(M)*col with D = det M,
    exactly, whether or not M is singular.  adj(M) is kept as integer
    polynomials over one common denominator, so each bordered determinant
    costs O(n^2) integer products instead of a new O(n^3) elimination.
    Borders take their row, column and corner prepared by ``row``,
    ``adj_col`` and ``corner``, so borders sharing any of them prepare it
    once, and each border costs one row dot.
    """

    def __init__(self, det: SqrtPiPoly, adj: Sequence[Sequence[SqrtPiPoly]]):
        n = len(adj)
        self.det = det
        self.adj_den, flat = _over_common_denominator([x for r in adj for x in r])
        self.adj_num = [flat[k * n:(k + 1) * n] for k in range(n)]

    def adj_col(self, col: Sequence[SqrtPiPoly]) -> tuple[list[list[int]], int]:
        """adj(M)*col as integer polynomials over one denominator."""
        col_den, cs = _over_common_denominator(col)
        return [_int_dot(adj_j, cs) for adj_j in self.adj_num], self.adj_den * col_den

    @staticmethod
    def row(row: Sequence[SqrtPiPoly]) -> tuple[int, list[tuple[int, ...]]]:
        """The row as a denominator and integer polynomials."""
        return _over_common_denominator(row)

    def corner(self, corner: SqrtPiPoly) -> tuple[list[int], int]:
        """corner*D as an integer polynomial over a denominator."""
        return _int_dot([corner.nums], [self.det.nums]), corner.den * self.det.den

    def border(self, row: tuple[int, list[tuple[int, ...]]], adj_col: tuple[list[list[int]], int],
               corner: tuple[list[int], int]) -> tuple[list[int], int]:
        """Unreduced (nums, den) of corner*D - row*adj(M)*col, from ``row``, ``adj_col``, ``corner``."""
        (row_den, rs), (ac, ac_den), (outer, outer_den) = row, adj_col, corner
        inner_den = row_den * ac_den  # row*adj*col is _int_dot(rs, ac) over inner_den
        return ([o * inner_den - i * outer_den
                 for o, i in zip_longest(outer, _int_dot(rs, ac), fillvalue=0)],
                inner_den * outer_den)


class ZetaFrac:
    """Element a + b*zeta of Q(zeta), zeta a primitive cube root of unity.

    Stored as integers (x + y*zeta) / den with den > 0 and gcd(x, y, den) = 1,
    so equal values have equal ``(x, y, den)``; ``a`` and ``b`` are Fraction
    views.  Products reduce with zeta^2 = -1 - zeta.
    """

    __slots__ = ("x", "y", "den")

    def __init__(self, a: Fraction | int = 0, b: Fraction | int = 0):
        a, b = Fraction(a), Fraction(b)
        den = self.den = math.lcm(a.denominator, b.denominator)  # then gcd(x, y, den) = 1
        self.x, self.y = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)

    @property
    def a(self) -> Fraction:
        return Fraction(self.x, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.y, self.den)

    @classmethod
    def zeta_pow(cls, n: int) -> "ZetaFrac":
        return _zeta(*((1, 0), (0, 1), (-1, -1))[n % 3], 1)  # zeta^2 = -1 - zeta

    def conj(self) -> "ZetaFrac":
        """The automorphism zeta -> zeta^(-1) (complex conjugation on Q(zeta))."""
        return _zeta(self.x - self.y, -self.y, self.den)

    def __add__(self, other: "ZetaFrac") -> "ZetaFrac":
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        return _zeta(self.x * s + other.x * t, self.y * s + other.y * t, den)

    def __sub__(self, other: "ZetaFrac") -> "ZetaFrac":
        return self + (-other)

    def __neg__(self) -> "ZetaFrac":
        return _zeta(-self.x, -self.y, self.den)

    def __mul__(self, other):
        if isinstance(other, ZetaFrac):
            x, y, u, v = self.x, self.y, other.x, other.y
            return _zeta(x * u - y * v, x * v + y * u - y * v, self.den * other.den)
        n = other.numerator  # an int or a Fraction
        return _zeta(self.x * n, self.y * n, self.den * other.denominator)

    __rmul__ = __mul__

    def inverse(self) -> "ZetaFrac":
        x, y, den = self.x, self.y, self.den
        norm = x * x - x * y + y * y  # positive unless x = y = 0
        if not norm:
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        return _zeta(den * (x - y), -den * y, norm)  # den * conj / norm

    def __truediv__(self, other: "ZetaFrac") -> "ZetaFrac":
        return self * other.inverse()

    def __pow__(self, n: int) -> "ZetaFrac":
        out = self if n else _zeta(1, 0, 1)
        for _ in range(abs(n) - 1):
            out = out * self
        return out if n >= 0 else out.inverse()

    def is_zero(self) -> bool:
        return not (self.x or self.y)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ZetaFrac)
                and (self.x, self.y, self.den) == (other.x, other.y, other.den))

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.den))

    def to_complex(self) -> complex:
        return complex(self.a) + complex(self.b) * complex(-0.5, math.sqrt(3.0) / 2.0)

    def __repr__(self) -> str:
        return f"ZetaFrac({self.a}, {self.b})"


def _zeta(x: int, y: int, den: int) -> ZetaFrac:
    """The canonical ZetaFrac of (x + y*zeta) / den (den > 0), built without Fractions."""
    g = math.gcd(x, y, den)
    z = object.__new__(ZetaFrac)
    z.x, z.y, z.den = (x, y, den) if g == 1 else (x // g, y // g, den // g)
    return z


def zeta_bracket(exponent: int, f: ZetaFrac) -> ZetaFrac:
    """Antisymmetrized value zeta^k*f minus its conjugate.

    Because conjugation is the automorphism zeta -> zeta^(-1), this equals
    the bracket of the rational function represented by ``f``.  Writing
    zeta^k*f = A + B*zeta, the bracket is B*(1 + 2*zeta) = i*sqrt(3)*B, and
    B is f.b, f.a - f.b or -f.a as k is 0, 1 or 2 mod 3.
    """
    b = (f.y, f.x - f.y, -f.x)[exponent % 3]
    return _zeta(b, 2 * b, f.den)

"""Exact arithmetic kernels used throughout the package.

Two small number systems cover everything the exact code paths need:

* ``SqrtPiPoly`` -- polynomials in g = sqrt(3)/pi with rational
  coefficients.  Coupling values are degree <= 1; determinants of
  coupling matrices stay inside the ring.  Since g is transcendental,
  two expressions agree as real numbers iff they agree coefficientwise,
  which is what makes "exact identity" tests meaningful.
* ``ZetaFrac`` -- the field Q(zeta) with zeta = exp(2*pi*i/3), stored as
  a + b*zeta and reduced via zeta^2 = -1 - zeta.
"""

from __future__ import annotations

import math
from fractions import Fraction
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

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

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

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SqrtPiPoly((other,))
        return isinstance(other, SqrtPiPoly) and self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __float__(self) -> float:
        """Float value; correctly rounded unless the float fast path accepts it.

        Fast path: Horner's rule in floats, accepted when the result keeps
        all but 8 bits of the largest term.  It is not correctly rounded;
        its error is pinned by a test at 512 ulps (the worst measured on
        coupling values and charged-system numerators is 410).  Everything
        else -- cancellation, coefficients beyond the float range, a zero
        accumulator -- is rounded exactly by ``_round_nearest``, starting
        from the bits the fast path saw cancel.  Values beyond the float
        range raise OverflowError, as ``float(int)`` does.
        """
        nums, den = self.nums, self.den
        if not nums:
            return 0.0
        log2_g = -0.8589190189574097  # log2(sqrt(3)/pi)
        top = -math.inf
        for k, n in enumerate(nums):
            if n:
                # bit lengths of the coefficient n/den in lowest terms
                r = math.gcd(n, den)
                top = max(top, ((n // r).bit_length() - (den // r).bit_length()) + k * log2_g)
        if top < 900:
            g = SQRT3_OVER_PI
            val = 0.0
            for n in reversed(nums):
                val = val * g + n / den  # correctly rounded, as float(Fraction)
            if val != 0.0 and math.log2(abs(val)) > top - 8.0:
                return val
        else:
            val = 0.0
        # a nonzero coefficient vector is a nonzero number (g transcendental),
        # so an exactly cancelled accumulator only means "not enough bits"
        loss = top - (math.log2(abs(val)) if val else top)
        return _round_nearest(self, int(loss) + 80)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "SqrtPiPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*(sqrt3/pi)")
            else:
                terms.append(f"{c}*(sqrt3/pi)^{i}")
        return " + ".join(terms)


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


def _round_nearest(p: SqrtPiPoly, prec: int) -> float:
    """Correctly rounded float of a nonzero p, by Ziv's method.

    With x = sqrt(3)/pi * 2**prec inside [G - 1, G + 2] and p = sum n_k g^k
    / den, p * den * 2**(K*prec) = sum n_k x^k 2**((K-k)*prec) lies between
    integers lo and hi that take each term at the end of x its sign favours.
    Int/int division rounds correctly and monotonically, so when lo and hi
    round to the same float of one sign, so does p; otherwise prec doubles.
    """
    nums, den = p.nums, p.den
    degree = len(nums) - 1
    while True:
        g = _g_fixed(prec)
        x_lo, x_hi = g - 1, g + 2
        lo = hi = 0
        lo_pow = hi_pow = 1 << (degree * prec)  # x^k * 2**((K-k)*prec)
        for k, n in enumerate(nums):
            if n > 0:
                lo += n * lo_pow
                hi += n * hi_pow
            elif n < 0:
                lo += n * hi_pow
                hi += n * lo_pow
            if k < degree:
                lo_pow = (lo_pow >> prec) * x_lo
                hi_pow = (hi_pow >> prec) * x_hi
        scale = den << (degree * prec)
        a, b = lo / scale, hi / scale
        if a == b and (lo < 0) == (hi < 0):
            return a
        prec *= 2


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


def solve_exact(mat: Sequence[Sequence[Fraction]], rhs: Sequence) -> list:
    """Solve mat * x = rhs by Gauss-Jordan elimination with exact pivots.

    ``mat`` is a square matrix of Fractions; the entries of ``rhs`` may lie
    in any ring that multiplies by a Fraction (Fractions, ``SqrtPiPoly``).
    Raises ZeroDivisionError when mat is singular.
    """
    n = len(mat)
    mat = [list(r) for r in mat]
    rhs = list(rhs)
    for col in range(n):
        piv = next((i for i in range(col, n) if mat[i][col]), None)
        if piv is None:
            raise ZeroDivisionError("solve with a singular matrix")
        mat[col], mat[piv] = mat[piv], mat[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = Fraction(1) / mat[col][col]
        # later steps read only the columns right of col
        tail = [m * inv for m in mat[col][col + 1:]]
        mat[col][col + 1:] = tail
        rhs[col] = rhs[col] * inv
        for i in range(n):
            factor = mat[i][col]
            if i != col and factor:
                mat[i][col + 1:] = [m - factor * t for m, t in zip(mat[i][col + 1:], tail)]
                rhs[i] = rhs[i] - rhs[col] * factor
    return rhs


def det_exact(rows: Sequence[Sequence[SqrtPiPoly]]) -> SqrtPiPoly:
    """Fraction-free Bareiss determinant over the polynomial ring."""
    n = len(rows)
    if n == 0:
        return SqrtPiPoly.one()
    m = [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = SqrtPiPoly.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return SqrtPiPoly.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
        prev = m[k][k]
    return m[n - 1][n - 1] if sign == 1 else -m[n - 1][n - 1]


def adjugate_exact(rows: Sequence[Sequence[SqrtPiPoly]]) -> list[list[SqrtPiPoly]]:
    """Adjugate of a nonsingular matrix by fraction-free Gauss-Jordan elimination.

    Eliminating above and below each pivot of [M | I] with Bareiss's exact
    divisions ends at [d*I | d*M^-1], where d = det(PM) for the row
    permutation P; the right block is therefore sign(P)*adj(M).  One
    elimination costs O(n^3) ring operations.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("adjugate of a non-square matrix")
    zero, one = SqrtPiPoly.zero(), SqrtPiPoly.one()
    m = [list(r) + [one if j == i else zero for j in range(n)] for i, r in enumerate(rows)]
    sign = 1
    prev = one
    for k in range(n):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                raise ZeroDivisionError("adjugate of a singular matrix")
        pivot, pivot_row = m[k][k], m[k]
        for i in range(n):
            if i == k:
                continue
            row = m[i]
            f = row[k]
            for j in range(2 * n):
                if j != k and not (row[j].is_zero() and pivot_row[j].is_zero()):
                    row[j] = (row[j] * pivot - f * pivot_row[j]).exact_div(prev)
            row[k] = zero
        prev = pivot
    return [[x if sign == 1 else -x for x in r[n:]] for r in m]


def _make(nums: list[int], den: int) -> SqrtPiPoly:
    """The canonical SqrtPiPoly of nums / den (den > 0), built without Fractions."""
    p = object.__new__(SqrtPiPoly)
    p._set(nums, den)
    return p


def _over_common_denominator(polys: Sequence[SqrtPiPoly]) -> tuple[int, list[tuple[int, ...]]]:
    """One denominator and integer coefficient tuples with p = ints / den."""
    den = math.lcm(*(p.den for p in polys))
    return den, [p.nums if p.den == den else tuple(n * (den // p.den) for n in p.nums)
                 for p in polys]


def _int_dot(xs: Sequence[Sequence[int]], ys: Sequence[Sequence[int]]) -> list[int]:
    """Sum of products of integer coefficient polynomials, as one coefficient list."""
    out: list[int] = []
    for x, y in zip(xs, ys):
        if x and y:
            need = len(x) + len(y) - 1 - len(out)
            if need > 0:
                out.extend([0] * need)
            for i, a in enumerate(x):
                if a:
                    for j, b in enumerate(y):
                        out[i + j] += a * b
    return out


class BorderedDet:
    """Determinants of a fixed matrix M bordered by one row, column and corner.

    det [[M, col], [row, corner]] = corner*D - row*adj(M)*col with D = det M,
    exactly, whether or not M is singular.  adj(M) is kept as integer
    polynomials over one common denominator, so each bordered determinant
    costs O(n^2) integer products instead of a new O(n^3) elimination.
    Borders sharing a column share ``adj_col(col)``, so each of them costs
    one row dot and corner*D.
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

    def border(
        self, row: Sequence[SqrtPiPoly], adj_col: tuple[list[list[int]], int], corner: SqrtPiPoly
    ) -> SqrtPiPoly:
        """corner*D - row*adj(M)*col, given ``adj_col(col)``."""
        ac, ac_den = adj_col
        row_den, rs = _over_common_denominator(row)
        inner = _int_dot(rs, ac)  # row*adj*col, over row_den*ac_den
        outer = _int_dot([corner.nums], [self.det.nums])  # corner*D
        inner_den = row_den * ac_den
        outer_den = corner.den * self.det.den
        size = max(len(inner), len(outer))
        inner += [0] * (size - len(inner))
        outer += [0] * (size - len(outer))
        return _make([o * inner_den - i * outer_den for o, i in zip(outer, inner)],
                     inner_den * outer_den)


class ZetaFrac:
    """Element a + b*zeta of Q(zeta), zeta a primitive cube root of unity."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction | int = 0, b: Fraction | int = 0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @classmethod
    def zeta_pow(cls, n: int) -> "ZetaFrac":
        r = n % 3
        if r == 0:
            return cls(1, 0)
        if r == 1:
            return cls(0, 1)
        return cls(-1, -1)  # zeta^2 = -1 - zeta

    def conj(self) -> "ZetaFrac":
        """The automorphism zeta -> zeta^(-1) (complex conjugation on Q(zeta))."""
        return ZetaFrac(self.a - self.b, -self.b)

    def __add__(self, other: "ZetaFrac") -> "ZetaFrac":
        return ZetaFrac(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "ZetaFrac") -> "ZetaFrac":
        return ZetaFrac(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "ZetaFrac":
        return ZetaFrac(-self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ZetaFrac(self.a * other, self.b * other)
        a, b, c, d = self.a, self.b, other.a, other.b
        return ZetaFrac(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def inverse(self) -> "ZetaFrac":
        norm = self.a * self.a - self.a * self.b + self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        cj = self.conj()
        return ZetaFrac(cj.a / norm, cj.b / norm)

    def __truediv__(self, other: "ZetaFrac") -> "ZetaFrac":
        return self * other.inverse()

    def __pow__(self, n: int) -> "ZetaFrac":
        out = ZetaFrac(1)
        for _ in range(abs(n)):
            out = out * self
        return out if n >= 0 else out.inverse()

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, ZetaFrac) and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def to_complex(self) -> complex:
        return complex(self.a) + complex(self.b) * complex(-0.5, math.sqrt(3.0) / 2.0)

    def __repr__(self) -> str:
        return f"ZetaFrac({self.a}, {self.b})"


def zeta_bracket(exponent: int, f: ZetaFrac) -> ZetaFrac:
    """Antisymmetrized value zeta^k*f minus its conjugate.

    Because conjugation is the automorphism zeta -> zeta^(-1), this equals
    the bracket of the rational function represented by ``f``.  Writing
    zeta^k*f = A + B*zeta, the bracket is B*(1 + 2*zeta) = i*sqrt(3)*B, and
    B is f.b, f.a - f.b or -f.a as k is 0, 1 or 2 mod 3.
    """
    k = exponent % 3
    b = f.b if k == 0 else f.a - f.b if k == 1 else -f.a
    return ZetaFrac(b, 2 * b)

"""Exact comparisons against fractional powers of n.

All density thresholds in this package have the shape  const * n**(a - b*eps)
with rational constants.  Comparing integers against such thresholds with
floats would introduce a tolerance exactly where the accept/reject rules are
tight, so every comparison is done in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


def cmp_pow(value: Rat, n: int, expo: Fraction) -> int:
    """Sign of ``value - n**expo``, computed exactly.

    ``n`` must be a positive integer; ``expo`` may be any rational.
    """
    if n < 1:
        raise ValueError("cmp_pow requires n >= 1")
    value = Fraction(value)
    expo = Fraction(expo)
    if n == 1 or expo == 0:
        rhs = Fraction(1)
        return (value > rhs) - (value < rhs)
    if value <= 0:
        return -1  # n**expo > 0 always
    # value ? n**(p/q)  <=>  value**q ? n**p   (all quantities positive)
    p, q = expo.numerator, expo.denominator
    lhs = value ** q
    rhs = Fraction(n) ** p
    return (lhs > rhs) - (lhs < rhs)


@dataclass(frozen=True)
class EpsScale:
    """Threshold evaluator for quantities of the form n**(a - b*eps).

    The exponent ``eps`` is carried in one of two exact forms: as a rational
    exponent itself, or as the rational value ``q = n**(-eps)`` (this is how
    the pipeline realizes eps from a concrete link density, where the
    exponent would be irrational but q is a ratio of integers).
    """

    n: int
    q: Fraction | None = None
    eps: Fraction | None = None

    def __post_init__(self):
        if (self.q is None) == (self.eps is None):
            raise ValueError("exactly one of q, eps must be given")
        if self.q is not None and not 0 < self.q <= 1:
            raise ValueError("q = n**(-eps) must lie in (0, 1]")

    def cmp(self, value: Rat, a: int, b: int) -> int:
        """Sign of ``value - n**(a - b*eps)``, exact."""
        if self.q is not None:
            rhs = Fraction(self.n) ** a * self.q ** b
            value = Fraction(value)
            return (value > rhs) - (value < rhs)
        return cmp_pow(value, self.n, Fraction(a) - b * self.eps)

    def floor(self, c: Rat, a: int, b: int) -> int:
        """Largest integer m with ``m <= c * n**(a - b*eps)``, exact; c >= 0.

        An integer passes ``count <= c * n**(a - b*eps)`` exactly when it is
        at most this cutoff, so a threshold shared by many integer tests is
        worked out once.
        """
        c = Fraction(c)
        if c < 0:
            raise ValueError("cutoffs need c >= 0")
        if self.q is not None:
            x = c * Fraction(self.n) ** a * self.q ** b
            return x.numerator // x.denominator
        if c == 0:
            return 0

        def above(m: int) -> bool:  # m > c * n**(a - b*eps)
            return self.cmp(m / c, a, b) > 0

        lo, hi = 0, 1  # invariant: lo <= c * n**(...) < hi once hi is found
        while not above(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if above(mid):
                hi = mid
            else:
                lo = mid
        return lo

    def ceil(self, c: Rat, a: int, b: int) -> int:
        """Least integer m with ``m >= c * n**(a - b*eps)``, exact; c >= 0."""
        m = self.floor(c, a, b)
        if c == 0 or self.cmp(m / Fraction(c), a, b) == 0:
            return m
        return m + 1

    def eps_float(self) -> float:
        """The exponent as a float, for diagnostics only."""
        import math

        if self.eps is not None:
            return float(self.eps)
        if self.n <= 1 or self.q == 1:
            return 0.0
        return -math.log(float(self.q)) / math.log(self.n)

"""Exact comparisons against fractional powers of n.

All density thresholds in this package have the shape  const * n**(a - b*eps)
with rational constants.  Comparing integers against such thresholds with
floats would introduce a tolerance exactly where the accept/reject rules are
tight, so every comparison is done in exact rational arithmetic.

``cmp_pow`` compares against n**expo for a rational exponent (the z-scan's
delta).  ``EpsScale`` evaluates the thresholds in eps, which the pipeline
realizes from the chosen link as the rational q = n**(-eps).
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

    The exponent is carried as the rational value ``q = n**(-eps)``: the
    pipeline realizes eps from a concrete link density, where the exponent
    would be irrational but q is a ratio of integers.  Every threshold
    n**(a - b*eps) = n**a * q**b is then an exact rational.
    """

    n: int
    q: Fraction

    def __post_init__(self):
        if not 0 < self.q <= 1:
            raise ValueError("q = n**(-eps) must lie in (0, 1]")

    def _scaled(self, c: Rat, a: int, b: int) -> Fraction:
        """``c * n**(a - b*eps)``, exact; c >= 0."""
        c = Fraction(c)
        if c < 0:
            raise ValueError("cutoffs need c >= 0")
        return c * Fraction(self.n) ** a * self.q ** b

    def cmp(self, value: Rat, a: int, b: int) -> int:
        """Sign of ``value - n**(a - b*eps)``, exact."""
        rhs = self._scaled(1, a, b)
        value = Fraction(value)
        return (value > rhs) - (value < rhs)

    def floor(self, c: Rat, a: int, b: int) -> int:
        """Largest integer m with ``m <= c * n**(a - b*eps)``, exact; c >= 0.

        An integer passes ``count <= c * n**(a - b*eps)`` exactly when it is
        at most this cutoff, so a threshold shared by many integer tests is
        worked out once.
        """
        x = self._scaled(c, a, b)
        return x.numerator // x.denominator

    def ceil(self, c: Rat, a: int, b: int) -> int:
        """Least integer m with ``m >= c * n**(a - b*eps)``, exact; c >= 0."""
        x = self._scaled(c, a, b)
        return -(-x.numerator // x.denominator)

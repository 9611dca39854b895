"""Exact integer cutoffs for thresholds with a fractional power of n.

The z-scan's density tests compare integer counts against c * n**(p/r),
with c rational and p/r = 2 - delta or 1 + delta, which is irrational for
most n.  Comparing with floats would introduce a tolerance exactly where
the accept/reject rules are tight, so each threshold becomes one integer
cutoff, worked out once: ``floor_pow`` is floor(c * n**(p/r)) and
``ceil_pow`` its ceiling, and counts are compared against them as ints.

For c >= 0 and an integer m >= 0, m <= c * n**(p/r) holds exactly when
m**r <= c**r * n**p, and, m**r being an integer, exactly when
m**r <= floor(c**r * n**p).  So ``floor_pow`` is the integer r-th root of
that floor, found by Newton's iteration on integers from a power-of-two
upper bound; no float enters.

The thresholds in eps, n**(a - b*eps) = n**a * q**b with q = n**(-eps) a
``Fraction``, are rational; ``embed`` cuts them with ``math.floor`` and
``math.ceil`` or compares them as ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


def _iroot(N: int, r: int) -> int:
    """Largest m with m**r <= N, for N >= 0 and r >= 1."""
    if N < 2:
        return N
    x = 1 << -(-N.bit_length() // r)  # 2**ceil(bits / r) > N**(1/r)
    while True:
        # by AM-GM y >= floor(N**(1/r)), and y < x while x is above it
        y = ((r - 1) * x + N // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


def _floor_and_exact(c: Rat, n: int, expo: Rat) -> tuple[int, bool]:
    """floor(c * n**expo), and whether c * n**expo is that integer."""
    c, expo = Fraction(c), Fraction(expo)
    if c < 0 or n < 1:
        raise ValueError("power cutoffs need c >= 0 and n >= 1")
    r = expo.denominator
    power = c ** r * Fraction(n) ** expo.numerator
    m = _iroot(power.numerator // power.denominator, r)
    return m, m ** r == power


def floor_pow(c: Rat, n: int, expo: Rat) -> int:
    """floor(c * n**expo), exact, for rational c >= 0, integer n >= 1 and
    rational expo: an integer count passes ``count <= c * n**expo`` exactly
    when it is at most this cutoff."""
    return _floor_and_exact(c, n, expo)[0]


def ceil_pow(c: Rat, n: int, expo: Rat) -> int:
    """ceil(c * n**expo), exact: an integer count passes
    ``count >= c * n**expo`` exactly when it is at least this cutoff."""
    m, exact = _floor_and_exact(c, n, expo)
    return m if exact else m + 1

"""Exact and log-space combinatorial kernels.

Two numeric regimes are used throughout the package:

  * exact: arbitrary-precision rationals (fractions.Fraction) and plain
    Python integers.  Every probability identity checked in this regime is
    checked without rounding.
  * floats: for walks too large for rational arithmetic.  Positive
    magnitudes that may leave float range are carried as natural
    logarithms in float64 arrays and summed by numpy's pairwise sum after
    shifting by the largest log (sum_exp), so a sum is inf only when it
    leaves float range itself.

This module owns the support-size table C(n,s)(m-1)^s (the binomial row at
m = 2) and all its forms, from one ratio recurrence, _binom_terms, which
refuses m < 2: exact work reads the cached row binom_row, its cofactors
(exact l2) and its logs (the exact TV's sign pass); float work reads
_float_profile, each c / m^n correctly rounded and math.log(c), built in
one pass that holds one integer at a time.

All logarithms are natural logs.  The crossover between the two regimes is
EXACT_BACKEND_MAX_N, fixed.  use_exact is the one backend rule that every
automatic choice goes through (the CLI's, the l2 bounds', the coupling
tail curve's); only spectral_dist's exact-only limit reads the cutoff itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

# Largest n for which the automatic backend choice stays exact.  Chosen so
# that every certification path in the package runs on rationals while bulk
# curve evaluation on walks with thousands of coordinates falls back to
# log-space floats.
EXACT_BACKEND_MAX_N = 400


def use_exact(n: int, backend: str = "auto") -> bool:
    """Whether backend exact, float or auto runs on rationals: auto up to n = EXACT_BACKEND_MAX_N."""
    return backend == "exact" or (backend == "auto" and n <= EXACT_BACKEND_MAX_N)


# Two-sided rational brackets for ln 2, used to decide q <=> ln 2 exactly for
# rational q whose denominator is far smaller than the bracket width (1e-38).
LN2_LO = Fraction(69314718055994530941723212145817656807, 10**38)
LN2_HI = Fraction(69314718055994530941723212145817656809, 10**38)


def binom_row(n: int, m: int = 2) -> tuple[int, ...]:
    """(C(n,0), ..., C(n,w) (m-1)^w, ..., C(n,n) (m-1)^n): the binomial row at m = 2.

    At m > 2 it counts the points of (Z/mZ)^n by support size.  Cached per
    (n, m), however m = 2 is spelled, in a small cache: a loop that reads
    many rows holds them itself.
    """
    return _binom_row(n, m)


@lru_cache(maxsize=8)
def _binom_row(n: int, m: int) -> tuple[int, ...]:
    return tuple(_binom_terms(n, m))


def _binom_terms(n: int, m: int):
    """Yield binom_row(n, m) entry by entry: term[w+1] = term[w] (n-w)(m-1) / (w+1).

    Exact at every step, one big-by-small product per entry, one held.
    """
    if n < 0:
        raise ValueError(f"binom_row requires n >= 0, got n={n}")
    if m < 2:
        raise ValueError(f"the support-size table needs a modulus m >= 2, got m={m}")
    c = 1
    for w in range(n):
        yield c
        c = c * ((n - w) * (m - 1)) // (w + 1)
    yield c


@lru_cache(maxsize=8)
def _cofactors(n: int, m: int) -> tuple[int, tuple[int, ...]]:
    """(L, [L // c]) with L the lcm of binom_row(n, m): each 1/c over one denominator."""
    row = binom_row(n, m)
    L = math.lcm(*row)
    return L, tuple(L // c for c in row)


@lru_cache(maxsize=8)
def _log_multiplicity_row(n: int, m: int) -> tuple[float, ...]:
    """math.log of each binom_row(n, m) entry, as a tuple of floats.

    The exact TV's sign pass reads it without loading numpy.
    """
    return tuple(map(math.log, binom_row(n, m)))


@lru_cache(maxsize=8)
def _float_profile(n: int, m: int = 2):
    """(c / m^n, math.log(c)) for each c of binom_row(n, m): read-only float64 arrays.

    One pass of _binom_terms, so the row is never held.  Each c / m^n is
    correctly rounded (0.0 once it underflows), so float TV's profile has
    mass 1 to within about 2^-53; float l2 reads the logs, which stay finite
    where the profile's tail underflows (above n = 1074 at m = 2).
    """
    import numpy as np

    scale = m**n
    profile, logs = [], []
    for c in _binom_terms(n, m):
        profile.append(c / scale)
        logs.append(math.log(c))
    out = np.array(profile), np.array(logs)
    for a in out:
        a.flags.writeable = False
    return out


def log_binom(n: int, k: int) -> float:
    """ln C(n, k), for callers that want one log without the exact row.

    Uses lgamma; relative accuracy of the log value is a few ulp, verified
    against the big-integer oracle log(comb(n, k)) in the test suite.  The
    package's own float tables take math.log of the exact integers instead.
    """
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"log_binom domain error: n={n}, k={k}")
    if k == 0 or k == n:
        return 0.0
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def hypergeom_numerators(n: int, y: int, k: int) -> dict[int, int]:
    """Integer pmf numerators C(y,i) C(n-y,k-i) over the common denominator C(n, k).

    The hot paths evolve weight chains with these integers directly and
    divide out a single power of C(n,k) at the end, avoiding per-entry gcd
    work that Fraction arithmetic would trigger.  Built from the exact ratio
    of consecutive terms: k+1 small products instead of two binomial rows.
    """
    if not (0 <= y <= n) or not (1 <= k <= n):
        raise ValueError(f"hypergeom_numerators domain error: n={n}, y={y}, k={k}")
    # the support of |S ∩ Y| for a uniform k-subset S and |Y| = y
    support = range(max(0, k - (n - y)), min(y, k) + 1)
    cur = math.comb(y, support.start) * math.comb(n - y, k - support.start)
    out = {}
    for i in support:
        out[i] = cur
        cur = cur * (y - i) * (k - i) // ((i + 1) * (n - y - k + i + 1))
    return out


def sum_exp(logs) -> float:
    """Sum of exp(x) over a float64 array of logs, as exp(max) * sum exp(x - max).

    The shifted terms lie in (0, 1] and numpy sums them pairwise, so the
    answer is inf only when the sum itself is beyond float range.  Entries
    of -inf are zero terms; an array of them alone sums to 0.0.
    """
    top = float(logs.max())
    if top == -math.inf:
        return 0.0
    import numpy as np

    scaled = float(np.exp(logs - top).sum())
    try:
        return math.exp(top) * scaled
    except OverflowError:
        return math.inf


def cmp_ratio_with_ln2(num: int, den: int) -> int:
    """Sign of num/den - ln 2 for den > 0, decided exactly via rational brackets.

    Each bracket is compared by cross-multiplying, so hot loops that hold
    q as an integer ratio pay no gcd.  Raises if num/den falls inside the
    1e-38 bracket, which cannot happen for the small-denominator ratios
    this package compares.
    """
    if num * LN2_LO.denominator <= LN2_LO.numerator * den:
        return -1
    if num * LN2_HI.denominator >= LN2_HI.numerator * den:
        return 1
    raise ArithmeticError(f"q={Fraction(num, den)} is too close to ln 2 for the stored brackets")

"""Exact and log-space primitive checks.

log_binom is tested against an independent big-integer oracle
(math.log of the exact binomial) rather than against itself.
"""

import math
import random
from fractions import Fraction

import pytest

from cubemix.numerics import (
    LN2_HI,
    LN2_LO,
    binom_row,
    cmp_ratio_with_ln2,
    hypergeom_numerators,
    log_binom,
)


def test_binom_row_is_full_row():
    for n in (0, 1, 7, 23, 400, 1100, 5000):
        assert binom_row(n) == tuple(math.comb(n, k) for k in range(n + 1))
        # one cached row per (n, m), however m = 2 is spelled
        assert binom_row(n) is binom_row(n, 2) is binom_row(n, m=2)


def test_log_binom_against_bigint_oracle():
    rng = random.Random(12345)
    for _ in range(1000):
        n = rng.randrange(1, 2001)
        k = rng.randrange(0, n + 1)
        got = log_binom(n, k)
        want = math.log(math.comb(n, k))
        if want == 0.0:
            assert abs(got) < 1e-12
        else:
            assert abs(got - want) <= 1e-12 * abs(want)


def test_log_binom_domain():
    with pytest.raises(ValueError):
        log_binom(5, 6)
    with pytest.raises(ValueError):
        log_binom(-1, 0)


def test_hypergeom_numerators_sum_to_choose():
    for n in range(1, 41):
        for k in range(1, n + 1):
            for y in range(0, n + 1):
                nums = hypergeom_numerators(n, y, k)
                assert sum(nums.values()) == math.comb(n, k)
                assert list(nums) == list(range(max(0, k - (n - y)), min(y, k) + 1))
                for i, c in nums.items():
                    assert c == math.comb(y, i) * math.comb(n - y, k - i)


def test_ln2_bracket_is_tight_and_ordered():
    assert LN2_LO < LN2_HI
    assert LN2_HI - LN2_LO == Fraction(2, 10**38)
    # float ln 2 sits inside the bracket
    assert float(LN2_LO) <= math.log(2) <= float(LN2_HI)


def cmp_with_ln2(q: Fraction) -> int:
    return cmp_ratio_with_ln2(q.numerator, q.denominator)


def test_cmp_with_ln2():
    assert cmp_with_ln2(Fraction(693147, 10**6)) == -1
    assert cmp_with_ln2(Fraction(6931472, 10**7)) == 1
    assert cmp_with_ln2(Fraction(1, 2)) == -1
    assert cmp_with_ln2(Fraction(1)) == 1
    with pytest.raises(ArithmeticError):
        cmp_with_ln2((LN2_LO + LN2_HI) / 2)


def test_cmp_ratio_with_ln2():
    # far from the bracket the sign is that of the float comparison, for
    # reduced and unreduced ratios alike
    for den in range(1, 300):
        for num in range(0, 2 * den):
            want = -1 if num / den < math.log(2) else 1
            assert cmp_ratio_with_ln2(num, den) == want, (num, den)
            assert cmp_ratio_with_ln2(3 * num, 3 * den) == want, (num, den)
    # the bracket ends are inclusive
    lo, hi = LN2_LO, LN2_HI
    assert cmp_ratio_with_ln2(lo.numerator, lo.denominator) == -1
    assert cmp_ratio_with_ln2(2 * hi.numerator, 2 * hi.denominator) == 1
    with pytest.raises(ArithmeticError, match="too close to ln 2"):
        cmp_ratio_with_ln2(2 * (lo.numerator + 1), 2 * lo.denominator)

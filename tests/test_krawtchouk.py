"""Krawtchouk table checks against independent oracles.

The integer kappa table is built from the eigenvalue recurrence
(spectrum.kraw_row) by self-duality, so both are compared with the defining
alternating sum, and the table additionally with the coefficients of the
generating function (1-z)^w (1+z)^(n-w), computed here by direct
polynomial multiplication, and with the three-term recurrence in the row
index, which src does not use.
"""

import math
from fractions import Fraction

import pytest

from cubemix.krawtchouk import (
    kraw_eval,
    kraw_half,
    kraw_integer_table,
    kraw_symmetry_holds,
    verify_symmetry_sweep,
)
from cubemix.spectrum import WalkSpec, cube_eigen_numerators

FROZEN_VALUES = [
    (4, 1, 1, Fraction(1, 2)),
    (4, 2, 2, Fraction(-1, 3)),
    (6, 2, 3, Fraction(-1, 5)),
    (6, 4, 3, Fraction(1, 5)),
    (5, 0, 3, Fraction(1)),
]


def test_frozen_point_values():
    for n, j, x, want in FROZEN_VALUES:
        assert kraw_eval(n, j, x) == want


def test_degree_one_seed():
    # K_1(x) = 1 - 2x/n from the defining sum (not 1 identically)
    for n in range(1, 20):
        for x in range(n + 1):
            assert kraw_eval(n, 1, x) == 1 - Fraction(2 * x, n)


def test_recurrence_matches_defining_sum():
    # with p = 0 the eigenvalue numerators over den = C(n,x) are C(n,x) K_j(x)
    for n in range(1, 61):
        for x in range(1, n + 1):
            nums, den = cube_eigen_numerators(WalkSpec(n, x, 0))
            assert den == math.comb(n, x)
            for j in range(n + 1):
                assert Fraction(nums[j], den) == kraw_eval(n, j, x), (n, j, x)


def test_self_duality():
    for n in range(1, 41):
        kap = kraw_integer_table(n)
        rows = [math.comb(n, i) for i in range(n + 1)]
        for j in range(n + 1):
            for x in range(j, n + 1):
                assert kraw_eval(n, j, x) == kraw_eval(n, x, j)
                # Integer form of the same symmetry.
                assert rows[x] * kap[j][x] == rows[j] * kap[x][j]


def test_integer_table_is_scaled_eval():
    for n in range(1, 31):
        kap = kraw_integer_table(n)
        for j in range(n + 1):
            cj = math.comb(n, j)
            for w in range(n + 1):
                assert kap[j][w] == cj * kraw_eval(n, j, w)


def test_integer_table_satisfies_row_index_recurrence():
    # (j+1) kappa_{j+1}(w) = (n-2w) kappa_j(w) - (n-j+1) kappa_{j-1}(w), from
    # row 0 = all ones and row 1 = n - 2w
    for n in range(0, 61):
        kap = kraw_integer_table(n)
        assert len(kap) == n + 1 and all(len(row) == n + 1 for row in kap)
        assert kap[0] == [1] * (n + 1)
        if n:
            assert kap[1] == [n - 2 * w for w in range(n + 1)]
        for j in range(1, n):
            for w in range(n + 1):
                lhs = (j + 1) * kap[j + 1][w]
                assert lhs == (n - 2 * w) * kap[j][w] - (n - j + 1) * kap[j - 1][w], (n, j, w)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_integer_table_generating_function():
    # column w of the table collects the z-coefficients of (1-z)^w (1+z)^(n-w)
    for n in range(0, 21):
        kap = kraw_integer_table(n)
        for w in range(n + 1):
            poly = [1]
            for _ in range(w):
                poly = _poly_mul(poly, [1, -1])
            for _ in range(n - w):
                poly = _poly_mul(poly, [1, 1])
            assert poly == [kap[j][w] for j in range(n + 1)], (n, w)


def test_half_point_closed_form():
    for n in range(2, 32, 2):
        nums, den = cube_eigen_numerators(WalkSpec(n, n // 2, 0))
        for j in range(n + 1):
            assert kraw_half(n, j) == Fraction(nums[j], den) == kraw_eval(n, j, n // 2)
            if j % 2 == 1:
                assert nums[j] == 0


def test_half_point_domain():
    with pytest.raises(ValueError):
        kraw_half(5, 1)
    with pytest.raises(ValueError):
        kraw_half(4, 5)


def test_domain_errors():
    with pytest.raises(ValueError):
        kraw_eval(4, 5, 1)
    with pytest.raises(ValueError):
        kraw_eval(4, 1, -1)
    with pytest.raises(ValueError):
        kraw_integer_table(-1)


def test_symmetry_identity_holds_on_domain():
    for n in range(2, 22, 2):
        h = n // 2
        for y in range(n + 1):
            for i in range(max(0, y - h), y // 2 + 1):
                assert kraw_symmetry_holds(n, y, i), (n, y, i)


def test_symmetry_domain_raises():
    with pytest.raises(ValueError):
        kraw_symmetry_holds(5, 2, 1)
    with pytest.raises(ValueError):
        kraw_symmetry_holds(6, 2, 2)  # i > y/2


def test_symmetry_sweep_certificate():
    cert = verify_symmetry_sweep(102)
    assert cert["ok"]
    assert cert["violations"] == ()
    assert cert["checked"] == sum(
        (y // 2) - max(0, y - 51) + 1 for y in range(103)
    )
    with pytest.raises(ValueError):
        verify_symmetry_sweep(7)

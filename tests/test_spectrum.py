"""Spectra of both walks: closed forms, multiplicities, certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cubemix import (
    CyclicWalkSpec,
    WalkSpec,
    WeightDistribution,
    cube_eigenvalue,
    cube_spectrum,
    evolve,
    flip_weight_kernel,
    full_transition_matrix,
    kraw_eval,
    kraw_integer_table,
    l2_lower_bound_odd_levels,
    l2_to_uniform,
    l2_upper_bound,
    spectral_dist,
    support_weight_kernel,
    verify_eigenvalue_three_quarters,
    zmn_eigenvalue,
    zmn_l2_upper_bound,
    zmn_spectrum,
)
from cubemix.numerics import _float_profile, binom_row
from cubemix.spectrum import (
    _l2_curve,
    cube_eigen_numerators,
)

HALF = Fraction(1, 2)


def test_cube_eigenvalue_is_lazy_krawtchouk():
    for n, k, p in [(4, 1, HALF), (6, 3, HALF), (7, 2, Fraction(1, 3)), (9, 9, Fraction(0))]:
        spec = WalkSpec(n, k, p)
        for j in range(n + 1):
            assert cube_eigenvalue(spec, j) == p + (1 - p) * kraw_eval(n, j, k)
        for bad in (-1, n + 1):
            with pytest.raises(ValueError):
                cube_eigenvalue(spec, bad)


def test_eigen_numerators_match_integer_table():
    # kappa[k][j] = C(n,k) K_k(j) = C(n,k) K_j(k) by self-duality
    for n in range(1, 41):
        kap = kraw_integer_table(n)
        for k in range(1, n + 1):
            C = math.comb(n, k)
            for p in (Fraction(0), Fraction(1, 3), HALF):
                a, q = p.numerator, p.denominator
                want = [a * C + (q - a) * kap[k][j] for j in range(n + 1)]
                assert cube_eigen_numerators(WalkSpec(n, k, p)) == (want, q * C), (n, k, p)


def test_cube_spectrum_frozen_values():
    # n=6, k=3, p=1/2: levels 0..6.
    table = cube_spectrum(WalkSpec(6, 3))
    values = [r.value for r in table.rows]
    assert values == [
        Fraction(1),
        HALF,
        Fraction(2, 5),
        HALF,
        Fraction(3, 5),
        HALF,
        Fraction(0),
    ]
    assert [r.multiplicity for r in table.rows] == [1, 6, 15, 20, 15, 6, 1]
    assert not table.non_ergodic
    assert table.max_nontrivial_magnitude() == Fraction(3, 5)
    assert cube_spectrum(WalkSpec(6, 3)).max_nontrivial_magnitude() == Fraction(3, 5)


def test_cube_spectrum_multiplicities_sum_to_group_size():
    for n, k in [(1, 1), (5, 2), (10, 7), (16, 3)]:
        table = cube_spectrum(WalkSpec(n, k))
        assert sum(r.multiplicity for r in table.rows) == 1 << n
        assert [r.multiplicity for r in table.rows] == [math.comb(n, j) for j in range(n + 1)]
        assert table.rows[0].value == 1


def test_non_ergodic_flags():
    # Even k traps the walk in a parity coset: top level has eigenvalue 1.
    even = cube_spectrum(WalkSpec(6, 2))
    assert even.non_ergodic
    assert even.rows[6].value == 1
    # No laziness with odd k gives a period-two walk: eigenvalue -1.
    periodic = cube_spectrum(WalkSpec(5, 5, Fraction(0)))
    assert periodic.non_ergodic
    assert periodic.rows[5].value == -1
    # Flipping all n coordinates only ever reaches {x, complement of x}:
    # even levels keep eigenvalue 1 despite laziness.
    assert cube_spectrum(WalkSpec(5, 5)).non_ergodic
    # Lazy odd-k walks with k < n are ergodic.
    assert not cube_spectrum(WalkSpec(5, 3)).non_ergodic
    assert not cube_spectrum(WalkSpec(7, 3, Fraction(1, 4))).non_ergodic


def test_spectrum_matches_dense_diagonalization():
    # The 2^n x 2^n one-step matrix is symmetric, so eigvalsh applies; its
    # spectrum must equal the character formula with C(n,j) multiplicities.
    for n, k, p in [(4, 1, HALF), (5, 2, HALF), (6, 3, Fraction(1, 4)), (6, 2, HALF)]:
        spec = WalkSpec(n, k, p)
        dense = np.linalg.eigvalsh(full_transition_matrix(spec))
        predicted = sorted(float(v) for v in cube_spectrum(spec).eigenvalue_multiset())
        assert np.allclose(np.sort(dense), predicted, atol=1e-10, rtol=0.0)


def test_l2_upper_bound_exact_matches_direct_sum():
    spec = WalkSpec(6, 3)
    for l in range(6):
        direct = sum(
            math.comb(6, j) * cube_eigenvalue(spec, j) ** (2 * l) for j in range(1, 7)
        )
        assert l2_upper_bound(spec, l) == direct


def test_l2_upper_bound_equals_chi_square_of_point_start():
    # Started at a point, the chi-square distance to uniform after l steps
    # is exactly the spectral sum the bound evaluates.
    for n, k, p in [(5, 2, HALF), (6, 3, Fraction(1, 3)), (8, 4, HALF)]:
        spec = WalkSpec(n, k, p)
        for l in range(4):
            assert l2_upper_bound(spec, l) == l2_to_uniform(spectral_dist(spec, l))


def _l2_curve_grid():
    for n in range(1, 17):
        yield from ((n, k) for k in range(1, n + 1))
    for n in (25, 40):
        yield from ((n, k) for k in sorted({1, 2, 3, n // 2, n - 1, n}))


def test_l2_curve_is_chi_square_of_point_start():
    # the eigenvalue-power curve the CLI reads is the chi-square distance of
    # the evolved point start, step by step; p = 0 brings zero eigenvalues
    # (and, for odd k, eigenvalue -1), which must still count 0**0 == 1 at l = 0
    checks = 0
    for n, k in _l2_curve_grid():
        for p in (Fraction(0), Fraction(1, 3), HALF):
            spec = WalkSpec(n, k, p)
            kernel = flip_weight_kernel(spec)
            dist = WeightDistribution.delta(n)
            curve = _l2_curve(spec)
            for l in range(61):
                if l:
                    dist = evolve(dist, kernel, 1)
                assert next(curve) == l2_to_uniform(dist), (n, k, p, l)
                checks += 1
    # the cyclic walk's support-size profile, reduced on (Z/mZ)^n
    for n in range(1, 13):
        for m in (3, 5):
            for k in range(1, n + 1):
                cspec = CyclicWalkSpec(n, m, k)
                kernel = support_weight_kernel(cspec)
                dist = WeightDistribution.delta(n)
                curve = _l2_curve(cspec)
                for l in range(8):
                    if l:
                        dist = evolve(dist, kernel, 1)
                    assert next(curve) == l2_to_uniform(dist, m), (n, m, k, l)
                    checks += 1
    assert checks == 27084 + 1248


def test_float_cyclic_l2_to_uniform_matches_exact_sum_where_the_profile_underflows():
    # at n = 1100 the tail of C(n,s) 2^s / 3^n is 0.0 in floats; the float
    # reduction works in logs, so it still meets the exact spectral sum
    cspec = CyclicWalkSpec(1100, 3, 25)
    dist = evolve(WeightDistribution.delta(1100).to_float(), support_weight_kernel(cspec), 40)
    assert ((_float_profile(1100, 3)[0] == 0) & (dist.vec > 0)).any()
    want = zmn_l2_upper_bound(cspec, 40, exact=True)
    assert l2_to_uniform(dist, 3) == pytest.approx(float(want), rel=1e-12)


def test_l2_curve_matches_per_l_bounds():
    for n in range(1, 13):
        for m in (2, 3, 5):
            for k in range(1, n + 1):
                cspec = CyclicWalkSpec(n, m, k)
                curve = _l2_curve(cspec)
                for l in range(31):
                    assert next(curve) == zmn_l2_upper_bound(cspec, l), (n, m, k, l)
    for spec in (WalkSpec(9, 4, Fraction(0)), WalkSpec(30, 7, Fraction(2, 5))):
        curve = _l2_curve(spec)
        assert [next(curve) for _ in range(31)] == [l2_upper_bound(spec, l) for l in range(31)]


def test_float_l2_curve_matches_float_per_l_bounds():
    # the per-l float bound is the curve's float sum started at l, so the two
    # are equal; CyclicWalkSpec(4, 3, 4) has only zero nontrivial
    # eigenvalues, so its curve is 80 at l = 0 and 0.0 after
    cases = [
        (WalkSpec(6, 3), l2_upper_bound),
        (WalkSpec(4, 2, Fraction(0)), l2_upper_bound),
        (WalkSpec(30, 7, Fraction(2, 5)), l2_upper_bound),
        (WalkSpec(1100, 3), l2_upper_bound),
        (CyclicWalkSpec(12, 3, 5), zmn_l2_upper_bound),
        (CyclicWalkSpec(4, 3, 4), zmn_l2_upper_bound),
    ]
    for spec, bound in cases:
        curve = _l2_curve(spec, exact=False)
        for l in range(41):
            assert next(curve) == bound(spec, l, exact=False), (spec, l)
    curve = _l2_curve(CyclicWalkSpec(4, 3, 4), exact=False)
    assert [next(curve) for _ in range(3)] == [pytest.approx(80.0, rel=1e-15), 0.0, 0.0]


def test_l2_upper_bound_l0_counts_nontrivial_characters():
    for n, k in [(3, 1), (6, 3), (9, 4)]:
        assert l2_upper_bound(WalkSpec(n, k), 0) == (1 << n) - 1
    # a zero eigenvalue still counts 0^0 = 1 at l = 0 in both branches:
    # level 6 of (6, 3), and levels 1 and 3 of (4, 2) at p = 0
    for spec in [WalkSpec(6, 3), WalkSpec(4, 2, p=0), WalkSpec(9, 4)]:
        assert l2_upper_bound(spec, 0, exact=False) == pytest.approx((1 << spec.n) - 1, rel=1e-13)
    cspec = CyclicWalkSpec(5, 3, 2)
    assert zmn_l2_upper_bound(cspec, 0, exact=False) == pytest.approx(3**5 - 1, rel=1e-13)


def test_l2_upper_bound_float_regime_agrees():
    spec = WalkSpec(30, 7)
    for l in [1, 5, 20]:
        exact = float(l2_upper_bound(spec, l, exact=True))
        approx = l2_upper_bound(spec, l, exact=False)
        assert approx == pytest.approx(exact, rel=1e-11)


def test_l2_upper_bound_float_regime_large_n():
    # a float Krawtchouk recurrence is forward-unstable here (|K_j| > 1 from
    # j = 311 at n = 400, k = 7); the float branch must still match exact
    for n, k, l in [(400, 7, 300), (400, 7, 800), (399, 3, 500)]:
        spec = WalkSpec(n, k)
        exact = float(l2_upper_bound(spec, l, exact=True))
        approx = l2_upper_bound(spec, l, exact=False)
        assert approx == pytest.approx(exact, rel=1e-10), (n, k, l)


def test_float_l2_upper_bounds_beyond_float_range_are_inf():
    assert l2_upper_bound(WalkSpec(2000, 3), 5, exact=False) == math.inf
    assert zmn_l2_upper_bound(CyclicWalkSpec(2000, 3, 3), 5, exact=False) == math.inf


def test_l2_lower_bound_odd_levels():
    spec = WalkSpec(6, 3)
    odd_mass = sum(math.comb(6, j) for j in range(1, 7, 2))
    assert odd_mass == 32
    for l in range(5):
        lower = l2_lower_bound_odd_levels(spec, l)
        assert lower == odd_mass * HALF ** (2 * l)
        assert l2_upper_bound(spec, l) >= lower
    with pytest.raises(ValueError):
        l2_lower_bound_odd_levels(WalkSpec(6, 2), 1)
    with pytest.raises(ValueError):
        l2_lower_bound_odd_levels(WalkSpec(8, 4), 1)


def test_zmn_eigenvalue_formula_and_level_bound():
    # Eigenvalues are C(n-w,k)/C(n,k), independent of m, and are dominated
    # by (1 - w/(n+1))^k level by level; both sides stay rational here.
    for n, k in [(5, 2), (12, 5), (40, 11), (60, 31)]:
        cspec = CyclicWalkSpec(n, 3, k)
        for w in range(n + 1):
            eig = zmn_eigenvalue(cspec, w)
            if n - w >= k:
                assert eig == Fraction(math.comb(n - w, k), math.comb(n, k))
            else:
                assert eig == 0
            if w >= 1:
                assert eig <= Fraction(n + 1 - w, n + 1) ** k
    with pytest.raises(ValueError):
        zmn_eigenvalue(CyclicWalkSpec(5, 3, 2), 6)


def test_zmn_eigenvalue_is_m_free():
    for m in [2, 3, 10]:
        assert zmn_eigenvalue(CyclicWalkSpec(7, m, 3), 2) == Fraction(
            math.comb(5, 3), math.comb(7, 3)
        )


def test_zmn_spectrum_multiplicities_sum_to_group_size():
    for n, m, k in [(3, 2, 1), (4, 3, 2), (5, 5, 3)]:
        table = zmn_spectrum(CyclicWalkSpec(n, m, k))
        assert sum(r.multiplicity for r in table.rows) == m**n
        assert table.rows[0].value == 1
        assert not table.non_ergodic


def test_zmn_l2_upper_bound_exact_and_l0():
    cspec = CyclicWalkSpec(6, 3, 2)
    assert zmn_l2_upper_bound(cspec, 0) == 3**6 - 1
    for l in range(4):
        direct = sum(
            math.comb(6, w) * 2**w * zmn_eigenvalue(cspec, w) ** (2 * l)
            for w in range(1, 7)
        )
        assert zmn_l2_upper_bound(cspec, l) == direct


def test_zmn_l2_upper_bound_float_regime_agrees():
    # at (1100, 3, 550) the eigenvalues from w = 550 on lie below float range
    for cspec, ls in [(CyclicWalkSpec(25, 4, 6), [1, 4, 12]), (CyclicWalkSpec(1100, 3, 550), [2, 5])]:
        for l in ls:
            exact = float(zmn_l2_upper_bound(cspec, l, exact=True))
            approx = zmn_l2_upper_bound(cspec, l, exact=False)
            assert approx == pytest.approx(exact, rel=1e-11), (cspec, l)


def test_verify_eigenvalue_three_quarters_small_case():
    cert = verify_eigenvalue_three_quarters(6)
    assert cert.max_abs == Fraction(3, 5)
    assert cert.max_abs_level == 4
    assert cert.bound == Fraction(3, 4)
    assert cert.bound_holds
    assert cert.odd_levels_equal_p
    assert cert.closed_form_matches
    assert cert.levels_checked == 6


def test_verify_eigenvalue_three_quarters_sweep():
    for n in [2, 10, 14, 26, 54, 102]:
        cert = verify_eigenvalue_three_quarters(n)
        assert cert.bound_holds
        assert cert.odd_levels_equal_p
        assert cert.closed_form_matches


def test_verify_eigenvalue_three_quarters_domain():
    for bad in [4, 8, 5, 12]:
        with pytest.raises(ValueError):
            verify_eigenvalue_three_quarters(bad)


def test_spec_validation():
    with pytest.raises(ValueError):
        WalkSpec(0, 1)
    with pytest.raises(ValueError):
        WalkSpec(4, 0)
    with pytest.raises(ValueError):
        WalkSpec(4, 5)
    with pytest.raises(ValueError):
        WalkSpec(4, 2, Fraction(1))
    with pytest.raises(ValueError):
        WalkSpec(4, 2, Fraction(-1, 2))
    with pytest.raises(ValueError):
        CyclicWalkSpec(4, 1, 2)
    with pytest.raises(ValueError):
        CyclicWalkSpec(0, 3, 1)
    with pytest.raises(ValueError):
        CyclicWalkSpec(4, 3, 5)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: WalkSpec(0, 1), "WalkSpec requires n >= 1, got n=0"),
        (lambda: WalkSpec(4, 5), "WalkSpec requires 1 <= k <= n, got k=5, n=4"),
        (lambda: WalkSpec(4, 2, 1.5), "WalkSpec requires 0 <= p < 1, got p=3/2"),
        (lambda: CyclicWalkSpec(0, 3, 1), "CyclicWalkSpec requires n >= 1, got n=0"),
        (lambda: CyclicWalkSpec(4, 1, 2), "CyclicWalkSpec requires m >= 2, got m=1"),
        (lambda: CyclicWalkSpec(4, 3, 5), "CyclicWalkSpec requires 1 <= k <= n, got k=5"),
    ],
)
def test_spec_error_messages(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_specs_are_immutable_value_records():
    spec = WalkSpec(6, 3, 0.5)
    assert spec.p == Fraction(1, 2) and type(spec.p) is Fraction
    assert spec == WalkSpec(6, 3) and repr(spec) == "WalkSpec(n=6, k=3, p=Fraction(1, 2))"
    cspec = CyclicWalkSpec(6, 3, 2)
    assert cspec._asdict() == {"n": 6, "m": 3, "k": 2}
    # the two spec types never compare equal: p < 1 <= k
    assert not isinstance(spec, CyclicWalkSpec) and spec != cspec
    for record, name in ((spec, "p"), (cspec, "m"), (cube_spectrum(spec).rows[0], "value")):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)


def test_zmn_multiplicities_are_the_comb_products():
    for n in range(61):
        for m in (2, 3, 4, 7):
            assert binom_row(n, m) == tuple(math.comb(n, w) * (m - 1) ** w for w in range(n + 1))

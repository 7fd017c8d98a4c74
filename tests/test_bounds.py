"""Step-count bounds and moment formulas, cross-checked at high precision."""

import math
from fractions import Fraction

import mpmath
import pytest

from cubemix import (
    CyclicWalkSpec,
    MomentPair,
    REPORTED_MIXING_TIME_EXAMPLES,
    WalkSpec,
    WeightDistribution,
    chebyshev_lower_bound,
    comparison_step_bound,
    coupling_upper_bound_steps,
    cyclic_step_bound,
    evolve,
    exact_weight_statistic_moments,
    flip_weight_kernel,
    half_flip_step_bound,
    l2_upper_bound,
    reported_steps_comparison,
    second_moment_lower_bound,
    spectral_dist,
    touched_weight_kernel,
    tv_to_uniform,
    weight_eigenfunction,
    weight_statistic_moments,
    zmn_exact_tv,
)

COMPUTED_TABLE = {
    (54, 3): 665,
    (54, 27): 76,
    (418, 7): 3179,
    (418, 209): 109,
    (550, 25): 1221,
    (550, 275): 113,
}


def _mp_stated_steps(n, k, c):
    with mpmath.workdps(50):
        nk = mpmath.mpf(n) / k
        raw = (
            8 * nk * mpmath.log(n)
            + mpmath.mpf(3) / 2 * nk
            + mpmath.sqrt(2) * nk / (mpmath.sqrt(2) - 1)
            + 2
            + c * mpmath.sqrt(nk * mpmath.log(n))
        )
        return int(mpmath.ceil(raw))


def test_coupling_upper_bound_matches_high_precision_oracle():
    for (n, k), expected in COMPUTED_TABLE.items():
        report = coupling_upper_bound_steps(n, k, 1e-9)
        assert report.steps == expected
        assert report.steps == _mp_stated_steps(n, k, mpmath.mpf("1e-9"))
        assert report.variant == "stated"
        assert report.log_convention == "natural (ln)"


def test_coupling_upper_bound_confidence_term():
    base = coupling_upper_bound_steps(54, 27, 1e-9)
    at10 = coupling_upper_bound_steps(54, 27, 10.0)
    assert at10.raw_steps > base.raw_steps
    assert at10.bound == pytest.approx(0.01)
    extra = 10.0 * math.sqrt(2 * math.log(54))
    assert at10.raw_steps - base.raw_steps == pytest.approx(extra, rel=1e-6)


def test_coupling_upper_bound_summary_variant_is_larger():
    stated = coupling_upper_bound_steps(54, 27, 1.0)
    summary = coupling_upper_bound_steps(54, 27, 1.0, variant="summary")
    nk = 2.0
    gap = 1.5 * nk + math.sqrt(2) * nk / (math.sqrt(2) - 1)
    assert summary.raw_steps - stated.raw_steps == pytest.approx(gap, rel=1e-12)
    assert summary.steps >= stated.steps


def test_coupling_upper_bound_table_note_and_domain():
    assert any("published" in note for note in coupling_upper_bound_steps(54, 27, 1.0).notes)
    assert coupling_upper_bound_steps(54, 26, 1.0).notes == ()
    with pytest.raises(ValueError):
        coupling_upper_bound_steps(54, 28, 1.0)
    with pytest.raises(ValueError):
        coupling_upper_bound_steps(54, 27, 0.0)
    with pytest.raises(ValueError):
        coupling_upper_bound_steps(54, 27, 1.0, variant="folk")
    # c * c underflows to 0.0: TV <= inf
    assert coupling_upper_bound_steps(4, 1, 1e-170).bound == math.inf


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda c: coupling_upper_bound_steps(6, 3, c),
        lambda c: cyclic_step_bound(6, 3, 2, c),
        lambda c: comparison_step_bound(6, 3, c),
    ],
    ids=["coupling-upper", "cyclic", "comparison"],
)
def test_step_counts_beyond_float_range_raise_value_error(evaluate):
    # a raw step count of inf (or nan) has no ceiling; it must not leak as
    # OverflowError or "cannot convert float NaN"
    for c in (1e308, math.inf, math.nan):
        with pytest.raises(ValueError, match="beyond float range"):
            evaluate(c)


def test_reported_steps_comparison_rows():
    rows = reported_steps_comparison()
    assert [(r.n, r.k) for r in rows] == sorted(REPORTED_MIXING_TIME_EXAMPLES)
    for r in rows:
        assert r.reported == REPORTED_MIXING_TIME_EXAMPLES[(r.n, r.k)]
        assert r.computed == COMPUTED_TABLE[(r.n, r.k)]
        assert r.difference == r.computed - r.reported
        assert r.difference > 0


def test_half_flip_step_bound_frozen_and_oracle():
    assert half_flip_step_bound(54, 0.01).steps == 147
    assert half_flip_step_bound(2, 0.5).steps == 8
    for n, eps in [(6, 0.5), (10, 0.01), (102, 1e-6)]:
        report = half_flip_step_bound(n, eps)
        with mpmath.workdps(50):
            raw = (n * mpmath.log(2) - mpmath.log(mpmath.mpf(eps))) / mpmath.log(
                mpmath.mpf(4) / 3
            )
            assert report.steps == int(mpmath.ceil(raw))
        assert report.bound == eps
        assert report.bound_metric == "4*tv^2 <= bound"


def test_half_flip_step_bound_actually_achieves_eps():
    # At the returned step count the exact chi-square sum, which dominates
    # 4 TV^2, sits below eps with plenty of room.
    for n, eps in [(6, 0.5), (6, 0.01), (10, 0.25)]:
        steps = half_flip_step_bound(n, eps).steps
        assert float(l2_upper_bound(WalkSpec(n, n // 2), steps)) <= eps


def test_half_flip_step_bound_domain():
    for bad_n in [4, 8, 5]:
        with pytest.raises(ValueError):
            half_flip_step_bound(bad_n, 0.1)
    for bad_eps in [0.0, 1.0, -0.5, 2.0]:
        with pytest.raises(ValueError):
            half_flip_step_bound(6, bad_eps)


def test_weight_statistic_moments_frozen():
    assert weight_statistic_moments(4, 1, 1) == MomentPair(1.5, 0.25)
    ms, var = exact_weight_statistic_moments(4, 1, 1)
    assert ms == Fraction(9, 4)
    assert var == Fraction(1, 4)
    # l = 0: point start, zero variance, mean sqrt(n).
    ms0, var0 = exact_weight_statistic_moments(9, 2, 0)
    assert ms0 == 9
    assert var0 == 0


def test_weight_statistic_moments_match_exact_distribution():
    # First two moments of n - 2W under the exact walk law.
    for n, k in [(4, 1), (6, 3), (9, 2), (7, 7)]:
        for l in range(5):
            probs = spectral_dist(WalkSpec(n, k), l).probs
            m1 = sum(p * (n - 2 * w) for w, p in enumerate(probs))
            m2 = sum(p * (n - 2 * w) ** 2 for w, p in enumerate(probs))
            mean_sq, var = exact_weight_statistic_moments(n, k, l)
            assert m1 * m1 == n * mean_sq
            assert Fraction(m2, n) - mean_sq == var


def test_weight_statistic_moments_domain():
    with pytest.raises(ValueError):
        exact_weight_statistic_moments(1, 1, 1)
    with pytest.raises(ValueError):
        exact_weight_statistic_moments(4, 5, 1)
    with pytest.raises(ValueError):
        exact_weight_statistic_moments(4, 1, -1)


def _chebyshev_from_moments(mean_sq, var, alpha=None):
    # chebyshev_lower_bound's formula, fed float() of the exact moments
    mean = math.sqrt(float(mean_sq))
    if alpha is None:
        alpha = mean / 2
    if alpha <= 0 or alpha >= mean:
        return 0.0
    return max(0.0, 1.0 - 1.0 / (alpha * alpha) - float(var) / ((mean - alpha) ** 2))


def test_float_moments_are_floats_of_the_exact_moments():
    # the float callers divide the moment numerators directly; int / int is
    # correctly rounded, so every float equals float() of the Fraction
    for n in range(2, 61):
        for k in range(1, n + 1):
            for l in (0, 1, 2, 3, 5, 10, 20, 40):
                mean_sq, var = exact_weight_statistic_moments(n, k, l)
                want = MomentPair(mean=math.sqrt(float(mean_sq)), variance=float(var))
                assert weight_statistic_moments(n, k, l) == want, (n, k, l)
                assert chebyshev_lower_bound(n, k, l) == _chebyshev_from_moments(mean_sq, var), (n, k, l)
    mean_sq, var = exact_weight_statistic_moments(60, 7, 9)
    assert chebyshev_lower_bound(60, 7, 9, 1.5) == _chebyshev_from_moments(mean_sq, var, 1.5)


def test_weight_eigenfunctions_and_identity():
    for n in range(2, 13):
        for x in range(n + 1):
            f0 = weight_eigenfunction(n, 0, x)
            f1 = weight_eigenfunction(n, 1, x)
            f2 = weight_eigenfunction(n, 2, x)
            assert f1 * f1 == Fraction(1, n) * f0 + Fraction(n - 1, n) * f2
    with pytest.raises(ValueError):
        weight_eigenfunction(5, 3, 1)


def test_weight_eigenfunctions_are_kernel_eigenvectors():
    for n, k in [(5, 2), (6, 3), (8, 5)]:
        kern = flip_weight_kernel(WalkSpec(n, k))
        # closed forms of the half-lazy walk's levels 0..2, independent of the spectrum code
        lam = {0: Fraction(1), 1: 1 - Fraction(k, n), 2: 1 - Fraction(2 * k * (n - k), n * (n - 1))}
        for j in range(3):
            for w in range(n + 1):
                image = sum(
                    Fraction(c, kern.den) * weight_eigenfunction(n, j, t)
                    for t, c in kern.rows[w].items()
                )
                assert image == lam[j] * weight_eigenfunction(n, j, w)


def test_chebyshev_lower_bound_frozen_and_vacuous():
    assert chebyshev_lower_bound(100, 1, 0, alpha=5.0) == pytest.approx(0.96, abs=1e-15)
    assert chebyshev_lower_bound(10, 1, 1, alpha=100.0) == 0.0
    assert chebyshev_lower_bound(10, 1, 1, alpha=-1.0) == 0.0
    assert chebyshev_lower_bound(10, 1, 500) == 0.0
    # the mean is subnormal, so alpha^2 underflows to 0.0
    assert chebyshev_lower_bound(4, 1, 1296) == 0.0
    assert chebyshev_lower_bound(4, 1, 1297) == 0.0


def test_chebyshev_lower_bound_below_exact_tv():
    for n, k in [(6, 1), (8, 3)]:
        spec = WalkSpec(n, k)
        for l in range(8):
            tv = float(tv_to_uniform(spectral_dist(spec, l)))
            for alpha in [None, 1.5, 2.0]:
                assert chebyshev_lower_bound(n, k, l, alpha) <= tv + 1e-12


def test_second_moment_lower_bound_frozen():
    report = second_moment_lower_bound(54, 27, 0.5)
    assert report.steps == 2
    assert report.bound == chebyshev_lower_bound(54, 27, 2)
    assert any("implied uniform constant" in note for note in report.notes)
    assert second_moment_lower_bound(1000, 1, 1.0).steps == 2453
    assert report.bound_metric == "tv >= bound"


def test_second_moment_lower_bound_domain():
    with pytest.raises(ValueError):
        second_moment_lower_bound(54, 27, 0.0)
    # ln(54)/4 < 1, so c = 1 exceeds the allowed confidence range.
    with pytest.raises(ValueError):
        second_moment_lower_bound(54, 27, 1.0)


def test_cyclic_step_bound_frozen_and_oracle():
    report = cyclic_step_bound(3, 2, 1, 0.0)
    assert report.steps == 4
    assert report.bound == 1.0
    for n, m, k, c in [(3, 2, 1, 0.0), (10, 3, 2, 1.0), (50, 5, 7, 2.0)]:
        rep = cyclic_step_bound(n, m, k, c)
        with mpmath.workdps(50):
            raw = mpmath.mpf(n + 1) / (2 * k) * (mpmath.log(m * n) + c)
            assert rep.steps == int(mpmath.ceil(raw))
        assert rep.bound == pytest.approx(math.exp(-c), rel=1e-15)
    with pytest.raises(ValueError):
        cyclic_step_bound(3, 1, 1, 0.0)
    with pytest.raises(ValueError):
        cyclic_step_bound(3, 2, 1, -0.1)


def test_cyclic_step_bound_actually_holds():
    for n, m, k in [(3, 2, 1), (4, 3, 2), (5, 2, 2)]:
        for c in [0.0, 1.0]:
            steps = cyclic_step_bound(n, m, k, c).steps
            kern = touched_weight_kernel(CyclicWalkSpec(n, m, k))
            tv = zmn_exact_tv(evolve(WeightDistribution.delta(n), kern, steps), m)
            assert float(4 * tv * tv) <= math.exp(-c) + 1e-12


def test_comparison_step_bound_variants():
    stated = comparison_step_bound(6, 2, 1.0)
    conservative = comparison_step_bound(6, 2, 1.0, variant="conservative")
    assert stated.params["A"] == 4.0
    assert conservative.params["A"] == 5.0
    assert conservative.steps > stated.steps
    assert any("2/m + 2m" in note for note in conservative.notes)
    # m >= 3: the claimed constant m^2 already dominates 2/m + 2m.
    at3 = comparison_step_bound(5, 3, 1.0, variant="conservative")
    assert at3.params["A"] == 9.0
    assert at3.notes == ()
    assert stated.bound == pytest.approx((1 + 6.0**-6) * math.exp(-1.0), rel=1e-15)
    with pytest.raises(ValueError):
        comparison_step_bound(5, 1, 1.0)
    with pytest.raises(ValueError):
        comparison_step_bound(5, 2, 1.0, variant="tight")


def test_comparison_step_bound_holds_for_binary_case():
    # For m = 2 the lazy nearest-neighbor walk on (Z/mZ)^n is exactly the
    # lazy 1-flip cube walk, so the transfer bound can be checked end to end.
    for c in [0.0, 1.0]:
        steps = comparison_step_bound(6, 2, c, variant="conservative").steps
        tv = tv_to_uniform(spectral_dist(WalkSpec(6, 1), steps))
        assert float(4 * tv * tv) <= (1 + 6.0**-6) * math.exp(-c) + 1e-12

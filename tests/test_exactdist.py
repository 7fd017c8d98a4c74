"""Lumped kernels, exact evolution, and distances, against naive oracles."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cubemix
from cubemix import exactdist
from cubemix import (
    EXACT_BACKEND_MAX_N,
    CyclicWalkSpec,
    WalkSpec,
    WeightDistribution,
    brute_force_curve,
    brute_force_dist,
    coupling_weight_kernel,
    evolve,
    flip_weight_kernel,
    full_transition_matrix,
    l2_to_uniform,
    l2_upper_bound,
    separation_tail,
    spectral_dist,
    support_weight_kernel,
    touched_weight_kernel,
    tv_to_uniform,
    zmn_exact_tv,
    zmn_l2_upper_bound,
)
from cubemix.exactdist import WeightKernel, _pick_law_floats, _subset_flip_sum
from cubemix.numerics import _float_profile, binom_row, hypergeom_numerators

HALF = Fraction(1, 2)


def test_weight_distribution_constructors(binomial_start):
    d = WeightDistribution.delta(3)
    assert d.probs == (1, 0, 0, 0)
    b = binomial_start(4)
    assert b.probs == (
        Fraction(1, 16),
        Fraction(4, 16),
        Fraction(6, 16),
        Fraction(4, 16),
        Fraction(1, 16),
    )
    f = WeightDistribution(2, nums=[3, 2, 1], den=6)
    assert f.prob(1) == Fraction(1, 3)
    fl = WeightDistribution.from_floats([0.25, 0.5, 0.25])
    assert not fl.exact
    assert fl.prob(1) == 0.5


def test_weight_distribution_validation():
    with pytest.raises(ValueError):
        WeightDistribution(2, nums=[1, 1, 1], den=2)
    with pytest.raises(ValueError):
        WeightDistribution(2, nums=[3, -1, 0], den=2)
    with pytest.raises(ValueError):
        WeightDistribution(2, nums=[1, 1], den=2)
    with pytest.raises(ValueError):
        WeightDistribution.from_floats([0.5, 0.4])


@pytest.mark.parametrize(
    "vec",
    [[math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0], [-0.5, 1.5], [0.5, 0.75, -0.25]],
    ids=["nan", "inf", "negative", "negative-tail"],
)
def test_float_distribution_rejects_nan_inf_and_negative_mass(vec):
    with pytest.raises(ValueError) as err:
        WeightDistribution.from_floats(vec)
    assert len(str(err.value).splitlines()) == 1


def test_float_distribution_accepts_negative_zero():
    assert tv_to_uniform(WeightDistribution.from_floats([-0.0, 1.0])) == 0.5


def test_flip_kernel_frozen_tiny_case():
    kern = flip_weight_kernel(WalkSpec(2, 1))
    assert kern.den == 4
    assert kern.rows[0] == {0: 2, 1: 2}
    assert kern.rows[1] == {1: 2, 2: 1, 0: 1}
    assert kern.rows[2] == {2: 2, 1: 2}
    assert {t: Fraction(c, kern.den) for t, c in kern.rows[0].items()} == {0: HALF, 1: HALF}


def test_flip_kernel_reversible_for_binomial():
    # The walk is symmetric on the cube, so the lumped kernel satisfies
    # detailed balance with binomial weights.
    for n, k, p in [(5, 2, HALF), (6, 3, Fraction(1, 3)), (7, 4, HALF)]:
        kern = flip_weight_kernel(WalkSpec(n, k, p))
        for w in range(n + 1):
            for t, c in kern.rows[w].items():
                assert math.comb(n, w) * c == math.comb(n, t) * kern.rows[t].get(w, 0)


def test_evolve_single_step_is_kernel_row():
    kern = flip_weight_kernel(WalkSpec(5, 2))
    for w in range(6):
        out = evolve(WeightDistribution.delta(5, w), kern, 1)
        assert dict(enumerate(out.probs)) == {
            t: Fraction(kern.rows[w].get(t, 0), kern.den) for t in range(6)
        }


@pytest.mark.parametrize(
    "build",
    [
        lambda: WeightDistribution.delta(3, -1),
        lambda: WeightDistribution.delta(3, 5),
        lambda: WeightKernel(2, rows=[{-1: 1}, {1: 1}, {2: 1}], den=1),
        lambda: WeightKernel(2, rows=[{0: 1}, {1: 1}, {3: 1}], den=1),
        lambda: WeightKernel(2, rows=[{0: 1}, {1: 1}], den=1),
        lambda: WeightKernel(2, rows=[{0: 1}, {1: 1}, {2: 1}, {3: 1}], den=1),
    ],
    ids=["delta-below", "delta-above", "target-below", "target-above", "rows-short", "rows-long"],
)
def test_out_of_range_kernels_and_point_starts_are_rejected(build):
    with pytest.raises(ValueError) as err:
        build()
    assert len(str(err.value).splitlines()) == 1


def test_evolve_validation():
    kern = flip_weight_kernel(WalkSpec(3, 1))
    with pytest.raises(ValueError):
        evolve(WeightDistribution.delta(3), kern, -1)
    with pytest.raises(ValueError):
        evolve(WeightDistribution.delta(4), kern, 1)


def test_tv_and_l2_frozen_tiny_case():
    spec = WalkSpec(2, 1)
    d1 = evolve(WeightDistribution.delta(2), flip_weight_kernel(spec), 1)
    assert tv_to_uniform(d1) == Fraction(1, 4)
    assert l2_to_uniform(d1) == HALF
    fd1 = d1.to_float()
    assert tv_to_uniform(fd1) == pytest.approx(0.25, abs=1e-15)
    assert l2_to_uniform(fd1) == pytest.approx(0.5, rel=1e-13)


def test_to_float_beyond_float_denominators(binomial_start):
    # den = 2^1100, and den = 19760^200 after 200 exact steps: both beyond
    # float range, while every probability is not.
    b = binomial_start(1100).to_float()
    assert b.prob(550) == pytest.approx(math.comb(1100, 550) / 2**1100, rel=1e-15)
    assert l2_to_uniform(b) < 1e-9
    d = evolve(WeightDistribution.delta(60), flip_weight_kernel(WalkSpec(60, 3)), 200)
    assert d.den.bit_length() > 1024
    assert np.array_equal(d.to_float().vec, [float(p) for p in d.probs])


def test_float_uniform_profile_has_unit_mass():
    # The lgamma profile C(n, w)/2^n was off by up to 1.8e-12 in mass, so the
    # float TV of a point mass read above 1 (1.000000000000888 at n=5000).
    for n in (400, 2000, 5000):
        assert abs(math.fsum(_float_profile(n)[0]) - 1.0) <= 1e-15
        tv = tv_to_uniform(WeightDistribution.delta(n).to_float())
        assert 1.0 - 1e-15 <= tv <= 1.0


@pytest.mark.parametrize("n", [1, 2, 400, 401, 1100, 5000])
def test_float_uniform_profile_is_correctly_rounded(n):
    # each entry is the exact C(n, s)(m-1)^s / m^n rounded once, including
    # the entries that underflow to 0.0 above n = 1074
    row = [math.comb(n, s) for s in range(n + 1)]
    for m in (2, 3, 5):
        scale = m**n
        want = [c * (m - 1) ** s / scale for s, c in enumerate(row)]
        assert _float_profile(n, m)[0].tolist() == want, m
        assert _float_profile(n, m)[1].tolist() == [math.log(c) for c in binom_row(n, m)], m


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("reduce", [tv_to_uniform, l2_to_uniform, zmn_exact_tv])
def test_reductions_refuse_a_modulus_below_two(reduce, exact, m):
    # the support-size table's recurrence refuses m < 2 for every reduction;
    # zmn_exact_tv reduces the touched-count profile and is exact-only
    if reduce is zmn_exact_tv:
        dist = evolve(WeightDistribution.delta(6), touched_weight_kernel(CyclicWalkSpec(6, 3, 3)), 3)
        if not exact:
            with pytest.raises(ValueError, match="exact-only"):
                reduce(dist.to_float(), m)
            return
    else:
        dist = evolve(WeightDistribution.delta(6), flip_weight_kernel(WalkSpec(6, 3)), 3)
    with pytest.raises(ValueError, match=f"^the support-size table needs a modulus m >= 2, got m={m}$"):
        reduce(dist if exact else dist.to_float(), m)


def test_no_float_path_builds_the_exact_row(monkeypatch, tmp_path):
    # the float forms stream the table's recurrence; only the cyclic support
    # kernel's small binom_row(k, m) may build a row
    from cubemix import cli, coupling_tail_curve, expected_coupling_time, numerics

    calls = []
    build = numerics._binom_row

    def record(n, m):
        calls.append((n, m))
        return build(n, m)

    monkeypatch.setattr(numerics, "_binom_row", record)
    tv = ["tv", "--n", "1001", "--k", "3", "--steps", "3", "--backend", "float", "--output"]
    assert cli.main([*tv, str(tmp_path / "cube.csv")]) == 0
    assert cli.main([*tv, str(tmp_path / "cyclic.csv"), "--m", "3"]) == 0
    coupling_tail_curve(WalkSpec(1001, 5), 3)
    expected_coupling_time(WalkSpec(1001, 5), exact=False)
    l2_upper_bound(WalkSpec(1001, 3), 5, exact=False)
    zmn_l2_upper_bound(CyclicWalkSpec(1001, 3, 3), 5, exact=False)
    assert (3, 3) in calls
    assert [c for c in calls if c[0] == 1001] == []


def test_float_tv_stays_at_most_one_while_the_laws_are_nearly_disjoint():
    # float evolution keeps mass only to a few ulp, so without the clamp to
    # 1 the half-l1 sum read 1.0000000000000002 at 405 of these 1500 steps
    # (x86-64, numpy's pairwise sum)
    n = 5000
    kernel = flip_weight_kernel(WalkSpec(n, 3))
    d = WeightDistribution.delta(n).to_float()
    for _ in range(1500):
        assert 1.0 - 1e-12 <= tv_to_uniform(d) <= 1.0
        d = evolve(d, kernel, 1)
    heavy = WeightDistribution.from_floats([1.0 + 2.0**-51] + [0.0] * n)
    assert tv_to_uniform(heavy) == 1.0


def test_float_l2_matches_exact_where_the_uniform_profile_underflows():
    # at n = 1100 the uniform profile's tail is 0.0 in floats, while the
    # walk started at 0 still carries most of its l2 distance there
    n = 1100
    d = evolve(WeightDistribution.delta(n), flip_weight_kernel(WalkSpec(n, 3)), 60)
    fd = d.to_float()
    assert ((_float_profile(n)[0] == 0) & (fd.vec > 0)).any()
    exact = l2_to_uniform(d)
    assert l2_to_uniform(fd) == pytest.approx(float(exact), rel=1e-12)


def test_float_evolve_matches_exact_random_sweep():
    rng = random.Random(20261018)
    cases = [(400, 7, HALF, [100, 200, 300])]
    for _ in range(12):
        n = rng.randint(2, 400)
        k = rng.randint(1, min(n, 9))
        p = rng.choice([Fraction(0), Fraction(1, 3), HALF, Fraction(3, 4)])
        cases.append((n, k, p, sorted(rng.sample(range(301), 3))))
    for n, k, p, ls in cases:
        kern = flip_weight_kernel(WalkSpec(n, k, p))
        exact = WeightDistribution.delta(n)
        approx = exact.to_float()
        step = 0
        for l in ls:
            exact = evolve(exact, kern, l - step)
            approx = evolve(approx, kern, l - step)
            step = l
            assert abs(float(tv_to_uniform(exact)) - tv_to_uniform(approx)) <= 1e-12, (n, k, p, l)
            l2 = float(l2_to_uniform(exact))
            l2f = l2_to_uniform(approx)
            assert abs(l2 / (1 + l2) - l2f / (1 + l2f)) <= 1e-12, (n, k, p, l)


def test_float_evolve_keeps_mass_over_long_runs():
    dist = evolve(WeightDistribution.delta(2000).to_float(), flip_weight_kernel(WalkSpec(2000, 7)), 1900)
    assert abs(math.fsum(dist.vec) - 1.0) <= 1e-12


U = 2.0**-53


def test_float_pick_law_table_is_the_exact_law_to_a_few_ulp():
    # Each law starts at 1.0 at its mode and multiplies a once-rounded ratio
    # per step, so entry i rounds about 2|i - mode| times (|i - mode| u);
    # the fsum total carries the entries' mean error, at most sd + 1 <=
    # sqrt(k) + 1 steps, and the division u/2.  The reference is the exact
    # law rounded once (u/2 more); subnormal entries have no relative bound.
    cases = [(n, k) for n in range(1, 25) for k in range(1, n + 1)]
    cases += [(1002, 501), (1002, 3), (1001, 250), (2002, 1001)]
    for n, k in cases:
        g = _pick_law_floats(n, k)
        assert g.shape == (k + 1, n - k + 1)
        C = math.comb(n, k)
        for s in range(0, n + 1, 1 if n < 100 else 41):
            mode = (s + 1) * (k + 1) // (n + 2)
            law = hypergeom_numerators(n, s, k)
            assert set(law) == {i for i in range(k + 1) if 0 <= s - i <= n - k}
            for i, c in law.items():
                want = c / C
                if want >= 2.0**-1000:
                    bound = (abs(i - mode) + math.sqrt(k) + 3) * U
                    assert abs(g[i, s - i] - want) <= bound * want, (n, k, s, i)


def test_float_pick_kernel_diagonals_match_the_exact_rows():
    # the float diagonals are built from the table, never from the integer
    # rows: same offsets and ranges as dividing the rows out, values within
    # the table's bound plus the weight's and the hold's roundings
    for n in range(1, 19):
        for k in range(1, n + 1):
            kernels = [flip_weight_kernel(WalkSpec(n, k, p)) for p in (Fraction(0), HALF, Fraction(2, 3))]
            kernels += [touched_weight_kernel(CyclicWalkSpec(n, 3, k)), support_weight_kernel(CyclicWalkSpec(n, 4, k))]
            for kern in kernels:
                got = kern.diagonals(False)
                assert kern._rows is None, "the float diagonals built the integer rows"
                want = WeightKernel(n, rows=kern.rows, den=kern.den).diagonals(False)
                assert [d[:3] for d in got] == [d[:3] for d in want], (n, k)
                bound = (k + math.sqrt(k) + 5) * U
                for (*_, a), (*_, b) in zip(got, want):
                    assert np.all(np.abs(a - b) <= bound * b), (n, k)


@pytest.mark.parametrize(
    "n,k,steps",
    [(1002, 501, 3), (1001, 500, 2), (1002, 250, 3), (1002, 3, 40), (600, 300, 6), (401, 200, 10)],
)
def test_float_evolve_matches_exact_up_to_k_half_n(n, k, steps):
    # the float pick-law table carries the headline walk k = n/2 beyond the
    # exact cutoff; the tolerance is the random sweep's
    kern = flip_weight_kernel(WalkSpec(n, k))
    exact = WeightDistribution.delta(n)
    approx = exact.to_float()
    for l in range(1, steps + 1):
        exact, approx = evolve(exact, kern, 1), evolve(approx, kern, 1)
        assert abs(float(tv_to_uniform(exact)) - tv_to_uniform(approx)) <= 1e-12, (n, k, l)
        assert abs(math.fsum(approx.vec) - 1.0) <= 1e-12


def test_spectral_evolve_brute_force_agree():
    cases = [
        (2, 1, HALF),
        (4, 1, HALF),
        (5, 2, Fraction(1, 3)),
        (6, 3, HALF),
        (7, 3, Fraction(1, 4)),
    ]
    for n, k, p in cases:
        spec = WalkSpec(n, k, p)
        kern = flip_weight_kernel(spec)
        for l in range(5):
            via_spectrum = spectral_dist(spec, l).probs
            via_kernel = evolve(WeightDistribution.delta(n), kern, l).probs
            via_brute = brute_force_dist(spec, l).weight_marginal().probs
            assert via_spectrum == via_kernel == via_brute


def test_subset_flip_sum_vs_naive_enumeration():
    rng = random.Random(20240817)
    for n in range(1, 7):
        nums = [rng.randrange(1000) for _ in range(1 << n)]
        for k in range(1, n + 1):
            fast = _subset_flip_sum(nums, n, k)
            naive = [0] * (1 << n)
            for combo in itertools.combinations(range(n), k):
                s = 0
                for c in combo:
                    s |= 1 << c
                for x in range(1 << n):
                    naive[x] += nums[x ^ s]
            assert fast == naive


def test_brute_force_matches_dense_matrix_power():
    for n, k, p in [(4, 1, HALF), (4, 3, Fraction(1, 4)), (6, 2, HALF)]:
        spec = WalkSpec(n, k, p)
        P = full_transition_matrix(spec)
        vec = np.zeros(1 << n)
        vec[0] = 1.0
        for l in range(4):
            exact = [float(brute_force_dist(spec, l).prob(x)) for x in range(1 << n)]
            assert np.allclose(vec, exact, atol=1e-13, rtol=0.0)
            vec = vec @ P


def test_brute_force_curve_matches_per_step_calls():
    spec = WalkSpec(5, 2, Fraction(1, 3))
    for l, dist in brute_force_curve(spec, 4):
        ref = brute_force_dist(spec, l)
        assert dist.nums == ref.nums
        assert dist.den == ref.den


def test_brute_force_validation():
    with pytest.raises(ValueError):
        brute_force_dist(WalkSpec(15, 1), 1)
    with pytest.raises(ValueError):
        brute_force_dist(WalkSpec(4, 1), -1)
    with pytest.raises(ValueError):
        list(brute_force_curve(WalkSpec(15, 1), 1))
    with pytest.raises(ValueError):
        spectral_dist(WalkSpec(EXACT_BACKEND_MAX_N + 1, 3), 1)


def test_spectral_dist_large_instance_consistency():
    spec = WalkSpec(54, 27)
    kern = flip_weight_kernel(spec)
    for l in [1, 5, 10]:
        a = spectral_dist(spec, l)
        b = evolve(WeightDistribution.delta(54), kern, l)
        assert a.probs == b.probs
        assert tv_to_uniform(a) == tv_to_uniform(b)


def test_four_tv_squared_at_most_l2():
    spec = WalkSpec(6, 3)
    for l in range(7):
        tv = tv_to_uniform(spectral_dist(spec, l))
        assert 4 * tv * tv <= l2_upper_bound(spec, l)


def test_touched_kernel_structure():
    cspec = CyclicWalkSpec(5, 3, 2)
    kern = touched_weight_kernel(cspec)
    assert kern.den == math.comb(5, 2)
    for w in range(6):
        assert all(t >= w for t in kern.rows[w])
    assert kern.rows[5] == {5: math.comb(5, 2)}


def test_support_kernel_structure():
    # rows sum to C(n,k) m^k and move by -k..k; the uniform support-size
    # profile C(n,s)(m-1)^s / m^n is stationary
    for n in range(1, 13):
        for m in (2, 3, 5):
            for k in range(1, n + 1):
                kern = support_weight_kernel(CyclicWalkSpec(n, m, k))
                assert kern.den == math.comb(n, k) * m**k
                for s, row in enumerate(kern.rows):
                    assert sum(row.values()) == kern.den
                    assert all(0 <= t <= n and -k <= t - s <= k for t in row), (n, m, k, s)
                unif = [math.comb(n, s) * (m - 1) ** s for s in range(n + 1)]
                stationary = WeightDistribution(n, nums=unif, den=m**n)
                assert evolve(stationary, kern, 1).probs == stationary.probs, (n, m, k)


def _enumerated_row(n, k, s, walk, p=0, m=2):
    """Law of the size after one step from a state of size s, by enumeration.

    The state is the lowest s coordinates: set bits for "flip", touched
    coordinates for "touched", digit 1 for "support".  Every k-subset is
    tallied, and for "support" every fresh digit vector in (Z/mZ)^k.
    """
    law = {s: p} if p else {}
    subsets = list(itertools.combinations(range(n), k))
    digits = list(itertools.product(range(m), repeat=k)) if walk == "support" else [None]
    w = (1 - p) / Fraction(len(subsets) * len(digits))
    for picked in subsets:
        for fresh in digits:
            state = [1 if c < s else 0 for c in range(n)]
            for j, c in enumerate(picked):
                if walk == "flip":
                    state[c] ^= 1
                elif walk == "touched":
                    state[c] = 1
                else:
                    state[c] = fresh[j]
            t = sum(1 for v in state if v)
            law[t] = law.get(t, 0) + w
    return law


def test_kernel_rows_match_enumerated_picks():
    # each row of the flip, touched and support kernels is the size law of
    # one step, tallied over every k-subset (and every fresh digit vector)
    for n in range(1, 7):
        for k in range(1, n + 1):
            kernels = [("flip", flip_weight_kernel(WalkSpec(n, k, p)), {"p": p}) for p in (0, Fraction(1, 3))]
            for m in (2, 3):
                kernels.append(("touched", touched_weight_kernel(CyclicWalkSpec(n, m, k)), {"m": m}))
                kernels.append(("support", support_weight_kernel(CyclicWalkSpec(n, m, k)), {"m": m}))
            for walk, kern, params in kernels:
                for s in range(n + 1):
                    row = {t: Fraction(c, kern.den) for t, c in kern.rows[s].items()}
                    assert row == _enumerated_row(n, k, s, walk, **params), (walk, n, k, s, params)


def _curve(kern, lmax):
    """Profiles of the point start at 0 for l = 0..lmax, stepping one profile."""
    prof = WeightDistribution.delta(kern.n)
    yield prof
    for _ in range(lmax):
        prof = evolve(prof, kern, 1)
        yield prof


def _touched_curve(cspec, lmax):
    """Touched-count profiles for l = 0..lmax."""
    return _curve(touched_weight_kernel(cspec), lmax)


def test_separation_tail_basics():
    cspec = CyclicWalkSpec(4, 3, 2)
    assert separation_tail(WeightDistribution.delta(4)) == 1
    values = [separation_tail(prof) for prof in _touched_curve(cspec, 10)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] < Fraction(1, 10)


def test_zmn_tv_l0_is_point_mass_distance():
    for n, m, k in [(3, 2, 1), (4, 3, 2), (5, 2, 3)]:
        kern = touched_weight_kernel(CyclicWalkSpec(n, m, k))
        touched = evolve(WeightDistribution.delta(n), kern, 0)
        assert zmn_exact_tv(touched, m) == 1 - Fraction(1, m**n)


def _naive_zmn_tv(n, m, k, lmax):
    """Exact TV curve by evolving all m^n states, no lumping assumed."""
    states = list(itertools.product(range(m), repeat=n))
    index = {s: i for i, s in enumerate(states)}
    atoms = []
    for combo in itertools.combinations(range(n), k):
        for digits in itertools.product(range(m), repeat=k):
            atoms.append((combo, digits))
    prob = [Fraction(0)] * len(states)
    prob[index[(0,) * n]] = Fraction(1)
    unif = Fraction(1, m**n)
    out = [sum(abs(p - unif) for p in prob) / 2]
    w = Fraction(1, len(atoms))
    for _ in range(lmax):
        nxt = [Fraction(0)] * len(states)
        for i, s in enumerate(states):
            if prob[i]:
                share = prob[i] * w
                for combo, digits in atoms:
                    t = list(s)
                    for c, d in zip(combo, digits):
                        t[c] = d
                    nxt[index[tuple(t)]] += share
        prob = nxt
        out.append(sum(abs(p - unif) for p in prob) / 2)
    return out


def test_touched_reductions_reject_float_profiles():
    cspec = CyclicWalkSpec(5, 3, 2)
    kern = touched_weight_kernel(cspec)
    touched = evolve(WeightDistribution.delta(5).to_float(), kern, 3)
    with pytest.raises(ValueError, match="zmn_exact_tv is exact-only"):
        zmn_exact_tv(touched, 3)
    # separation_tail reads either backend; the float tail is the exact one
    # to rounding
    exact = separation_tail(evolve(WeightDistribution.delta(5), kern, 3))
    tail = separation_tail(touched)
    assert isinstance(exact, Fraction) and isinstance(tail, float)
    assert abs(tail - float(exact)) <= 1e-15


def test_zmn_tv_vs_naive_full_state_oracle():
    # the touched profile through zmn_exact_tv, and the support-size chain
    # through tv_to_uniform, against all m^n states
    for n, m, k in [(3, 2, 1), (2, 3, 1), (3, 2, 2), (2, 2, 2), (3, 3, 2)]:
        cspec = CyclicWalkSpec(n, m, k)
        naive = _naive_zmn_tv(n, m, k, 4)
        supports = _curve(support_weight_kernel(cspec), 4)
        for prof, support, expected in zip(_touched_curve(cspec, 4), supports, naive, strict=True):
            assert zmn_exact_tv(prof, m) == expected
            assert tv_to_uniform(support, m) == expected


def test_zmn_distance_chain():
    # TV <= separation tail, and 4 TV^2 <= the l2 character bound.
    for n, m, k in [(3, 2, 1), (4, 3, 2), (5, 2, 2)]:
        cspec = CyclicWalkSpec(n, m, k)
        for l, prof in enumerate(_touched_curve(cspec, 6)):
            tv = zmn_exact_tv(prof, m)
            assert tv <= separation_tail(prof)
            assert 4 * tv * tv <= zmn_l2_upper_bound(cspec, l)


def _fraction_l2_to_uniform(dist):
    """Reference chi-square distance, summed one Fraction per weight."""
    n = dist.n
    scale = 1 << n
    mult = binom_row(n)
    d2 = dist.den * dist.den
    s = sum(Fraction(v * v, mult[w]) for w, v in enumerate(dist.nums) if v)
    return Fraction(scale, 1) * s / d2 - 1


def _fraction_zmn_tv(prof, m):
    """Reference cyclic TV of a touched profile, one Fraction per (s, w) term."""
    n = prof.n
    q = prof.probs
    mult = binom_row(n)
    unif = Fraction(1, m**n)
    total = Fraction(0)
    for s in range(n + 1):
        ps = Fraction(0)
        for w in range(s, n + 1):
            if prof.nums[w]:
                ps += q[w] * Fraction(math.comb(n - s, w - s), mult[w] * m**w)
        total += mult[s] * (m - 1) ** s * abs(ps - unif)
    return total / 2


def test_l2_to_uniform_matches_fraction_oracle_off_point_starts(binomial_start):
    # the golden digests pin only point starts; the binomial start is
    # stationary, the random ones are not
    rng = random.Random(20261018)
    for n in range(1, 31):
        weights = [rng.randrange(20) for _ in range(n)] + [1]
        starts = [
            binomial_start(n),
            WeightDistribution(n, nums=weights, den=sum(weights)),
        ]
        spec = WalkSpec(n, rng.randint(1, n), rng.choice([0, Fraction(1, 3), HALF]))
        kern = flip_weight_kernel(spec)
        for dist in starts:
            for _ in range(4):
                assert l2_to_uniform(dist) == _fraction_l2_to_uniform(dist), n
                dist = evolve(dist, kern, 1)


def test_exact_cyclic_reductions_do_not_load_numpy():
    # exact tv and l2 on (Z/3Z)^n run on ints and Fractions alone
    script = (
        "import sys\n"
        "from cubemix import CyclicWalkSpec, WeightDistribution, evolve, l2_to_uniform\n"
        "from cubemix import support_weight_kernel, tv_to_uniform, zmn_l2_upper_bound\n"
        "cspec = CyclicWalkSpec(8, 3, 2)\n"
        "dist = evolve(WeightDistribution.delta(8), support_weight_kernel(cspec), 10)\n"
        "tv_to_uniform(dist, 3)\n"
        "assert l2_to_uniform(dist, 3) == zmn_l2_upper_bound(cspec, 10)\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(cubemix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_zmn_exact_tv_matches_fraction_oracle():
    # every k and m in {2, 3, 5} for n <= 20; l = 0, 30 and one seeded l
    # between, so that the sweep as a whole covers the steps in between.
    # The support-size chain's tv_to_uniform(., m) gives the same Fraction.
    rng = random.Random(6)
    for n in range(1, 21):
        for k in range(1, n + 1):
            kern = touched_weight_kernel(CyclicWalkSpec(n, 2, k))
            supports = {m: _curve(support_weight_kernel(CyclicWalkSpec(n, m, k)), 30) for m in (2, 3, 5)}
            prof = WeightDistribution.delta(n)
            checked = {0, rng.randrange(1, 30), 30}
            for l in range(31):
                support = {m: next(curve) for m, curve in supports.items()}
                for m in (2, 3, 5) if l in checked else ():
                    got = zmn_exact_tv(prof, m)
                    assert got == _fraction_zmn_tv(prof, m), (n, m, k, l)
                    assert tv_to_uniform(support[m], m) == got, (n, m, k, l)
                prof = evolve(prof, kern, 1)


def _abs_sum_tv(dist, m=2):
    """Reference exact TV: the per-weight sum of |v m^n - C(n,w)(m-1)^w den| / (2 den m^n)."""
    n, den, scale = dist.n, dist.den, m**dist.n
    s = sum(abs(v * scale - math.comb(n, w) * (m - 1) ** w * den) for w, v in enumerate(dist.nums))
    return Fraction(s, 2 * den * scale)


def _sign_pass_curves(n_values, lmax, seed):
    """(label, dist, m) along flip curves for p in {0, 1/3, 1/2}, each reduced
    against m in {2, 3, 5}, and along support curves for m in {3, 5}; one
    seeded k per curve, every l <= lmax."""
    rng = random.Random(seed)
    for n in n_values:
        for p in (0, Fraction(1, 3), HALF):
            kern = flip_weight_kernel(WalkSpec(n, rng.randint(1, n), p))
            for l, dist in enumerate(_curve(kern, lmax)):
                for m in (2, 3, 5):
                    yield (n, p, m, l), dist, m
        for m in (3, 5):
            kern = support_weight_kernel(CyclicWalkSpec(n, m, rng.randint(1, n)))
            for l, dist in enumerate(_curve(kern, lmax)):
                yield (n, "support", m, l), dist, m


def test_tv_sign_pass_matches_abs_sum_oracle():
    # the curves include the zero entries of early steps (weights not yet
    # reached) and the parity zeros of p = 0
    for label, dist, m in _sign_pass_curves(range(1, 41), 60, 20261019):
        assert tv_to_uniform(dist, m) == _abs_sum_tv(dist, m), label


def test_tv_sign_pass_settles_every_weight_exactly_with_an_infinite_band(monkeypatch):
    # with no band every nonzero weight takes the exact comparison
    monkeypatch.setattr(exactdist, "_SIGN_TOL", math.inf)
    for label, dist, m in _sign_pass_curves(range(1, 41, 3), 30, 7):
        assert tv_to_uniform(dist, m) == _abs_sum_tv(dist, m), label


def test_tv_sign_pass_exact_ties(binomial_start):
    # at n = 2, k = 1, p = 1/2, step 1, weight 1 has mass 1/2, exactly uniform
    d1 = evolve(WeightDistribution.delta(2), flip_weight_kernel(WalkSpec(2, 1)), 1)
    assert d1.nums[1] * 4 == 2 * d1.den
    assert tv_to_uniform(d1) == _abs_sum_tv(d1) == Fraction(1, 4)
    # the binomial start is stationary: every weight is a tie, far beyond
    # the float profile's range too
    for n, k in ((40, 7), (1100, 3)):
        dist = evolve(binomial_start(n), flip_weight_kernel(WalkSpec(n, k)), 2)
        assert tv_to_uniform(dist) == 0


def test_tv_sign_pass_skips_zero_weights():
    # a zero weight is never in the excess set, however small its uniform mass
    for n in (5, 60, 1100):
        for w in (0, n // 2, n):
            dist = WeightDistribution.delta(n, w)
            assert tv_to_uniform(dist) == _abs_sum_tv(dist), (n, w)
    dist = WeightDistribution(6, nums=[0, 0, 3, 0, 5, 0, 0], den=8)
    for m in (2, 3, 5):
        assert tv_to_uniform(dist, m) == _abs_sum_tv(dist, m), m


def _row_step(nums, rows):
    """One step of the kernel as new[t] = sum over w of rows[w][t] nums[w], entry by entry."""
    n = len(nums) - 1
    return [sum(rows[w].get(t, 0) * nums[w] for w in range(n + 1)) for t in range(n + 1)]


def test_exact_evolve_matches_row_dict_oracle():
    # the oracle reads each kernel's rows, never its diagonals
    rng = random.Random(22)
    for n in range(1, 31):
        k = rng.randint(1, n)
        kernels = [
            flip_weight_kernel(WalkSpec(n, k, rng.choice([0, Fraction(1, 3), HALF]))),
            touched_weight_kernel(CyclicWalkSpec(n, 3, k)),
            support_weight_kernel(CyclicWalkSpec(n, rng.choice([2, 3, 5]), k)),
        ]
        kernels.append(coupling_weight_kernel(WalkSpec(n, rng.randrange(1, n + 1, 2))))
        for kern in kernels:
            start = rng.randrange(n + 1)
            dist = WeightDistribution.delta(n, start)
            nums, den = dist.nums, 1
            for _ in range(20):
                dist = evolve(dist, kern, 1)
                nums, den = _row_step(nums, kern.rows), den * kern.den
                assert (dist.nums, dist.den) == (nums, den), (n, k, start)
            whole = evolve(WeightDistribution.delta(n, start), kern, 20)
            assert (whole.nums, whole.den) == (nums, den), (n, k, start)

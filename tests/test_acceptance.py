"""Acceptance gate: fourteen numbered criteria, one pass/fail line each.

Every test prints "criterion NN: PASS (...)" on success; a failure raises
with the offending instance, so the pytest line for the test doubles as the
criterion's verdict.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np

from cubemix import (
    CyclicWalkSpec,
    WalkSpec,
    WeightDistribution,
    brute_force_curve,
    chebyshev_lower_bound,
    coupling_tail_curve,
    cube_eigenvalue,
    cube_spectrum,
    cyclic_step_bound,
    evolve,
    exact_weight_statistic_moments,
    expected_coupling_time,
    flip_weight_kernel,
    full_transition_matrix,
    half_flip_step_bound,
    l2_upper_bound,
    marginal_check,
    reported_steps_comparison,
    separation_tail,
    simulate_coupling,
    spectral_dist,
    touched_weight_kernel,
    tv_to_uniform,
    verify_eigenvalue_three_quarters,
    verify_half_flip_pick_bounds,
    weight_eigenfunction,
    zmn_exact_tv,
)
from cubemix.cli import main as cli_main

HALF = Fraction(1, 2)

# Rational lower brackets of e^-1 and e^-2, used to certify float-free
# inequalities of the form 4 tv^2 <= e^-c.
E_INV_LO = Fraction(36787944117144232, 10**17)
E_INV2_LO = Fraction(13533528323661270, 10**17)

MC_SEED = 20260825


def test_criterion_01_spectral_correctness():
    t0 = time.time()
    pairs = 0
    for n in range(1, 11):
        for k in range(1, n + 1):
            spec = WalkSpec(n, k)
            table = cube_spectrum(spec)
            dense = np.sort(np.linalg.eigvalsh(full_transition_matrix(spec)))
            predicted = sorted(float(v) for v in table.eigenvalue_multiset())
            assert np.allclose(dense, predicted, atol=1e-10, rtol=0.0), (n, k)
            # Rational route: each level eigenvalue re-derived by summing the
            # character over every flip set, no recurrence involved.
            C = math.comb(n, k)
            for j in range(n + 1):
                z = (1 << j) - 1
                acc = 0
                for combo in combinations(range(n), k):
                    smask = sum(1 << i for i in combo)
                    acc += -1 if (smask & z).bit_count() % 2 else 1
                assert cube_eigenvalue(spec, j) == HALF + HALF * Fraction(acc, C), (n, k, j)
            pairs += 1
    dt = time.time() - t0
    assert dt < 60
    print(f"criterion 01: PASS (multiset + exact character sums, {pairs} (n,k) pairs, {dt:.1f}s)")


def test_criterion_02_oracle_equivalence():
    t0 = time.time()
    cells = 0
    for n in range(1, 13):
        for k in range(1, n + 1):
            spec = WalkSpec(n, k)
            kern = flip_weight_kernel(spec)
            lump = WeightDistribution.delta(n)
            for l, full in brute_force_curve(spec, 50):
                if l:
                    lump = evolve(lump, kern, 1)
                marg = full.weight_marginal()
                assert marg.den == lump.den and marg.nums == lump.nums, (n, k, l)
                assert full.tv_to_uniform() == tv_to_uniform(lump), (n, k, l)
                cells += 1
    dt = time.time() - t0
    assert dt < 300
    print(f"criterion 02: PASS (exact TV equality on {cells} (n,k,l) cells, {dt:.1f}s)")


def test_criterion_03_eigenvalue_three_quarters():
    checked = 0
    for n in range(2, 203, 4):
        cert = verify_eigenvalue_three_quarters(n)
        assert cert.bound_holds and cert.max_abs <= Fraction(3, 4), n
        assert cert.odd_levels_equal_p, n
        assert cert.closed_form_matches, n
        checked += 1
    print(f"criterion 03: PASS (|eig| <= 3/4 and odd levels exactly 1/2, {checked} values of n)")


def test_criterion_04_half_flip_schedule():
    eps_exact = {0.5: HALF, 0.1: Fraction(1, 10), 0.01: Fraction(1, 100)}
    for n in (6, 54, 202):
        for eps, frac in eps_exact.items():
            steps = half_flip_step_bound(n, eps).steps
            tv = tv_to_uniform(spectral_dist(WalkSpec(n, n // 2), steps))
            assert 4 * tv * tv <= frac, (n, eps, steps)
    print("criterion 04: PASS (exact 4 tv^2 <= eps at the scheduled step count, 9 cases)")


def test_criterion_05_upper_bound_lemma_property():
    cells = 0
    for n in range(1, 13):
        for k in range(1, n + 1):
            spec = WalkSpec(n, k)
            kern = flip_weight_kernel(spec)
            lump = WeightDistribution.delta(n)
            for l in range(51):
                if l:
                    lump = evolve(lump, kern, 1)
                tv = tv_to_uniform(lump)
                assert 4 * tv * tv <= l2_upper_bound(spec, l), (n, k, l)
                cells += 1
    print(f"criterion 05: PASS (4 tv^2 <= character sum on {cells} cells, exact)")


def test_criterion_06_coupling_marginals():
    checked = []
    for n in range(1, 9):
        for k in (1, 3):
            if k <= n:
                report = marginal_check(n, k)
                assert report.ok, (n, k, report.violations[:3])
                checked.append((n, k))
    print(f"criterion 06: PASS (bijective move, both marginals exact, {len(checked)} (n,k) pairs)")


def test_criterion_07_coupling_tail_dominates_tv():
    cells = 0
    for n in range(2, 13):
        for k in range(1, n // 2 + 1, 2):
            spec = WalkSpec(n, k)
            curve = coupling_tail_curve(spec, 100)
            kern = flip_weight_kernel(spec)
            lump = WeightDistribution.delta(n)
            for l in range(101):
                if l:
                    lump = evolve(lump, kern, 1)
                assert tv_to_uniform(lump) <= curve[l], (n, k, l)
                cells += 1
    print(f"criterion 07: PASS (exact TV <= exact P(T > l) on {cells} cells)")


def test_criterion_08_monte_carlo_consistency():
    t0 = time.time()
    trials = 100_000
    for n, k in [(2, 1), (54, 27), (100, 5)]:
        spec = WalkSpec(n, k)
        report = simulate_coupling(spec, trials=trials, max_steps=50, seed=MC_SEED)
        exact = coupling_tail_curve(spec, 50)
        for l in (1, 5, 10, 25, 50):
            p = float(exact[l])
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(report.tail(l) - p) <= 3 * se, (n, k, l, report.tail(l), p)
    assert expected_coupling_time(WalkSpec(2, 1)) == 2
    dt = time.time() - t0
    print(f"criterion 08: PASS (10^5 trials within 3 SE at 5 checkpoints x 3 walks, E[T]=2 exact, {dt:.1f}s)")


def test_criterion_09_lemma_certificates(tmp_path):
    t0 = time.time()
    # Half-flip pick probabilities, every n = 2 mod 4 up to 102.
    for n in range(2, 103, 4):
        cert = verify_half_flip_pick_bounds(n)
        assert all(r.y % 2 == 1 for r in cert.violations), n
        assert cert.min_part1[0] >= Fraction(1, 4), n
        if cert.min_part2_even is not None:
            assert cert.min_part2_even[0] >= Fraction(1, 4), n
    probineq_path = tmp_path / "probineq.json"
    rc = cli_main(["verify", "--lemma", "probineq", "--n", "102", "--output", str(probineq_path)])
    assert rc == 2
    payload = json.loads(probineq_path.read_text())
    assert payload["counterexamples_found"] is True
    assert payload["min_part1"] == ["1/4", 51]
    assert payload["min_part2_even"] == ["51/202", 2]

    # Nine-part sweep to n = 150 through the command line, one call.
    general_path = tmp_path / "general.json"
    rc = cli_main(["verify", "--lemma", "general", "--n-max", "150", "--output", str(general_path)])
    assert rc == 2
    # the whole certificate, violation samples included, byte for byte
    digest = hashlib.sha256(general_path.read_bytes()).hexdigest()
    assert digest == "0474a747daf949790482067d836dc4b15c78614b4d653dbbd834f8387486f1e8"
    payload = json.loads(general_path.read_text())
    assert payload["counterexamples_found"] is True
    by_part = {r["part"]: r for r in payload["reports"]}
    assert by_part[1]["checked"] == 565325 and by_part[1]["violations"] == 0
    assert {p: by_part[p]["violations"] for p in range(2, 10)} == {
        2: 0, 3: 0, 4: 1, 5: 148, 6: 0, 7: 0, 8: 1774, 9: 3702,
    }
    assert by_part[2]["min_value"] == "25/126" and by_part[2]["min_witness"] == [10, 5, 5]
    assert by_part[3]["min_value"] == "9/40" and by_part[3]["min_witness"] == [6, 3, 3]
    assert by_part[5]["min_value"] == "-1/24" and by_part[5]["min_witness"] == [3, 1, 1]
    assert by_part[6]["min_value"] == "4625/29204" and by_part[6]["min_witness"] == [150, 75, 5]
    assert by_part[7]["min_value"] == "225/1192" and by_part[7]["min_witness"] == [150, 75, 3]
    assert by_part[9]["min_value"] == "-35/808" and by_part[9]["min_witness"] == [101, 35, 1]
    # Violations carry exact rationals and the suspect parts are flagged.
    assert all("/" in r["violation_samples"][0][3] for p, r in by_part.items() if r["violations"])
    for p in (4, 5, 8, 9):
        assert "y = 1" in by_part[p]["note"]
    assert any("odd y" in note for note in payload["notes"])
    dt = time.time() - t0
    print(f"criterion 09: PASS (certificates emitted, counterexamples exact, exit code 2, {dt:.1f}s)")


def test_criterion_10_lower_bound_soundness():
    for n in range(2, 13):
        for k in range(1, n // 2 + 1, 2):
            spec = WalkSpec(n, k)
            kern = flip_weight_kernel(spec)
            lump = WeightDistribution.delta(n)
            for l in range(101):
                if l:
                    lump = evolve(lump, kern, 1)
                tv = float(tv_to_uniform(lump))
                assert chebyshev_lower_bound(n, k, l) <= tv + 1e-12, (n, k, l)
    t0 = time.time()
    n = 1000
    for k, spacing in [(1, 368), (5, 73), (500, 2)]:
        spec = WalkSpec(n, k)
        kern = flip_weight_kernel(spec)
        checkpoints = [1 + i * spacing for i in range(20)]
        dist = WeightDistribution.delta(n).to_float()
        step = 0
        for l in checkpoints:
            dist = evolve(dist, kern, l - step)
            step = l
            tv = tv_to_uniform(dist)
            assert chebyshev_lower_bound(n, k, l) <= tv + 1e-12, (n, k, l)
    dt = time.time() - t0
    assert dt < 120
    print(f"criterion 10: PASS (Chebyshev <= TV on the full grid and n=1000 x 3 k x 20 l, {dt:.1f}s)")


def test_criterion_11_moment_formulas():
    t0 = time.time()
    checked = 0
    for n in range(2, 201):
        ks = sorted({1, 2, n // 2, n} & set(range(1, n + 1)))
        for k in ks:
            spec = WalkSpec(n, k)
            kern = flip_weight_kernel(spec)
            lump = WeightDistribution.delta(n)
            sqrt_n = math.sqrt(n)
            for l in range(6):
                if l:
                    lump = evolve(lump, kern, 1)
                e1 = Fraction(sum(v * (n - 2 * w) for w, v in enumerate(lump.nums)), lump.den)
                e2 = Fraction(sum(v * (n - 2 * w) ** 2 for w, v in enumerate(lump.nums)), lump.den)
                mean_sq, var = exact_weight_statistic_moments(n, k, l)
                # The chain moments of (n - 2W)/sqrt(n) match the closed form
                # exactly, and therefore to 1e-10 in floats.
                assert e1 * e1 == n * mean_sq, (n, k, l)
                assert Fraction(e2, n) - mean_sq == var, (n, k, l)
                assert abs(float(e1) / sqrt_n - math.sqrt(float(mean_sq))) <= 1e-10
                if l == 0:
                    assert var == 0, (n, k)
                checked += 1
    for n in range(2, 201):
        for x in range(n + 1):
            f0 = weight_eigenfunction(n, 0, x)
            f1 = weight_eigenfunction(n, 1, x)
            f2 = weight_eigenfunction(n, 2, x)
            assert f1 * f1 == Fraction(1, n) * f0 + Fraction(n - 1, n) * f2, (n, x)
    dt = time.time() - t0
    print(f"criterion 11: PASS (moments exact on {checked} cells, f1^2 identity exact, {dt:.1f}s)")


def test_criterion_12_cyclic_schedule_and_separation():
    t0 = time.time()
    e_lo = {0.0: Fraction(1), 1.0: E_INV_LO, 2.0: E_INV2_LO}
    cells = 0
    for n in range(1, 13):
        for m in (2, 3, 4):
            for k in range(1, n + 1):
                cspec = CyclicWalkSpec(n, m, k)
                lmax = cyclic_step_bound(n, m, k, 2.0).steps
                kern = touched_weight_kernel(cspec)
                prof = WeightDistribution.delta(n)
                tvs = []
                for l in range(lmax + 1):
                    if l:
                        prof = evolve(prof, kern, 1)
                    tvs.append(zmn_exact_tv(prof, m))
                    assert tvs[l] <= separation_tail(prof), (n, m, k, l)
                for c in (0.0, 1.0, 2.0):
                    l = cyclic_step_bound(n, m, k, c).steps
                    tv = tvs[l]
                    assert 4 * tv * tv <= e_lo[c], (n, m, k, c)
                    cells += 1
    dt = time.time() - t0
    print(f"criterion 12: PASS (4 tv^2 <= e^-c certified rationally on {cells} cells, {dt:.1f}s)")


def test_criterion_13_published_table_comparison(tmp_path):
    printed = {(54, 27): 19, (54, 3): 576, (418, 209): 26, (418, 7): 2899, (550, 275): 27, (550, 25): 1112}
    rows = reported_steps_comparison()
    assert len(rows) == 6
    for row in rows:
        assert row.reported == printed[(row.n, row.k)]
        with mpmath.workdps(50):
            nk = mpmath.mpf(row.n) / row.k
            raw = (
                8 * nk * mpmath.log(row.n)
                + mpmath.mpf(3) / 2 * nk
                + mpmath.sqrt(2) * nk / (mpmath.sqrt(2) - 1)
                + 2
                + mpmath.mpf("1e-9") * mpmath.sqrt(nk * mpmath.log(row.n))
            )
            assert row.computed == int(mpmath.ceil(raw)), (row.n, row.k)
        assert row.difference == row.computed - row.reported > 0
    out = tmp_path / "bounds.json"
    assert cli_main(["bounds", "--n", "54", "--k", "27", "--format", "json", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    section = payload["reported_steps_comparison"]
    assert len(section["rows"]) == 6
    assert "not reproduced" in section["note"]
    stated = next(r for r in payload["reports"] if r.get("variant") == "stated")
    assert any("published" in note for note in stated["notes"])
    print("criterion 13: PASS (six-pair table emitted, formula matches 50-digit oracle, mismatch flagged)")


def test_criterion_14_byte_identical_cli_runs(tmp_path):
    commands = [
        ["spectrum", "--n", "6", "--k", "3"],
        ["tv", "--n", "6", "--k", "3", "--steps", "10"],
        ["bounds", "--n", "54", "--k", "27", "--eps", "0.01", "--format", "json"],
        ["couple", "--n", "8", "--k", "3", "--trials", "500", "--steps", "20", "--seed", "42"],
        ["verify", "--lemma", "probineq", "--n", "6"],
    ]
    outputs = []
    for run in ("one", "two"):
        outdir = tmp_path / run
        outdir.mkdir()
        env = dict(os.environ, CUBEMIX_OUTPUT_DIR=str(outdir))
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "cubemix.cli", *argv],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode in (0, 2), (argv, proc.stderr)
        files = sorted(p.name for p in outdir.iterdir())
        assert len(files) == len(commands)
        outputs.append({name: (outdir / name).read_bytes() for name in files})
    assert outputs[0] == outputs[1]
    print("criterion 14: PASS (five subcommands byte-identical across two process-level runs)")

"""Coupled moves, the mismatch kernel, and the pick-probability verifiers."""

import copy
import hashlib
import itertools
import math
import pickle
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest

from cubemix import (
    CoupledState,
    CouplingTailReport,
    WalkSpec,
    coupled_step,
    coupling_tail_curve,
    coupling_weight_kernel,
    evolve,
    expected_coupling_time,
    marginal_check,
    simulate_coupling,
    spectral_dist,
    tv_to_uniform,
    verify_half_flip_pick_bounds,
    verify_pick_fraction_bounds,
)
from cubemix import coupling, numerics
from cubemix.coupling import (
    _draw_mask,
    _even_x2_flipset,
    _mode_bad_ranges,
    _pick_sums,
    _sample_pool,
)
from cubemix.numerics import binom_row

HALF = Fraction(1, 2)


def test_coupled_state_basics():
    s = CoupledState(4, 0b0101, 0b0110)
    assert s.y == 2
    assert not s.coalesced
    assert CoupledState(4, 9, 9).coalesced
    with pytest.raises(ValueError, match="^coupled state out of range$"):
        CoupledState(3, 8, 0)
    with pytest.raises(ValueError, match="^coupled state out of range$"):
        CoupledState(3, 0, -1)


def test_coupled_state_stores_y_as_a_field():
    s = CoupledState(4, 0b0101, 0b0110)
    assert repr(s) == "CoupledState(n=4, x1=5, x2=6, y=2)"
    assert s._asdict() == {"n": 4, "x1": 5, "x2": 6, "y": 2}
    assert pickle.loads(pickle.dumps(s)) == copy.deepcopy(s) == s
    with pytest.raises(AttributeError):
        s.y = 0


def partner_assignment(n: int, chosen, mismatches) -> dict[int, int]:
    """Set-level reference for _even_x2_flipset's partner scan.

    Pairs each chosen mismatched index with a free mismatched index.  Chosen-and-mismatched indices are processed in increasing order; each
    maps to the first mismatched index that is neither chosen nor already
    assigned, scanning upward from it and wrapping at n.  Requires
    |chosen & mismatches| <= |mismatches| / 2 so the scan always succeeds.
    """
    chosen = frozenset(chosen)
    mismatches = frozenset(mismatches)
    picked = sorted(chosen & mismatches)
    if 2 * len(picked) > len(mismatches):
        raise ValueError(
            f"partner_assignment needs |chosen & mismatches| <= |mismatches|/2, "
            f"got {len(picked)} of {len(mismatches)}"
        )
    taken: set[int] = set()
    out: dict[int, int] = {}
    for i in picked:
        j = (i + 1) % n
        while j in chosen or j not in mismatches or j in taken:
            j = (j + 1) % n
        out[i] = j
        taken.add(j)
    return out


def test_partner_assignment_examples():
    assert partner_assignment(6, {0, 1, 4}, {1, 2, 3, 5}) == {1: 2}
    assert partner_assignment(6, {1, 3}, {1, 2, 3, 5}) == {1: 2, 3: 5}
    # Scan wraps past n - 1 back to 0.
    assert partner_assignment(4, {3}, {1, 3}) == {3: 1}
    # Chosen indices are processed in increasing order, so 1 takes 2 first.
    assert partner_assignment(6, {1, 3, 0}, {1, 2, 3, 4}) == {1: 2, 3: 4}
    assert partner_assignment(5, set(), {0, 1}) == {}


def test_partner_assignment_requires_spare_mismatches():
    with pytest.raises(ValueError):
        partner_assignment(4, {1, 2}, {1, 2})
    with pytest.raises(ValueError):
        partner_assignment(6, {0, 1, 2}, {0, 1, 2, 3})


def test_even_flipset_agrees_with_partner_assignment():
    # The bit-twiddling move and the set-level description must match on
    # every even mismatch mask and every subset (so every k), n <= 8.
    for n in range(1, 9):
        subsets = [set(s) for k in range(n + 1) for s in combinations(range(n), k)]
        for mismask in range(1 << n):
            y = mismask.bit_count()
            if y % 2:
                continue
            mism = {i for i in range(n) if mismask >> i & 1}
            for s in subsets:
                smask = sum(1 << i for i in s)
                if 2 * len(s & mism) > y:
                    assert _even_x2_flipset(mismask, smask) == smask
                    continue
                partners = partner_assignment(n, s, mism)
                expected = (smask & ~mismask) | sum(1 << j for j in partners.values())
                assert _even_x2_flipset(mismask, smask) == expected, (n, mismask, smask)


def coupled_move_even(n: int, k: int, state: CoupledState, hold: bool, smask: int) -> CoupledState:
    """Reference even-y coupled move given the randomness outcome."""
    if state.y % 2 != 0:
        raise ValueError("coupled_move_even requires even mismatch count")
    if hold:
        return state
    if smask.bit_count() != k:
        raise ValueError(f"flip set has {smask.bit_count()} bits, expected k={k}")
    t = _even_x2_flipset(state.x1 ^ state.x2, smask)
    return CoupledState(n, state.x1 ^ smask, state.x2 ^ t)


def test_coupled_move_even_branches():
    state = CoupledState(6, 0b000000, 0b000011)
    # Holding leaves the pair alone.
    assert coupled_move_even(6, 3, state, True, 0) == state
    # a = 2 > y/2 = 1: both chains flip the same set, no progress.
    out = coupled_move_even(6, 3, state, False, 0b000111)
    assert out.x1 == 0b000111 and out.x2 == 0b000100 and out.y == 2
    # a = 1 <= y/2: the pair repairs both mismatches at once.
    out = coupled_move_even(6, 3, state, False, 0b001101)
    assert out.x1 == 0b001101 and out.y == 0
    with pytest.raises(ValueError):
        coupled_move_even(6, 3, CoupledState(6, 0, 1), False, 0b111)
    with pytest.raises(ValueError):
        coupled_move_even(6, 3, state, False, 0b11)


class _ScriptRng:
    """Feeds a fixed script of fair bits and sampled subsets.

    The script lists, in consumption order, fair bits (0 or 1) and subsets.
    A subset s is fed as the getrandbits draws by which
    random.sample(range(n), k) picks s in its pool branch (n <= 21): one
    in-range pool index per pick, so no draw is rejected.
    """

    def __init__(self, n, script):
        assert n <= 21
        self.draws = []  # (nbits, value)
        for item in script:
            if item in (0, 1):
                self.draws.append((1, item))
                continue
            pool = list(range(n))
            for i, e in enumerate(item):
                j = pool.index(e)
                self.draws.append(((n - i).bit_length(), j))
                pool[j] = pool[n - i - 1]

    def getrandbits(self, nbits):
        want, value = self.draws.pop(0)
        assert nbits == want
        return value


def _step_atoms(n, k, y_parity):
    """All randomness outcomes of one coupled step with their probabilities."""
    subsets = list(combinations(range(n), k))
    C = len(subsets)
    atoms = []
    if y_parity == 0:
        atoms.append((_ScriptRng(n, [1]), HALF))
        for s in subsets:
            atoms.append((_ScriptRng(n, [0, s]), Fraction(1, 2 * C)))
    else:
        for b1 in (0, 1):
            for s1 in subsets if b1 == 0 else [None]:
                for b2 in (0, 1):
                    for s2 in subsets if b2 == 0 else [None]:
                        script = [x for x in (b1, s1, b2, s2) if x is not None]
                        w = Fraction(1, 4 * C ** (len(script) - 2))
                        atoms.append((_ScriptRng(n, script), w))
    return atoms


def _flip_marginal(n, k, x):
    out = {x: HALF}
    C = math.comb(n, k)
    for s in combinations(range(n), k):
        out[x ^ sum(1 << i for i in s)] = Fraction(1, 2 * C)
    return out


@pytest.mark.parametrize(
    "x1,x2",
    [
        (0b000000, 0b000011),
        (0b101010, 0b001110),
        (0b111111, 0b000000),
        (0b000000, 0b000001),
        (0b110100, 0b001001),
        (0b011111, 0b100000),
        (0b000000, 0b000000),
        (0b000000, 0b000111),
        (0b000000, 0b001111),
    ],
)
def test_coupled_step_marginals_and_mismatch_law(x1, x2):
    # the cases cover every mismatch count y = 0..6, so every row of the
    # n = 6 coupling kernel is checked against the exhaustive coupled step
    # Exhausting the randomness of one step must reproduce (a) the lazy
    # k-flip marginal for each chain and (b) the mismatch-count kernel row.
    n, k = 6, 3
    spec = WalkSpec(n, k)
    state = CoupledState(n, x1, x2)
    kernel = coupling_weight_kernel(spec)
    m1 = {}
    m2 = {}
    ylaw = {}
    total = Fraction(0)
    for rng, w in _step_atoms(n, k, state.y % 2):
        nxt = coupled_step(spec, state, rng)
        assert not rng.draws
        m1[nxt.x1] = m1.get(nxt.x1, Fraction(0)) + w
        m2[nxt.x2] = m2.get(nxt.x2, Fraction(0)) + w
        ylaw[nxt.y] = ylaw.get(nxt.y, Fraction(0)) + w
        total += w
    assert total == 1
    assert m1 == _flip_marginal(n, k, x1)
    assert m2 == _flip_marginal(n, k, x2)
    assert ylaw == {t: Fraction(c, kernel.den) for t, c in kernel.rows[state.y].items()}


def test_marginal_check_small_cases():
    for n, k in [(6, 3), (8, 3), (7, 1), (6, 1)]:
        report = marginal_check(n, k)
        assert report.ok
        assert report.masks_checked == 1 << (n - 1)
        assert report.maps_checked == (1 << (n - 1)) * math.comb(n, k)
        assert report.violations == ()
    with pytest.raises(ValueError):
        marginal_check(9, 3)
    with pytest.raises(ValueError):
        marginal_check(6, 0)


def test_coupling_kernel_requires_half_lazy_odd_k():
    with pytest.raises(ValueError):
        coupling_weight_kernel(WalkSpec(4, 2))
    with pytest.raises(ValueError):
        coupling_weight_kernel(WalkSpec(5, 3, Fraction(1, 4)))
    with pytest.raises(ValueError):
        simulate_coupling(WalkSpec(5, 3, Fraction(1, 4)), 1, 1, 0)


def test_coupling_kernel_frozen_tiny_case():
    kern = coupling_weight_kernel(WalkSpec(2, 1))
    assert kern.den == 16
    assert kern.rows[0] == {0: 16}
    assert kern.rows[1] == {0: 4, 1: 8, 2: 4}
    assert kern.rows[2] == {0: 8, 2: 8}


def test_coupling_tail_curve_frozen_tiny_case():
    curve = coupling_tail_curve(WalkSpec(2, 1), 5)
    assert curve == [
        Fraction(3, 4),
        HALF,
        Fraction(5, 16),
        Fraction(3, 16),
        Fraction(7, 64),
        Fraction(1, 16),
    ]
    assert coupling_tail_curve(WalkSpec(2, 1), 5)[5] == Fraction(1, 16)
    with pytest.raises(ValueError):
        coupling_tail_curve(WalkSpec(2, 1), -1)


@pytest.mark.parametrize("n,k,lmax", [(9, 3, 12), (401, 3, 20)])
def test_coupling_tail_curve_is_the_head_of_the_tail_generator(n, k, lmax):
    # exact at n = 9, floats from the full kernel above the cutoff; the list
    # API is the generator's first lmax + 1 values, each as the list gives it
    spec = WalkSpec(n, k)
    head = list(itertools.islice(coupling._tail_curve(spec), lmax + 1))
    assert all(type(v) is (Fraction if n <= numerics.EXACT_BACKEND_MAX_N else float) for v in head)
    for l in (0, 1, lmax):
        assert coupling_tail_curve(spec, l) == head[: l + 1]


def test_float_coupling_tail_matches_exact(monkeypatch, binomial_start):
    # above EXACT_BACKEND_MAX_N the curve evolves the binomial start in
    # floats; forced below it, the float curve tracks the exact one to
    # rounding, and a small tail keeps its relative accuracy
    above = coupling_tail_curve(WalkSpec(5000, 5), 10)
    # unclamped, the sum of vec[1:] reads 1.0000000000000002 at l = 9
    assert all(type(v) is float and 0 <= v <= 1 for v in above)
    cases = {9: (1, 3), 40: (1, 3, 5, 9, 19), 101: (1, 5, 9), 400: (1, 3)}
    exact = {(n, k): coupling_tail_curve(WalkSpec(n, k), 200) for n, ks in cases.items() for k in ks}
    # at l = 1500 the tail is 7.6e-48, where 1 - vec[0] is off by 1e32 relative
    far_spec = WalkSpec(40, 3)
    far = 1 - evolve(binomial_start(40), coupling_weight_kernel(far_spec), 1500).prob(0)
    monkeypatch.setattr(coupling, "use_exact", lambda n: False)
    for (n, k), want in exact.items():
        got = coupling_tail_curve(WalkSpec(n, k), 200)
        for l, (g, w) in enumerate(zip(got, want, strict=True)):
            assert type(g) is float
            err = abs(g - float(w))
            assert err <= 1e-12 and (not w or err <= 1e-11 * float(w)), (n, k, l, g, w)
    got = coupling_tail_curve(far_spec, 1500)[-1]
    assert 0 < float(far) < 1e-47
    assert abs(got - float(far)) <= 1e-11 * float(far)


def test_expected_coupling_time_tiny_case():
    assert expected_coupling_time(WalkSpec(2, 1)) == 2
    assert expected_coupling_time(WalkSpec(2, 1), exact=False) == pytest.approx(2.0, rel=1e-12)
    # the dense Gauss-Jordan solve's values, which the even-state recurrence must keep
    pinned = {
        (9, 3): Fraction(2155523, 371840),
        (12, 5): Fraction(29487521, 5416960),
        (40, 3): Fraction(
            880170135406896553061400367948872258071252981253399167687,
            22576430840396239188050438661266505350151792953917440000,
        ),
    }
    for (n, k), want in pinned.items():
        got = expected_coupling_time(WalkSpec(n, k))
        assert type(got) is Fraction and got == want, (n, k)
    # E[T] also equals the sum of the tail curve, so partial sums approach it.
    for n, k, lmax, gap in [(2, 1, 60, Fraction(1, 10**6)), (9, 3, 400, Fraction(1, 10**40))]:
        partial = sum(coupling_tail_curve(WalkSpec(n, k), lmax))
        assert 0 < expected_coupling_time(WalkSpec(n, k)) - partial < gap, (n, k)
    # in floats too: above EXACT_BACKEND_MAX_N both sides are floats, and the
    # tail at l = 8000 is below 1e-32
    spec = WalkSpec(501, 5)
    want = math.fsum(coupling_tail_curve(spec, 8000))
    got = expected_coupling_time(spec)
    assert type(got) is float and abs(got - want) <= 1e-12 * want


def test_expected_time_exact_vs_float_larger():
    for n, k in [(5, 3), (9, 5), (12, 3), (64, 7), (63, 5)]:
        ex = expected_coupling_time(WalkSpec(n, k), exact=True)
        fl = expected_coupling_time(WalkSpec(n, k), exact=False)
        assert fl == pytest.approx(float(ex), rel=1e-10)


def test_expected_time_infinite_when_even_lock_state_exists():
    # With k > n/2 and n even, the all-mismatch state can never shrink: every
    # k-set hits more than y/2 mismatches, so both chains keep flipping the
    # same set and E[T] is infinite.
    for n, k in [(8, 5), (6, 5), (10, 7)]:
        assert expected_coupling_time(WalkSpec(n, k), exact=True) == math.inf
        assert expected_coupling_time(WalkSpec(n, k), exact=False) == math.inf


def _odd_k_specs(n_max):
    return [WalkSpec(n, k) for n in range(1, n_max + 1) for k in range(1, n + 1, 2)]


def test_full_kernel_keeps_the_odd_binomial_and_the_even_chain_tails(binomial_start):
    # the full kernel is the reference the even chain is held to: from the
    # binomial start its odd entries are exactly 2^-l C(n, y)/2^n, and its
    # absorbed mass gives the tail the even chain steps alone
    for spec in _odd_k_specs(40):
        n = spec.n
        kernel = coupling_weight_kernel(spec)
        tails = coupling_tail_curve(spec, 30)
        row = binom_row(n)
        dist = binomial_start(n)
        for l in range(31):
            if l:
                dist = evolve(dist, kernel, 1)
            for y in range(1, n + 1, 2):
                assert dist.nums[y] << (n + l) == row[y] * dist.den, (spec, l, y)
            assert 1 - dist.prob(0) == tails[l], (spec, l)


def _reaches_zero_everywhere(rows):
    """Whether every state of the y-chain can reach 0, by a reachability fixpoint."""
    reached = {0}
    grew = True
    while grew:
        grew = False
        for y, row in enumerate(rows):
            if y not in reached and any(t in reached for t in row):
                reached.add(y)
                grew = True
    return len(reached) == len(rows)


def test_expected_time_is_infinite_exactly_when_some_state_never_meets():
    for spec in _odd_k_specs(40):
        never = not _reaches_zero_everywhere(coupling_weight_kernel(spec).rows)
        for exact in (True, False):
            assert math.isinf(expected_coupling_time(spec, exact=exact)) == never, (spec, exact)


def test_expected_time_backend_follows_the_one_cutoff():
    assert type(expected_coupling_time(WalkSpec(400, 3))) is Fraction
    assert type(expected_coupling_time(WalkSpec(401, 3))) is float


def test_coupling_tail_dominates_tv():
    for n, k in [(5, 3), (7, 3), (6, 5)]:
        spec = WalkSpec(n, k)
        curve = coupling_tail_curve(spec, 10)
        for l in range(11):
            assert tv_to_uniform(spectral_dist(spec, l)) <= curve[l]


def test_simulation_reproducible_and_censored():
    spec = WalkSpec(5, 3)
    a = simulate_coupling(spec, 80, 6, seed=11)
    b = simulate_coupling(spec, 80, 6, seed=11)
    assert a == b
    c = simulate_coupling(spec, 80, 6, seed=12)
    assert c != a
    assert a.survivors[0] <= 80
    assert a.censored == a.survivors[6]
    assert all(u >= v for u, v in zip(a.survivors, a.survivors[1:]))
    zero = simulate_coupling(spec, 50, 0, seed=3)
    assert zero.censored == zero.survivors[0]
    with pytest.raises(ValueError):
        simulate_coupling(spec, 0, 5, seed=1)


def test_simulation_domain_error_names_the_arguments():
    spec = WalkSpec(5, 3)
    with pytest.raises(ValueError, match=r"got trials=0, max_steps=5$"):
        simulate_coupling(spec, 0, 5, seed=1)
    with pytest.raises(ValueError, match=r"got trials=10, max_steps=-1$"):
        simulate_coupling(spec, 10, -1, seed=1)


def test_simulation_tracks_exact_tail():
    spec = WalkSpec(5, 3)
    trials = 400
    report = simulate_coupling(spec, trials, 10, seed=2024)
    curve = coupling_tail_curve(spec, 10)
    for l in range(11):
        p = float(curve[l])
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / trials)
        assert abs(report.tail(l) - p) <= 5 * sigma + 1e-9


def test_draw_mask_consumes_the_random_sample_stream():
    # The simulator inlines random.sample; it must pick the same subset from
    # the same getrandbits calls, in both of sample's branches (pool for
    # n <= setsize, rejection set above) and with setsize's growth for k > 5.
    a = random.Random(20240607)
    b = random.Random(20240607)
    for n in range(1, 121):
        for k in sorted({1, 2, 3, 5, 6, 7, n // 2, n}):
            if not 1 <= k <= n:
                continue
            pool = _sample_pool(n, k)
            for _ in range(3):
                got = _draw_mask(a.getrandbits, n, k, pool)
                assert got == sum(1 << i for i in b.sample(range(n), k)), (n, k)
            assert a.getstate() == b.getstate(), (n, k)


def test_pool_draws_copy_one_pool_and_match_random_sample():
    # the pool branch copies the caller's pool for each draw, so one pool
    # serves a whole run: every pool-branch (n, k) up to n = 60, several
    # seeds, several draws from the same pool
    pairs = [(n, k) for n in range(1, 61) for k in range(1, n + 1) if _sample_pool(n, k) is not None]
    assert (21, 5) in pairs and (22, 5) not in pairs and (60, 6) in pairs
    for seed in (0, 1, 20240607):
        a, b = random.Random(seed), random.Random(seed)
        for n, k in pairs:
            pool = _sample_pool(n, k)
            for _ in range(4):
                assert _draw_mask(a.getrandbits, n, k, pool) == sum(1 << i for i in b.sample(range(n), k)), (n, k)
            assert pool == list(range(n))
        assert a.getstate() == b.getstate()


def _oracle_simulation(spec, trials, max_steps, seed):
    """Reference simulator: CoupledState steps, subsets from rng.sample."""
    n, k = spec.n, spec.k

    def draw(rng):
        return sum(1 << i for i in rng.sample(range(n), k))

    def step(state, rng):
        if state.y % 2 == 1:
            x1, x2 = state.x1, state.x2
            if not rng.getrandbits(1):
                x1 ^= draw(rng)
            if not rng.getrandbits(1):
                x2 ^= draw(rng)
            return CoupledState(n, x1, x2)
        hold = bool(rng.getrandbits(1))
        return coupled_move_even(n, k, state, hold, 0 if hold else draw(rng))

    counts = [0] * (max_steps + 1)
    censored = 0
    for trial in range(trials):
        digest = hashlib.sha256(f"cubemix-couple:{seed}:{trial}".encode()).digest()
        rng = random.Random(int.from_bytes(digest, "big"))
        state = CoupledState(n, 0, rng.getrandbits(n))
        t = 0
        while t < max_steps and not state.coalesced:
            counts[t] += 1
            state = step(state, rng)
            t += 1
        if not state.coalesced:
            counts[max_steps] += 1
            censored += 1
    return CouplingTailReport(n, k, trials, max_steps, seed, "monte-carlo", tuple(counts), censored)


@pytest.mark.parametrize(
    "n,k,trials,max_steps",
    [(2, 1, 200, 12), (12, 3, 200, 30), (54, 27, 60, 40), (100, 5, 150, 50), (100, 7, 60, 40),
     # random.sample's pool/set switch points for k = 5 (setsize 21) and
     # k = 7 (setsize 85): the last pool n and the first set n of each
     (21, 5, 150, 40), (22, 5, 150, 40), (85, 7, 60, 40), (86, 7, 60, 40),
     # k = n: no even move repairs, but odd y = n meets when one chain
     # moves, before any even step; bit tables with 1 and with 128
     # rejection slots, at k = 5 and, so that trials meet within
     # max_steps, at k = 21 (the largest k there with no pool); no step
     # and one step; the bits made per read above the table's cutoff, on
     # the set branch (k = 341, the largest k with no pool there) and on
     # the pool branch (k = 343)
     (5, 5, 60, 20), (127, 5, 60, 40), (128, 5, 60, 40), (127, 21, 60, 40), (128, 21, 60, 40),
     (12, 3, 200, 0), (12, 3, 200, 1), (coupling._BIT_TABLE_MAX_N + 1, 341, 6, 100),
     (coupling._BIT_TABLE_MAX_N + 1, 343, 6, 100)],
)
def test_simulation_matches_coupled_state_oracle(n, k, trials, max_steps):
    spec = WalkSpec(n, k)
    for seed in (0, 7, 42):
        assert simulate_coupling(spec, trials, max_steps, seed) == _oracle_simulation(
            spec, trials, max_steps, seed
        )


def test_simulation_lists_no_bits_above_the_table_cutoff():
    # a list of 1 << j for j < 20000 would hold 28 MB; one trial's masks
    # hold a few kB
    tracemalloc.start()
    try:
        simulate_coupling(WalkSpec(20000, 3), 2, 5, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_half_flip_pick_bounds_small_case():
    cert = verify_half_flip_pick_bounds(6)
    assert [(r.part, r.y, r.prob) for r in cert.violations] == [
        (2, 1, Fraction(0)),
        (2, 3, Fraction(9, 40)),
    ]
    assert cert.min_part1 == (Fraction(1, 4), 3)
    assert cert.min_part2 == (Fraction(0), 1)
    assert cert.min_part2_even == (Fraction(3, 10), 2)
    assert cert.has_violations
    assert any("even y" in note for note in cert.notes)
    with pytest.raises(ValueError):
        verify_half_flip_pick_bounds(8)


def test_half_flip_rows_match_comb_sums():
    # every row of both parts, straight from the claim's window of the pmf
    quarter = Fraction(1, 4)
    for n in range(2, 103, 4):
        h = n // 2
        den = 2 * math.comb(n, h)
        want = []
        for y in range(n + 1):
            for part, lo, on in ((1, y - h, y >= h), (2, -(-y // 4), 1 <= y <= h)):
                if on:
                    s = sum(math.comb(y, i) * math.comb(n - y, h - i) for i in range(max(lo, 0), y // 2 + 1))
                    want.append((part, y, Fraction(s, den), Fraction(s, den) >= quarter))
        assert [tuple(r) for r in verify_half_flip_pick_bounds(n).rows] == want, n


def test_half_flip_pick_bounds_even_y_clean():
    for n in [6, 10, 14, 22]:
        cert = verify_half_flip_pick_bounds(n)
        assert all(r.y % 2 == 1 for r in cert.violations)
        assert cert.min_part1[0] >= Fraction(1, 4)
        assert cert.min_part2_even[0] >= Fraction(1, 4)


def test_pick_fraction_bounds_frozen_sweep():
    cert = verify_pick_fraction_bounds(30)
    by_part = {r.part: r for r in cert.reports}
    assert by_part[1].checked == 4615
    assert by_part[1].violations == 0
    assert [by_part[p].violations for p in range(2, 10)] == [0, 0, 1, 28, 0, 0, 77, 119]
    assert by_part[2].min_value == Fraction(25, 126)
    assert by_part[2].min_witness == (10, 5, 5)
    assert by_part[3].min_value == Fraction(9, 40)
    assert by_part[3].min_witness == (6, 3, 3)
    assert by_part[5].value_kind == "slack"
    assert by_part[5].min_value == Fraction(-1, 24)
    assert by_part[9].min_value == Fraction(-9, 208)
    for p in (4, 5, 8, 9):
        assert all(w[2] == 1 for w in by_part[p].violation_samples)
        assert "y = 1" in by_part[p].note
    assert cert.has_violations
    assert any("odd y" in note for note in cert.notes)


def _fraction_pick_sweep(n_max):
    """Parts 2-9 of the pick-fraction sweep in Fractions, straight from the claims.

    part -> (checked, violations, samples, min value, min witness), the
    value being the probability or, for parts 5 and 9, the slack P - q/8.
    """
    out = {p: [0, 0, [], None, None] for p in range(2, 10)}
    for n in range(2, n_max + 1):
        for k in range(1, n // 2 + 1):
            C = math.comb(n, k)
            for y in range(1, n + 1):
                q = Fraction(y * k, n)
                if q >= 2:
                    part, lower, bound = 2, math.ceil(q / 2), Fraction(1, 8)
                elif q >= 1:
                    part, lower, bound = 3, 1, Fraction(1, 6)
                elif 2 * q > math.log(2):
                    part, lower, bound = 4, 1, None
                else:
                    part, lower, bound = 5, 1, q / 8
                part += 4 if y < k else 0
                prob = sum(
                    Fraction(math.comb(y, i) * math.comb(n - y, k - i), 2 * C)
                    for i in range(max(lower, 0), min(y // 2, k) + 1)
                )
                if bound is None:
                    # (2 - sqrt 2)/8 <= prob  <=>  2 - 8 prob <= sqrt 2
                    ok = 2 - 8 * prob <= 0 or (2 - 8 * prob) ** 2 <= 2
                else:
                    ok = prob >= bound
                val = prob - q / 8 if part in (5, 9) else prob
                rec = out[part]
                rec[0] += 1
                if rec[3] is None or val < rec[3]:
                    rec[3], rec[4] = val, (n, k, y)
                if not ok:
                    rec[1] += 1
                    if len(rec[2]) < 40:
                        rec[2].append((n, k, y, prob))
    return out


def test_pick_fraction_bounds_match_fraction_oracle():
    # the sweep classifies q, keeps its minima and decides every claim in
    # integers; the oracle does all of it in Fractions
    cert = verify_pick_fraction_bounds(45, parts=range(2, 10))
    oracle = _fraction_pick_sweep(45)
    for r in cert.reports:
        got = [r.checked, r.violations, list(r.violation_samples), r.min_value, r.min_witness]
        assert got == oracle[r.part], r.part


def _overlap_mass(ry: tuple, rny: tuple, k: int, lo: int, hi: int) -> int:
    """Sum of C(y,i) C(n-y,k-i) over lo <= i <= hi (hi >= -1); ry, rny = binom_row(y), binom_row(n-y).

    The window oracle for the stepped CDFs.  Rows are palindromes, so
    C(n-y,k-i) = rny[n-y-k+i]: one dot product of aligned slices, which run
    out at the support's tops y and k.
    """
    off = len(rny) - 1 - k
    lo = lo if lo > 0 else 0
    lo = lo if lo + off > 0 else -off
    return sum(map(mul, ry[lo : hi + 1], rny[lo + off : hi + off + 1]))


def test_overlap_mass_matches_comb_sums():
    # every window, including ones that overhang the support on either side
    for n in range(0, 13):
        for y in range(n + 1):
            ry, rny = binom_row(y), binom_row(n - y)
            for k in range(n + 1):
                for lo in range(-2, k + 3):
                    for hi in range(-1, k + 3):
                        want = sum(
                            math.comb(y, i) * math.comb(n - y, k - i)
                            for i in range(max(lo, 0, k - (n - y)), min(hi, y, k) + 1)
                        )
                        assert _overlap_mass(ry, rny, k, lo, hi) == want, (n, y, k, lo, hi)


def test_pick_sums_match_overlap_mass():
    # the stepped CDFs give every cell's slice sum, up to k = n/2 and y = n
    for n in range(2, 61):
        rows = [binom_row(m) for m in range(n + 1)]
        for k in range(1, n // 2 + 1):
            ups, sums = _pick_sums(rows[:n], rows[n - 1 :: -1], n, k)
            assert len(sums) == n + 1
            for y in range(n + 1):
                want = _overlap_mass(rows[y], rows[n - y], k, -(-y * k // (2 * n)), y // 2)
                assert sums[y] == want, (n, k, y)
                assert ups[y] == _overlap_mass(rows[y], rows[n - y], k, 0, y // 2), (n, k, y)


@pytest.mark.parametrize("sweep, size", [(verify_pick_fraction_bounds, 80), (verify_half_flip_pick_bounds, 102)])
def test_each_sweep_builds_each_binomial_row_once(sweep, size):
    # rows 0..size, each built once and held by the sweep: re-reading them
    # through binom_row's small cache would rebuild them over and over
    numerics._binom_row.cache_clear()
    sweep(size)
    assert numerics._binom_row.cache_info().misses <= size + 1


def test_half_flip_sweep_holds_two_rows():
    # rows 0..n-1 are stepped up by Pascal's rule and down by its inverse from
    # the one cached row n-1, so the sweep's memory is O(n^2) bits, not O(n^3)
    numerics._binom_row.cache_clear()
    tracemalloc.start()
    try:
        verify_half_flip_pick_bounds(1002)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert numerics._binom_row.cache_info().misses <= 1


@pytest.mark.parametrize("shift", [2, 3, 6])
def test_pick_blocks_scan_every_cell_under_stricter_claims(shift, monkeypatch):
    # the real claims fail only at y = 1, the first cell of a run, so the
    # cell-by-cell scan of a failing run is checked here under claims made
    # stricter (still monotone in the value): every count and sample must
    # match a per-cell oracle that reads the same predicate
    holds = coupling._pick_claim_holds

    def stricter(base, v, C):
        return holds(base, v - shift * C // 8, C)

    monkeypatch.setattr(coupling, "_pick_claim_holds", stricter)
    n_max = 30
    cert = verify_pick_fraction_bounds(n_max, parts=range(2, 10))
    want = {p: [0, []] for p in range(2, 10)}
    failed_runs = set()
    for n in range(2, n_max + 1):
        rows = [binom_row(m) for m in range(n + 1)]
        for k in range(1, n // 2 + 1):
            C = rows[n][k]
            for y in range(1, n + 1):
                q = Fraction(y * k, n)
                base = 2 if q >= 2 else 3 if q >= 1 else 4 if 2 * q > math.log(2) else 5
                s = _overlap_mass(rows[y], rows[n - y], k, -(-y * k // (2 * n)), y // 2)
                v = 4 * n * s - C * y * k if base == 5 else s
                if not stricter(base, v, C):
                    part = base + 4 if y < k else base
                    failed_runs.add((part, n, k))
                    rec = want[part]
                    rec[0] += 1
                    if len(rec[1]) < 40:
                        rec[1].append((n, k, y, Fraction(s, 2 * C)))
    got = {r.part: [r.violations, list(r.violation_samples)] for r in cert.reports}
    assert got == want
    # some run of y fails at more than one cell
    assert sum(rec[0] for rec in want.values()) > len(failed_runs)


def _mode_oracle(n_max, shifts):
    """Part 1 of the pick-fraction sweep, one exact ratio test per i.

    shift -> every (n, k, y, i), in sweep order, where the test contradicts
    the nominal mode threshold with its numerator moved by shift.
    """
    out = {shift: [] for shift in shifts}
    for n in range(2, n_max + 1):
        for k in range(1, n // 2 + 1):
            for y in range(1, n + 1):
                lo = max(0, k - (n - y))
                hi = min(y, k)
                tnum, tden = y * k - n + y + k, n + 1
                base = n - y - k + 1
                for i in range(lo, hi):
                    up = (y - i) * (k - i)
                    down = (i + 1) * (base + i)
                    inc = up >= down
                    for shift, bad in out.items():
                        t = tnum + shift
                        if ((i + 1) * tden <= t and not inc) or (i * tden >= t and inc and up != down):
                            bad.append((n, k, y, i))
    return out


_SHIFTS = (-40, -7, -3, -2, -1, 0, 1, 2, 3, 7, 40)


@pytest.fixture(scope="module")
def mode_oracle_50():
    return _mode_oracle(50, _SHIFTS)


def test_mode_ranges_match_per_i_oracle(mode_oracle_50):
    # the one integer range per cell holds exactly the oracle's bad i, in order
    got = {shift: [] for shift in _SHIFTS}
    for n in range(2, 51):
        for k in range(1, n // 2 + 1):
            for shift, bad in got.items():
                for y, start, stop in _mode_bad_ranges(n, k, k - n + shift):
                    bad += [(n, k, y, i) for i in range(start, stop)]
    assert got == mode_oracle_50
    counts = {shift: len(bad) for shift, bad in mode_oracle_50.items()}
    assert counts == {-40: 16214, -7: 1311, -3: 227, -2: 89, -1: 0, 0: 0, 1: 0, 2: 0, 3: 0, 7: 7, 40: 4681}


@pytest.mark.parametrize("shift", _SHIFTS)
def test_mode_report_under_mutated_threshold(shift, mode_oracle_50, monkeypatch):
    # moving the threshold makes part 1 report violations, so its counting
    # and sampling run; the shift is applied through the decision helper
    monkeypatch.setattr(
        coupling, "_mode_bad_ranges", lambda n, k, tnum0: _mode_bad_ranges(n, k, tnum0 + shift)
    )
    (report,) = verify_pick_fraction_bounds(50, parts=(1,)).reports
    bad = mode_oracle_50[shift]
    assert report.checked == sum(n // 2 * n for n in range(2, 51))
    assert report.violations == len(bad)
    assert list(report.violation_samples) == bad[:40]


def test_pick_fraction_bounds_part_filter_and_domain():
    sub = verify_pick_fraction_bounds(12, parts=(2, 3))
    assert sub.parts == (2, 3)
    assert [r.part for r in sub.reports] == [2, 3]
    assert not sub.has_violations
    with pytest.raises(ValueError):
        verify_pick_fraction_bounds(1)
    with pytest.raises(ValueError):
        verify_pick_fraction_bounds(10, parts=(0, 2))

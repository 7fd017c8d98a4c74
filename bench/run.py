"""End-to-end benchmark of the cubemix CLI, with a separate traced run.

Usage (from the repository root):

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each job is a fresh `python -m cubemix.cli` process, timed from spawn to
exit; user+sys time and peak RSS come from wait4 on that child.  The loop is
closed with one client: a workload's jobs run one after another from this
process, and a new round of jobs starts only while the measured time is
below --seconds.  Before each round a fixed yardstick job that does not use
the package is timed; the gated times are round times over yardstick times,
so that the host's drift in speed cancels.  Every output file is checked
(exact digests, exact-backend checkpoints, a Monte Carlo band) and a failed
check counts the job as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced rounds with rounds run under bench/tracer.py, which
wraps the package's layers from outside, and reports per-layer self time
and counters plus the tracing overhead.  Both modes run the known-defect
probe once, untimed, and print probe_failed next to the other metrics.

All lines but the last are for people; the last line is one JSON object.
"--workload all" runs every workload in turn, for people only: its last
line maps each workload to its result object.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = HERE / "tracer.py"
REFERENCE = HERE / "reference.json"

# A run of one workload ends within 180 s whatever --seconds says: rounds
# stop 30 s before this budget and every job or probe case still running at
# the budget is killed.
RUN_BUDGET_S = 170.0
JOB_TIMEOUT_S = 60.0

# Float TV may differ from the exact backend by at most this much.  The float
# kernel's rows sum to 1 within 5e-13 (lgamma rounding), so each step moves
# at most that much mass: 500 steps change the l1 distance by at most 2.5e-10
# and the TV by half that.  The chi-square distance is compared relative to
# 1 + l2: every weight's relative error grows by at most 5e-13 a step and
# enters that sum twice, 5e-10 after 500 steps.  1e-8 leaves a 20x margin on
# both and still catches any real error in the float path (measured at HEAD:
# 7e-12 on TV, 9e-11 relative on l2).
FLOAT_TOL = 1e-8

# Two-sided normal tail beyond 5 standard errors: the Monte Carlo check fails
# an honest run with about this probability per checked step.
FIVE_SIGMA_P = math.erfc(5 / math.sqrt(2))
MC_CHECK_STEPS = (1, 5, 10, 25, 50)


@dataclasses.dataclass(frozen=True)
class Job:
    """One CLI invocation of a workload and how to check its output."""

    name: str
    argv: tuple[str, ...]
    exit_code: int
    check: str  # "digest" | "float" | "coupling"
    work: int  # units of work in one job: curve steps, trials or cells
    work_unit: str


@dataclasses.dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]
    why: str


def _cells(n_max: int) -> int:
    """(n, k, y) cells the general verifier checks: n <= n_max, k <= n/2."""
    return sum((n // 2) * n for n in range(2, n_max + 1))


COUPLING_TRIALS = 4000
VERIFY_N_MAX = 80

# The four job sets run as two workloads, so that each run is long enough to
# average over the host's speed drift.  Every layer is still exercised by one
# workload and bypassed by the other.
WORKLOADS = {
    "exact": Workload(
        jobs=(
            Job("cube", ("tv", "--n", "200", "--k", "5", "--steps", "130"), 0, "digest", 130, "curve steps"),
            Job("cyclic", ("tv", "--n", "40", "--m", "3", "--k", "3", "--steps", "50"), 0, "digest", 50, "curve steps"),
            Job(
                "general",
                ("verify", "--lemma", "general", "--n-max", str(VERIFY_N_MAX)),
                2,
                "digest",
                _cells(VERIFY_N_MAX),
                "cells",
            ),
        ),
        why="exact rationals only: cube and cyclic TV/l2 curves through the cutoff (big-integer "
        "evolve, Fraction reductions, serialization) and the pick-fraction verifier",
    ),
    "float-mc": Workload(
        jobs=(
            Job("float", ("tv", "--n", "500", "--k", "5", "--steps", "500"), 0, "float", 500, "curve steps"),
            Job(
                "couple",
                ("couple", "--n", "100", "--k", "5", "--trials", str(COUPLING_TRIALS), "--steps", "50"),
                0,
                "coupling",
                COUPLING_TRIALS,
                "trials",
            ),
        ),
        why="numpy paths, no exact curve or verifier: the float curve (dense evolve, per-weight "
        "log_binom reductions) and the seeded Monte Carlo coupling simulator",
    ),
}


def job_argv(job: Job, cli_seed: int) -> list[str]:
    """The CLI arguments of one job; only the coupling job takes a seed."""
    argv = list(job.argv)
    if job.check == "coupling":
        argv += ["--seed", str(cli_seed)]
    return argv


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclasses.dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


def spawn(cmd: list[str], workdir: Path, timeout: float) -> Proc:
    """Run cmd to completion; wall time from spawn to reaped exit."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=workdir, env=child_env())
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
        finally:
            os.close(pidfd)
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
        timed_out=not ready,
    )


def cli_cmd(argv: list[str], output: Path, spans: Path | None = None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "cubemix.cli", *argv, "--output", str(output)]
    return [sys.executable, str(TRACER), str(spans), "cli", *argv, "--output", str(output)]


# ---------------------------------------------------------------------------
# output checks


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> list[dict]:
    csv.field_size_limit(1 << 30)
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def coupling_exact_digest(rows: list[dict]) -> str:
    text = "".join(f"{r['l']},{r['exact_tail']},{r['exact_tail_exact']}\n" for r in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def _binom_tail(trials: int, p: float, q: float, s: int, upper: bool) -> float:
    """P(X >= s) if upper else P(X <= s), X ~ Binomial(trials, p), q = 1 - p."""
    if (upper and s <= 0) or (not upper and s >= trials):
        return 1.0
    if p == 0.0 or q == 0.0:
        return 0.0
    lp, lq = math.log(p), math.log(q)
    lg = math.lgamma(trials + 1)
    js = range(s, trials + 1) if upper else range(s, -1, -1)
    total = 0.0
    for j in js:
        term = math.exp(lg - math.lgamma(j + 1) - math.lgamma(trials - j + 1) + j * lp + (trials - j) * lq)
        total += term
        if term < total * 1e-17:
            break
    return total


def mc_within_band(survivors: int, trials: int, exact: Fraction) -> bool:
    """Survivor count consistent with the exact tail at 5 standard errors.

    Accepted within 5 binomial standard errors of the exact mean, or, where
    the binomial is too skewed for that band (tails near 0 or 1), when the
    exact one-sided binomial tail is at least half the 5-sigma two-sided
    probability.  The band is never narrower than 5 standard errors.
    """
    p, q = float(exact), float(1 - exact)
    mean = trials * p
    if abs(survivors - mean) <= 5 * math.sqrt(trials * p * q):
        return True
    return 2 * _binom_tail(trials, p, q, survivors, survivors > mean) >= FIVE_SIGMA_P


def check_output(job: Job, argv: list[str], output: Path, ref: dict) -> str | None:
    """None if the output is right, else why not."""
    entry = ref.get(job.name)
    if entry is None or entry["argv"] != list(job.argv):
        return f"no reference for {job.name} {list(job.argv)}; run bench/make_reference.py"
    if job.check == "digest":
        got = sha256_file(output)
        return None if got == entry["sha256"] else f"sha256 {got} != reference {entry['sha256']}"
    rows = read_csv(output)
    if job.check == "float":
        if len(rows) != int(argv[argv.index("--steps") + 1]) + 1:
            return f"{len(rows)} rows"
        for l, want in entry["checkpoints"].items():
            row = rows[int(l)]
            tv, l2 = float(row["tv"]), float(row["l2_sq"])
            if abs(tv - want["tv"]) > FLOAT_TOL:
                return f"tv at l={l}: {tv!r} vs exact {want['tv']!r}"
            if abs(l2 - want["l2_sq"]) > FLOAT_TOL * (1 + want["l2_sq"]):
                return f"l2_sq at l={l}: {l2!r} vs exact {want['l2_sq']!r}"
        return None
    # coupling
    if coupling_exact_digest(rows) != entry["exact_columns_sha256"]:
        return "exact tail columns differ from the reference"
    trials = int(argv[argv.index("--trials") + 1])
    for l in MC_CHECK_STEPS:
        row = rows[l]
        if not mc_within_band(int(row["mc_survivors"]), trials, Fraction(row["exact_tail_exact"])):
            return f"MC tail at l={l} outside 5 SE of exact: {row['mc_survivors']}/{trials} vs {row['exact_tail']}"
    return None


def job_failure(job: Job, argv: list[str], proc: Proc, output: Path, ref: dict) -> str | None:
    if proc.timed_out:
        return "timed out"
    if proc.code != job.exit_code:
        return f"exit {proc.code}, expected {job.exit_code}: {proc.stderr.strip()[-300:]}"
    if "Traceback" in proc.stderr:
        return "traceback on stderr"
    if not output.exists():
        return "no output file"
    try:
        return check_output(job, argv, output, ref)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


# ---------------------------------------------------------------------------
# rounds


@dataclasses.dataclass
class Round:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    output_bytes: int = 0
    jobs: int = 0
    job_walls: dict = dataclasses.field(default_factory=dict)
    failures: list = dataclasses.field(default_factory=list)
    spans: list = dataclasses.field(default_factory=list)  # one spans file per job


def run_round(wl: Workload, workdir: Path, cli_seed: int, traced: bool, ref: dict, deadline: float) -> Round:
    rnd = Round(traced=traced)
    for job in wl.jobs:
        argv = job_argv(job, cli_seed)
        output = workdir / f"{job.name}.out"
        spans = workdir / f"{job.name}.spans.json" if traced else None
        for stale in (output, spans):
            if stale is not None and stale.exists():
                stale.unlink()
        timeout = min(JOB_TIMEOUT_S, deadline - time.monotonic())
        proc = spawn(cli_cmd(argv, output, spans), workdir, timeout)
        rnd.jobs += 1
        rnd.wall_s += proc.wall_s
        rnd.job_walls[job.name] = proc.wall_s
        rnd.cpu_s += proc.cpu_s
        rnd.rss_mb = max(rnd.rss_mb, proc.rss_mb)
        why = job_failure(job, argv, proc, output, ref)
        if why is not None:
            rnd.failures.append(f"{job.name}: {why}")
        if output.exists():
            rnd.output_bytes += output.stat().st_size
        if traced and spans.exists():
            rnd.spans.append(json.loads(spans.read_text()))
    return rnd


# A fixed CPU-bound job that does not touch the package.  The host's speed
# drifts by up to +-25% over minutes, and every job's time drifts with it;
# the yardstick's time drifts alike but never changes with the code, so the
# gated time metrics are round times divided by it.
YARDSTICK = "s = 0\nfor i in range(1_000_000):\n    s += i * i % 7\n"


def time_yardstick(workdir: Path) -> Proc:
    """Wall and CPU time of a fresh interpreter running YARDSTICK."""
    proc = spawn([sys.executable, "-c", YARDSTICK], workdir, JOB_TIMEOUT_S)
    if proc.code != 0:
        raise RuntimeError(f"yardstick failed: {proc.stderr.strip()}")
    return proc


def time_import(workdir: Path) -> float:
    """Wall time of a fresh interpreter that imports the CLI and exits."""
    proc = spawn([sys.executable, "-c", "import cubemix.cli"], workdir, JOB_TIMEOUT_S)
    if proc.code != 0:
        raise RuntimeError(f"import cubemix.cli failed: {proc.stderr.strip()}")
    return proc.wall_s


# ---------------------------------------------------------------------------
# known-defect probe


def _csv_result_ok(output: Path, steps: int) -> str | None:
    rows = read_csv(output)
    if len(rows) != steps + 1:
        return f"{len(rows)} rows, expected {steps + 1}"
    if not all(0.0 <= float(r["tv"]) <= 1.0 for r in rows):
        return "tv outside [0, 1]"
    return None


_EVOLVE_FLOAT = (
    "from cubemix import WalkSpec, WeightDistribution, evolve, flip_weight_kernel, tv_to_uniform\n"
    "kernel = flip_weight_kernel(WalkSpec(2000, 7), exact=False)\n"
    "dist = evolve(WeightDistribution.delta(2000).to_float(), kernel, 1900)\n"
    "print(repr(tv_to_uniform(dist)))\n"
)

# (name, CLI arguments, expected outcome).  "result": exit 0 with a full,
# sane curve (or TV, for the library case); "reject": exit 1 ending in an
# "error:" line, with no traceback.
PROBE_CASES = (
    ("float-l2-overflow", ("tv", "--n", "1100", "--k", "3", "--steps", "3"), "result"),
    ("exact-int-str-limit", ("tv", "--n", "400", "--k", "7", "--steps", "200"), "result"),
    ("p-zero-denominator", ("tv", "--n", "6", "--k", "3", "--steps", "3", "--p", "1/0"), "reject"),
    ("negative-steps", ("tv", "--n", "6", "--k", "3", "--steps", "-1"), "reject"),
    ("float-evolve-mass-drift", None, "result"),
)


def probe_case(name, argv, expect, workdir: Path, timeout: float) -> str | None:
    """None if the case has its expected outcome, else what happened."""
    output = workdir / f"probe-{name}.out"
    if output.exists():
        output.unlink()
    if argv is None:
        proc = spawn([sys.executable, "-c", _EVOLVE_FLOAT], workdir, timeout)
    else:
        proc = spawn(cli_cmd(list(argv), output), workdir, timeout)
    if proc.timed_out:
        return "timed out"
    last = (proc.stderr.strip().splitlines() or [""])[-1][:160]
    if "Traceback" in proc.stderr:
        return f"exit {proc.code} with a traceback: {last}"
    if expect == "reject":
        if proc.code != 1:
            return f"exit {proc.code}, expected 1"
        return None if "error:" in last else f"exit 1 without an error line: {last}"
    if proc.code != 0:
        return f"exit {proc.code}: {last}"
    try:
        if argv is None:
            tv = float(proc.stdout.strip())
            return None if 0.0 <= tv <= 1.0 else f"tv {tv!r}"
        return _csv_result_ok(output, int(argv[argv.index("--steps") + 1]))
    except (ValueError, KeyError, OSError) as exc:
        return f"unreadable result: {exc!r}"


def run_probe(workdir: Path, deadline: float) -> dict:
    outcomes = {}
    for name, argv, expect in PROBE_CASES:
        timeout = min(JOB_TIMEOUT_S, deadline - time.monotonic())
        outcomes[name] = probe_case(name, argv, expect, workdir, timeout)
    return outcomes


# ---------------------------------------------------------------------------
# machine facts


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, if it can be asked."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "blas_threads": blas_threads(),
    }


# ---------------------------------------------------------------------------
# per-layer aggregation


# (metric, unit, better): the per-layer metrics of BENCHMARK.json, in order.
LAYER_METRICS = (
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("process.outside_main_s", "s", "lower"),
    ("exactdist.flip_weight_kernel.self_s", "s", "lower"),
    ("exactdist.flip_weight_kernel.useful_frac", "ratio", "higher"),
    ("exactdist.evolve.self_s", "s", "lower"),
    ("exactdist.evolve.calls", "count", "lower"),
    ("exactdist.evolve.steps_applied", "count", "lower"),
    ("exactdist.evolve.max_num_bits", "bits", "lower"),
    ("exactdist.evolve.mass_defect", "prob", "lower"),
    ("exactdist.tv_to_uniform.self_s", "s", "lower"),
    ("exactdist.tv_to_uniform.calls", "count", "lower"),
    ("exactdist.l2_to_uniform.self_s", "s", "lower"),
    ("exactdist.l2_to_uniform.calls", "count", "lower"),
    ("numerics.log_binom.calls", "count", "lower"),
    ("exactdist.touched_weight_kernel.self_s", "s", "lower"),
    ("exactdist.separation_tail.self_s", "s", "lower"),
    ("exactdist.zmn_exact_tv.self_s", "s", "lower"),
    ("spectrum.zmn_l2_upper_bound.self_s", "s", "lower"),
    ("exactdist.spectral_dist.self_s", "s", "lower"),
    ("krawtchouk.kraw_integer_table.self_s", "s", "lower"),
    ("coupling.coupling_weight_kernel.self_s", "s", "lower"),
    ("coupling.coupling_tail_curve.self_s", "s", "lower"),
    ("coupling.simulate_coupling.self_s", "s", "lower"),
    ("coupling.simulate_coupling.steps", "count", "higher"),
    ("coupling.simulate_coupling.steps_per_s", "1/s", "higher"),
    ("coupling.simulate_coupling.censored", "count", "lower"),
    ("coupling.verify_pick_fraction_bounds.self_s", "s", "lower"),
    ("coupling.verify_pick_fraction_bounds.cells", "count", "higher"),
    ("coupling.verify_pick_fraction_bounds.cells_per_s", "1/s", "higher"),
    ("trace_overhead_s", "s", "lower"),
)

# Spans taken from the character-inversion oracle rather than the CLI jobs.
ORACLE_LAYERS = ("exactdist.spectral_dist", "krawtchouk.kraw_integer_table")


def layer_values(span_files: list[dict], round_wall: float, output_bytes: int = 0) -> dict:
    """Per-layer self time, calls and counters of one traced round."""
    self_s, calls, attrs = {}, {}, {}
    counts = {}
    main_s = 0.0
    for data in span_files:
        for name, n in data["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for sp in data["spans"]:
            name, dur = sp["name"], sp["end"] - sp["start"]
            self_s[name] = self_s.get(name, 0.0) + dur - sp["child_s"]
            calls[name] = calls.get(name, 0) + 1
            if name == "cli.main":
                main_s += dur
            for key, v in (sp["attrs"] or {}).items():
                acc = attrs.setdefault(name, {})
                if key == "n_max":
                    key, v = "cells", _cells(v)
                if key in ("max_num_bits", "mass_defect"):
                    acc[key] = max(acc.get(key, 0), v)
                else:
                    acc[key] = acc.get(key, 0) + v
    out = {f"{name}.self_s": s for name, s in self_s.items()}
    out.update({f"{name}.calls": c for name, c in calls.items()})
    out.update({f"{name}.calls": c for name, c in counts.items()})
    ev = attrs.get("exactdist.evolve", {})
    out["exactdist.evolve.steps_applied"] = ev.get("steps", 0)
    out["exactdist.evolve.max_num_bits"] = ev.get("max_num_bits", 0)
    out["exactdist.evolve.mass_defect"] = ev.get("mass_defect", 0.0)
    fk = attrs.get("exactdist.flip_weight_kernel")
    out["exactdist.flip_weight_kernel.useful_frac"] = fk["nonzero"] / fk["stored"] if fk else 0.0
    sim = attrs.get("coupling.simulate_coupling")
    if sim:
        out["coupling.simulate_coupling.steps"] = sim["steps"]
        out["coupling.simulate_coupling.censored"] = sim["censored"]
        out["coupling.simulate_coupling.steps_per_s"] = sim["steps"] / self_s["coupling.simulate_coupling"]
    ver = attrs.get("coupling.verify_pick_fraction_bounds")
    if ver:
        out["coupling.verify_pick_fraction_bounds.cells"] = ver["cells"]
        out["coupling.verify_pick_fraction_bounds.cells_per_s"] = (
            ver["cells"] / self_s["coupling.verify_pick_fraction_bounds"]
        )
    out["process.outside_main_s"] = round_wall - main_s
    out["cli.output_bytes"] = output_bytes
    return out


def median_of(rows: list[dict], key: str, unit: str) -> float:
    """Median over traced rounds; counts keep a value some round had."""
    vals = [r.get(key, 0) for r in rows]
    return statistics.median(vals) if unit == "s" else statistics.median_low(vals)


def run_oracle(workdir: Path, ref_rows_path: Path, deadline: float) -> tuple[dict | None, str | None]:
    """Exact TV at the cube job's last step by character inversion, traced."""
    cube = next(job for job in WORKLOADS["exact"].jobs if job.name == "cube")
    n, k, steps = (cube.argv[cube.argv.index(f) + 1] for f in ("--n", "--k", "--steps"))
    spans = workdir / "oracle.spans.json"
    cmd = [sys.executable, str(TRACER), str(spans), "oracle", n, k, steps]
    proc = spawn(cmd, workdir, min(JOB_TIMEOUT_S, deadline - time.monotonic()))
    if proc.code != 0 or not spans.exists():
        return None, f"oracle exit {proc.code}: {proc.stderr.strip()[-300:]}"
    want = read_csv(ref_rows_path)[int(steps)]["tv_exact"]
    why = None if proc.stdout.strip() == want else "spectral_dist TV differs from the evolved curve"
    return json.loads(spans.read_text()), why


# ---------------------------------------------------------------------------
# report


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def measure(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Run one workload for `seconds` and print its figures.

    Returns the result object: correct, attempted, failed and metrics
    (end-to-end metrics untraced, per-layer metrics traced).
    """
    wl = WORKLOADS[name]
    ref = load_reference()
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    print(f"workload {name}: {wl.why}")
    print(f"loop: closed, 1 client, rounds of {len(wl.jobs)} job(s) for {seconds:g} s, seed {seed}")

    # The first import compiles bytecode for every later job.  Set-up and the
    # yardstick are then timed once before each untraced round, so their
    # samples span the same stretch of machine time as the rounds do.
    time_import(workdir)
    setup, yardsticks = [], []
    seeds = random.Random(seed)
    rounds: list[Round] = []
    wanted = {False, True} if trace else {False}
    t0 = time.monotonic()
    while time.monotonic() < deadline - 30:
        if time.monotonic() - t0 >= seconds and wanted <= {r.traced for r in rounds}:
            break
        traced = trace and len(rounds) % 2 == 1
        if not trace:
            setup.append(time_import(workdir))
            yardsticks.append(time_yardstick(workdir))
        rounds.append(run_round(wl, workdir, seeds.randrange(2**31), traced, ref, deadline))

    failures = [f for r in rounds for f in r.failures]
    attempted = sum(r.jobs for r in rounds)
    metrics = {}
    plain = [r for r in rounds if not r.traced]
    walls = [r.wall_s for r in plain]
    q1, med, q3 = quartiles(walls)
    print(f"wall_s: median {fmt(med)} s, quartiles {fmt(q1)} .. {fmt(q3)} s, {len(walls)} rounds")
    print("round walls in order (s): " + " ".join(f"{w:.3f}" for w in walls))
    for job in wl.jobs:
        jq1, jmed, jq3 = quartiles([r.job_walls[job.name] for r in plain])
        rate = statistics.median(job.work / r.job_walls[job.name] for r in plain)
        print(
            f"  {job.name}: wall_s median {fmt(jmed)} s, quartiles {fmt(jq1)} .. {fmt(jq3)} s; "
            f"work_per_s = {fmt(rate)} 1/s ({job.work} {job.work_unit} a job)"
        )

    if trace:
        traced = [r for r in rounds if r.traced]
        per_round = [layer_values(r.spans, r.wall_s, r.output_bytes) for r in traced]
        oracle_vals = {}
        if (workdir / "cube.out").exists():
            oracle_spans, why = run_oracle(workdir, workdir / "cube.out", deadline)
            attempted += 1
            if why:
                failures.append(f"oracle: {why}")
            if oracle_spans:
                oracle_vals = layer_values([oracle_spans], 0.0)
        traced_wall = statistics.median(r.wall_s for r in traced)
        for metric, unit, _ in LAYER_METRICS:
            if metric == "trace_overhead_s":
                value = traced_wall - med
            elif metric.rsplit(".", 1)[0] in ORACLE_LAYERS:
                value = oracle_vals.get(metric, 0.0)
            else:
                value = median_of(per_round, metric, unit)
            metrics[metric] = {"value": value, "unit": unit}
        print(f"traced wall_s: median {fmt(traced_wall)} s over {len(traced)} rounds; layer self time share:")
        shares = sorted(
            ((metrics[m]["value"] / traced_wall, m) for m, u, _ in LAYER_METRICS if u == "s" and m != "trace_overhead_s"),
            reverse=True,
        )
        for share, metric in shares:
            if share > 0:
                print(f"  {share:7.1%}  {metric}")
    else:
        cpu = statistics.median(r.cpu_s for r in plain)
        yard_wall = statistics.median(y.wall_s for y in yardsticks)
        yard_cpu = statistics.median(y.cpu_s for y in yardsticks)
        print(f"wall_s = {fmt(med)} s; cpu_s = {fmt(cpu)} s (raw medians, not gated: they drift with the host)")
        print(f"yardstick: wall_s median {fmt(yard_wall)} s, cpu_s median {fmt(yard_cpu)} s")
        print("yardstick walls in order (s): " + " ".join(f"{y.wall_s:.4f}" for y in yardsticks))
        metrics = {
            "wall_rel": {"value": med / yard_wall, "unit": "ratio"},
            "cpu_rel": {"value": cpu / yard_cpu, "unit": "ratio"},
            "peak_rss_mb": {"value": statistics.median(r.rss_mb for r in plain), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }

    print(f"failed_frac: {fmt(len(failures) / attempted)} (failed/attempted jobs, {len(failures)}/{attempted})")
    for f in failures[:10]:
        print(f"  failed {f}")
    for metric, m in metrics.items():
        print(f"{metric} = {fmt(m['value'])} {m['unit']}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cubemix" / "cli.py").is_file() or not REFERENCE.is_file():
        print(f"bench: {SRC / 'cubemix'} or {REFERENCE} is missing; run from a full checkout", file=sys.stderr)
        return 2

    print(f"machine: {json.dumps(machine_facts())}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_BUDGET_S
        results[name] = measure(name, args.seed, args.seconds, bool(args.trace), deadline)

    probe_dir = WORK / "probe"
    probe_dir.mkdir(parents=True, exist_ok=True)
    probe = run_probe(probe_dir, deadline)
    print(f"probe_failed: {sum(1 for v in probe.values() if v)} count (of {len(probe)} known-defect cases)")
    for case, why in probe.items():
        print(f"  {case}: {'as expected' if why is None else why}")

    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

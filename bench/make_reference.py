"""Regenerate bench/reference.json, the expected outputs of every job.

Usage (from the repository root):

    python3 bench/make_reference.py

Exact outputs (the cube, cyclic and verify jobs, the exact tail columns of
the coupling job) are pinned by SHA-256 of the bytes the current tree writes.
The float curve is pinned to the exact backend instead: the weight distribution
is evolved in rationals with the library and TV and chi-square distance are
rounded to floats only at the checkpoints.  Rerun this only for a change
that is meant to alter the CLI's output, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

from cubemix import WalkSpec, WeightDistribution, evolve, flip_weight_kernel  # noqa: E402
from cubemix.exactdist import l2_to_uniform, tv_to_uniform  # noqa: E402

FLOAT_CHECKPOINTS = (0, 50, 100, 200, 300, 400, 500)


def exact_checkpoints(argv: tuple[str, ...]) -> dict:
    n, k = (int(argv[argv.index(f) + 1]) for f in ("--n", "--k"))
    kernel = flip_weight_kernel(WalkSpec(n, k), exact=True)
    dist = WeightDistribution.delta(n)
    out = {}
    at = 0
    for l in FLOAT_CHECKPOINTS:
        dist = evolve(dist, kernel, l - at)
        at = l
        out[str(l)] = {"tv": float(tv_to_uniform(dist)), "l2_sq": float(l2_to_uniform(dist))}
    return out


def main() -> int:
    workdir = run.WORK / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    for wl_name, wl in run.WORKLOADS.items():
        for job in wl.jobs:
            entry = {"argv": list(job.argv)}
            if job.check == "float":
                t0 = time.monotonic()
                entry["checkpoints"] = exact_checkpoints(job.argv)
                print(f"{wl_name}/{job.name}: exact checkpoints in {time.monotonic() - t0:.1f} s")
            else:
                argv = run.job_argv(job, 0)
                output = workdir / f"{job.name}.out"
                proc = run.spawn(run.cli_cmd(argv, output), workdir, run.JOB_TIMEOUT_S)
                if proc.code != job.exit_code:
                    raise SystemExit(f"{wl_name}/{job.name}: exit {proc.code}: {proc.stderr}")
                if job.check == "digest":
                    entry["sha256"] = run.sha256_file(output)
                else:
                    entry["exact_columns_sha256"] = run.coupling_exact_digest(run.read_csv(output))
                print(f"{wl_name}/{job.name}: pinned")
            reference[job.name] = entry
    run.REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""simulate_coupling's forked workers: the same report for any worker count, and
no process left behind when a worker fails, the parent's own chunk raises, or
the parent is killed.

Each case runs in a fresh single-threaded `python -c` child that never loads
numpy: the pytest process holds numpy's BLAS thread, so it always runs the
trials serially.  The children report 1-4 CPUs through a patched
os.sched_getaffinity, so they never start more than three workers.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cubemix import WalkSpec, coupling, simulate_coupling

SRC = str(Path(coupling.__file__).parents[1])
linux_only = pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="workers are forked on Linux only")

# (n, k, trials, max_steps, seed)
CASES = [
    (100, 5, 300, 50, 2),  # random.sample's set branch
    (54, 27, 200, 40, 2),  # its pool branch, with k > 5
    (8, 3, 401, 20, 1),  # 401 trials: no worker count divides them
    (coupling._BIT_TABLE_MAX_N + 1, 341, 6, 100, 0),  # bits made per read (_Bits)
    (8, 3, 2, 20, 3),  # fewer trials than workers
    (12, 3, 50, 0, 4),  # no step
    (20, 3, 300, 3, 2),  # 298 of 300 trials censored
]

# every case at 1-4 CPUs, each chunk worth a worker; prints one JSON line per
# run: the CPU count, the number of chunks and the report.  Fails if any
# worker is left unreaped after a normal run
_EQUIVALENCE = """
import json, os, sys
from cubemix import WalkSpec, coupling, simulate_coupling

assert "numpy" not in sys.modules and len(os.listdir("/proc/self/task")) == 1
coupling._FORK_MIN_WORK = 1
split = coupling._split_tally
chunks = []
coupling._split_tally = lambda tally, parts: chunks.append(len(parts)) or split(tally, parts)
for cpus in (1, 2, 3, 4):
    os.sched_getaffinity = lambda pid, cpus=cpus: set(range(cpus))
    for n, k, trials, max_steps, seed in json.loads(sys.argv[1]):
        report = simulate_coupling(WalkSpec(n, k), trials, max_steps, seed)
        print(json.dumps([cpus, chunks.pop(), report]))
assert "numpy" not in sys.modules
try:
    os.waitpid(-1, os.WNOHANG)
    sys.exit("a worker was left unreaped")
except ChildProcessError:
    pass
"""

# args: CPUs to report, then argv for cubemix.cli.main; _tally_ends raises
# in the process named by $FAIL_IN ("worker" or "parent"), with the exception
# named by $FAIL_WITH; prints "reaped" once no child process is left
_FAILING = """
import os, sys
from cubemix import coupling
from cubemix.cli import main

os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
coupling._FORK_MIN_WORK = 1
parent, tally = os.getpid(), coupling._tally_ends

def failing(*args):
    if (os.getpid() == parent) == (os.environ["FAIL_IN"] == "parent"):
        raise getattr(__builtins__, os.environ["FAIL_WITH"])("made to fail")
    return tally(*args)

coupling._tally_ends = failing
try:
    code = main(sys.argv[2:])
except (RuntimeError, KeyboardInterrupt) as exc:
    code = type(exc).__name__
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("reaped")
print(code)
"""


def _child(script: str, *args, env=None, timeout=120):
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": SRC, **(env or {})},
    )


def _serial(n, k, trials, max_steps, seed, monkeypatch):
    monkeypatch.setattr(coupling, "_worker_count", lambda trials, max_steps: 1)
    return simulate_coupling(WalkSpec(n, k), trials, max_steps, seed)


def test_worker_counts_need_fork_one_thread_and_enough_work(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    monkeypatch.setattr(os, "listdir", lambda path: ["1"])
    min_work = coupling._FORK_MIN_WORK
    assert coupling._worker_count(4000, 50) == 4
    assert coupling._worker_count(2, 10 * min_work) == 2
    assert coupling._worker_count(min_work, 0) == 1
    assert coupling._worker_count(3 * min_work, 0) == 3
    monkeypatch.setattr(os, "listdir", lambda path: ["1", "2"])
    assert coupling._worker_count(4000, 50) == 1
    monkeypatch.setattr(os, "listdir", lambda path: (_ for _ in ()).throw(FileNotFoundError(path)))
    assert coupling._worker_count(4000, 50) == 1
    monkeypatch.setattr(os, "listdir", lambda path: ["1"])
    monkeypatch.delattr(os, "fork", raising=False)
    assert coupling._worker_count(4000, 50) == 1


@linux_only
def test_any_worker_count_gives_the_serial_report(monkeypatch):
    serial = {case: _serial(*case, monkeypatch) for case in CASES}
    assert serial[CASES[-1]].censored == 298
    proc = _child(_EQUIVALENCE, json.dumps(CASES))
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(runs) == 4 * len(CASES)
    for (cpus, chunks, report), case in zip(runs, CASES * 4):
        # one chunk per CPU, but no chunk without a trial
        assert chunks == min(cpus, case[2])
        assert report == json.loads(json.dumps(serial[case])), (cpus, case)


def test_couple_bytes_in_a_fresh_process(tmp_path):
    # the console script's own choice of workers, against the golden digest
    out = tmp_path / "couple.csv"
    argv = "couple --n 100 --k 5 --trials 4000 --steps 50 --seed 2".split()
    proc = subprocess.run(
        [sys.executable, "-m", "cubemix.cli", *argv, "--output", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "a0337fda7fb6649e51422bb01fc99653d99ca2ddd3788316694adacda8cd5716"
    )


@linux_only
def test_a_failed_worker_is_one_error_line(tmp_path):
    out = tmp_path / "couple.csv"
    argv = ["couple", "--n", "8", "--k", "3", "--trials", "40", "--steps", "10", "--output", out]
    proc = _child(_FAILING, 2, *argv, env={"FAIL_IN": "worker", "FAIL_WITH": "RuntimeError"})
    assert proc.stdout.splitlines() == ["reaped", "1"]
    assert proc.stderr.splitlines() == [
        "cubemix: error: simulate_coupling: the worker for trials 20..39 failed (exit code 1)"
    ]
    assert not out.exists()


@linux_only
@pytest.mark.parametrize("exc", ["RuntimeError", "KeyboardInterrupt"])
def test_a_failed_parent_chunk_leaves_no_worker(exc, tmp_path):
    # each worker's chunk would run for about 5 s; the parent's fails at
    # once, and its workers are killed rather than waited for
    out = tmp_path / "couple.csv"
    argv = ["couple", "--n", "100", "--k", "5", "--trials", "600000", "--steps", "50", "--output", out]
    start = time.monotonic()
    proc = _child(_FAILING, 4, *argv, env={"FAIL_IN": "parent", "FAIL_WITH": exc})
    assert proc.stdout.splitlines() == ["reaped", exc]
    assert time.monotonic() - start < 3
    assert not out.exists()


def _state(pid: int) -> str | None:
    """pid's state letter from /proc, or None once it is gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return None


@linux_only
def test_workers_leave_when_their_parent_is_killed(tmp_path):
    script = (
        "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
        "from cubemix.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    argv = ["couple", "--n", "100", "--k", "5", "--trials", "200000", "--steps", "50", "--output", tmp_path / "c.csv"]
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *map(str, argv)], env={**os.environ, "PYTHONPATH": SRC}
    )
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    workers = []
    try:
        deadline = time.monotonic() + 30
        while not workers and time.monotonic() < deadline:
            workers = [int(pid) for pid in children.read_text().split()]
            time.sleep(0.01)
        assert workers, "no worker was forked"
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    deadline = time.monotonic() + 2
    while any(_state(pid) not in (None, "Z") for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.01)
    left = [pid for pid in workers if _state(pid) not in (None, "Z")]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert left == []

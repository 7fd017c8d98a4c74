"""The bounded-run checker that CI's CLI steps go through, on tiny children."""

import hashlib
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

CHECKER = Path(__file__).with_name("bounded_run.py")


def _check(*args, cmd):
    """Run the checker on a python -c child; (exit code, stdout lines, stderr lines)."""
    proc = subprocess.run(
        [sys.executable, str(CHECKER), *map(str, args), "--", sys.executable, "-c", cmd],
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc.returncode, proc.stdout.splitlines(), proc.stderr.splitlines()


def _writes(path, data: bytes, code: int) -> str:
    return f"import sys; open({str(path)!r}, 'wb').write({data!r}); sys.exit({code})"


def test_a_compliant_child_passes(tmp_path):
    out = tmp_path / "out.bin"
    digest = hashlib.sha256(b"cubemix\n").hexdigest()
    code, stdout, stderr = _check(
        "--timeout", 10, "--exit", 2, "--sha256", digest, out, "--max-rss-mb", 50,
        cmd=_writes(out, b"cubemix\n", 2),
    )
    assert (code, stderr) == (0, [])
    assert len(stdout) == 1 and re.fullmatch(r".* -c .*: \d+\.\d s, peak RSS \d+ MB", stdout[0])


def test_a_wrong_exit_code_fails(tmp_path):
    out = tmp_path / "out.bin"
    code, stdout, stderr = _check("--timeout", 10, "--exit", 2, cmd=_writes(out, b"", 0))
    assert code == 1 and len(stdout) == 1
    assert len(stderr) == 1 and stderr[0].endswith(": exited 0, expected 2")


def test_a_wrong_digest_fails(tmp_path):
    out = tmp_path / "out.bin"
    digest, other = (hashlib.sha256(data).hexdigest() for data in (b"cubemix\n", b"cubemix!\n"))
    code, stdout, stderr = _check(
        "--timeout", 10, "--sha256", digest, out, cmd=_writes(out, b"cubemix!\n", 0)
    )
    assert code == 1 and len(stdout) == 1
    assert stderr == [f"{out}: sha256 {other}, expected {digest}"]


def test_a_peak_rss_over_the_bound_fails():
    # bytes filled in, so every page of the ~80 MB is resident
    code, stdout, stderr = _check("--timeout", 10, "--max-rss-mb", 50, cmd="b = b'x' * (80 << 20)")
    assert code == 1 and len(stdout) == 1
    assert len(stderr) == 1 and re.search(r": peaked at \d+ MB, above 50 MB$", stderr[0])


def test_a_child_past_the_timeout_is_killed(tmp_path):
    pidfile = tmp_path / "pid"
    cmd = f"import os, time; open({str(pidfile)!r}, 'w').write(str(os.getpid())); time.sleep(5)"
    start = time.monotonic()
    code, stdout, stderr = _check("--timeout", 1, cmd=cmd)
    elapsed = time.monotonic() - start
    pid = int(pidfile.read_text())
    try:
        # the checker has killed and reaped the child, so its pid is gone
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    finally:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert code == 1 and stdout == []
    assert len(stderr) == 1 and stderr[0].endswith(": did not finish in 1 s")
    assert elapsed < 4

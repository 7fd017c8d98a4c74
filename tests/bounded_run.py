"""Run one command under a time bound and check how it ended.

    python tests/bounded_run.py --timeout S [--exit N] [--sha256 HEX PATH]
                                [--max-rss-mb M] -- CMD...

Spawns CMD with the current environment and polls os.wait4 until it ends.
After S seconds it kills CMD and fails.  Otherwise it prints

    CMD: X.X s, peak RSS Y MB

(the child's peak resident size, from wait4) and exits 1 with one line if
CMD's exit code is not N (default 0), if PATH's sha256 is not HEX, or if
the peak RSS is above M MB.  Standard library only, so it bounds the
package without loading it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import signal
import sys
import time


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timeout", type=float, required=True, help="seconds before CMD is killed")
    parser.add_argument("--exit", type=int, default=0, help="CMD's expected exit code")
    parser.add_argument("--sha256", nargs=2, metavar=("HEX", "PATH"), help="expected digest of a file CMD writes")
    parser.add_argument("--max-rss-mb", type=float, help="bound on CMD's peak resident size")
    parser.add_argument("cmd", nargs="+", metavar="CMD")
    args = parser.parse_args(argv)
    shown = " ".join(args.cmd)

    start = time.monotonic()
    try:
        pid = os.posix_spawnp(args.cmd[0], args.cmd, os.environ)
    except OSError as exc:
        sys.exit(f"{shown}: cannot run: {exc.strerror}")
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() - start > args.timeout:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            sys.exit(f"{shown}: did not finish in {args.timeout:g} s")
        time.sleep(0.05)
    mb = usage.ru_maxrss / 1024  # KiB on Linux
    print(f"{shown}: {time.monotonic() - start:.1f} s, peak RSS {mb:.0f} MB", flush=True)

    code = os.waitstatus_to_exitcode(status)
    if code != args.exit:
        sys.exit(f"{shown}: exited {code}, expected {args.exit}")
    if args.sha256:
        want, path = args.sha256
        try:
            got = _sha256(path)
        except OSError as exc:
            sys.exit(f"{path}: cannot read: {exc.strerror}")
        if got != want:
            sys.exit(f"{path}: sha256 {got}, expected {want}")
    if args.max_rss_mb is not None and mb > args.max_rss_mb:
        sys.exit(f"{shown}: peaked at {mb:.0f} MB, above {args.max_rss_mb:g} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end emitting curves, bound reports, and certificates.

Subcommands:

  spectrum   eigenvalue table of a walk (hypercube, or cyclic with --m)
  tv         per-step exact TV and l^2 curve for the chosen walk
  bounds     every closed-form step bound plus the published-table comparison
  couple     Monte Carlo coupling tails next to the exact absorbing-chain tail
  verify     lemma certificates: probineq | general | eig34 | marginal | symmetry

Exit codes: 0 success, 1 invalid arguments or domain error (for example a
negative tv --steps, a zero-denominator --p or an --n beyond float or
index range), an output path that cannot be written or a closed stdout,
2 a verifier found a counterexample (the certificate file is still written).

Output is written atomically to --output, or to
$CUBEMIX_OUTPUT_DIR/<subcommand>.<format> when --output is omitted.  CSV
carries a header line; floats are printed with 17 significant digits and
rationals as "numerator/denominator", so identical invocations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import math
import os
import re
import sys
import tempfile
from fractions import Fraction
from itertools import chain, starmap

OUTPUT_DIR_ENV = "CUBEMIX_OUTPUT_DIR"
_BLAS_THREADS = "OPENBLAS_NUM_THREADS"
# the largest --n each subcommand can take: tv and spectrum build lists of
# n + 1 entries, and couple's getrandbits(n) takes a C int
_INDEX_N = sys.maxsize - 1
_C_INT_MAX = 2**31 - 1


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; this tool reserves 2 for
    verification counterexamples, so remap argument errors to status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _float(q: Fraction) -> float:
    """float(q), or a signed inf beyond float range, as the float backend gives."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _sanitize(obj):
    """Recursively convert to JSON-encodable data with stable key order."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if hasattr(obj, "_asdict"):
        return {k: _sanitize(v) for k, v in obj._asdict().items()}
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _curve_rows(args, curve, row):
    """row(l, value) for l = 0..--steps and the curve's values, drawing none
    past --steps: a list for JSON, which holds the payload whole, or a lazy
    iterator for CSV, which computes each row as it writes it."""
    rows = starmap(row, zip(range(args.steps + 1), curve))
    return list(rows) if args.format == "json" else rows


def _emit(args, default_stem: str, payload: dict, rows=None) -> None:
    """Write the payload as JSON, or as CSV with one line per row dict.

    rows is any iterable of dicts, drawn as its lines are written; the CSV
    header is the keys of the first row.  With rows=None the CSV flattens
    the payload to field,value lines (values JSON-encoded), which is how
    certificates are written.  The file is formatted straight into a temp
    file that replaces the target whole, or is removed on any error, a
    row's too; an unwritable path is a ValueError.
    """
    path = args.output or os.path.join(
        os.environ.get(OUTPUT_DIR_ENV, "."), f"{default_stem}.{args.format}"
    )
    if os.path.isdir(path):
        # refused before mkstemp: the rename onto a directory fails anyway
        # (EBUSY for ".", ENOTDIR for "d/"), and for "." the temp file
        # would be made in the parent
        raise ValueError(f"cannot write {path}: Is a directory")
    try:
        directory = os.path.dirname(os.path.abspath(path))
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cubemix-tmp-")
        except FileNotFoundError:
            # made only when missing: makedirs over a file would say
            # "File exists" where mkstemp says "Not a directory"
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cubemix-tmp-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                if args.format == "json":
                    import json

                    json.dump(_sanitize(payload), fh, indent=2)
                    fh.write("\n")
                else:
                    if rows is None:
                        import json

                        rows = [{"field": k, "value": json.dumps(_sanitize(v))} for k, v in payload.items()]
                    rows = iter(rows)
                    first = next(rows)
                    writer = csv.writer(fh, lineterminator="\n")
                    writer.writerow(first)
                    writer.writerows(map(_fmt, row.values()) for row in chain([first], rows))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# subcommands


def _walk(args, n_max: int = _INDEX_N):
    """(spec, header, exact) of the walk the flags name: the cyclic walk with
    --m, else the cube, and whether --backend runs it on rationals.  --n
    goes up to n_max, the most the subcommand can take."""
    from .numerics import use_exact
    from .spectrum import CyclicWalkSpec, WalkSpec

    n = _need(args, "n", *_POSITIVE)
    _need(args, "n", *_at_most(n_max))
    k = _need(args, "k", *_in_range(n))
    if args.m is None:
        p = Fraction(1, 2) if args.p is None else _need(args, "p", *_HOLD_PROBABILITY)
        spec = WalkSpec(n, k, p)
    elif args.p is not None:
        raise ValueError("--p is the cube walk's hold probability; the cyclic walk has none")
    else:
        spec = CyclicWalkSpec(n, _need(args, "m", *_MODULUS), k)
    header = {"kind": "cube" if args.m is None else "cyclic", **_sanitize(spec)}
    return spec, header, use_exact(n, args.backend)


def _cmd_spectrum(args) -> int:
    from .spectrum import _spectrum

    spec, walk, exact = _walk(args)
    table = _spectrum(spec)
    rows = [
        {
            "level": r.level,
            "eigenvalue": r.value if exact else float(r.value),
            "multiplicity": r.multiplicity,
        }
        for r in table.rows
    ]
    payload = {
        "walk": walk,
        "backend": "exact" if exact else "float",
        "non_ergodic": table.non_ergodic,
        "max_nontrivial_magnitude": table.max_nontrivial_magnitude(),
        "rows": rows,
    }
    _emit(args, "spectrum", payload, rows)
    return 0


def _cmd_tv(args) -> int:
    from .exactdist import distance_curve

    if args.steps < 0:
        raise ValueError(f"tv requires --steps >= 0, got --steps={args.steps}")
    spec, walk, exact = _walk(args)
    # every cube column has an exact twin; the cyclic l2 column is a bound
    twins = ("tv", "l2_sq") if args.m is None else ("tv", "separation_tail")

    def row(l, distances):
        if not exact:
            return {"l": l, **distances}
        # the float columns first, then the exact values they round
        return {"l": l, **{c: _float(v) for c, v in distances.items()}, **{f"{c}_exact": distances[c] for c in twins}}

    rows = _curve_rows(args, distance_curve(spec, exact), row)
    payload = {"walk": walk, "backend": "exact" if exact else "float", "rows": rows}
    _emit(args, "tv", payload, rows)
    return 0


def _cmd_bounds(args) -> int:
    from .bounds import (
        comparison_step_bound,
        coupling_upper_bound_steps,
        cyclic_step_bound,
        half_flip_step_bound,
        reported_steps_comparison,
        second_moment_lower_bound,
    )

    n = _need(args, "n", *_POSITIVE)
    # every bound family computes in floats of n
    _need(args, "n", lambda n: n <= sys.float_info.max, f"an integer <= {sys.float_info.max!r}")
    if args.k is not None:
        _need(args, "k", *_in_range(n))
    if args.m is not None:
        _need(args, "m", *_MODULUS)
    reports = []

    def skipped(op, reason):
        reports.append({"op": op, "skipped": reason})

    # each family checks --c and --eps only where it runs, so a value that
    # only a skipped family would reject still gives a report
    c_given = args.c is not None
    c_upper = args.c if c_given else 1.0
    if args.k is not None and 2 * args.k <= n:
        if c_given:
            _need(args, "c", lambda c: c > 0, "a number > 0 for the coupling bound")
        for variant in ("stated", "summary"):
            reports.append(
                _sanitize(coupling_upper_bound_steps(n, args.k, c_upper, variant))
            )
    else:
        skipped("coupling-upper", "requires --k with k <= n/2")

    if args.eps is not None:
        if n % 4 == 2:
            _need(args, "eps", lambda e: 0 < e < 1, "a number in (0, 1)")
            reports.append(_sanitize(half_flip_step_bound(n, args.eps)))
        else:
            skipped("half-flip", "requires n = 2 mod 4")
    else:
        skipped("half-flip", "requires --eps")

    if args.k is not None:
        c_low = args.c if c_given else min(1.0, math.log(n) / 4)
        if 0 < c_low <= math.log(n) / 4:
            reports.append(_sanitize(second_moment_lower_bound(n, args.k, c_low)))
        else:
            skipped("second-moment-lower", f"c={c_low:g} outside (0, ln(n)/4]")
    else:
        skipped("second-moment-lower", "requires --k")

    if args.m is not None:
        if c_given:
            _need(args, "c", lambda c: c >= 0, "a number >= 0 for the cyclic and comparison bounds")
        c_cyc = args.c if c_given else 1.0
        if args.k is not None:
            reports.append(_sanitize(cyclic_step_bound(n, args.m, args.k, c_cyc)))
        else:
            skipped("cyclic", "requires --k")
        for variant in ("stated", "conservative"):
            reports.append(
                _sanitize(comparison_step_bound(n, args.m, c_cyc, variant))
            )
    else:
        skipped("cyclic", "requires --m")
        skipped("comparison", "requires --m")

    table = [row._asdict() for row in reported_steps_comparison()]
    payload = {
        "params": {
            "n": n,
            "k": args.k,
            "m": args.m,
            "eps": args.eps,
            "c": args.c,
        },
        "log_convention": "natural (ln)",
        "reports": reports,
        "reported_steps_comparison": {
            "note": (
                "published upper-bound examples next to what the stated formula "
                "evaluates to at c -> 0; the published values are not reproduced "
                "by the formula under any logarithm convention tried"
            ),
            "rows": table,
        },
    }
    columns = ("op", "variant", "steps", "raw_steps", "bound", "bound_metric", "notes")
    rows = []
    for rep in reports:
        row = {c: rep.get(c, "") for c in columns}
        if "skipped" in rep:
            row.update(variant="skipped", notes=rep["skipped"])
        else:
            row["notes"] = "; ".join(rep["notes"])
        rows.append(row)
    for entry in table:
        row = dict.fromkeys(columns, "")
        row.update(
            op="reported-comparison",
            variant=f"n={entry['n']} k={entry['k']}",
            steps=entry["computed"],
            notes=f"reported={entry['reported']} difference={entry['difference']}",
        )
        rows.append(row)
    _emit(args, "bounds", payload, rows)
    return 0


def _cmd_couple(args) -> int:
    from .coupling import _tail_curve, simulate_coupling

    spec, walk, exact = _walk(args, _C_INT_MAX)
    _need(args, "k", lambda k: k % 2 == 1, "an odd integer")
    _need(args, "trials", *_POSITIVE)
    _need(args, "steps", lambda l: l >= 0, "an integer >= 0")
    # the simulator counts the trials ending at each step in one list of steps + 2
    _need(args, "steps", *_at_most(sys.maxsize - 2))
    report = simulate_coupling(spec, trials=args.trials, max_steps=args.steps, seed=args.seed)
    # exact_tail is the absorbing chain's, in the arithmetic use_exact picks
    def row(l, tail):
        return {
            "l": l,
            "mc_survivors": report.survivors[l],
            "mc_tail": report.tail(l),
            "exact_tail": float(tail),
            **({"exact_tail_exact": tail} if exact else {}),
        }

    rows = _curve_rows(args, _tail_curve(spec), row)
    payload = {
        "walk": walk,
        "trials": args.trials,
        "seed": args.seed,
        "max_steps": args.steps,
        "method": report.method,
        "censored": report.censored,
        "mc_mean_time": report.mean_time,
        "rows": rows,
    }
    _emit(args, "couple", payload, rows)
    return 0


def _need(args, flag: str, ok=None, expects: str = ""):
    """The value of --flag, or a domain error worded around the flag, not the library call."""
    value = getattr(args, flag.replace("-", "_"))
    if value is None:
        raise ValueError(f"verify --lemma {args.lemma} requires --{flag}")
    if ok is not None and not ok(value):
        raise ValueError(f"--{flag} expects {expects}, got {value}")
    return value


_POSITIVE = (lambda n: n >= 1, "an integer >= 1")
_MODULUS = (lambda m: m >= 2, "an integer >= 2")
_TWO_MOD_FOUR = (lambda n: n % 4 == 2, "an integer = 2 mod 4")
_HOLD_PROBABILITY = (lambda p: 0 <= p < 1, "a fraction in [0, 1)")
_EVEN = (lambda n: n >= 2 and n % 2 == 0, "an even integer >= 2")


def _in_range(top: int):
    """The check that a flag's integer lies in 1..top."""
    return lambda v: 1 <= v <= top, f"an integer in 1..{top}"


def _at_most(top: int):
    """The check that a flag's integer is at most top."""
    return lambda v: v <= top, f"an integer <= {top}"


def _probineq_certificate(args):
    from .coupling import verify_half_flip_pick_bounds

    return verify_half_flip_pick_bounds(_need(args, "n", *_TWO_MOD_FOUR))


def _general_certificate(args):
    from .coupling import verify_pick_fraction_bounds

    _need(args, "n-max", lambda n: n >= 2, "an integer >= 2")
    if not args.parts:
        return verify_pick_fraction_bounds(args.n_max)
    try:
        parts = tuple(int(p) for p in args.parts.split(","))
    except ValueError:
        parts = ()
    if not parts or any(not 1 <= p <= 9 for p in parts):
        raise ValueError(f"--parts expects comma-separated integers in 1..9, got {args.parts!r}")
    return verify_pick_fraction_bounds(args.n_max, parts)


def _eig34_certificate(args):
    from .spectrum import verify_eigenvalue_three_quarters

    return verify_eigenvalue_three_quarters(_need(args, "n", *_TWO_MOD_FOUR))


def _marginal_certificate(args):
    from .coupling import MARGINAL_CHECK_MAX_N, marginal_check

    n = _need(args, "n", *_in_range(MARGINAL_CHECK_MAX_N))
    return marginal_check(n, _need(args, "k", *_in_range(n)))


def _symmetry_certificate(args):
    from .krawtchouk import verify_symmetry_sweep

    return verify_symmetry_sweep(_need(args, "n", *_EVEN))


# lemma -> (certificate builder, predicate that the certificate holds)
_LEMMAS = {
    "probineq": (_probineq_certificate, lambda cert: not cert.has_violations),
    "general": (_general_certificate, lambda cert: not cert.has_violations),
    "eig34": (
        _eig34_certificate,
        lambda cert: cert.bound_holds and cert.odd_levels_equal_p and cert.closed_form_matches,
    ),
    "marginal": (_marginal_certificate, lambda cert: cert.ok),
    "symmetry": (_symmetry_certificate, lambda cert: cert["ok"]),
}


def _cmd_verify(args) -> int:
    lemma = args.lemma
    build, holds = _LEMMAS[lemma]
    cert = build(args)
    bad = not holds(cert)
    # fixed key order: lemma first, verdict second, certificate body after
    payload = {"lemma": lemma, "counterexamples_found": bad, **_sanitize(cert)}
    _emit(args, f"verify_{lemma}", payload)
    print(f"verify {lemma}: {'counterexamples found' if bad else 'ok'}")
    return 2 if bad else 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p, fmt_default: str) -> None:
    p.add_argument("--format", choices=("csv", "json"), default=fmt_default)
    p.add_argument("--output", help="output file path (default: $CUBEMIX_OUTPUT_DIR/<cmd>.<fmt>)")


def _fraction(text: str) -> Fraction:
    """argparse type for --p: a zero denominator is a usage error too."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _finite(text: str) -> float:
    """argparse type for --c and --eps: inf and nan are usage errors too."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expects a finite number, got {text!r}")
    return value


# a value that starts like a negative number, such as -1/2, -1e5 or -inf
_NEGATIVE_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Spell "--flag -1/2" as "--flag=-1/2".

    argparse takes a token after a flag for another flag unless it reads
    as a plain negative integer or decimal, so "--p -1/2" would fail with
    "expected one argument" instead of reaching the range check; the
    --flag=value form is always read as the flag's value.
    """
    out: list[str] = []
    for arg in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and "=" not in flag and _NEGATIVE_VALUE.match(arg):
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cubemix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("spectrum", help="eigenvalue table with multiplicities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=_fraction, help="hold probability of the cube walk (default 1/2)")
    p.add_argument("--m", type=int, help="modulus: report the cyclic walk instead")
    _add_common(p, "csv")
    p.add_argument("--backend", choices=("exact", "float", "auto"), default="auto")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("tv", help="per-step TV and l^2 distance curve")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=_fraction, help="hold probability of the cube walk (default 1/2)")
    p.add_argument("--m", type=int, help="modulus: curve for the cyclic walk instead")
    p.add_argument("--steps", type=int, required=True, help="curve covers l = 0..steps")
    _add_common(p, "csv")
    p.add_argument("--backend", choices=("exact", "float", "auto"), default="auto")
    p.set_defaults(func=_cmd_tv)

    p = sub.add_parser("bounds", help="closed-form step bounds and table comparison")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--eps", type=_finite, help="target for 4*tv^2 in the half-flip bound")
    p.add_argument("--c", type=_finite, help="slack parameter shared by the bound families")
    _add_common(p, "json")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("couple", help="Monte Carlo and exact coupling tails")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=50)
    _add_common(p, "csv")
    # the half-lazy cube walk; no --m, --p or --backend flag: _walk reads these
    p.set_defaults(func=_cmd_couple, m=None, p=None, backend="auto")

    p = sub.add_parser("verify", help="exact lemma certificates")
    p.add_argument("--lemma", required=True, choices=tuple(_LEMMAS))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n-max", dest="n_max", type=int, default=150)
    p.add_argument("--parts", help="comma-separated subset of 1..9 (general only)")
    _add_common(p, "json")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    # Exact rationals outgrow Python's 4300-digit int-to-str limit well
    # inside the exact backend's range (tv --n 40 --k 3 --steps 600), so
    # the limit is lifted while the command runs.  Builds before 3.10.7
    # have no limit.
    saved = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if saved is not None:
        sys.set_int_max_str_digits(0)
    # numpy's bundled OpenBLAS starts a pool of worker threads when numpy is
    # imported, and no subcommand calls BLAS, so the pool would only burn
    # CPU time: one thread unless the user chose a count.  Restored on
    # return like the digit limit, so in-process callers see no change.
    blas_default = _BLAS_THREADS not in os.environ
    if blas_default:
        os.environ[_BLAS_THREADS] = "1"
    try:
        return args.func(args)
    except (ValueError, OverflowError, ChildProcessError) as exc:
        # OverflowError: a value beyond float or index range that no flag
        # check bounds, at the first float conversion or allocation it
        # reaches; ChildProcessError: a failed couple worker process
        print(f"cubemix: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # e.g. couple's per-step tally at --steps near sys.maxsize
        print("cubemix: error: out of memory", file=sys.stderr)
        return 1
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)
        if blas_default:
            os.environ.pop(_BLAS_THREADS, None)


def run():
    """The process entry point, `cubemix` and `python -m cubemix.cli`; never returns.

    Runs main(), then the registered atexit callbacks, flushes stdout and
    stderr and ends the process with os._exit, skipping the interpreter's
    teardown (freeing every module and object, numpy's included), which
    writes nothing.  A closed stdout exits 1 with one line on stderr; the
    output file is already in place.  Exits the normal way, through
    SystemExit, under a tracer, profiler or debugger (which may still write
    after the module returns), while another thread is alive (the teardown
    joins it), or when a flush fails.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the Python docs' recipe for a closed stdout: whatever is still
        # buffered goes to devnull, so no later flush fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"cubemix: error: cannot write to stdout: {exc.strerror}", file=sys.stderr)
        code = 1
    if _watched():
        raise SystemExit(code)
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        raise SystemExit(code) from None
    os._exit(code)


def _watched() -> bool:
    """Whether a tracer, profiler or debugger is attached, or a thread other
    than this one is alive."""
    if sys.gettrace() or sys.getprofile():
        return True
    # from Python 3.12, cProfile registers here instead of with setprofile
    monitoring = getattr(sys, "monitoring", None)
    if monitoring and any(monitoring.get_tool(tool) for tool in range(6)):
        return True
    threading = sys.modules.get("threading")
    return threading is not None and threading.active_count() > 1


if __name__ == "__main__":
    run()

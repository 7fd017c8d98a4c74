"""Run one cubemix CLI job (or the character-inversion oracle) with spans.

Usage:
    python3 bench/tracer.py SPANS.json cli <cubemix CLI arguments...>
    python3 bench/tracer.py SPANS.json oracle N K L

The layers are wrapped from outside the package: every function named in
SPANNED is replaced, in its defining module and in every cubemix module that
imported it by name, by a wrapper that records a span (name, parent, start,
end, attributes).  Functions in COUNTED only have their calls counted,
because a span per call would cost more than the call.  Spans stay in memory
and are written to SPANS.json when the job ends; the CLI's own output files
are not touched, so a traced job writes the same bytes as an untraced one.

The "oracle" mode evaluates the exact TV of the cube walk after L steps by
character inversion (spectral_dist), a path no CLI subcommand uses, and
prints it as "numerator/denominator".
"""

from __future__ import annotations

import functools
import json
import sys
import time

import cubemix
import cubemix.cli
import cubemix.coupling
import cubemix.exactdist
import cubemix.krawtchouk
import cubemix.numerics
import cubemix.spectrum

MODULES = {
    "cli": cubemix.cli,
    "coupling": cubemix.coupling,
    "exactdist": cubemix.exactdist,
    "krawtchouk": cubemix.krawtchouk,
    "numerics": cubemix.numerics,
    "spectrum": cubemix.spectrum,
}

SPANNED = (
    "cli.main",
    "exactdist.flip_weight_kernel",
    "exactdist.evolve",
    "exactdist.tv_to_uniform",
    "exactdist.l2_to_uniform",
    "exactdist.touched_weight_kernel",
    "exactdist.separation_tail",
    "exactdist.zmn_exact_tv",
    "exactdist.spectral_dist",
    "krawtchouk.kraw_integer_table",
    "spectrum.zmn_l2_upper_bound",
    "coupling.coupling_weight_kernel",
    "coupling.coupling_tail_curve",
    "coupling.simulate_coupling",
    "coupling.verify_pick_fraction_bounds",
)

COUNTED = ("numerics.log_binom",)


def _evolve_attrs(args, result):
    attrs = {"steps": args[2]}
    if result.exact:
        attrs["max_num_bits"] = max(v.bit_length() for v in result.nums)
    else:
        attrs["mass_defect"] = abs(float(result.vec.sum()) - 1.0)
    return attrs


def _kernel_attrs(args, result):
    if result.exact:
        stored = sum(len(row) for row in result.rows)
        nonzero = sum(1 for row in result.rows for c in row.values() if c)
    else:
        stored = result.matrix.size
        nonzero = int((result.matrix != 0).sum())
    return {"stored": stored, "nonzero": nonzero}


def _coupling_attrs(args, result):
    # every step of a trial still apart bumps one survivor count; a trial
    # censored at max_steps bumps survivors[max_steps] without stepping
    return {"steps": sum(result.survivors) - result.censored, "censored": result.censored}


def _verify_attrs(args, result):
    return {"n_max": args[0]}


# Attributes read from a call's arguments and result.  They are computed
# after the span's end time is taken, and the parent is told to exclude that
# time, so the counters do not inflate any self time.
ATTRS = {
    "exactdist.evolve": _evolve_attrs,
    "exactdist.flip_weight_kernel": _kernel_attrs,
    "coupling.simulate_coupling": _coupling_attrs,
    "coupling.verify_pick_fraction_bounds": _verify_attrs,
}


class Tracer:
    """In-memory span collector; a stack gives each span its parent."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, child_s, attrs]
        self.stack = []
        self.counts = {name: 0 for name in COUNTED}

    def spanned(self, name, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            span = [name, parent, time.perf_counter(), None, 0.0, None]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if attrs_of is not None:
                span[5] = attrs_of(args, result)
            if parent >= 0:
                self.spans[parent][4] += time.perf_counter() - span[2]
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for names, make in ((SPANNED, self.spanned), (COUNTED, self.counted)):
            for qualname in names:
                module_key, attr = qualname.split(".")
                original = getattr(MODULES[module_key], attr)
                wrapped = make(qualname, original)
                for module in (cubemix, *MODULES.values()):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def dump(self, path):
        records = [
            {"name": n, "parent": p, "start": s, "end": e, "child_s": c, "attrs": a}
            for n, p, s, e, c, a in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": records, "counts": self.counts}, fh)


def _oracle(n, k, l):
    spec = cubemix.spectrum.WalkSpec(n, k)
    tv = cubemix.exactdist.tv_to_uniform(cubemix.exactdist.spectral_dist(spec, l))
    print(f"{tv.numerator}/{tv.denominator}")
    return 0


def main(argv):
    spans_path, mode, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        if mode == "cli":
            return cubemix.cli.main(rest)
        if mode == "oracle":
            return _oracle(*(int(a) for a in rest))
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

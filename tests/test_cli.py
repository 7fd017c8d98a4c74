"""End-to-end command tests: formats, exit codes, reproducibility."""

import errno
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cubemix import (
    coupling_upper_bound_steps,
    cyclic_step_bound,
    evolve,
    flip_weight_kernel,
    simulate_coupling,
    tv_to_uniform,
    WalkSpec,
    WeightDistribution,
)
import cubemix
from cubemix import cli, exactdist, spectrum
from cubemix.cli import main


def _lines(path):
    return path.read_text().splitlines()


def test_tv_csv_frozen_values(tmp_path):
    out = tmp_path / "tv.csv"
    assert main(["tv", "--n", "2", "--k", "1", "--steps", "1", "--output", str(out)]) == 0
    lines = _lines(out)
    assert lines[0] == "l,tv,l2_sq,tv_exact,l2_sq_exact"
    assert lines[1] == "0,0.75,3,3/4,3/1"
    assert lines[2] == "1,0.25,0.5,1/4,1/2"
    assert out.read_text().endswith("\n")


def test_tv_json_structure(tmp_path):
    out = tmp_path / "tv.json"
    assert main(["tv", "--n", "2", "--k", "1", "--steps", "1", "--format", "json", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["walk"] == {"kind": "cube", "n": 2, "k": 1, "p": "1/2"}
    assert payload["backend"] == "exact"
    assert payload["rows"][1]["tv_exact"] == "1/4"
    assert payload["rows"][1]["l2_sq_exact"] == "1/2"
    assert payload["rows"][1]["tv"] == 0.25


def test_tv_float_backend(tmp_path):
    out = tmp_path / "tv.csv"
    code = main(
        ["tv", "--n", "20", "--k", "3", "--steps", "2", "--backend", "float", "--output", str(out)]
    )
    assert code == 0
    lines = _lines(out)
    assert lines[0] == "l,tv,l2_sq"
    assert len(lines) == 4
    # auto picks floats above n = 400; l2 at n = 1100 used to overflow
    assert main(["tv", "--n", "1100", "--k", "3", "--steps", "3", "--output", str(out)]) == 0
    assert len(_lines(out)) == 5


def test_tv_exact_rationals_beyond_int_str_limit(tmp_path):
    # l2_sq_exact outgrows Python's default 4300-digit int-to-str limit
    out = tmp_path / "tv.csv"
    assert main(["tv", "--n", "40", "--k", "3", "--steps", "600", "--output", str(out)]) == 0
    last = _lines(out)[-1].split(",")
    dist = evolve(WeightDistribution.delta(40), flip_weight_kernel(WalkSpec(40, 3)), 600)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert last[0] == "600"
        assert Fraction(last[3]) == tv_to_uniform(dist)
        assert len(last[4]) > 4300
    finally:
        sys.set_int_max_str_digits(saved)


def test_tv_cube_float_column_is_inf_beyond_float_range(tmp_path):
    # l2 at l = 0 is 2^1100 - 1: the float column is inf, as the float
    # backend gives, and the exact column keeps the Fraction
    out = tmp_path / "tv.csv"
    argv = ["tv", "--n", "1100", "--k", "3", "--steps", "1"]
    assert main(argv + ["--backend", "exact", "--output", str(out)]) == 0
    row = _lines(out)[1].split(",")
    assert row[2] == "inf"
    assert Fraction(row[4]) == 2**1100 - 1
    assert main(argv + ["--backend", "float", "--output", str(out)]) == 0
    assert _lines(out)[1].split(",")[2] == "inf"


def test_tv_cyclic_float_column_is_inf_beyond_float_range(tmp_path):
    # the cyclic l2 bound at l = 0 is 3^700 - 1
    out = tmp_path / "tvc.json"
    argv = ["tv", "--n", "700", "--m", "3", "--k", "3", "--steps", "2", "--format", "json", "--backend", "exact"]
    assert main(argv + ["--output", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["l2_sq_bound"] for r in rows] == ["inf"] * 3
    assert Fraction(rows[0]["tv_exact"]) == 1 - Fraction(1, 3**700)


def test_tv_cyclic_curve(tmp_path):
    out = tmp_path / "tvc.csv"
    code = main(["tv", "--n", "3", "--k", "1", "--m", "2", "--steps", "2", "--output", str(out)])
    assert code == 0
    lines = _lines(out)
    assert lines[0] == "l,tv,separation_tail,l2_sq_bound,tv_exact,separation_tail_exact"
    # l = 0: the start is a point mass, so TV = 1 - 1/8 and nothing touched.
    assert lines[1].split(",")[4] == "7/8"
    assert lines[1].split(",")[5] == "1/1"
    # The float backend steps the same chains in float64.
    fout = tmp_path / "tvcf.csv"
    assert main(["tv", "--n", "3", "--k", "1", "--m", "2", "--steps", "2", "--backend", "float", "--output", str(fout)]) == 0
    assert _lines(fout)[0] == "l,tv,separation_tail,l2_sq_bound"
    for want, got in zip(_csv_rows(out), _csv_rows(fout), strict=True):
        assert abs(float(got["tv"]) - float(Fraction(want["tv_exact"]))) <= 1e-12, want["l"]


def test_tv_cyclic_curve_steps_once_per_l(tmp_path, monkeypatch):
    # like the cube curve: one build of each kernel (the support-size chain
    # for TV, the touched-count chain for separation), then one evolve step
    # per l on each
    names = ("support_weight_kernel", "touched_weight_kernel")
    real = {name: getattr(exactdist, name) for name in names}
    real_evolve = exactdist.evolve
    builds, steps = [], {}

    def building(name):
        def kernel(cspec):
            built = real[name](cspec)
            builds.append((name, built))
            return built

        return kernel

    def stepped(dist, kern, n_steps):
        steps.setdefault(id(kern), []).append(n_steps)
        return real_evolve(dist, kern, n_steps)

    for module in (cli, exactdist):
        for name in names:
            monkeypatch.setattr(module, name, building(name), raising=False)
        monkeypatch.setattr(module, "evolve", stepped, raising=False)
    out = str(tmp_path / "tvc.csv")
    for backend in ("exact", "float"):
        builds.clear()
        steps.clear()
        argv = ["tv", "--n", "10", "--m", "3", "--k", "2", "--steps", "20", "--backend", backend]
        assert main(argv + ["--output", out]) == 0
        assert sorted(name for name, _ in builds) == list(names)
        assert len(steps) == 2
        assert {name: steps[id(kern)] for name, kern in builds} == {name: [1] * 20 for name in names}


def test_exact_tv_curves_read_l2_from_eigenvalue_powers(tmp_path, monkeypatch):
    # every curve, exact or float, takes its l2 column from the
    # eigenvalue-power curve, so no curve runs a per-l l2 reduction
    calls = {"l2_to_uniform": 0, "zmn_l2_upper_bound": 0}
    for module in (cli, exactdist, spectrum):
        for name in calls:
            real = getattr(module, name, None)
            if real is not None:

                def counted(*args, _real=real, _name=name, **kwargs):
                    calls[_name] += 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    out = str(tmp_path / "tv.csv")
    for argv in (["--n", "10", "--k", "3"], ["--n", "10", "--m", "3", "--k", "3"]):
        assert main(["tv", *argv, "--steps", "20", "--output", out]) == 0
    assert calls == {"l2_to_uniform": 0, "zmn_l2_upper_bound": 0}
    assert main(["tv", "--n", "10", "--k", "3", "--steps", "20", "--backend", "float", "--output", out]) == 0
    assert calls == {"l2_to_uniform": 0, "zmn_l2_upper_bound": 0}


@pytest.fixture
def no_int_str_limit():
    # the exact columns outgrow the default 4300-digit int-to-str limit
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(saved)


def _csv_rows(path):
    header, *rows = _lines(path)
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


@pytest.mark.parametrize(
    "n,k,p,steps",
    [(40, 3, "0", 300), (150, 5, "1/3", 300), (400, 7, "1/2", 200), (6, 3, "1/2", 3), (4, 2, "0", 3),
     (40, 3, "m=3", 60), (200, 5, "m=3", 130), (400, 7, "m=5", 100), (6, 6, "m=3", 3)],
)
def test_float_tv_curve_matches_exact(n, k, p, steps, tmp_path, no_int_str_limit):
    # float TV within 1e-12, float l2 within 1e-12 of 1 + l2; (6, 3) and
    # (4, 2) at p = 0 have zero eigenvalues, which count at l = 0 only.
    # p = "m=M" runs the cyclic walk on (Z/MZ)^n instead: its separation tail
    # is within 1e-12 too, and its exact l2 is the exact eigenvalue curve;
    # at k = n every nontrivial eigenvalue is zero
    m = int(p[2:]) if p.startswith("m=") else None
    walk = ["--p", p] if m is None else ["--m", str(m)]
    argv = ["tv", "--n", str(n), "--k", str(k), *walk, "--steps", str(steps)]
    exact_out, float_out = tmp_path / "exact.csv", tmp_path / "float.csv"
    assert main(argv + ["--backend", "exact", "--output", str(exact_out)]) == 0
    assert main(argv + ["--backend", "float", "--output", str(float_out)]) == 0
    exact_rows, float_rows = _csv_rows(exact_out), _csv_rows(float_out)
    assert len(float_rows) == len(exact_rows) == steps + 1
    if m is None:
        l2_column, l2s = "l2_sq", [Fraction(row["l2_sq_exact"]) for row in exact_rows]
    else:
        l2_column, l2s = "l2_sq_bound", spectrum._l2_curve(spectrum.CyclicWalkSpec(n, m, k))
        for want, got in zip(exact_rows, float_rows):
            sep = Fraction(want["separation_tail_exact"])
            assert abs(float(got["separation_tail"]) - float(sep)) <= 1e-12, want["l"]
    for want, got, l2 in zip(exact_rows, float_rows, l2s):
        if want["l"] == "0":
            assert l2 == (m or 2) ** n - 1
        tv = Fraction(want["tv_exact"])
        assert abs(float(got["tv"]) - float(tv)) <= 1e-12, want["l"]
        assert abs(float(got[l2_column]) - float(l2)) <= 1e-12 * (1 + float(l2)), want["l"]


@pytest.mark.parametrize(
    "k,p,steps,sampled,finite",
    [
        (3, "1/2", 200, range(0, 201, 20), 0),
        (3, "1/2", 2000, (0, 1000, 1820, 1821, 1988, 1989, 2000), 2),
        (61, "0", 200, range(0, 201, 20), 9),
    ],
)
def test_float_tv_curve_l2_is_float_eigenvalue_sum_at_5000(k, p, steps, sampled, finite, tmp_path):
    # (3, 1/2) is beyond float range up to l = 1988.  From l = 1821 the
    # evolved float profile read finite l2 values there (9e229 at l = 1989
    # against the true 4.5e307): its point-start mass at weight 0, about
    # 2^-l, underflows.  (61, 0) starts beyond float range and falls to about
    # 1, the weight of level n's eigenvalue -1; the evolved profile's l2 was
    # off there by up to 3e-12 relative, rounding gathered over the steps.
    out = tmp_path / "tv.csv"
    argv = ["tv", "--n", "5000", "--k", str(k), "--p", p, "--steps", str(steps), "--backend", "float"]
    assert main(argv + ["--output", str(out)]) == 0
    rows = _csv_rows(out)
    spec = WalkSpec(5000, k, Fraction(p))
    seen = 0
    for l in sampled:
        got, want = float(rows[l]["l2_sq"]), spectrum.l2_upper_bound(spec, l, exact=False)
        if math.isinf(want):
            assert math.isinf(got), l
        else:
            seen += 1
            assert abs(got - want) <= 1e-12 * want, l
    assert seen == finite


def test_spectrum_csv_exact(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--n", "6", "--k", "3", "--output", str(out)]) == 0
    lines = _lines(out)
    assert lines[0] == "level,eigenvalue,multiplicity"
    assert lines[1] == "0,1/1,1"
    assert lines[3] == "2,2/5,15"
    assert lines[7] == "6,0/1,1"


def test_spectrum_accepts_rational_p(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--n", "4", "--k", "1", "--p", "1/4", "--output", str(out)]) == 0
    # Top level: p + (1-p)(-1) = -1/2.
    assert _lines(out)[5] == "4,-1/2,1"


def test_spectrum_float_backend_and_json(tmp_path):
    out = tmp_path / "spec.json"
    code = main(
        ["spectrum", "--n", "6", "--k", "3", "--backend", "float", "--format", "json", "--output", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["backend"] == "float"
    assert payload["rows"][2]["eigenvalue"] == pytest.approx(0.4)
    assert payload["non_ergodic"] is False
    assert payload["max_nontrivial_magnitude"] == "3/5"


def test_spectrum_cyclic(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--n", "4", "--k", "2", "--m", "3", "--output", str(out)]) == 0
    lines = _lines(out)
    # Multiplicities C(4,w) 2^w for m = 3.
    assert [row.split(",")[2] for row in lines[1:]] == ["1", "8", "24", "32", "16"]


def test_bounds_json_reports(tmp_path):
    out = tmp_path / "bounds.json"
    code = main(
        ["bounds", "--n", "54", "--k", "27", "--eps", "0.01", "--output", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    ops = [(r.get("op"), r.get("variant", r.get("skipped"))) for r in payload["reports"]]
    assert ("coupling-upper", "stated") in ops
    assert ("coupling-upper", "summary") in ops
    by_key = {(r.get("op"), r.get("variant")): r for r in payload["reports"]}
    assert by_key[("half-flip", "stated")]["steps"] == 147
    stated = by_key[("coupling-upper", "stated")]
    assert stated["steps"] == coupling_upper_bound_steps(54, 27, 1.0).steps
    assert ("cyclic", "requires --m") in ops
    assert ("comparison", "requires --m") in ops
    table = payload["reported_steps_comparison"]["rows"]
    assert len(table) == 6
    assert {(r["n"], r["k"]): r["computed"] for r in table}[(54, 27)] == 76
    assert all(r["difference"] > 0 for r in table)
    assert payload["log_convention"] == "natural (ln)"


def test_bounds_with_modulus(tmp_path):
    out = tmp_path / "bounds.json"
    code = main(["bounds", "--n", "3", "--k", "1", "--m", "2", "--c", "0", "--output", str(out)])
    assert code == 1  # c = 0 violates the second-moment precondition guard?
    # c=0 is rejected per-family, not globally: rerun without --c.
    code = main(["bounds", "--n", "3", "--k", "1", "--m", "2", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    by_key = {(r.get("op"), r.get("variant")): r for r in payload["reports"]}
    assert by_key[("cyclic", "stated")]["steps"] == cyclic_step_bound(3, 2, 1, 1.0).steps
    assert ("comparison", "conservative") in by_key


def test_bounds_csv_flatten(tmp_path):
    out = tmp_path / "bounds.csv"
    code = main(["bounds", "--n", "54", "--k", "27", "--format", "csv", "--output", str(out)])
    assert code == 0
    lines = _lines(out)
    assert lines[0] == "op,variant,steps,raw_steps,bound,bound_metric,notes"
    ops = [row.split(",")[0] for row in lines[1:]]
    assert ops.count("coupling-upper") == 2
    assert ops.count("reported-comparison") == 6
    assert any(row.startswith("half-flip,skipped") for row in lines[1:])


@pytest.mark.parametrize("n,backend", [(400, "exact"), (401, "float")])
def test_auto_backend_is_exact_up_to_the_cutoff_for_every_stepping_command(n, backend, tmp_path):
    # one rule: auto gives the bytes of --backend exact up to n = 400 and of
    # --backend float above it, on both walks; couple has no flag and keeps
    # its exact column only where the rule is exact
    auto, chosen = tmp_path / "auto.csv", tmp_path / "chosen.csv"
    for walk in ([], ["--m", "3"]):
        argv = ["tv", "--n", str(n), "--k", "3", "--steps", "3", *walk]
        assert main(argv + ["--output", str(auto)]) == 0
        assert main(argv + ["--backend", backend, "--output", str(chosen)]) == 0
        assert auto.read_bytes() == chosen.read_bytes(), walk
    out = tmp_path / "couple.csv"
    assert main(["couple", "--n", str(n), "--k", "3", "--trials", "20", "--steps", "5", "--output", str(out)]) == 0
    header = _lines(out)[0].split(",")
    assert header[:4] == ["l", "mc_survivors", "mc_tail", "exact_tail"]
    assert ("exact_tail_exact" in header) == (backend == "exact")


def test_couple_outputs_and_consistency(tmp_path):
    out = tmp_path / "couple.csv"
    code = main(
        ["couple", "--n", "4", "--k", "3", "--trials", "60", "--steps", "5", "--seed", "7", "--output", str(out)]
    )
    assert code == 0
    lines = _lines(out)
    assert lines[0] == "l,mc_survivors,mc_tail,exact_tail,exact_tail_exact"
    assert len(lines) == 7
    report = simulate_coupling(WalkSpec(4, 3), 60, 5, 7)
    assert int(lines[1].split(",")[1]) == report.survivors[0]
    out_json = tmp_path / "couple.json"
    code = main(
        ["couple", "--n", "4", "--k", "3", "--trials", "60", "--steps", "5", "--seed", "7", "--format", "json", "--output", str(out_json)]
    )
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["censored"] == report.censored
    assert payload["mc_mean_time"] == report.mean_time
    assert payload["rows"][0]["mc_survivors"] == report.survivors[0]


def test_verify_exit_codes_and_key_order(tmp_path):
    ok = tmp_path / "eig.json"
    assert main(["verify", "--lemma", "eig34", "--n", "6", "--output", str(ok)]) == 0
    payload = json.loads(ok.read_text())
    assert list(payload)[:2] == ["lemma", "counterexamples_found"]
    assert payload["counterexamples_found"] is False
    assert payload["max_abs"] == "3/5"

    # probineq at n = 6 has odd-y counterexamples: exit 2, file still written.
    bad = tmp_path / "probineq.json"
    assert main(["verify", "--lemma", "probineq", "--n", "6", "--output", str(bad)]) == 2
    payload = json.loads(bad.read_text())
    assert payload["counterexamples_found"] is True
    assert payload["min_part1"] == ["1/4", 3]

    assert main(["verify", "--lemma", "marginal", "--n", "6", "--k", "3", "--output", str(tmp_path / "m.json")]) == 0
    assert main(["verify", "--lemma", "symmetry", "--n", "10", "--output", str(tmp_path / "s.json")]) == 0


def test_verify_general_parts_filter(tmp_path):
    out = tmp_path / "g.json"
    assert main(["verify", "--lemma", "general", "--n-max", "12", "--parts", "2,3", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["parts"] == [2, 3]
    assert main(["verify", "--lemma", "general", "--n-max", "12", "--output", str(out)]) == 2
    payload = json.loads(out.read_text())
    assert payload["counterexamples_found"] is True


def test_verify_kv_csv(tmp_path):
    out = tmp_path / "eig.csv"
    code = main(["verify", "--lemma", "eig34", "--n", "6", "--format", "csv", "--output", str(out)])
    assert code == 0
    lines = _lines(out)
    assert lines[0] == "field,value"
    fields = [row.split(",")[0] for row in lines[1:]]
    assert fields[:2] == ["lemma", "counterexamples_found"]


def test_invalid_arguments_exit_one(tmp_path, capsys):
    assert main(["tv", "--n", "2", "--k", "1"]) == 1  # missing --steps
    assert main(["nosuchcommand"]) == 1
    assert main(["tv", "--n", "x", "--k", "1", "--steps", "1"]) == 1
    assert main(["verify", "--lemma", "probineq"]) == 1  # missing --n
    assert main(["tv", "--n", "2", "--k", "5", "--steps", "1", "--output", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["tv", "--n", "6", "--k", "3", "--steps", "-1"],
        ["tv", "--n", "6", "--k", "3", "--m", "3", "--steps", "-1"],
        ["spectrum", "--n", "6", "--k", "3", "--p", "1/0"],
        ["tv", "--n", "6", "--k", "3", "--steps", "3", "--p", "1/0"],
        ["bounds", "--n", "54", "--k", "27", "--backend", "float"],
        ["couple", "--n", "8", "--k", "3", "--backend", "exact"],
        ["verify", "--lemma", "eig34", "--n", "6", "--backend", "exact"],
        ["bounds", "--n", "6", "--k", "3", "--c", "inf"],
        ["bounds", "--n", "6", "--k", "3", "--c=-inf"],
        ["bounds", "--n", "6", "--k", "3", "--c", "nan"],
        ["bounds", "--n", "6", "--eps", "nan"],
        ["bounds", "--n", "6", "--eps", "inf"],
        ["bounds", "--n", "6", "--m", "3", "--k", "2", "--c", "1e308"],
        ["bounds", "--n", "6", "--m", "3", "--k", "4", "--c", "1e308"],
        ["bounds", "--n", "6", "--k", "3", "--c", "1e308"],
        # an --n beyond what the subcommand can take (float range for
        # bounds, index range for tv and spectrum, a C int for couple)
        ["bounds", "--n", str(10**400), "--k", "3"],
        ["bounds", "--n", str(10**400), "--m", "3"],
        ["tv", "--n", str(10**30), "--k", "3", "--steps", "0"],
        ["couple", "--n", str(10**21), "--k", "3", "--trials", "1", "--steps", "0"],
        ["spectrum", "--n", str(10**30), "--k", "3"],
    ],
    ids=["tv-negative-steps", "tv-cyclic-negative-steps", "spectrum-p-zero-den", "tv-p-zero-den",
         "bounds-backend", "couple-backend", "verify-backend", "bounds-c-inf", "bounds-c-minus-inf",
         "bounds-c-nan", "bounds-eps-nan", "bounds-eps-inf", "bounds-c-1e308-m", "bounds-c-1e308-cyclic",
         "bounds-c-1e308", "bounds-n-beyond-float", "bounds-cyclic-n-beyond-float", "tv-n-beyond-index",
         "couple-n-beyond-c-int", "spectrum-n-beyond-index"],
)
def test_rejected_inputs_exit_one_without_output(argv, tmp_path, capsys, request):
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error:" in err.splitlines()[-1]
    assert "Traceback" not in err
    if "-beyond-" in request.node.callspec.id:
        assert err.splitlines()[-1].startswith("cubemix: error: --n expects")


@pytest.mark.parametrize("case", ["output-is-a-directory", "output-under-a-file", "output-dir-env-is-a-file"])
def test_unwritable_output_is_one_line(case, tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "blocker"
    if case == "output-is-a-directory":
        blocker.mkdir()
        kept, path = blocker / "kept", blocker
    else:
        kept, path = blocker, blocker / "tv.csv"
    kept.write_text("old\n")
    argv = ["tv", "--n", "4", "--k", "1", "--steps", "1"]
    if case == "output-dir-env-is-a-file":
        monkeypatch.setenv("CUBEMIX_OUTPUT_DIR", str(blocker))
    else:
        argv += ["--output", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"cubemix: error: cannot write {path}: ")
    if case == "output-under-a-file":
        assert err[0] == f"cubemix: error: cannot write {path}: {os.strerror(errno.ENOTDIR)}"
    assert kept.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == (
        ["blocker", "kept"] if case == "output-is-a-directory" else ["blocker"]
    )


class _Interrupted(Exception):
    pass


def test_a_csv_failing_partway_keeps_the_old_file(tmp_path, monkeypatch):
    out = tmp_path / "tv.csv"
    out.write_text("old\n")
    real, calls = cli._fmt, []

    def fmt(v):
        # a few rows in, after the temp file has been written to
        calls.append(v)
        if len(calls) > 20:
            raise _Interrupted
        return real(v)

    monkeypatch.setattr(cli, "_fmt", fmt)
    with pytest.raises(_Interrupted):
        main(["tv", "--n", "6", "--k", "3", "--steps", "20", "--output", str(out)])
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def test_a_json_failing_partway_keeps_the_old_file(tmp_path, monkeypatch):
    out = tmp_path / "tv.json"
    out.write_text("old\n")
    real = cli._sanitize

    def sanitize(obj):
        # the payload, and only it, ends in an object json cannot encode
        clean = real(obj)
        return {**clean, "last": object()} if isinstance(obj, dict) else clean

    monkeypatch.setattr(cli, "_sanitize", sanitize)
    with pytest.raises(TypeError, match="not JSON serializable"):
        main(["tv", "--n", "6", "--k", "3", "--steps", "20", "--format", "json", "--output", str(out)])
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--c", "inf"], "argument --c: expects a finite number, got 'inf'"),
        (["--c", "nan"], "argument --c: expects a finite number, got 'nan'"),
        (["--eps", "inf"], "argument --eps: expects a finite number, got 'inf'"),
        (["--c", "x"], "argument --c: invalid float value: 'x'"),
        # a spaced -inf or -nan is the flag's value, not another flag
        (["--c", "-inf"], "argument --c: expects a finite number, got '-inf'"),
        (["--c", "-nan"], "argument --c: expects a finite number, got '-nan'"),
        (["--eps", "-inf"], "argument --eps: expects a finite number, got '-inf'"),
    ],
    ids=["c-inf", "c-nan", "eps-inf", "c-not-a-number", "c-minus-inf-spaced", "c-minus-nan-spaced",
         "eps-minus-inf-spaced"],
)
def test_bounds_non_finite_flags_are_usage_errors(argv, message, tmp_path, capsys):
    out = tmp_path / "b.json"
    assert main(["bounds", "--n", "6", "--k", "3", *argv, "--output", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: cubemix bounds")
    assert err[-1] == f"cubemix bounds: error: {message}"


def test_bounds_step_count_beyond_float_range_is_one_line(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert main(["bounds", "--n", "6", "--m", "3", "--k", "2", "--c", "1e308", "--output", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        "cubemix: error: coupling_upper_bound_steps: the step count is beyond float range (raw=inf)"
    ]


@pytest.mark.parametrize("parts", ["a", "1,,2", "0,3", "10"])
def test_verify_parts_errors_name_the_flag(parts, tmp_path, capsys):
    out = tmp_path / "g.json"
    argv = ["verify", "--lemma", "general", "--n-max", "5", "--parts", parts, "--output", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        f"cubemix: error: --parts expects comma-separated integers in 1..9, got {parts!r}"
    ]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "--lemma", "probineq", "--n", "8"], "--n expects an integer = 2 mod 4, got 8"),
        (["verify", "--lemma", "eig34", "--n", "8"], "--n expects an integer = 2 mod 4, got 8"),
        (["verify", "--lemma", "symmetry", "--n", "7"], "--n expects an even integer >= 2, got 7"),
        (["verify", "--lemma", "marginal", "--n", "9", "--k", "3"], "--n expects an integer in 1..8, got 9"),
        (["verify", "--lemma", "marginal", "--n", "4", "--k", "5"], "--k expects an integer in 1..4, got 5"),
        (["couple", "--n", "8", "--k", "2"], "--k expects an odd integer, got 2"),
        (["couple", "--n", "8", "--k", "3", "--trials", "0"], "--trials expects an integer >= 1, got 0"),
        (["couple", "--n", "8", "--k", "3", "--steps", "-1"], "--steps expects an integer >= 0, got -1"),
        # beyond an index-sized integer, refused before the simulator allocates anything
        (["couple", "--n", "8", "--k", "3", "--steps", "100000000000000000000"],
         f"--steps expects an integer <= {sys.maxsize - 2}, got 100000000000000000000"),
        (["tv", "--n", "5", "--m", "3", "--k", "2", "--p", "1/3", "--steps", "1"],
         "--p is the cube walk's hold probability; the cyclic walk has none"),
        (["spectrum", "--n", "5", "--m", "3", "--k", "2", "--p", "1/3"],
         "--p is the cube walk's hold probability; the cyclic walk has none"),
        (["spectrum", "--n", "5", "--m", "3", "--k", "2", "--p", "1/2"],
         "--p is the cube walk's hold probability; the cyclic walk has none"),
        (["tv", "--n", "3", "--k", "5", "--steps", "1"], "--k expects an integer in 1..3, got 5"),
        (["tv", "--n", "3", "--m", "3", "--k", "0", "--steps", "1"], "--k expects an integer in 1..3, got 0"),
        (["couple", "--n", "3", "--k", "5"], "--k expects an integer in 1..3, got 5"),
        (["spectrum", "--n", "5", "--m", "1", "--k", "2"], "--m expects an integer >= 2, got 1"),
        (["tv", "--n", "0", "--k", "1", "--steps", "1"], "--n expects an integer >= 1, got 0"),
        (["spectrum", "--n", "5", "--k", "2", "--p", "1"], "--p expects a fraction in [0, 1), got 1"),
        (["tv", "--n", "5", "--k", "2", "--p", "3/2", "--steps", "1"], "--p expects a fraction in [0, 1), got 3/2"),
        (["bounds", "--n", "0", "--k", "1"], "--n expects an integer >= 1, got 0"),
        (["bounds", "--n", "-3"], "--n expects an integer >= 1, got -3"),
        (["bounds", "--n", "6", "--m", "1", "--k", "2"], "--m expects an integer >= 2, got 1"),
        (["bounds", "--n", "6", "--k", "0"], "--k expects an integer in 1..6, got 0"),
        (["bounds", "--n", "6", "--k", "7"], "--k expects an integer in 1..6, got 7"),
        # a negative fraction is a value whether it follows a space or "="
        (["spectrum", "--n", "5", "--k", "2", "--p", "-1/2"], "--p expects a fraction in [0, 1), got -1/2"),
        (["spectrum", "--n", "5", "--k", "2", "--p=-1/2"], "--p expects a fraction in [0, 1), got -1/2"),
        (["tv", "--n", "5", "--k", "2", "--p", "-1/2", "--steps", "1"], "--p expects a fraction in [0, 1), got -1/2"),
        (["tv", "--n", "5", "--k", "2", "--p=-1/2", "--steps", "1"], "--p expects a fraction in [0, 1), got -1/2"),
        # --c and --eps are checked by the bound families that run
        (["bounds", "--n", "6", "--k", "3", "--c", "-1"], "--c expects a number > 0 for the coupling bound, got -1.0"),
        (["bounds", "--n", "6", "--eps", "2"], "--eps expects a number in (0, 1), got 2.0"),
        (["bounds", "--n", "7", "--m", "3", "--c", "-1"],
         "--c expects a number >= 0 for the cyclic and comparison bounds, got -1.0"),
    ],
    ids=["probineq-n", "eig34-n", "symmetry-n", "marginal-n", "marginal-k", "couple-k", "couple-trials",
         "couple-steps", "couple-steps-beyond-index", "tv-cyclic-p", "spectrum-cyclic-p",
         "spectrum-cyclic-default-p", "tv-k", "tv-cyclic-k",
         "couple-k-range", "spectrum-m", "tv-n", "spectrum-p", "tv-p", "bounds-n-zero", "bounds-n-negative",
         "bounds-m", "bounds-k-zero", "bounds-k-above-n", "spectrum-p-negative-spaced",
         "spectrum-p-negative-equals", "tv-p-negative-spaced", "tv-p-negative-equals", "bounds-c-coupling",
         "bounds-eps", "bounds-c-cyclic"],
)
def test_domain_errors_name_the_flag(argv, message, tmp_path, capsys):
    # one line naming the flag, not the library function behind it
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [f"cubemix: error: {message}"]


def test_couple_steps_at_the_top_of_the_range_is_one_line(tmp_path, capsys):
    # inside the --steps guard, but the per-step tally of sys.maxsize
    # entries is refused at once, with nothing allocated
    out = tmp_path / "out"
    argv = ["couple", "--n", "8", "--k", "3", "--trials", "1", "--steps", str(sys.maxsize - 2)]
    assert main(argv + ["--output", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == ["cubemix: error: out of memory"]


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n", "1", "--k", "1"],
        ["bounds", "--n", "6"],
        ["couple", "--n", "8", "--k", "3", "--seed", "-4"],
        # only the skipped half-flip and coupling families would reject these
        ["bounds", "--n", "8", "--eps", "2"],
        ["bounds", "--n", "7", "--k", "5", "--c", "-1"],
        # c * c underflows to 0.0: the coupling bound reads inf
        ["bounds", "--n", "4", "--k", "1", "--c", "1e-170"],
    ],
    ids=["bounds-n1-k1", "bounds-n-only", "couple-negative-seed", "bounds-eps-skipped", "bounds-c-skipped",
         "bounds-c-square-underflows"],
)
def test_edge_inputs_inside_the_domain_still_run(argv, tmp_path):
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("n_max", ["1", "0", "-3"])
def test_verify_general_n_max_error_names_the_flag(n_max, tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["verify", "--lemma", "general", "--n-max", n_max, "--output", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        f"cubemix: error: --n-max expects an integer >= 2, got {n_max}"
    ]


# exact and Monte Carlo work runs on ints and Fractions; only float-backend
# work may pay numpy's import
_NUMPY_FREE = {
    "tv-cube": ["tv", "--n", "12", "--k", "3", "--steps", "5"],
    "tv-cyclic": ["tv", "--n", "8", "--m", "3", "--k", "2", "--steps", "5"],
    "spectrum": ["spectrum", "--n", "8", "--k", "3"],
    "bounds": ["bounds", "--n", "54", "--k", "27", "--eps", "0.01"],
    "verify-general": ["verify", "--lemma", "general", "--n-max", "12"],
    "couple": ["couple", "--n", "8", "--k", "3", "--trials", "50", "--steps", "10"],
    "verify-eig34": ["verify", "--lemma", "eig34", "--n", "6"],
    "verify-symmetry": ["verify", "--lemma", "symmetry", "--n", "6"],
    "verify-probineq": ["verify", "--lemma", "probineq", "--n", "6"],
}

# the cubemix modules each command must not load: it runs none of their code
_NOT_LOADED = {
    "tv-cube": {"coupling", "bounds", "krawtchouk"},
    "tv-cyclic": {"coupling", "bounds", "krawtchouk"},
    "spectrum": {"exactdist", "coupling", "bounds", "krawtchouk"},
    "bounds": {"coupling", "exactdist", "krawtchouk"},
    "verify-general": {"bounds", "exactdist", "spectrum", "krawtchouk"},
    "couple": {"bounds", "exactdist", "krawtchouk"},
    "verify-eig34": {"coupling", "bounds"},
    "verify-symmetry": {"spectrum", "exactdist", "coupling", "bounds", "numerics"},
    "verify-probineq": {"exactdist", "spectrum", "krawtchouk", "bounds"},
}


_TASKS = "/proc/self/task"

# costly at start-up: numpy, and dataclasses with the inspect it imports
_HEAVY = ("numpy", "dataclasses", "inspect")


def _fresh_run(argv, output, blas_threads=None):
    """(which of _HEAVY are loaded, the cubemix submodules loaded, thread
    count) after one CLI run in a fresh interpreter; the count is -1 without
    /proc/self/task.

    blas_threads sets OPENBLAS_NUM_THREADS for the run; None leaves it unset."""
    script = (
        "import os, sys\n"
        "from cubemix.cli import main\n"
        f"code = main({argv + ['--output', str(output)]!r})\n"
        f"threads = len(os.listdir({_TASKS!r})) if os.path.isdir({_TASKS!r}) else -1\n"
        f"heavy = ','.join(m for m in {_HEAVY!r} if m in sys.modules) or '-'\n"
        "print(code, heavy, threads, *(m for m in sys.modules if m.startswith('cubemix.')))\n"
    )
    src = str(Path(cubemix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    code, loaded, threads, *modules = proc.stdout.splitlines()[-1].split()
    assert code in ("0", "2"), proc.stdout
    heavy = set(loaded.split(",")) - {"-"}
    return heavy, {m.removeprefix("cubemix.") for m in modules}, int(threads)


@pytest.mark.parametrize("argv", _NUMPY_FREE.values(), ids=_NUMPY_FREE)
def test_exact_and_monte_carlo_commands_do_not_load_numpy(argv, tmp_path):
    # nor dataclasses and inspect: the result records are NamedTuples
    assert not _fresh_run(argv, tmp_path / "out")[0]


@pytest.mark.parametrize("name", _NOT_LOADED)
def test_each_command_loads_only_the_modules_it_runs(name, tmp_path):
    _, modules, _ = _fresh_run(_NUMPY_FREE[name], tmp_path / "out")
    assert "cli" in modules
    assert not modules & _NOT_LOADED[name]


def test_float_backend_loads_numpy(tmp_path):
    # the check above is not vacuous: the same probe sees a float run load it
    loaded, _, _ = _fresh_run(["tv", "--n", "12", "--k", "3", "--steps", "5", "--backend", "float"], tmp_path / "out")
    assert "numpy" in loaded


_FLOAT_TV = ["tv", "--n", "500", "--k", "5", "--steps", "20", "--backend", "float"]


@pytest.mark.skipif(not os.path.isdir(_TASKS), reason="needs /proc/self/task to count threads")
def test_float_run_keeps_one_thread(tmp_path):
    # no subcommand calls BLAS, so the CLI starts numpy's OpenBLAS with one
    # thread instead of an idle pool
    loaded, _, threads = _fresh_run(_FLOAT_TV, tmp_path / "out")
    assert "numpy" in loaded and threads == 1


@pytest.mark.skipif(not os.path.isdir(_TASKS), reason="needs /proc/self/task to count threads")
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs one thread on one CPU")
def test_float_run_respects_a_user_blas_thread_count(tmp_path):
    loaded, _, threads = _fresh_run(_FLOAT_TV, tmp_path / "out", blas_threads="2")
    assert "numpy" in loaded and threads == 2


@pytest.mark.parametrize("preset", [None, "3"])
def test_main_leaves_the_environment_as_it_found_it(preset, tmp_path, monkeypatch):
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    seen = []
    # the default holds while the command runs, a user's value throughout
    monkeypatch.setattr(cli, "_cmd_spectrum", lambda args: seen.append(os.environ.get("OPENBLAS_NUM_THREADS")) or 0)
    before = dict(os.environ)
    assert main(_FLOAT_TV + ["--output", str(tmp_path / "tv.csv")]) == 0
    assert main(["spectrum", "--n", "8", "--k", "3"]) == 0
    assert main(["tv", "--n", "-1", "--k", "1", "--steps", "1"]) == 1
    assert dict(os.environ) == before
    assert seen == [preset or "1"]


def test_importing_the_cli_loads_no_submodule_and_leaves_the_environment():
    script = (
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import cubemix.cli\n"
        "print(dict(os.environ) == before, *(m for m in sys.modules if m.startswith('cubemix.')))\n"
    )
    src = str(Path(cubemix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["True", "cubemix.cli"]


def test_output_dir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("CUBEMIX_OUTPUT_DIR", str(tmp_path))
    assert main(["tv", "--n", "2", "--k", "1", "--steps", "1"]) == 0
    assert (tmp_path / "tv.csv").exists()
    assert main(["verify", "--lemma", "eig34", "--n", "6"]) == 0
    assert (tmp_path / "verify_eig34.json").exists()


def test_reruns_are_byte_identical(tmp_path):
    pairs = []
    for name, argv in [
        ("tv", ["tv", "--n", "6", "--k", "3", "--steps", "8"]),
        ("bounds", ["bounds", "--n", "54", "--k", "27", "--eps", "0.01", "--format", "json"]),
        ("couple", ["couple", "--n", "5", "--k", "3", "--trials", "40", "--steps", "6", "--seed", "5"]),
        ("verify", ["verify", "--lemma", "probineq", "--n", "10"]),
    ]:
        a = tmp_path / f"{name}_a"
        b = tmp_path / f"{name}_b"
        assert main(argv + ["--output", str(a)]) in (0, 2)
        assert main(argv + ["--output", str(b)]) in (0, 2)
        pairs.append((a.read_bytes(), b.read_bytes()))
    for left, right in pairs:
        assert left == right


def test_float_formatting_is_17_significant_digits(tmp_path):
    out = tmp_path / "tv.csv"
    assert main(["tv", "--n", "6", "--k", "3", "--steps", "3", "--output", str(out)]) == 0
    row = _lines(out)[4].split(",")
    # Reparsing the printed float reproduces the double exactly.
    from cubemix import WalkSpec as WS, spectral_dist, tv_to_uniform

    tv = float(tv_to_uniform(spectral_dist(WS(6, 3), 3)))
    assert float(row[1]) == tv

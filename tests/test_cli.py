import argparse
import ast
import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import phantom_count, step_scatter_decimal, write_csv_per_cell
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pointbarrier import cli
from pointbarrier.cli import _build_parser, _float_field, _write_csv, main, run
from pointbarrier.profiles import builtin
from pointbarrier.resonance import eigenfunction


def _read(path):
    return path.read_text()


def _read_rows(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_classify_step(tmp_path):
    out = tmp_path / "c"
    assert run(["classify", "--profile", "step", "--out", str(out)]) == 0
    doc = json.loads(_read(out / "classify.json"))
    assert doc["class"] == "delta_prime_like"
    assert doc["c"] == 1.0
    assert doc["m0"] == 0.0
    assert doc["m1"] == -1.0
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["command"] == "classify"
    assert manifest["outputs"] == ["classify.json"]
    assert manifest["tool"]["name"] == "pointbarrier"


def test_resonance_scan_csv(tmp_path, kappa_roots):
    out = tmp_path / "r"
    assert run(["resonances", "--profile", "step", "--window", "0", "60",
                "--out", str(out)]) == 0
    lines = _read(out / "resonances.csv").strip().splitlines()
    assert lines[0] == "alpha,theta,residual"
    alphas = [float(line.split(",")[0]) for line in lines[1:]]
    k1, k2 = kappa_roots
    assert np.allclose(alphas, [0.0, k1 * k1, k2 * k2], atol=1e-6)


def test_resonance_eigenfunction_export(tmp_path):
    out = tmp_path / "rf"
    assert run(["resonances", "--profile", "step", "--window", "14", "17",
                "--eigenfunctions", "--out", str(out)]) == 0
    lines = _read(out / "resonance_eigenfunction_000.csv").strip().splitlines()
    assert lines[0] == "xi,w"
    first = [float(c) for c in lines[1].split(",")]
    assert first[0] == -1.0 and first[1] == 1.0  # w(-1) = 1 normalization


@pytest.mark.parametrize("profile, window", [("step", ["14", "17"]),
                                             ("asymmetric_bump", ["-200", "0"])])
def test_resonance_eigenfunctions_match_the_per_root_reference(tmp_path, profile, window):
    # each confirmed root's file is its own one-member shot, written cell by cell
    out = tmp_path / "rf"
    assert main(["resonances", "--profile", profile, "--window", *window, "--eigenfunctions",
                 "--out", str(out)]) == 0
    p = builtin(profile)
    alphas = [float(row["alpha"]) for row in _read_rows(out / "resonances.csv")]
    names = sorted(path.name for path in out.glob("resonance_eigenfunction_*.csv"))
    assert alphas and names == [f"resonance_eigenfunction_{i:03d}.csv" for i in range(len(alphas))]
    for name, alpha in zip(names, alphas):
        xi, w = eigenfunction(p, alpha)
        write_csv_per_cell(tmp_path / "ref.csv", ["xi", "w"], zip(xi, w))
        assert _read(out / name) == _read(tmp_path / "ref.csv"), name


def test_resonances_finds_the_near_degenerate_even_pair(tmp_path):
    out = tmp_path / "pair"
    assert main(["resonances", "--profile", "even_quadratic", "--window", "100", "110",
                 "--out", str(out)]) == 0
    lines = _read(out / "resonances.csv").strip().splitlines()
    alphas = [float(line.split(",")[0]) for line in lines[1:]]
    assert np.allclose(alphas, [106.86346, 106.86817], rtol=0.0, atol=1e-5)


def test_fine_scan_grids_are_never_built(tmp_path, capsys):
    # 2e12 cells: the scan computes its grid points from their indices and
    # shoots a few dozen of them per root, so it ends without a traceback
    # (the shots at |alpha| = 1e6 overflow)
    code = main(["resonances", "--profile", "step", "--window", "-1e6", "1e6",
                 "--scan-step", "1e-6", "--out", str(tmp_path / "huge")])
    assert code in (0, 2, 3)
    assert len(capsys.readouterr().err.strip().splitlines()) <= 1
    # 3e6 cells on [0, 30] find the roots of the default 0.1 grid
    alphas = {}
    for scan_step in ("1e-5", "0.1"):
        out = tmp_path / scan_step
        assert main(["resonances", "--profile", "asymmetric_bump", "--window", "0", "30",
                     "--scan-step", scan_step, "--out", str(out)]) == 0
        alphas[scan_step] = [float(row["alpha"]) for row in _read_rows(out / "resonances.csv")]
    assert len(alphas["0.1"]) == 2
    assert alphas["1e-5"] == pytest.approx(alphas["0.1"], rel=0.0, abs=1e-12)


def test_resonances_shortfall_exits_3(tmp_path, capsys, monkeypatch):
    # an index that counts a root no sign change shows (a phantom count
    # rise at 30.05) is a numerical failure, with one line naming the window
    phantom_count(monkeypatch, 30.05)
    out = tmp_path / "short"
    assert main(["resonances", "--profile", "step", "--window", "0", "60", "--scan-step", "1",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure:")
    assert "[0, 60]" in err[0] and "halving floor" in err[0]


def test_residual_gate_misses_go_to_candidates(tmp_path, kappa_roots):
    # no shot meets residual_tol = 1e-30: the two counted roots on [0, 60]
    # are written as candidates, not dropped
    out = tmp_path / "cand"
    assert main(["resonances", "--profile", "step", "--window", "0", "60", "--scan-step", "1",
                 "--residual-tol", "1e-30", "--out", str(out)]) == 0
    confirmed = _read(out / "resonances.csv").strip().splitlines()
    assert [float(line.split(",")[0]) for line in confirmed[1:]] == [0.0]
    lines = _read(out / "resonance_candidates.csv").strip().splitlines()
    assert lines[0] == "alpha,theta,residual"
    alphas = [float(line.split(",")[0]) for line in lines[1:]]
    assert np.allclose(alphas, [k * k for k in kappa_roots], rtol=0.0, atol=1e-7)
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["outputs"] == ["resonances.csv", "resonance_candidates.csv"]


def test_byte_identical_reruns(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["resonances", "--profile", "step", "--window", "-20", "20", "--scan-step", "0.2"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert _read(out1 / "resonances.csv") == _read(out2 / "resonances.csv")


def test_manifest_rerun_round_trip(tmp_path):
    out1 = tmp_path / "a"
    out3 = tmp_path / "c"
    argv = ["scatter", "--profile", "step", "--alpha", "4.0",
            "--eps-ladder", "0.1,0.01", "--ks", "0.5,1.0", "--out", str(out1)]
    assert run(argv) == 0
    assert json.loads(_read(out1 / "manifest.json"))["argv"] == argv
    assert run(["rerun", str(out1 / "manifest.json"), "--out", str(out3)]) == 0
    assert _read(out1 / "scatter.csv") == _read(out3 / "scatter.csv")
    assert json.loads(_read(out3 / "manifest.json"))["argv"] == argv + ["--out", str(out3)]
    # without --out the replay writes where the recorded run wrote
    assert run(["rerun", str(out3 / "manifest.json")]) == 0
    assert json.loads(_read(out3 / "manifest.json"))["argv"] == argv + ["--out", str(out3)]


def test_the_shared_parser_leaks_no_option_between_calls(tmp_path, capsys):
    # the parser is built once per process: an option given to one call, or
    # a call that exits 2 part-way through its parse, must not reach the next
    scatter = ["scatter", "--profile", "step", "--alphas", "4", "--eps", "0.1", "--ks", "1"]
    calls = [scatter + ["--rel-tol", "1e-13"], scatter,
             ["spectrum", "--mode", "limit", "--potential", "harmonic", "--radius", "6",
              "--levels", "2"]]
    assert _build_parser() is _build_parser()
    for i, argv in enumerate(calls):
        if i == 2:
            assert main(scatter + ["--rel-tol", "1e-14", "--ks", "nan"]) == 2
            assert "--ks" in capsys.readouterr().err
        out = tmp_path / str(i)
        assert main(argv + ["--out", str(out)]) == 0
        fresh = cli._namespace_params(_build_parser.__wrapped__().parse_args(argv))
        assert json.loads(_read(out / "manifest.json"))["params"] == json.loads(json.dumps(fresh))
    assert json.loads(_read(tmp_path / "1" / "manifest.json"))["params"]["rel_tol"] == 1e-10


def test_scatter_single_and_sweep(tmp_path, alpha1, theta1):
    out = tmp_path / "s"
    assert run(["scatter", "--profile", "step", "--alpha", "15.418", "--eps", "1e-3",
                "--k", "1", "--out", str(out)]) == 0
    lines = _read(out / "scatter.csv").strip().splitlines()
    assert lines[0] == "alpha,eps,k,re_r,im_r,re_t,im_t,t2"
    t2 = float(lines[1].split(",")[-1])
    limit = 4 * theta1**2 / (1 + theta1**2) ** 2
    assert abs(t2 - limit) <= 1e-2


def test_spectrum_limit_csv(tmp_path):
    out = tmp_path / "sp"
    assert run(["spectrum", "--profile", "step", "--mode", "limit",
                "--potential", "harmonic", "--radius", "7", "--bc", "theta:1.0",
                "--levels", "3", "--eigenfunctions", "--out", str(out)]) == 0
    lines = _read(out / "spectrum.csv").strip().splitlines()
    lams = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.allclose(lams, [1.0, 3.0, 5.0], atol=1e-6)
    efun = _read(out / "eigenfunction_000.csv").strip().splitlines()
    assert efun[0] == "x,v"
    assert len(efun) > 1000
    manifest = json.loads(_read(out / "manifest.json"))
    assert "eigenfunction_002.csv" in manifest["outputs"]


def test_eigenfunctions_of_shots_scaled_apart_by_1e300_have_unit_norm(tmp_path):
    # theta = 1e300 scales the right shot 1e300 times the left one, so the
    # squares of the joined samples overflow; the norm must still be taken,
    # without a warning, and no eigenfunction may come out as zeros
    out = tmp_path / "sp"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["spectrum", "--mode", "limit", "--potential", "harmonic", "--radius", "7",
                     "--bc", "theta:1e300", "--levels", "4", "--eigenfunctions",
                     "--out", str(out)])
    assert code == 0
    assert not caught, [str(w.message) for w in caught]
    for i in range(4):
        x, v = np.loadtxt(out / f"eigenfunction_{i:03d}.csv", delimiter=",", skiprows=1).T
        assert np.any(v != 0.0)
        assert np.trapezoid(v * v, x) == pytest.approx(1.0, abs=1e-12)


def test_spectrum_limit_levels_beyond_the_half_problems(tmp_path):
    # each Dirichlet half of the box has only 6 levels below the wall
    # ceiling of 24, but the coupled problem has 8: 1, 3, ..., 15
    out = tmp_path / "sp8"
    assert main(["spectrum", "--mode", "limit", "--potential", "harmonic", "--radius", "7",
                 "--bc", "theta:1.0", "--levels", "8", "--out", str(out)]) == 0
    lines = _read(out / "spectrum.csv").strip().splitlines()
    lams = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.allclose(lams, [2 * k + 1 for k in range(8)], rtol=0.0, atol=1e-8)


def test_spectrum_perturbed(tmp_path):
    out = tmp_path / "pp"
    assert run(["spectrum", "--profile", "step", "--mode", "perturbed",
                "--potential", "tilted_harmonic", "--radius", "8",
                "--alpha", "0", "--eps", "0.1", "--levels", "2", "--out", str(out)]) == 0
    lines = _read(out / "spectrum.csv").strip().splitlines()
    assert len(lines) == 3


def test_interval_study(tmp_path, alpha1):
    out = tmp_path / "iv"
    assert run(["interval", "--profile", "step", "--a", "-1", "--b", "2",
                "--alpha", f"{alpha1!r}", "--eps", "1e-3", "--count", "4",
                "--out", str(out)]) == 0
    doc = json.loads(_read(out / "interval.json"))
    assert doc["resonant"] is True
    lines = _read(out / "interval.csv").strip().splitlines()
    rel_diffs = [float(line.split(",")[-1]) for line in lines[1:]]
    assert max(rel_diffs) <= 1e-3


def test_interval_at_zero_coupling_counts_a_zero_on_a_join_once(tmp_path):
    # level 8 of (-0.5, 0.5) has a zero of u on the join x = -0.1 (u =
    # +1.6e-17); counted by both segments, it would hide four levels.  The
    # alpha = 0 limit is exact
    out = tmp_path / "iv0"
    assert run(["interval", "--profile", "step", "--a", "-0.5", "--b", "0.5", "--alpha", "0",
                "--eps", "0.1", "--count", "8", "--out", str(out)]) == 0
    rows = _read_rows(out / "interval.csv")
    assert [int(r["index"]) for r in rows] == list(range(1, 9))
    assert float(rows[-1]["lambda"]) == pytest.approx((8.0 * math.pi) ** 2, rel=1e-12)
    assert max(float(r["rel_diff"]) for r in rows) < 1e-9


def test_theta_refinement(tmp_path, alpha1, theta1):
    out = tmp_path / "th"
    assert run(["theta", "--profile", "step", "--alpha", "15.4", "--out", str(out)]) == 0
    doc = json.loads(_read(out / "theta.json"))
    assert doc["alpha"] == pytest.approx(alpha1, abs=1e-7)
    assert doc["refined_from"] == 15.4
    assert doc["theta"] == pytest.approx(theta1, rel=1e-8)


def test_theta_shoots_its_refined_root_once(tmp_path, monkeypatch):
    # the scan's resonance point carries theta and the residual of the root
    from pointbarrier import resonance

    weights = []
    propagate = resonance.propagate_family

    def spy(segments, m, *args, **kwargs):
        weights.append(np.atleast_1d(m).tolist())
        return propagate(segments, m, *args, **kwargs)

    monkeypatch.setattr(resonance, "propagate_family", spy)
    out = tmp_path / "th"
    assert run(["theta", "--profile", "step", "--alpha", "15.4", "--out", str(out)]) == 0
    alpha = json.loads(_read(out / "theta.json"))["alpha"]
    assert weights.count([alpha]) == 1


def test_rerun_preserves_negated_flags(tmp_path, alpha1):
    out1 = tmp_path / "nr"
    out2 = tmp_path / "nr2"
    assert run(["theta", "--profile", "step", "--alpha", f"{alpha1!r}",
                "--no-refine", "--out", str(out1)]) == 0
    assert run(["rerun", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
    assert _read(out1 / "theta.json") == _read(out2 / "theta.json")
    assert json.loads(_read(out2 / "theta.json"))["refined_from"] is None


def test_dive_cli(tmp_path):
    out = tmp_path / "dv"
    assert run(["dive", "--profile", "step", "--alpha", "1.0",
                "--eps-ladder", "0.1,0.05,0.02", "--out", str(out)]) == 0
    doc = json.loads(_read(out / "dive.json"))
    assert doc["mu_oracle"] < 0
    assert doc["final_relative_error"] < 0.02


def test_hypothesis_cli(tmp_path):
    out = tmp_path / "hy"
    assert run(["hypothesis", "--profiles", "step", "--window", "-40", "40",
                "--scan-step", "0.2", "--out", str(out)]) == 0
    doc = json.loads(_read(out / "hypothesis.json"))
    assert doc["trends"]["step"]["all_satisfied"] is True
    assert doc["even_check"]["max_abs_theta_deviation_from_1"] <= 1e-8
    lines = _read(out / "hypothesis.csv").strip().splitlines()
    assert lines[0] == "profile,alpha,theta,abs_theta,side,satisfies"
    assert any(line.startswith("even_quadratic") for line in lines[1:])


def test_converge_cli(tmp_path):
    out = tmp_path / "cv"
    assert run(["converge", "--profile", "step", "--potential", "tilted_harmonic",
                "--radius", "8", "--alpha", "0", "--eps-ladder", "0.2,0.1,0.05,0.025",
                "--levels", "1", "--samples-per-unit", "201", "--out", str(out)]) == 0
    doc = json.loads(_read(out / "converge.json"))
    assert doc["verdicts"]["all_exact"] is True
    lines = _read(out / "converge.csv").strip().splitlines()
    assert len(lines) == 5  # header + 4 ladder entries for one level


def test_exit_codes(tmp_path, capsys):
    # config error
    assert main(["spectrum", "--profile", "step", "--mode", "limit",
                 "--potential", "mystery", "--radius", "7",
                 "--out", str(tmp_path / "x1")]) == 2
    # precondition violation: diving study at zero coupling
    assert main(["dive", "--profile", "step", "--alpha", "0",
                 "--eps-ladder", "0.1,0.05", "--out", str(tmp_path / "x2")]) == 4
    # numerical failure: box too small for the requested levels
    assert main(["spectrum", "--profile", "step", "--mode", "limit",
                 "--potential", "harmonic", "--radius", "2", "--bc", "theta:1.0",
                 "--levels", "3", "--out", str(tmp_path / "x3")]) == 3
    # unreadable profiles: non-finite entries, a directory, a malformed document
    specs = {
        "inf.json": '{"segments": [{"interval": [-1, 1], "coeffs": [1e999]}]}',
        "nan.json": '{"segments": [{"interval": [-1, 1], "coeffs": [NaN]}]}',
        "nan_end.json": '{"segments": [{"interval": [-1, NaN], "coeffs": [1]}]}',
        "broken.json": '{"segments": 3',
        "string.json": '{"segments": [{"interval": [-1, 1], "coeffs": "12"}]}',
    }
    for name, text in specs.items():
        (tmp_path / name).write_text(text)
    profile = lambda name: str(tmp_path / name)
    rejects = [
        ["classify", "--profile", profile("inf.json")],
        ["resonances", "--profile", profile("nan.json"), "--window", "0", "5"],
        ["scatter", "--profile", profile("nan.json"), "--alpha", "1", "--eps", "0.1", "--k", "1"],
        ["classify", "--profile", profile("nan_end.json")],
        ["classify", "--profile", profile("broken.json")],
        ["classify", "--profile", str(tmp_path)],
        ["classify", "--profile", profile("string.json")],  # once read as 1 + 2 xi
        ["hypothesis", "--profiles", "step,", "--window", "-1", "1"],
        # overflowing inputs
        ["theta", "--profile", "step", "--alpha", "1", "--search-width", "1e308"],
        ["resonances", "--profile", "step", "--window", "-1e308", "1e308",
         "--scan-step", "1e300"],
        ["resonances", "--profile", "step", "--window", "0", "1", "--scan-step", "1e-16"],
        ["scatter", "--profile", "step", "--alpha", "1", "--eps", "0.1", "--k", "1e200"],
    ]
    capsys.readouterr()
    for i, argv in enumerate(rejects):
        assert main(argv + ["--out", str(tmp_path / f"r{i}")]) == 2, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error:"), (argv, err)
        if i < 4:
            assert "non-finite" in err[0], err
    # a barrier whose Magnus mesh overflows is a numerical failure (tier 1
    # turns a leaked numpy warning into an error)
    argv = ["scatter", "--profile", "asymmetric_bump", "--alpha=1e300", "--eps", "0.1", "--k", "1"]
    assert main(argv + ["--out", str(tmp_path / "b")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure:"), err


@pytest.mark.parametrize("profile, alpha, eps, k", [
    ("step", "900", "0.1", "1"),
    ("step", "1600", "0.1", "1"),
    ("step", "10000", "0.1", "1"),
    ("step", "1e6", "0.1", "1"),
    ("step", "-1e6", "0.1", "1"),
    ("asymmetric_bump", "-3000", "0.1", "1"),
    ("asymmetric_bump", "1", "1e-300", "1e-300"),
])
def test_strong_barriers_scatter_without_a_warning(profile, alpha, eps, k, tmp_path):
    # barrier matrices far beyond a double's range, and (eps k)^2 below it,
    # still give finite amplitudes: each column carries its own log scale
    out = tmp_path / "s"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["scatter", "--profile", profile, f"--alpha={alpha}", "--eps", eps,
                     "--k", k, "--out", str(out)])
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    (row,) = _read_rows(out / "scatter.csv")
    R = complex(float(row["re_r"]), float(row["im_r"]))
    T = complex(float(row["re_t"]), float(row["im_t"]))
    assert abs(abs(R) ** 2 + abs(T) ** 2 - 1.0) <= 1e-10
    if profile == "step":
        R_ref, T_ref = step_scatter_decimal(float(alpha), float(eps), float(k))
        # at |alpha| = 1e6, |T| is about 1e-434: the correctly rounded T is 0
        assert (T_ref == 0) == (abs(float(alpha)) == 1e6)
        assert abs(T - T_ref) <= 1e-12 * abs(T_ref)
        assert abs(R - R_ref) <= 1e-12


@pytest.mark.parametrize("argv", [
    # cosh(1000) overflows the refine's unscaled shots at |alpha| = 1e6
    ["resonances", "--profile", "step", "--window", "-1e6", "1e6", "--scan-step", "1e5"],
    # alpha = 1e300 turns the oscillatory half through about 3e149 half-periods
    ["theta", "--profile", "step", "--alpha", "15.4182", "--refine", "--search-width", "1e300"],
    # couplings whose counted shots no mesh of their weight bucket resolves
    ["resonances", "--profile", "asymmetric_bump", "--window", "1e307", "1.5e307",
     "--scan-step", "1e306"],
    # the counted shots at alpha = 1e6 are rescaled and bracket a root, but
    # the Runge-Kutta steps of its refine underflow
    ["resonances", "--profile", "asymmetric_bump", "--window", "1e6", "1.01e6"],
])
def test_shots_beyond_a_double_exit_3_without_a_warning(argv, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure:"), err
    assert not re.search(r"-0(?![.\d])", err[0]), err  # a negative side ends at 0, not -0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_a_mesh_past_the_interval_cap_names_its_segment_and_the_cap(tmp_path, capsys):
    # the counted shots at alpha = 1e11 need more bucket-mesh intervals
    # than the engine holds: a numerical failure that says so, not a step
    # size underflow at the segment's start
    from pointbarrier import ivp

    code = main(["resonances", "--profile", "asymmetric_bump", "--window", "1e11", "1.000001e11",
                 "--scan-step", "1e4", "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    assert re.fullmatch(r"numerical failure: the mesh of \[-1\.0, 0\.0\] needs more than "
                        rf"{ivp._MAX_INTERVALS} intervals near x = -0\.\d+", err[0]), err


def test_a_rootless_window_at_a_million_reads_its_index_without_overflow(tmp_path):
    # e^1000 and more: the counted shots at alpha = 1e6 are rescaled, so
    # the index reads 250 at both ends, and a window without a rise holds
    # no root
    from pointbarrier import resonance

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["resonances", "--profile", "asymmetric_bump", "--window", "1e6", "1.001e6",
                     "--scan-step", "1e2", "--out", str(tmp_path / "o")]) == 0
    assert _read_rows(tmp_path / "o" / "resonances.csv") == []
    _, counts = resonance._neumann_index(builtin("asymmetric_bump"), None)(
        np.array([1e6, 1.001e6]), True)
    assert counts.tolist() == [250, 250]


ZERO_THETA_ALPHA = -518.7710813322594  # a step root whose shot ends in (0, 0)


def test_a_shot_that_lost_w1_is_a_candidate_not_a_resonance(tmp_path):
    out = tmp_path / "z"
    assert main(["resonances", "--profile", "step", "--window", "-600", "-500",
                 "--scan-step", "1", "--out", str(out)]) == 0
    assert all(float(r["theta"]) != 0.0 for r in _read_rows(out / "resonances.csv"))
    candidates = [float(r["alpha"]) for r in _read_rows(out / "resonance_candidates.csv")]
    assert candidates == [pytest.approx(ZERO_THETA_ALPHA, abs=1e-9)]


def test_theta_at_a_shot_that_lost_w1_says_so(tmp_path, capsys):
    argv = ["theta", "--profile", "step", "--alpha", repr(ZERO_THETA_ALPHA), "--no-refine",
            "--out", str(tmp_path / "t")]
    assert main(argv) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "the shot lost w(1)" in err[0], err


def test_converge_at_a_shot_that_lost_w1_takes_the_non_resonant_branch(tmp_path, capsys):
    # not a configuration error (exit 2, "theta must be nonzero"): the
    # coupling is no confirmed resonance, and the non-resonant ladder
    # leaves its trust window, a numerical failure
    assert main(["converge", "--profile", "step", "--potential", "tilted_harmonic",
                 "--radius", "8", "--alpha", repr(ZERO_THETA_ALPHA),
                 "--eps-ladder", "0.2,0.1,0.05,0.025", "--levels", "2",
                 "--out", str(tmp_path / "c")]) == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


@pytest.mark.parametrize("argv", [
    ["interval", "--profile", "asymmetric_bump", "--a", "-1", "--b", "2", "--alpha=1e300",
     "--eps", "1e-3"],
    ["spectrum", "--mode", "perturbed", "--potential", "tilted_harmonic", "--radius", "8",
     "--profile", "asymmetric_bump", "--alpha=1e300", "--eps", "0.05", "--levels", "2"],
])
def test_overflowing_mesh_exits_3_without_a_warning(argv, tmp_path, capsys):
    # a coupling of 1e300 overflows the Magnus steps of the mesh defect:
    # the mesh gives up with exit 3, and no numpy warning leaks on the way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_scatter_propagates_one_family_per_alpha(tmp_path, monkeypatch):
    from pointbarrier import scattering

    sizes = []
    propagate = scattering.propagate_family

    def counted(segs, m, *args, **kwargs):
        sizes.append(np.size(m))
        return propagate(segs, m, *args, **kwargs)

    monkeypatch.setattr(scattering, "propagate_family", counted)
    out = tmp_path / "sw"
    assert main(["scatter", "--profile", "asymmetric_bump", "--alphas=-3,0.5,7",
                 "--eps-ladder", "0.1,0.001", "--ks", "2,0.5", "--out", str(out)]) == 0
    assert sizes == [8, 8, 8]
    rows = [line.split(",")[:3] for line in _read(out / "scatter.csv").strip().splitlines()[1:]]
    assert [tuple(map(float, r)) for r in rows] == [
        (a, e, k) for a in (-3.0, 0.5, 7.0) for e in (0.1, 0.001) for k in (2.0, 0.5)
    ]


def test_custom_profile_from_json(tmp_path):
    doc = {
        "label": "house",
        "segments": [
            {"interval": [-1.0, 0.0], "coeffs": [0.0, -8.0, -8.0]},
            {"interval": [0.0, 0.5], "coeffs": [0.0, -32.0, 64.0]},
            {"interval": [0.5, 1.0], "coeffs": [0.0]},
        ],
    }
    path = tmp_path / "house.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "ch"
    assert run(["classify", "--profile", str(path), "--out", str(out)]) == 0
    got = json.loads(_read(out / "classify.json"))
    assert got["label"] == "house"
    assert got["class"] == "delta_prime_like"


_CELLS = [
    1.1, 1.0 / 3.0, -0.0, 5e-324, math.nan, math.inf, -math.inf, np.float64(-2.5e-300),
    np.float32(0.1), 7, np.int64(-3), True, None, "left,degenerate", 'say "hi"',
    "two\nlines", "cr\rend", "ok", "",
]


@pytest.mark.parametrize("n_rows", [0, 1, 2047, 2048, 2049])
def test_csv_writer_matches_the_per_cell_reference(tmp_path, n_rows):
    # one column per kind of cell, one that cycles through every kind, and
    # one that holds floats until its last row, where it holds text
    rng = np.random.default_rng(n_rows)
    floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    rows = [
        (*_CELLS, _CELLS[i % len(_CELLS)], float(floats[i]), f"{floats[i]:.17e}",
         "end" if i == n_rows - 1 else float(floats[i]))
        for i in range(n_rows)
    ]
    header = [f"c{j}" for j in range(len(_CELLS) + 4)]
    _write_csv(tmp_path / "block.csv", header, zip(*rows))
    write_csv_per_cell(tmp_path / "per_cell.csv", header, rows)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "per_cell.csv").read_bytes()


def _hard_floats() -> list:
    """Cells a vectorized %.17e can get wrong: exact ties at the 18th
    digit, rounded up and down to even, where 10**(17 - E) is a double and
    where it is not; powers of ten and their neighbours, powers of two
    past 2**53, the ends of the double range, zeros, and float32 and
    float16 cells."""
    ties = [1125899906842623.875, 1125899906842624.125, 19 * 2.0**-24, 17 * 2.0**-24]
    tens = 10.0 ** np.arange(-310, 309)
    near = np.concatenate((tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)))
    twos = 2.0 ** np.arange(54, 1024)
    ends = [2.2250738585072014e-308, 5e-324, 1.7976931348623157e308, 9.999999999999999e22,
            1e-290, 1e290, -0.0, 0.0]
    small = [np.float32(0.1), np.float32(-3.4028235e38), np.float32(1e-45), np.float16(0.1),
             np.float16(-65504.0), np.float16(6e-8)]
    cells = [*ties, *near.tolist(), *twos.tolist(), *ends]
    return [*cells, *(-c for c in cells), *small]


def test_csv_writer_formats_hard_floats_as_the_reference(tmp_path):
    # a float column of hard cells, and the same column ending in an int,
    # which makes it a column of text cells; 5,684 rows take two passes
    cells = _hard_floats()
    assert cli._ROWS < len(cells) < 2 * cli._ROWS
    rows = list(zip(cells, [*cells[:-1], 7]))
    _write_csv(tmp_path / "block.csv", ["x", "mixed"], zip(*rows))
    write_csv_per_cell(tmp_path / "per_cell.csv", ["x", "mixed"], rows)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "per_cell.csv").read_bytes()


def test_only_cells_out_of_range_or_near_a_tie_are_formatted_one_by_one(monkeypatch):
    # the kernel steps a misjudged decimal exponent itself: of the hard
    # cells, % sees those outside [1e-290, 1e290] and at most a few whose
    # scaled value lies within 1e-9 of a half where 10**(17 - E) is no double
    taken = []

    class Counted(str):
        def __mod__(self, value):
            taken.append(float(value))
            return str.__mod__(self, value)

    monkeypatch.setattr("pointbarrier.cli._FLOAT", Counted("%.17e"))
    x = np.array(_hard_floats())
    _float_field(x)
    a = np.abs(x)
    outside = set(x[(a != 0.0) & ((a < 1e-290) | (a > 1e290))].tolist())
    inside = [v for v in taken if v not in outside]
    assert outside <= set(taken) and len(inside) <= 4, inside
    for v in inside:
        E = math.floor(math.log10(abs(v)))
        scaled = Fraction(abs(v)) * Fraction(10) ** (17 - E)
        E += (scaled >= 10**18) - (scaled < 10**17)
        scaled = Fraction(abs(v)) * Fraction(10) ** (17 - E)
        assert not 0 <= 17 - E <= 22 and abs(scaled % 1 - Fraction(1, 2)) < 1e-9, v


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.lists(st.floats(width=64), max_size=40),
                 st.lists(st.floats(width=32).map(np.float32), max_size=40)))
def test_csv_writer_formats_any_float_as_the_reference(tmp_path, cells):
    _write_csv(tmp_path / "block.csv", ["x"], [cells])
    write_csv_per_cell(tmp_path / "per_cell.csv", ["x"], [(c,) for c in cells])
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "per_cell.csv").read_bytes()


def test_a_profile_label_with_a_newline_is_quoted(tmp_path):
    doc = {
        "label": "two\nlines",
        "segments": [
            {"interval": [-1.0, 0.0], "coeffs": [1.0]},
            {"interval": [0.0, 1.0], "coeffs": [-1.0]},
        ],
    }
    path = tmp_path / "two_lines.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "hy"
    assert run(["hypothesis", "--profiles", str(path), "--window", "-20", "20",
                "--out", str(out)]) == 0
    with open(out / "hypothesis.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    assert {r["profile"] for r in records} == {"two\nlines", "even_quadratic"}
    assert {r["satisfies"] for r in records} <= {"True", "False"}


_PARSE_REJECTS = [
    ["theta", "--profile", "step", "--alpha", "nan"],
    ["interval", "--profile", "step", "--a", "-1", "--b", "2", "--alpha", "inf", "--eps", "1e-3"],
    ["scatter", "--profile", "step", "--alpha", "1", "--eps", "nan", "--k", "1"],
    ["scatter", "--profile", "step", "--alphas=-2,nan", "--eps", "0.1", "--k", "1"],
    ["scatter", "--profile", "step", "--alpha", "1", "--eps-ladder", "0.1,inf", "--k", "1"],
    ["scatter", "--profile", "step", "--alpha", "1", "--eps", "0.1", "--ks", "1,nan"],
    ["resonances", "--profile", "step", "--window", "nan", "3"],
    ["hypothesis", "--profiles", "step", "--window", "-1", "inf"],
    ["converge", "--profile", "step", "--potential", "harmonic", "--radius", "7",
     "--alpha", "1", "--eps-ladder", "0.2,0.1,nan,0.01"],
    ["spectrum", "--mode", "limit", "--profile", "step", "--potential", "harmonic",
     "--radius", "7", "--levels", "0"],
    ["converge", "--profile", "step", "--potential", "harmonic", "--radius", "7",
     "--alpha", "1", "--eps-ladder", "0.2,0.1,0.05,0.01", "--levels", "0"],
    ["spectrum", "--mode", "limit", "--potential", "harmonic", "--radius", "-1"],
    ["interval", "--profile", "step", "--a", "-1", "--b", "2", "--alpha", "1",
     "--eps", "1e-3", "--count", "0"],
    # tolerances and step widths must be positive and finite
    ["theta", "--profile", "step", "--alpha", "3", "--no-refine", "--residual-tol", "nan"],
    ["resonances", "--profile", "step", "--window", "-20", "20", "--residual-tol", "nan"],
    ["classify", "--profile", "step", "--moment-tol", "nan"],
    ["resonances", "--profile", "step", "--window", "-20", "20", "--rel-tol", "nan"],
    ["resonances", "--profile", "step", "--window", "-20", "20", "--rel-tol", "-1e-12"],
    ["spectrum", "--mode", "limit", "--potential", "harmonic", "--radius", "7",
     "--eig-tol", "0"],
    ["resonances", "--profile", "step", "--window", "-20", "20", "--scan-step", "nan"],
    ["hypothesis", "--profiles", "step", "--window", "-5", "5", "--scan-step", "-0.1"],
    ["theta", "--profile", "step", "--alpha", "3", "--search-width", "inf"],
    # --bc and --potential entries must be finite
    ["spectrum", "--mode", "limit", "--potential", "harmonic", "--radius", "7",
     "--levels", "2", "--bc", "theta:nan"],
    ["spectrum", "--mode", "limit", "--potential", "poly:0,0,nan", "--radius", "7"],
    ["spectrum", "--mode", "limit", "--potential", "harmonic", "--radius", "7",
     "--bc", "separated:nan,1,0,1"],
    ["spectrum", "--mode", "limit", "--potential", "harmonic", "--radius", "7",
     "--bc", "matrix:1,0,0,inf"],
    ["spectrum", "--mode", "limit", "--potential", "harmonic", "--radius", "7",
     "--bc", "theta:1e-320"],  # 1/theta is inf
    ["converge", "--profile", "step", "--potential", "poly:0,inf,1", "--radius", "7",
     "--alpha", "1", "--eps-ladder", "0.2,0.1"],
    ["interval", "--profile", "step", "--a", "-1", "--b", "inf", "--alpha", "1",
     "--eps", "1e-3"],
    # scatter needs every axis, in either spelling
    ["scatter", "--profile", "step", "--alpha", "1", "--eps", "0.1"],
    ["scatter", "--profile", "step", "--eps-ladder", "0.1", "--ks", "1"],
]


def test_spectrum_limit_pair_below_the_halving_floor_exits_3(tmp_path, capsys):
    # matrix:0,-1e-6,1e6,0 nearly splits the box into two Dirichlet halves:
    # levels 2 and 3 are a pair 4.5e-6 apart, which the halving resolves
    common = ["spectrum", "--mode", "limit", "--potential", "harmonic",
              "--bc", "matrix:0,-0.000001,1000000,0", "--levels", "4"]
    for radius in ("9", "7"):
        out = tmp_path / radius
        assert main(common + ["--radius", radius, "--out", str(out)]) == 0
        lams = [float(row["eigenvalue"]) for row in _read_rows(out / "spectrum.csv")]
        assert lams[0] < -9.9e11
        assert lams[1:] == pytest.approx([2.9999977432, 3.0000022568, 6.9999966146], abs=1e-9)
    # at eps = 1e-12 the interval pair at pi^2 is closer than the floor
    assert main(["interval", "--profile", "step", "--a", "-1", "--b", "2", "--alpha", "5",
                 "--eps", "1e-12", "--count", "2", "--out", str(tmp_path / "iv")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure:"), err
    assert "halving floor" in err[0]
    assert "enlarge the truncation radius" not in err[0]


def test_spectrum_limit_flags_a_degenerate_partner_beyond_the_cut(tmp_path):
    # the split harmonic box has the pairs (3, 3) and (7, 7); with three
    # levels the partner of level 3 is cut, but level 3 is still flagged
    out = tmp_path / "deg"
    assert main(["spectrum", "--mode", "limit", "--potential", "harmonic", "--radius", "7",
                 "--levels", "3", "--bc", "dirichlet-split", "--out", str(out)]) == 0
    rows = _read_rows(out / "spectrum.csv")
    assert [row["flag"] for row in rows] == ["left,degenerate", "right,degenerate",
                                             "left,degenerate"]
    assert all(None not in row for row in rows)  # no cell beyond the header's four


def test_spectrum_perturbed_indexes_levels_globally(tmp_path):
    # --k-lo 2 writes global levels 2-4, bitwise equal to those of a run from 1
    common = ["spectrum", "--mode", "perturbed", "--potential", "tilted_harmonic",
              "--radius", "8", "--profile", "step", "--alpha", "15.418205716980063",
              "--eps", "0.05"]
    assert main(common + ["--k-lo", "1", "--levels", "4", "--out", str(tmp_path / "a")]) == 0
    assert main(common + ["--k-lo", "2", "--levels", "3", "--out", str(tmp_path / "b")]) == 0
    full = _read_rows(tmp_path / "a" / "spectrum.csv")
    tail = _read_rows(tmp_path / "b" / "spectrum.csv")
    assert [row["index"] for row in full] == ["1", "2", "3", "4"]
    assert [row["flag"] for row in full] == ["diving", "ok", "ok", "ok"]
    assert tail == full[1:]


# out-of-domain values that only the library entry points reject
_LIBRARY_REJECTS = [
    ["spectrum", "--mode", "perturbed", "--profile", "step", "--potential", "harmonic",
     "--radius", "7", "--alpha", "1", "--eps", "1.5"],
    ["interval", "--profile", "step", "--a", "1", "--b", "2", "--alpha", "1", "--eps", "1e-3"],
]


@pytest.mark.parametrize("args", _PARSE_REJECTS + _LIBRARY_REJECTS)
def test_boundary_validation(tmp_path, capsys, args):
    out = tmp_path / "bad"
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    # the parser rejects before anything is written
    assert out.exists() == (args in _LIBRARY_REJECTS)


@pytest.mark.parametrize("alphas", ["-3,1", "-1e-05,2.5E+1,-.5"])
def test_a_list_that_starts_negative_is_a_value_in_both_spellings(tmp_path, alphas):
    tail = ["--eps", "0.1", "--ks", "1"]
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert main(["scatter", "--profile", "step", "--alphas", alphas, *tail,
                 "--out", str(spaced)]) == 0
    assert main(["scatter", "--profile", "step", f"--alphas={alphas}", *tail,
                 "--out", str(joined)]) == 0
    assert _read(spaced / "scatter.csv") == _read(joined / "scatter.csv")
    rows = _read_rows(spaced / "scatter.csv")
    assert [float(r["alpha"]) for r in rows] == [float(a) for a in alphas.split(",")]


def test_rerun_negative_list_round_trip(tmp_path):
    out1 = tmp_path / "neg"
    out2 = tmp_path / "neg2"
    assert main(["scatter", "--profile", "step", "--alphas=-2,4", "--eps-ladder", "0.1",
                 "--ks", "1.0", "--out", str(out1)]) == 0
    assert main(["rerun", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
    assert (out1 / "scatter.csv").read_bytes() == (out2 / "scatter.csv").read_bytes()


def test_rerun_rejects_a_manifest_with_abs_tol(tmp_path, capsys):
    # a run recorded before --abs-tol was removed replays it
    out = tmp_path / "old"
    assert main(["classify", "--profile", "step", "--out", str(out)]) == 0
    doc = json.loads(_read(out / "manifest.json"))
    doc["argv"] += ["--abs-tol", "1e-12"]
    (out / "manifest.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["rerun", str(out / "manifest.json"), "--out", str(tmp_path / "again")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("configuration error") and "--abs-tol" in err
    assert not (tmp_path / "again").exists()


def _one_config_error_line(capsys):
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:"), err
    return lines[0]


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("keep")
    for out in (afile, afile / "below"):
        assert main(["classify", "--profile", "step", "--out", str(out)]) == 2
        assert "output directory" in _one_config_error_line(capsys)
    assert afile.read_text() == "keep"


@pytest.mark.parametrize("edit", [
    lambda doc: {k: v for k, v in doc.items() if k != "argv"},
    lambda doc: {**doc, "argv": {"command": "classify"}},
    lambda doc: {**doc, "argv": []},
    lambda doc: {**doc, "argv": [*doc["argv"], 1e-9]},
    lambda doc: {**doc, "argv": [["classify"], *doc["argv"][1:]]},
    lambda doc: {**doc, "argv": ["rerun", *doc["argv"][1:]]},
    lambda doc: [doc],
], ids=["no-argv", "argv-object", "argv-empty", "argv-number", "command-array", "command-rerun",
        "array"])
def test_rerun_rejects_a_malformed_manifest(tmp_path, capsys, edit):
    out = tmp_path / "m"
    assert main(["classify", "--profile", "step", "--out", str(out)]) == 0
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(edit(json.loads(_read(out / "manifest.json")))))
    capsys.readouterr()
    assert main(["rerun", str(path)]) == 2
    assert "manifest" in _one_config_error_line(capsys)


# a valid run of each subcommand, and the tolerance options its handler does not
# read, which it no longer accepts
_VALID = {
    "classify": ["classify", "--profile", "step"],
    "resonances": ["resonances", "--profile", "step", "--window", "0", "1"],
    "theta": ["theta", "--profile", "step", "--alpha", "15.4"],
    "spectrum": ["spectrum", "--mode", "limit", "--potential", "harmonic", "--radius", "7"],
    "scatter": ["scatter", "--profile", "step", "--alpha", "1", "--eps", "0.1", "--k", "1"],
    "interval": ["interval", "--profile", "step", "--a", "-1", "--b", "2", "--alpha", "5",
                 "--eps", "0.1", "--count", "1"],
    "converge": ["converge", "--profile", "step", "--potential", "tilted_harmonic",
                 "--radius", "8", "--alpha", "0", "--eps-ladder", "0.2,0.1,0.05,0.025",
                 "--levels", "1", "--samples-per-unit", "101"],
    "dive": ["dive", "--profile", "step", "--alpha", "1", "--eps-ladder", "0.1,0.05"],
    "hypothesis": ["hypothesis", "--profiles", "step", "--window", "-1", "1"],
}
_UNREAD = {
    "classify": ["--rel-tol", "--residual-tol", "--eig-tol"],
    "resonances": ["--eig-tol", "--moment-tol"],
    "theta": ["--eig-tol", "--moment-tol"],
    "spectrum": ["--residual-tol", "--moment-tol"],
    "scatter": ["--residual-tol", "--eig-tol", "--moment-tol"],
    "interval": ["--moment-tol"],
    "converge": ["--moment-tol"],
    "dive": ["--residual-tol", "--eig-tol"],
    "hypothesis": ["--eig-tol"],
}


@pytest.mark.parametrize("command, option",
                         [(c, o) for c, options in _UNREAD.items() for o in options])
def test_a_tolerance_the_handler_does_not_read_exits_2(tmp_path, capsys, command, option):
    out = tmp_path / "o"
    assert main(_VALID[command] + [option, "1e-9", "--out", str(out)]) == 2
    assert option in _one_config_error_line(capsys)
    assert not out.exists()


_CLI = Path(__file__).resolve().parents[1] / "src" / "pointbarrier" / "cli.py"


def _ns_reads(tree: ast.Module) -> dict[str, set[str]]:
    """For each top-level function, the attributes it reads from ``ns``,
    also through the top-level functions it passes ``ns`` to."""
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    direct, callees = {}, {}
    for name, fn in funcs.items():
        nodes = list(ast.walk(fn))
        direct[name] = {n.attr for n in nodes if isinstance(n, ast.Attribute)
                        and isinstance(n.value, ast.Name) and n.value.id == "ns"}
        callees[name] = {n.func.id for n in nodes if isinstance(n, ast.Call)
                         and isinstance(n.func, ast.Name) and n.func.id in funcs
                         and any(isinstance(a, ast.Name) and a.id == "ns" for a in n.args)}

    def reads(name, seen):
        return direct[name].union(*(reads(c, seen | {c}) for c in callees[name] - seen))

    return {name: reads(name, {name}) for name in funcs}


def unread_options(path: Path = _CLI) -> list[str]:
    """``subcommand --option`` of each option that the subcommand's handler
    (its ``_COMMANDS`` entry in ``path``) never reads from ``ns``; ``--out``
    is read for every subcommand by ``run``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "_COMMANDS" for t in node.targets)]
    handlers = {key.value: value.id for key, value in zip(table.keys, table.values)}
    reads = _ns_reads(tree)
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        f"{command} {action.option_strings[0] if action.option_strings else action.dest}"
        for command, parser in sub.choices.items() if command in handlers
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        and action.dest != "out" and action.dest not in reads[handlers[command]]
    ]


def test_every_subcommand_option_is_read_by_its_handler():
    assert unread_options() == []


def test_spectrum_limit_needs_no_profile(tmp_path):
    # the README's limit-mode example
    assert main(["spectrum", "--mode", "limit", "--potential", "harmonic", "--radius", "7",
                 "--bc", "theta:1.0", "--levels", "5", "--out", str(tmp_path / "ok")]) == 0
    assert main(["spectrum", "--mode", "perturbed", "--potential", "harmonic",
                 "--radius", "7", "--alpha", "1", "--eps", "0.1",
                 "--out", str(tmp_path / "np")]) == 2


_LIMIT = ["spectrum", "--mode", "limit", "--potential", "harmonic", "--radius", "7",
          "--levels", "2"]
_PERTURBED = ["spectrum", "--mode", "perturbed", "--potential", "tilted_harmonic",
              "--radius", "8", "--profile", "step", "--alpha", "1", "--eps", "0.1"]


@pytest.mark.parametrize("args, named", [
    (_LIMIT + ["--k-lo", "3", "--alpha", "5", "--eps", "0.1"], "--k-lo, --alpha, --eps"),
    (_LIMIT + ["--k-lo", "1"], "--k-lo"),
    (_LIMIT + ["--eps", "0.1"], "--eps"),
    (_PERTURBED + ["--bc", "dirichlet-split"], "--bc"),
    (_PERTURBED + ["--bc", "theta:1.0"], "--bc"),
])
def test_spectrum_rejects_what_its_mode_does_not_read(tmp_path, capsys, args, named):
    # each mode reads only its own options, and names every other one given
    assert main(args + ["--out", str(tmp_path / "o")]) == 2
    assert _one_config_error_line(capsys).endswith(f"mode takes no {named}")


def test_spectrum_limit_reads_the_profile_it_is_given(tmp_path, capsys):
    # limit mode accepts a --profile (the benchmark passes one) but it must parse
    assert main(_LIMIT + ["--profile", "step", "--out", str(tmp_path / "ok")]) == 0
    missing = str(tmp_path / "missing.json")
    assert main(_LIMIT + ["--profile", missing, "--out", str(tmp_path / "x")]) == 2
    assert "unknown profile" in _one_config_error_line(capsys)


def _off_dipole_step(tmp_path):
    # the step profile scaled by 1.000001: m0 = 0, m1 = -1.000001
    doc = {
        "label": "step_off",
        "segments": [
            {"interval": [-1.0, 0.0], "coeffs": [1.000001]},
            {"interval": [0.0, 1.0], "coeffs": [-1.000001]},
        ],
    }
    path = tmp_path / "step_off.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("args", [
    ["dive", "--alpha", "1.0", "--eps-ladder", "0.1,0.05"],
    ["hypothesis", "--window", "-5", "5"],
])
def test_moment_tol_reaches_the_dipole_check(tmp_path, args):
    prof = _off_dipole_step(tmp_path)
    profile = ["--profiles" if args[0] == "hypothesis" else "--profile", prof]
    assert main(["classify", "--profile", prof, "--moment-tol", "1e-3",
                 "--out", str(tmp_path / "c")]) == 0
    assert main(args + profile + ["--out", str(tmp_path / "strict")]) == 4
    assert main(args + profile + ["--moment-tol", "1e-3", "--out", str(tmp_path / "loose")]) == 0


@pytest.mark.parametrize("window, lo", [(["-1e-05", "3"], -1e-05), (["-2.5E+1", "0"], -25.0)])
def test_exponent_form_negative_window(tmp_path, window, lo):
    out = tmp_path / "w"
    assert main(["resonances", "--profile", "step", "--window", *window, "--out", str(out)]) == 0
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["params"]["window"] == [lo, float(window[1])]
    assert main(["rerun", str(out / "manifest.json"), "--out", str(tmp_path / "w2")]) == 0
    assert _read(tmp_path / "w2" / "resonances.csv") == _read(out / "resonances.csv")


def test_cli_import_loads_no_scipy():
    # the library and its CLI run on numpy and the standard library alone
    code = ("import pointbarrier.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_an_oversized_eigenfunction_grid_exits_2_with_one_line(tmp_path):
    # 1.6e9 grid points would take 12 GiB per array; the child's address
    # space is capped, so a grid that is allocated all the same fails fast
    # (exit 1) instead of taking the memory
    resource = pytest.importorskip("resource")
    cap = 3 * 2**30
    argv = ["converge", "--profile", "step", "--potential", "tilted_harmonic", "--radius", "8",
            "--alpha", "15.418206", "--eps-ladder", "0.2,0.1,0.05,0.025", "--levels", "3",
            "--samples-per-unit", "100000000", "--out", str(tmp_path / "big")]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-m", "pointbarrier.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=120,
                         preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert out.returncode == 2, out.stderr
    assert out.stderr.splitlines() == [
        "configuration error: samples_per_unit=100000000 puts more than 134217728 points "
        "on the eigenfunction grid of [-8, 8]"]


def test_a_grid_under_its_cap_that_outgrows_the_memory_exits_3_with_one_line(tmp_path):
    # 134,208,001 grid points are under the cap, but three levels of them
    # take 3 GiB in one array, beyond the child's 3e9-byte address space:
    # the allocation fails, and the run exits 3 with one line, not a
    # traceback
    resource = pytest.importorskip("resource")
    cap = 3 * 10**9
    argv = ["converge", "--profile", "step", "--potential", "tilted_harmonic", "--radius", "8",
            "--alpha", "15.418206", "--eps-ladder", "0.2,0.1,0.05,0.025", "--levels", "3",
            "--samples-per-unit", "8388000", "--out", str(tmp_path / "big")]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-m", "pointbarrier.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=120,
                         preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert out.returncode == 3, out.stderr
    [line] = out.stderr.splitlines()
    assert line.startswith("error: out of memory: "), line

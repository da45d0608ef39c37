import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pointbarrier.cli import main, run


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


def test_resonances_finds_the_near_degenerate_even_pair(tmp_path):
    out = tmp_path / "pair"
    assert main(["resonances", "--profile", "even_quadratic", "--window", "100", "110",
                 "--out", str(out)]) == 0
    lines = _read(out / "resonances.csv").strip().splitlines()
    alphas = [float(line.split(",")[0]) for line in lines[1:]]
    assert np.allclose(alphas, [106.86346, 106.86817], rtol=0.0, atol=1e-5)


def test_resonances_shortfall_exits_3(tmp_path, capsys):
    # the pair at 350.8957 is 4e-6 apart, below the 1e-5 relative halving
    # floor: the index counts two roots that no cell separates
    out = tmp_path / "short"
    assert main(["resonances", "--profile", "even_quadratic", "--window", "350", "352",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure:")
    assert "[350, 352]" in err[0]


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
    assert run(["scatter", "--profile", "step", "--alpha", "4.0",
                "--eps-ladder", "0.1,0.01", "--ks", "0.5,1.0", "--out", str(out1)]) == 0
    assert run(["rerun", str(out1 / "manifest.json"), "--out", str(out3)]) == 0
    assert _read(out1 / "scatter.csv") == _read(out3 / "scatter.csv")


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


def test_theta_refinement(tmp_path, alpha1, theta1):
    out = tmp_path / "th"
    assert run(["theta", "--profile", "step", "--alpha", "15.4", "--out", str(out)]) == 0
    doc = json.loads(_read(out / "theta.json"))
    assert doc["alpha"] == pytest.approx(alpha1, abs=1e-7)
    assert doc["refined_from"] == 15.4
    assert doc["theta"] == pytest.approx(theta1, rel=1e-8)


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


def test_exit_codes(tmp_path):
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
    ["converge", "--profile", "step", "--potential", "poly:0,inf,1", "--radius", "7",
     "--alpha", "1", "--eps-ladder", "0.2,0.1"],
    ["interval", "--profile", "step", "--a", "-1", "--b", "inf", "--alpha", "1",
     "--eps", "1e-3"],
]


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


def test_rerun_negative_list_round_trip(tmp_path):
    out1 = tmp_path / "neg"
    out2 = tmp_path / "neg2"
    assert main(["scatter", "--profile", "step", "--alphas=-2,4", "--eps-ladder", "0.1",
                 "--ks", "1.0", "--out", str(out1)]) == 0
    assert main(["rerun", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
    assert (out1 / "scatter.csv").read_bytes() == (out2 / "scatter.csv").read_bytes()


def test_rerun_rejects_a_manifest_with_abs_tol(tmp_path, capsys):
    # manifests written before --abs-tol was removed record abs_tol
    out = tmp_path / "old"
    assert main(["classify", "--profile", "step", "--out", str(out)]) == 0
    doc = json.loads(_read(out / "manifest.json"))
    doc["params"]["abs_tol"] = 1e-12
    (out / "manifest.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["rerun", str(out / "manifest.json"), "--out", str(tmp_path / "again")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("configuration error") and "--abs-tol" in err
    assert not (tmp_path / "again").exists()


def test_spectrum_limit_needs_no_profile(tmp_path):
    # the README's limit-mode example
    assert main(["spectrum", "--mode", "limit", "--potential", "harmonic", "--radius", "7",
                 "--bc", "theta:1.0", "--levels", "5", "--out", str(tmp_path / "ok")]) == 0
    assert main(["spectrum", "--mode", "perturbed", "--potential", "harmonic",
                 "--radius", "7", "--alpha", "1", "--eps", "0.1",
                 "--out", str(tmp_path / "np")]) == 2


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

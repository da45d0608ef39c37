"""The four benchmark workloads: CLI argument vectors and output checks.

One *unit* of a workload is a fixed list of ``pointbarrier`` CLI calls.
``converge``, ``hypothesis`` and ``spectrum`` are fixed paper
configurations that ignore the seed; ``scatter`` draws its grids from it.

Input-generation pitfalls of the CLI that the argument vectors below work
around (they are CLI defects, not fixed here):

* ``alpha1`` is passed at full precision.  The rounded 15.418206 has a
  scaled Neumann residual of 3.6e-8, above the 1e-9 resonance tolerance,
  and silently runs the non-resonant branch of ``converge``.
* Lists that may start with a negative number are passed as
  ``--alphas=-17.5,...``; the space-separated form is read as an option.
* ``spectrum --mode limit`` needs a ``--profile`` it does not use.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

FROZEN = json.loads((Path(__file__).with_name("frozen.json")).read_text())

EIG_TOL = 1e-8  # eigenvalues: the library's eig_tol and criterion 10
ROOT_TOL = 1e-7  # resonant couplings: criterion 01
THETA_RTOL = 1e-6  # coupling ratio: criterion 02, relative to max(|theta|, 1)
FLUX_TOL = 1e-10  # |R|^2 + |T|^2 - 1: criterion 03
AMPLITUDE_TOL = 1e-9  # R and T against a closed form or DOP853 reference
L2_TOL = 1e-6  # eigenfunctions against Hermite functions / frozen L2 gaps
EVEN_TOL = 1e-8  # even profile: | |theta| - 1 |, criterion 09
BUMP_SPOT_CHECKS = 12  # asymmetric_bump scatter points integrated by DOP853


class Checks:
    """Collects named comparisons; a failed one marks the unit as failed."""

    def __init__(self):
        self.failures: list[str] = []
        self.worst_ratio = 0.0

    def close(self, name: str, got: float, want: float, tol: float) -> None:
        dev = abs(got - want)
        ratio = dev / tol if math.isfinite(dev) else math.inf
        self.worst_ratio = max(self.worst_ratio, ratio)
        if not ratio <= 1.0:
            self.failures.append(f"{name}: got {got!r}, want {want!r} (tol {tol:g})")

    def theta(self, name: str, got: float, want: float) -> None:
        self.close(name, got, want, THETA_RTOL * max(abs(want), 1.0))

    def true(self, name: str, cond: bool) -> None:
        if not cond:
            self.failures.append(name)

    def equal(self, name: str, got, want) -> None:
        if got != want:
            self.failures.append(f"{name}: got {got!r}, want {want!r}")


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _alpha1() -> float:
    return oracles.step_kappas(16.0)[0] ** 2


@dataclass(frozen=True)
class Workload:
    name: str
    calls: Callable[[int], list[list[str]]]  # seed -> CLI argument vectors
    check: Callable[[int, list[Path], Checks], None]  # seed, output dirs


# -- converge -----------------------------------------------------------------

def _converge_calls(seed: int) -> list[list[str]]:
    return [[
        "converge", "--profile", "step", "--potential", "tilted_harmonic",
        "--radius", "8", "--alpha", repr(_alpha1()),
        "--eps-ladder", "0.2,0.1,0.05,0.025", "--levels", "3",
        "--samples-per-unit", "401",
    ]]


def _converge_check(seed: int, outs: list[Path], ck: Checks) -> None:
    rep = json.loads((outs[0] / "converge.json").read_text())
    frozen = FROZEN["converge"]
    alpha1 = _alpha1()
    ck.close("converge alpha1 vs bisection oracle", rep["alpha"], alpha1, ROOT_TOL)
    ck.true("converge ran the resonant branch", rep["resonant"] is True)
    ck.theta("converge theta vs closed form", rep["theta"], oracles.step_theta(alpha1))
    ck.true("converge verdict orders_ok", rep["verdicts"]["orders_ok"] is True)
    ck.true("converge verdict l2_monotone", rep["verdicts"]["l2_monotone"] is True)
    ck.equal("converge diving counts", rep["diving_counts"], frozen["diving_counts"])
    ck.equal("converge level count", len(rep["rows"]), len(frozen["rows"]))
    for row, ref in zip(rep["rows"], frozen["rows"]):
        k = row["k"]
        ck.close(f"converge limit level {k}", row["lam_limit"], ref["lam_limit"], EIG_TOL)
        for j, (lam, lam_ref) in enumerate(zip(row["lam_eps"], ref["lam_eps"])):
            ck.close(f"converge level {k} rung {j}", lam, lam_ref, EIG_TOL)
        for j, (d, d_ref) in enumerate(zip(row["l2_distances"], ref["l2_distances"])):
            ck.close(f"converge L2 gap {k} rung {j}", d, d_ref, L2_TOL)
    ck.equal("converge csv rows", len(_read_csv(outs[0] / "converge.csv")),
             sum(len(r["lam_eps"]) for r in rep["rows"]))


# -- hypothesis -----------------------------------------------------------------

WINDOW = (-200.0, 200.0)


def _hypothesis_calls(seed: int) -> list[list[str]]:
    return [[
        "hypothesis", "--profiles", "step,asymmetric_bump",
        "--window", repr(WINDOW[0]), repr(WINDOW[1]),
    ]]


def _hypothesis_check(seed: int, outs: list[Path], ck: Checks) -> None:
    rep = json.loads((outs[0] / "hypothesis.json").read_text())
    frozen = FROZEN["hypothesis"]
    kappas = oracles.step_kappas(WINDOW[1])
    step_roots = sorted([-k * k for k in kappas] + [0.0] + [k * k for k in kappas])
    rows = rep["per_profile"]["step"]
    ck.equal("hypothesis step root count", len(rows), len(step_roots))
    for r, a in zip(rows, step_roots):
        ck.close(f"hypothesis step root {a:.6g}", r["alpha"], a, ROOT_TOL)
        ck.theta(f"hypothesis step theta at {a:.6g}", r["theta"], oracles.step_theta(a))
        ck.true(f"hypothesis step pattern at {a:.6g}", r["satisfies"] is True)
    no_closed_form = {
        "asymmetric_bump": rep["per_profile"]["asymmetric_bump"],
        "even_quadratic": rep["even_check"]["rows"],
    }
    for label, got in no_closed_form.items():
        ref = frozen[label]
        ck.equal(f"hypothesis {label} root count", len(got), len(ref))
        for r, (a, th) in zip(got, ref):
            ck.close(f"hypothesis {label} root {a:.6g}", r["alpha"], a, ROOT_TOL)
            ck.theta(f"hypothesis {label} theta at {a:.6g}", r["theta"], th)
    ck.close("hypothesis even-profile |theta| - 1",
             rep["even_check"]["max_abs_theta_deviation_from_1"], 0.0, EVEN_TOL)
    n_rows = sum(len(v) for v in rep["per_profile"].values()) + len(rep["even_check"]["rows"])
    ck.equal("hypothesis csv rows", len(_read_csv(outs[0] / "hypothesis.csv")), n_rows)


# -- scatter ----------------------------------------------------------------------

SCATTER_PROFILES = (("step", oracles.STEP_SEGMENTS), ("asymmetric_bump", oracles.BUMP_SEGMENTS))


def _stratified(rng, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal slices of [lo, hi].  The draws
    cover the range evenly, so the work a grid costs varies less from seed
    to seed than with n independent draws."""
    return [float(lo + (hi - lo) * (i + u) / n) for i, u in enumerate(rng.random(n))]


def _systematic(rng, lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced points of [lo, hi] behind one common uniform offset.
    Each point is still U(lo, hi); the cost of a scatter point grows with
    |alpha|, and over evenly spaced alphas that cost sums to nearly the same
    total for every offset."""
    u = float(rng.random())
    return [float(lo + (hi - lo) * (i + u) / n) for i in range(n)]


def scatter_grid(seed: int) -> tuple[list[float], list[float], list[float]]:
    """6 alphas in U(-20, 20), 6 eps log-uniform in [10^-3.5, 10^-0.7] and
    10 ks in U(0.3, 3): 360 points per profile."""
    rng = np.random.default_rng(seed)
    alphas = _systematic(rng, -20.0, 20.0, 6)
    epses = [10.0 ** e for e in _stratified(rng, -3.5, -0.7, 6)]
    ks = _stratified(rng, 0.3, 3.0, 10)
    return alphas, epses, ks


def _scatter_calls(seed: int) -> list[list[str]]:
    alphas, epses, ks = scatter_grid(seed)
    lists = [
        "--alphas=" + ",".join(map(repr, alphas)),
        "--eps-ladder=" + ",".join(map(repr, epses)),
        "--ks=" + ",".join(map(repr, ks)),
    ]
    return [["scatter", "--profile", name, *lists] for name, _ in SCATTER_PROFILES]


def _scatter_check(seed: int, outs: list[Path], ck: Checks) -> None:
    alphas, epses, ks = scatter_grid(seed)
    grid = [(a, e, k) for a in alphas for e in epses for k in ks]
    spot = set(np.random.default_rng(seed + 1).choice(len(grid), BUMP_SPOT_CHECKS, replace=False))
    for (name, segments), out in zip(SCATTER_PROFILES, outs):
        rows = _read_csv(out / "scatter.csv")
        ck.equal(f"scatter {name} point count", len(rows), len(grid))
        for i, (row, (a, e, k)) in enumerate(zip(rows, grid)):
            ck.equal(f"scatter {name} grid point {i}",
                     (float(row["alpha"]), float(row["eps"]), float(row["k"])), (a, e, k))
            R = complex(float(row["re_r"]), float(row["im_r"]))
            T = complex(float(row["re_t"]), float(row["im_t"]))
            ck.close(f"scatter {name} flux at point {i}", abs(R) ** 2 + abs(T) ** 2, 1.0, FLUX_TOL)
            # the step is checked everywhere in closed form; the bump on a
            # seeded subset against a DOP853 integration
            if name == "step" or i in spot:
                R_ref, T_ref = oracles.scatter_amplitudes(segments, a, e, k)
                ck.close(f"scatter {name} R at point {i}", abs(R - R_ref), 0.0, AMPLITUDE_TOL)
                ck.close(f"scatter {name} T at point {i}", abs(T - T_ref), 0.0, AMPLITUDE_TOL)


# -- spectrum ---------------------------------------------------------------------

SPECTRUM_LEVELS = 5


def _spectrum_calls(seed: int) -> list[list[str]]:
    return [[
        "spectrum", "--mode", "limit", "--profile", "step", "--potential", "harmonic",
        "--radius", "7", "--bc", "theta:1.0", "--levels", str(SPECTRUM_LEVELS),
        "--eigenfunctions",
    ]]


def _spectrum_check(seed: int, outs: list[Path], ck: Checks) -> None:
    rows = _read_csv(outs[0] / "spectrum.csv")
    ck.equal("spectrum level count", len(rows), SPECTRUM_LEVELS)
    for k, row in enumerate(rows):
        ck.close(f"spectrum eigenvalue {k}", float(row["eigenvalue"]), 2 * k + 1, EIG_TOL)
        ck.equal(f"spectrum flag {k}", row["flag"], "ok")
    for k in range(SPECTRUM_LEVELS):
        data = np.loadtxt(outs[0] / f"eigenfunction_{k:03d}.csv", delimiter=",", skiprows=1, ndmin=2)
        x, v = data[:, 0], data[:, 1]
        ck.true(f"spectrum eigenfunction {k} grid spans [-7, 7]",
                x.size > 1 and x[0] == -7.0 and x[-1] == 7.0)
        ref = oracles.hermite_functions(x, k + 1)[k]
        ck.close(f"spectrum eigenfunction {k} vs Hermite",
                 oracles.l2_distance_unsigned(x, v, ref), 0.0, L2_TOL)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("converge", _converge_calls, _converge_check),
        Workload("hypothesis", _hypothesis_calls, _hypothesis_check),
        Workload("scatter", _scatter_calls, _scatter_check),
        Workload("spectrum", _spectrum_calls, _spectrum_check),
    )
}

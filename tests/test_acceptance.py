"""Acceptance suite: one test per numbered criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to stream
them).  Expensive ladder studies are shared through module-scoped
fixtures; their wall time is measured where a criterion bounds it.
"""

import contextlib
import time

import numpy as np
import pytest

from pointbarrier.resonance import coupling_theta, resonance_scan, step_theta
from pointbarrier.scattering import scatter, transmission_limit
from pointbarrier.spectra import (
    DirichletSplit,
    ThetaCoupled,
    corrector_lambda1,
    diving_count,
    eigen_limit,
    eigen_perturbed,
    interval_limit_frequencies,
    interval_spectrum,
    split_limit_frequencies,
)
from pointbarrier.experiments import convergence_study, diving_study, hypothesis_scan

LADDER = [0.2, 0.1, 0.05, 0.025]
SLOPE_LADDER = [0.04, 0.02, 0.01, 0.005]


@contextlib.contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {label}")
        raise
    print(f"[criterion {num:02d}] PASS  {label}")


@pytest.fixture(scope="module")
def scan_result(step):
    t0 = time.perf_counter()
    pts = resonance_scan(step, 0.0, 60.0, 0.1)
    return pts, time.perf_counter() - t0


@pytest.fixture(scope="module")
def study_nonresonant(tilted, step):
    t0 = time.perf_counter()
    rep = convergence_study(tilted, step, 5.0, LADDER, 3)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def study_resonant(tilted, step, alpha1):
    t0 = time.perf_counter()
    rep = convergence_study(tilted, step, alpha1, LADDER, 3)
    return rep, time.perf_counter() - t0


def _bounded_level(U, p, alpha, eps, k_in_limit):
    """Global alignment: k-th bounded level of the squeezed problem."""
    k = diving_count(U, p, alpha, eps) + k_in_limit
    spec = eigen_perturbed(U, p, alpha, eps, (k, k), eigenfunctions=False)
    assert spec.flags == ["ok"]
    return float(spec.eigenvalues[0])


def test_criterion_01_resonance_oracle(step, kappa_roots, scan_result):
    with criterion(1, "positive resonance scan matches the bisection oracle"):
        pts, elapsed = scan_result
        assert elapsed < 5.0, f"scan took {elapsed:.2f}s"
        assert len(pts) == 3 and not any(pt.flagged for pt in pts)
        k1, k2 = kappa_roots
        expected = [0.0, k1 * k1, k2 * k2]
        for pt, ref in zip(pts, expected):
            assert abs(pt.alpha - ref) <= 1e-7


def test_criterion_02_coupling_function_oracle(step, scan_result):
    with criterion(2, "coupling ratio matches the closed form at every resonance"):
        pts, _ = scan_result
        assert coupling_theta(step, 0.0) == pytest.approx(1.0, abs=1e-10)
        for pt in pts:
            theta = coupling_theta(step, pt.alpha)
            assert theta == pytest.approx(step_theta(pt.alpha), rel=1e-6)
        # negative branch of the closed form
        neg = resonance_scan(step, -20.0, -10.0, 0.1)
        for pt in neg:
            assert coupling_theta(step, pt.alpha) == pytest.approx(
                step_theta(pt.alpha), rel=1e-6
            )


def test_criterion_03_scattering_unitarity(step, bump):
    with criterion(3, "flux conservation across a 200-point randomized sweep"):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        for profile in (step, bump):
            for _ in range(100):
                alpha = rng.uniform(-20.0, 20.0)
                eps = 10.0 ** rng.uniform(-3.0, -0.7)
                k = rng.uniform(0.3, 3.0)
                r = scatter(profile, alpha, eps, k)
                assert abs(abs(r.R) ** 2 + abs(r.T) ** 2 - 1.0) <= 1e-10
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"sweep took {elapsed:.2f}s"


def test_criterion_04_transmission_asymptotics(step, alpha1, theta1):
    with criterion(4, "off-resonance slope 2, on-resonance plateau, k-independent"):
        epss = np.geomspace(1e-1, 1e-3, 7)
        t2 = [scatter(step, 4.0, e, 1.0).transmission_probability for e in epss]
        slope = np.polyfit(np.log(epss), np.log(t2), 1)[0]
        assert abs(slope - 2.0) <= 0.05
        lim = transmission_limit(theta1)
        plateau = {
            k: scatter(step, alpha1, 1e-3, k).transmission_probability
            for k in (0.5, 1.0, 2.0)
        }
        for val in plateau.values():
            assert abs(val - lim) <= 1e-2
        assert max(plateau.values()) - min(plateau.values()) <= 1e-3


def test_criterion_05_eigenvalue_convergence(study_nonresonant, study_resonant):
    with criterion(5, "bounded levels converge at order >= 0.8 with monotone L2 gaps"):
        total = study_nonresonant[1] + study_resonant[1]
        assert total < 300.0, f"studies took {total:.1f}s"
        for rep, _ in (study_nonresonant, study_resonant):
            assert len(rep.rows) == 3
            for row in rep.rows:
                assert row.fitted_order >= 0.8
                assert all(
                    later <= earlier
                    for earlier, later in zip(row.l2_distances, row.l2_distances[1:])
                )


def test_criterion_06_corrector_consistency(tilted, step, alpha1, theta1):
    with criterion(6, "first-order corrector matches the finite-squeezing slope"):
        # non-resonant branch: lowest level supported on the right half-axis
        split = eigen_limit(tilted, DirichletSplit(), 3, eigenfunctions=True)
        k_right = next(i for i, f in enumerate(split.flags) if f.startswith("right"))
        lam0 = float(split.eigenvalues[k_right])
        l1 = corrector_lambda1(
            tilted, step, 5.0, lam0, split.boundary_traces[k_right], resonant=False
        )
        lams = [_bounded_level(tilted, step, 5.0, e, k_right + 1) for e in SLOPE_LADDER]
        slope = np.polyfit(SLOPE_LADDER, lams, 2)[1]
        assert l1 == pytest.approx(slope, rel=0.05)

        # resonant branch: lowest level of the coupled limit
        coupled = eigen_limit(tilted, ThetaCoupled(theta1), 1, eigenfunctions=True)
        l1r = corrector_lambda1(
            tilted, step, alpha1, float(coupled.eigenvalues[0]),
            coupled.boundary_traces[0], resonant=True,
        )
        lams = [_bounded_level(tilted, step, alpha1, e, 1) for e in SLOPE_LADDER]
        slope = np.polyfit(SLOPE_LADDER, lams, 2)[1]
        assert l1r == pytest.approx(slope, rel=0.05)


def test_criterion_07_diving_spectrum(step):
    with criterion(7, "eps^2 lam_1 at eps=1e-2 reaches the unsqueezed ground level"):
        rep = diving_study(step, 1.0, [0.1, 0.05, 0.02, 0.01])
        assert rep.mu_oracle < 0.0
        eps, lam1, scaled = rep.rows[-1]
        assert eps == 0.01
        assert lam1 <= -0.5 / (eps * eps) * abs(rep.mu_oracle)
        assert abs(scaled - rep.mu_oracle) / abs(rep.mu_oracle) <= 0.02


def test_criterion_08_interval_problem(step, alpha1, theta1):
    with criterion(8, "interval eigenfrequencies reach the limit roots (rel 1e-3)"):
        # tolerances are relative: the order-eps constant grows linearly in
        # the frequency, so an absolute reading fails for higher roots
        spec = interval_spectrum(-1.0, 2.0, step, alpha1, 1e-3, 6)
        omegas = np.sqrt(spec.eigenvalues)
        limits = interval_limit_frequencies(-1.0, 2.0, theta1, 6)
        assert np.max(np.abs(omegas - limits) / limits) <= 1e-3
        spec = interval_spectrum(-1.0, 2.0, step, 5.0, 1e-3, 6)
        omegas = np.sqrt(spec.eigenvalues)
        limits = split_limit_frequencies(-1.0, 2.0, 6)
        assert np.max(np.abs(omegas - limits) / limits) <= 1e-3


def test_criterion_09_hypothesis_report(step, bump):
    with criterion(9, "|theta| above/below 1 by coupling sign; even profile at 1"):
        rep = hypothesis_scan([step, bump], (-200.0, 200.0), scan_step=0.1)
        rows = rep.per_profile["step"]
        assert any(r.side == "+" for r in rows) and any(r.side == "-" for r in rows)
        for r in rows:
            if r.side == "+":
                assert r.abs_theta > 1.0
            if r.side == "-":
                assert r.abs_theta < 1.0
        assert rep.even_check["max_abs_theta_deviation_from_1"] <= 1e-8
        # the asymmetric bump outcome is recorded without a truth claim
        assert rep.per_profile["asymmetric_bump"]


def test_criterion_10_unperturbed_identity(tilted, step):
    with criterion(10, "zero coupling reproduces the continuity limit at every eps"):
        limit = eigen_limit(tilted, ThetaCoupled(1.0), 3, eigenfunctions=False)
        for eps in LADDER:
            spec = eigen_perturbed(tilted, step, 0.0, eps, (1, 3), eigenfunctions=False)
            assert np.max(np.abs(spec.eigenvalues - limit.eigenvalues)) <= 1e-8

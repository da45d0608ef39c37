import math

import numpy as np
import pytest
from conftest import spy_shots, step_theta

from pointbarrier.errors import PreconditionError
from pointbarrier.experiments import (
    convergence_study,
    diving_study,
    even_counterexample_profile,
    hypothesis_scan,
)
from pointbarrier.profiles import classify
from pointbarrier.spectra import ThetaCoupled, eigen_limit, interval_negative_levels


def test_zero_coupling_study_is_exact(tilted, step):
    rep = convergence_study(
        tilted, step, 0.0, [0.2, 0.1, 0.05, 0.025], 2, samples_per_unit=401
    )
    assert rep.resonant and rep.theta == 1.0
    assert rep.diving_counts == [0, 0, 0, 0]
    assert rep.verdicts["all_exact"]
    for row in rep.rows:
        assert row.exact
        assert math.isnan(row.fitted_order)
        assert max(row.errors) <= 1e-7


def test_each_rung_shoots_its_scan_start_once(tilted, step, monkeypatch):
    # one counted shot per rung gives both the diving count and the start of
    # the bounded scan: one start member on each of the rung's two chains,
    # whose matching point is x = eps
    from pointbarrier import spectra

    ladder = [0.2, 0.1, 0.05, 0.025]
    start = spectra._weyl_scan(tilted)[1]
    starts = dict.fromkeys(ladder, 0)

    def spy(chain, lams):
        if chain[-1].b in starts and np.array_equal(lams, [start]):
            starts[chain[-1].b] += 1

    spy_shots(monkeypatch, spectra, spy)
    convergence_study(tilted, step, 0.0, ladder, 1, samples_per_unit=101)
    assert starts == dict.fromkeys(ladder, 2)


def test_study_requires_disjoint_half_spectra(harmonic, step):
    # an even background makes the decoupled halves coincide level by level
    with pytest.raises(PreconditionError):
        convergence_study(harmonic, step, 5.0, [0.2, 0.1, 0.05, 0.025], 2)


def test_study_requires_descending_ladder(tilted, step):
    with pytest.raises(PreconditionError):
        convergence_study(tilted, step, 5.0, [0.1, 0.2, 0.05, 0.025], 1)
    with pytest.raises(PreconditionError):
        convergence_study(tilted, step, 5.0, [0.2, 0.1], 1)


def test_diving_preconditions(step):
    with pytest.raises(PreconditionError):
        diving_study(step, 0.0, [0.1, 0.05])
    with pytest.raises(PreconditionError):
        diving_study(even_counterexample_profile(), 1.0, [0.1, 0.05])


def test_diving_sign_check(step, odd_cubic):
    # the squeezed-cell operator of a zero-mean profile binds for every
    # nonzero coupling
    for p in (step, odd_cubic):
        for alpha in (1.0, -2.0, 5.0):
            negs = interval_negative_levels(-30.0, 30.0, p, alpha, 1.0)
            assert negs.size >= 1
            assert negs[0] < 0.0


def test_diving_study_converges(step):
    rep = diving_study(step, 1.0, [0.2, 0.1, 0.05, 0.02, 0.01])
    assert rep.mu_oracle < 0.0
    scaled = [row[2] for row in rep.rows]
    gaps = [abs(s - rep.mu_oracle) for s in scaled]
    # decrease until hitting the oracle's own wall-truncation floor
    assert all(b <= 1.05 * a + 1e-6 * abs(rep.mu_oracle) for a, b in zip(gaps, gaps[1:]))
    assert rep.final_relative_error <= 0.02


def test_even_counterexample_profile_moments():
    p = even_counterexample_profile()
    cls = classify(p)
    assert cls.m0 == pytest.approx(0.0, abs=1e-14)
    assert cls.m1 == pytest.approx(0.0, abs=1e-14)


def test_hypothesis_scan_small_window(step, odd_cubic, bump):
    rep = hypothesis_scan([step, bump], (-40.0, 40.0), scan_step=0.2)
    rows = rep.per_profile["step"]
    assert any(r.side == "+" for r in rows) and any(r.side == "-" for r in rows)
    for r in rows:
        assert r.satisfies
        if r.side == "+":
            assert r.abs_theta > 1.0
        if r.side == "-":
            assert r.abs_theta < 1.0
    # the asymmetric bump rows are recorded but carry no truth claim
    assert rep.per_profile["asymmetric_bump"]
    assert rep.even_check["max_abs_theta_deviation_from_1"] <= 1e-8
    assert rep.trends["step"]["all_satisfied"]


def test_hypothesis_scan_rejects_non_dipole():
    with pytest.raises(PreconditionError):
        hypothesis_scan([even_counterexample_profile()], (-10.0, 10.0))


def probability_ratio(x: np.ndarray, v: np.ndarray, r: float) -> float:
    """Ratio of the probability masses of v^2 on (0, r) and (-r, 0).

    At a resonant coupling this tends to theta^2 as r -> 0 (the marginal
    density drop across the interface).  The eigenfunction jumps at 0, so
    the sample sitting on the interface is ignored and each side's
    boundary value is reconstructed from its own interior samples.
    """
    tiny = 1e-12
    mr = (x > tiny) & (x <= r)
    ml = (x >= -r) & (x < -tiny)
    xr, vr = x[mr], v[mr]
    xl, vl = x[ml], v[ml]
    if len(xr) < 2 or len(xl) < 2:
        raise ValueError("need at least two samples strictly inside each side")
    v0r = vr[0] - (vr[1] - vr[0]) / (xr[1] - xr[0]) * xr[0]
    v0l = vl[-1] - (vl[-2] - vl[-1]) / (xl[-2] - xl[-1]) * xl[-1]
    num = float(np.trapezoid(np.r_[v0r, vr] ** 2, np.r_[0.0, xr]))
    den = float(np.trapezoid(np.r_[vl, v0l] ** 2, np.r_[xl, 0.0]))
    if den == 0.0:
        raise ValueError("no probability mass on the left of the interface")
    return num / den


@pytest.mark.parametrize("which", ["negative", "positive"])
def test_probability_ratio_matches_theta_squared(tilted, alpha1, theta1, which):
    theta = step_theta(-alpha1) if which == "negative" else theta1
    spec = eigen_limit(tilted, ThetaCoupled(theta), 1, eigenfunctions=True)
    ratio = probability_ratio(spec.x, spec.eigenfunctions[0], 1e-3)
    assert ratio == pytest.approx(theta**2, rel=1e-2)


def test_probability_ratio_trend(tilted, theta1):
    # the finite-r correction is linear: halving r halves the gap
    spec = eigen_limit(tilted, ThetaCoupled(theta1), 1, eigenfunctions=True)
    gaps = []
    for r in (4e-3, 2e-3, 1e-3):
        ratio = probability_ratio(spec.x, spec.eigenfunctions[0], r)
        gaps.append(abs(ratio - theta1**2) / theta1**2)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.25)

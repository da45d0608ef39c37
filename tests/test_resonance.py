import math
import warnings

import numpy as np
import pytest
from conftest import bisect_oracle, dop853_family

from pointbarrier.errors import NotInResonanceSetError
from pointbarrier.ivp import FamilySegment
from pointbarrier.resonance import (
    coupling_theta,
    resonance_scan,
    scaled_residual,
    shoot,
    shoot_family,
    step_h,
    step_theta,
)


def test_shoot_at_zero_coupling(step, odd_cubic, bump):
    # constants solve the cell equation: D(0) = 0 and theta = 1
    for p in (step, odd_cubic, bump):
        w1, dw1 = shoot(p, 0.0)
        assert w1 == pytest.approx(1.0, abs=1e-12)
        assert dw1 == pytest.approx(0.0, abs=1e-12)


def test_step_miss_function_closed_form(step):
    # D(alpha) = cos(k) cosh(k) * h(k) with k = sqrt(alpha)
    for kappa in (0.7, 1.9, 3.1, 4.4):
        _, dw1 = shoot(step, kappa * kappa)
        ref = math.cos(kappa) * math.cosh(kappa) * step_h(kappa)
        assert dw1 == pytest.approx(ref, rel=1e-10)


def test_scan_small_window_contains_only_zero(step):
    pts = resonance_scan(step, -1.0, 1.0, 0.1)
    assert len(pts) == 1
    assert pts[0].alpha == 0.0
    assert pts[0].theta == 1.0
    assert not pts[0].flagged


def test_scan_positive_window(step, kappa_roots):
    k1, k2 = kappa_roots
    pts = resonance_scan(step, 0.0, 60.0, 0.1)
    assert [pt.flagged for pt in pts] == [False, False, False]
    alphas = [pt.alpha for pt in pts]
    assert alphas[0] == 0.0
    assert alphas[1] == pytest.approx(k1 * k1, abs=1e-7)
    assert alphas[2] == pytest.approx(k2 * k2, abs=1e-7)
    # the miss function at the reported roots satisfies the defining
    # transcendental equation of the step profile
    for a in alphas[1:]:
        k = math.sqrt(a)
        assert abs(math.tan(k) - math.tanh(k)) <= 1e-7


def test_scan_theta_matches_closed_form(step):
    pts = resonance_scan(step, 0.0, 60.0, 0.1)
    for pt in pts:
        assert pt.theta == pytest.approx(step_theta(pt.alpha), rel=1e-6)
        assert pt.residual <= 1e-9


def test_eigenfunction_trace(step, alpha1):
    pts = resonance_scan(step, 15.0, 16.0, 0.05)
    (pt,) = pts
    assert pt.xi[0] == -1.0 and pt.xi[-1] == 1.0
    assert pt.w[0] == pytest.approx(1.0, abs=1e-12)  # w(-1) = 1 normalization
    assert pt.w[-1] == pytest.approx(pt.theta, rel=1e-10)
    assert pt.residual <= 1e-9


def test_theta_normalization_invariance(step, alpha1):
    t1 = coupling_theta(step, alpha1, normalization=1.0)
    t2 = coupling_theta(step, alpha1, normalization=-17.5)
    assert t1 == pytest.approx(t2, abs=1e-10)


def test_theta_rejects_non_resonant(step):
    with pytest.raises(NotInResonanceSetError):
        coupling_theta(step, 5.0)


def test_theta_at_zero(step):
    assert coupling_theta(step, 0.0) == 1.0


def test_negative_resonances_and_reciprocity(step, alpha1, kappa_roots):
    # the step profile is odd: the resonance set is symmetric and the
    # coupling ratios of mirror resonances are reciprocal
    pts = resonance_scan(step, -60.0, 60.0, 0.1)
    alphas = np.array([pt.alpha for pt in pts])
    assert np.allclose(np.sort(alphas + alphas[::-1]), 0.0, atol=1e-6)
    for pt in pts:
        if pt.alpha > 1.0:
            mirror = min(pts, key=lambda q: abs(q.alpha + pt.alpha))
            assert pt.theta * mirror.theta == pytest.approx(1.0, rel=1e-6)
    negative = [pt for pt in pts if pt.alpha < 0]
    positive = [pt for pt in pts if pt.alpha > 0]
    assert negative and positive  # accumulation on both sides for dipole profiles


def test_odd_profile_symmetry(odd_cubic):
    pts = resonance_scan(odd_cubic, -40.0, 40.0, 0.25)
    alphas = [pt.alpha for pt in pts]
    assert any(a > 0 for a in alphas) and any(a < 0 for a in alphas)
    for pt in pts:
        if pt.alpha > 0:
            mirror = min(pts, key=lambda q: abs(q.alpha + pt.alpha))
            assert mirror.alpha == pytest.approx(-pt.alpha, abs=1e-6)
            assert pt.theta * mirror.theta == pytest.approx(1.0, rel=1e-6)


def _step_shot(alpha):
    """Closed-form (w(1), w'(1)) of the step profile's shot from (1, 0):
    a cosh (cos) arc on (-1, 0) followed by a cos (cosh) arc on (0, 1)."""
    k = math.sqrt(abs(alpha))
    if alpha >= 0.0:
        w0, dw0 = math.cosh(k), k * math.sinh(k)
        return w0 * math.cos(k) + dw0 / k * math.sin(k), -k * w0 * math.sin(k) + dw0 * math.cos(k)
    w0, dw0 = math.cos(k), -k * math.sin(k)
    return w0 * math.cosh(k) + dw0 / k * math.sinh(k), k * w0 * math.sinh(k) + dw0 * math.cosh(k)


def test_fast_path_agrees_with_generic(step, alpha1):
    alphas = [alpha1, 4.0, -9.0]
    fast = shoot_family(step, alphas)
    slow = np.array([_step_shot(a) for a in alphas]).T
    assert np.allclose(fast.states, slow, rtol=1e-9, atol=5e-9)


@pytest.mark.parametrize("profile", ["bump", "odd_cubic"])
def test_shots_match_an_independent_integrator(profile, request):
    p = request.getfixturevalue(profile)
    alphas = np.array([-200.0, -137.3, -20.5, -1.5, 0.7, 9.0, 63.9, 128.0, 150.2, 200.0])
    shots = shoot_family(p, alphas).states
    ref, _, _ = dop853_family([FamilySegment(s.a, s.b, 0.0, s) for s in p.segments],
                              alphas, np.array([1.0, 0.0]))
    assert np.all(np.abs(shots - ref) <= 1e-9 * np.abs(ref).max(axis=0))


def test_step_h_values(kappa_roots):
    assert step_h(0.0) == 0.0
    assert abs(step_h(kappa_roots[0])) <= 1e-8
    assert step_h(1.0) == pytest.approx(math.tanh(1.0) - math.tan(1.0), rel=1e-12)
    with pytest.raises(ValueError):
        step_h(math.pi / 2)


def test_step_theta_values(alpha1, kappa_roots):
    k1 = kappa_roots[0]
    assert step_theta(0.0) == 1.0
    assert step_theta(alpha1) == pytest.approx(math.cosh(k1) / math.cos(k1), rel=1e-12)
    assert step_theta(alpha1) == pytest.approx(-35.9, rel=2e-3)
    neg = step_theta(-alpha1)
    assert neg == pytest.approx(math.cos(k1) / math.cosh(k1), rel=1e-12)
    assert abs(neg) < 1.0
    assert neg == pytest.approx(-0.0279, rel=2e-3)
    with pytest.raises(ValueError):
        step_theta((math.pi / 2) ** 2)


def test_scaled_residual_discriminates(step, alpha1):
    w1, dw1 = shoot(step, alpha1)
    assert scaled_residual(step, alpha1, w1, dw1) < 1e-12
    w1, dw1 = shoot(step, 5.0)
    assert scaled_residual(step, 5.0, w1, dw1) > 1e-3


def test_halving_rescan_recovers_missed_roots(step, kappa_roots):
    # a deliberately coarse grid misses the first resonance; the half-step
    # consistency pass warns and merges it back in
    k1, k2 = kappa_roots
    with pytest.warns(UserWarning, match="too coarse"):
        pts = resonance_scan(step, 0.0, 60.0, 30.0)
    alphas = [pt.alpha for pt in pts]
    assert alphas[0] == 0.0
    assert any(abs(a - k1 * k1) < 1e-6 for a in alphas)
    assert any(abs(a - k2 * k2) < 1e-6 for a in alphas)


def test_dropped_sign_change_roots_are_named_in_a_warning(step, kappa_roots):
    # no shot meets residual_tol = 1e-30, so both refined roots on [0, 60]
    # are dropped; the scan still returns what it did, and says so
    kept = resonance_scan(step, 0.0, 60.0, 1.0)
    roots = [pt for pt in kept if pt.alpha != 0.0]
    assert len(roots) == 2
    with pytest.warns(UserWarning, match="drops sign-change roots") as record:
        pts = resonance_scan(step, 0.0, 60.0, 1.0, residual_tol=1e-30)
    assert [pt.alpha for pt in pts] == [0.0]
    assert len(record) == 1
    msg = str(record[0].message)
    for pt in roots:
        assert f"alpha={pt.alpha!r} (residual {pt.residual:.3e})" in msg


def test_scan_input_validation(step):
    with pytest.raises(ValueError):
        resonance_scan(step, 1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        resonance_scan(step, 0.0, 1.0, -0.5)


def test_halving_pass_shoots_only_new_midpoints(bump, monkeypatch):
    from pointbarrier import resonance

    counts = {"members": 0, "bisections": 0}
    shoot_family_, bisect_vector_ = resonance.shoot_family, resonance.bisect_vector

    def counted_shoot_family(p, alphas, *args, **kwargs):
        counts["members"] += np.size(alphas)
        return shoot_family_(p, alphas, *args, **kwargs)

    def counted_bisect_vector(*args, **kwargs):
        counts["bisections"] += 1
        return bisect_vector_(*args, **kwargs)

    monkeypatch.setattr(resonance, "shoot_family", counted_shoot_family)
    monkeypatch.setattr(resonance, "bisect_vector", counted_bisect_vector)

    lo, hi, step_ = -20.0, 20.0, 0.1
    n_cells = max(1, int(math.ceil((hi - lo) / step_)))
    plain = resonance_scan(bump, lo, hi, step_, halving_check=False)
    without = dict(counts)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # no extra roots on this window
        checked = resonance_scan(bump, lo, hi, step_, halving_check=True)
    members = counts["members"] - 2 * without["members"]
    assert members == n_cells
    assert counts["bisections"] == 2 * without["bisections"]
    assert len(plain) == len(checked) > 0
    for a, b in zip(plain, checked):
        assert (a.alpha, a.theta, a.residual, a.flagged) == (b.alpha, b.theta, b.residual, b.flagged)
        assert a.w.tobytes() == b.w.tobytes()


def test_halving_rescan_recovers_two_roots_in_one_cell(step, kappa_roots):
    # the cell [10, 60] holds both 15.42 and 49.96, so D has the same sign
    # at its ends; the cell [60, 110] holds one root the coarse pass finds
    k1, k2 = kappa_roots
    k3 = bisect_oracle(lambda k: math.tanh(k) - math.tan(k), 3 * math.pi + 0.2, 3.5 * math.pi - 0.2)
    with pytest.warns(UserWarning, match="too coarse"):
        pts = resonance_scan(step, 10.0, 110.0, 50.0)
    alphas = [pt.alpha for pt in pts]
    assert len(alphas) == 3 and not any(pt.flagged for pt in pts)
    for a, k in zip(alphas, (k1, k2, k3)):
        assert a == pytest.approx(k * k, abs=1e-6)


def test_tangency_candidate_flagged_below_tolerance_only(step):
    from pointbarrier.ivp import DEFAULT_CONFIG
    from pointbarrier.resonance import DEFAULT_RESIDUAL_TOL, _tangency_candidates

    pmax = step.max_abs()
    grid = np.linspace(10.0, 11.0, 11)
    w1 = np.full(grid.size, 2.0)
    # |D| dips to a minimum at grid[5] without changing sign
    dw1 = 1e-3 * (1.0 + (np.arange(grid.size) - 5.0) ** 2)
    kappa = math.sqrt(grid[5] * pmax)

    def candidates(dip):
        dw1[5] = dip * kappa * 2.0
        return _tangency_candidates(step, grid, np.array([w1, dw1]), 0.1, DEFAULT_CONFIG,
                                    DEFAULT_RESIDUAL_TOL, 11, [], 1e-6)

    (pt,) = candidates(0.5 * DEFAULT_RESIDUAL_TOL)
    assert pt.flagged and pt.alpha == grid[5]
    assert candidates(1.01 * DEFAULT_RESIDUAL_TOL) == []


def test_scaled_residual_array_matches_scalar(bump):
    alphas = np.array([-150.0, -3.5, 0.0, 0.25, 17.0, 199.9])
    states = shoot_family(bump, alphas).states
    rho = scaled_residual(bump, alphas, states[0], states[1])
    assert isinstance(rho, np.ndarray) and rho.shape == alphas.shape
    for i, a in enumerate(alphas):
        one = scaled_residual(bump, float(a), float(states[0, i]), float(states[1, i]))
        assert isinstance(one, float) and one == rho[i]


def test_halving_pass_refines_next_to_a_root_below_a_grid_point(step, monkeypatch):
    # D has a root just below the grid point 1.0 (inside the merge
    # tolerance) and two roots in the coarse cell [1, 2], which the coarse
    # grid cannot see; the half cells [1, 1.5] and [1.5, 2] hold one each
    from pointbarrier import resonance

    r1, r2, r3 = 1.0 - 1e-7, 1.3, 1.8

    class Shots:
        def __init__(self, alphas):
            alphas = np.asarray(alphas, dtype=float)
            self.states = np.array([np.ones_like(alphas), (alphas - r1) * (alphas - r2) * (alphas - r3)])

    monkeypatch.setattr(resonance, "shoot_family", lambda p, alphas, cfg=None: Shots(alphas))
    grid = np.linspace(0.0, 3.0, 4)
    miss = Shots(grid).states[1]
    (known,) = resonance._refine(step, resonance.sign_change_brackets(grid, miss), 1.0, None)
    assert known == pytest.approx(r1, abs=1e-12)
    extra = resonance._half_step_roots(step, grid, miss, [known], 1.0, None)
    assert extra == pytest.approx([r2, r3], abs=1e-12)


@pytest.mark.parametrize("lo, hi, step_", [(-200.0, 200.0, 0.1), (-1e-05, 3.0, 0.1),
                                            (0.3, 100.0, 0.7), (-60.0, 60.0, 1.3)])
def test_half_grid_even_points_are_the_coarse_grid(lo, hi, step_):
    from pointbarrier.resonance import _grid

    grid = _grid(lo, hi, step_)
    half = np.linspace(lo, hi, 2 * grid.size - 1)
    assert half[::2].tobytes() == grid.tobytes()

import math

import numpy as np
import pytest
from conftest import bisect_oracle, dop853_family
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pointbarrier import profiles, resonance
from pointbarrier.errors import NotInResonanceSetError
from pointbarrier.experiments import even_counterexample_profile
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
    # the coarse cell [0, 30] holds the first root, but D vanishes at its
    # left end (the double zero at 0), so it shows no sign change; the
    # index rises by one across it, so it is halved until the root shows
    # its own (and no warning is issued: warnings are errors in this suite)
    k1, k2 = kappa_roots
    pts = resonance_scan(step, 0.0, 60.0, 30.0)
    assert [pt.alpha for pt in pts] == pytest.approx([0.0, k1 * k1, k2 * k2], abs=1e-7)
    assert not any(pt.flagged for pt in pts)


def test_scan_input_validation(step):
    with pytest.raises(ValueError):
        resonance_scan(step, 1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        resonance_scan(step, 0.0, 1.0, -0.5)


def test_halving_rescan_recovers_two_roots_in_one_cell(step, kappa_roots):
    # the cell [10, 60] holds both 15.42 and 49.96, so D has the same sign
    # at its ends but the index rises by 2; the cell [60, 110] holds one
    k1, k2 = kappa_roots
    k3 = bisect_oracle(lambda k: math.tanh(k) - math.tan(k), 3 * math.pi + 0.2, 3.5 * math.pi - 0.2)
    pts = resonance_scan(step, 10.0, 110.0, 50.0)
    alphas = [pt.alpha for pt in pts]
    assert len(alphas) == 3 and not any(pt.flagged for pt in pts)
    for a, k in zip(alphas, (k1, k2, k3)):
        assert a == pytest.approx(k * k, abs=1e-7)


def test_scaled_residual_array_matches_scalar(bump):
    alphas = np.array([-150.0, -3.5, 0.0, 0.25, 17.0, 199.9])
    states = shoot_family(bump, alphas).states
    rho = scaled_residual(bump, alphas, states[0], states[1])
    assert isinstance(rho, np.ndarray) and rho.shape == alphas.shape
    for i, a in enumerate(alphas):
        one = scaled_residual(bump, float(a), float(states[0, i]), float(states[1, i]))
        assert isinstance(one, float) and one == rho[i]


# -- the Neumann index ---------------------------------------------------------

def _step_resonances(t_max):
    """|alpha| of the step resonances up to ``t_max``: squares of the zeros
    of step_h, one on each (n pi, n pi + pi/2), found by plain bisection."""
    g = lambda k: math.tanh(k) - math.tan(k)
    out, n = [], 1
    while (n * math.pi) ** 2 < t_max:
        k = bisect_oracle(g, n * math.pi + 1e-3, (n + 0.5) * math.pi - 1e-9)
        if k * k <= t_max:
            out.append(k * k)
        n += 1
    return np.array(out)


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_index_counts_the_closed_form_step_roots(step, side):
    # N(t) = 1 + the number of resonances in (0, t] on either side: the
    # constants at alpha = 0 are the one level <= 0 until the first one
    ts = np.linspace(0.0, 400.0, 1601)
    _, counts = resonance._counted(step, side, None)(ts)
    roots = _step_resonances(400.0)
    assert roots.size == 6
    assert counts.tolist() == (1 + np.searchsorted(roots, ts, side="right")).tolist()


@pytest.mark.parametrize("lo, hi, step_", [(-60.0, 0.0, 0.1), (-60.0, 0.0, 30.0),
                                            (-110.0, -10.0, 50.0), (-200.0, 200.0, 0.1),
                                            (-60.0, 60.0, 1.3)])
def test_counted_scan_finds_every_closed_form_step_root(step, lo, hi, step_):
    # the negative mirrors of the two coarse windows above: a root in a
    # cell ending at the double zero at 0, and two roots in one cell
    t = _step_resonances(max(-lo, hi))
    want = np.sort(np.concatenate((-t, [0.0], t)))
    want = want[(lo <= want) & (want <= hi)]
    pts = resonance_scan(step, lo, hi, step_)
    assert [pt.alpha for pt in pts] == pytest.approx(want.tolist(), abs=1e-7)
    assert not any(pt.flagged for pt in pts)


def _dop853_miss(p, alpha):
    segs = [FamilySegment(s.a, s.b, 0.0, s) for s in p.segments]
    return float(dop853_family(segs, [alpha], np.array([1.0, 0.0]))[0][1, 0])


def test_near_degenerate_even_pair_is_found():
    # double-well tunnelling: two resonances 4.7e-3 apart with the same
    # sign of D on either side of the pair, so no 0.1 grid sees them
    even = even_counterexample_profile()
    pts = resonance_scan(even, 100.0, 110.0, 0.1)
    assert len(pts) == 2
    f = lambda a: _dop853_miss(even, a)
    want = [bisect_oracle(f, 106.86, 106.8658, iters=24),
            bisect_oracle(f, 106.8658, 106.87, iters=24)]
    assert [pt.alpha for pt in pts] == pytest.approx(want, abs=1e-7)
    assert [abs(pt.theta) for pt in pts] == pytest.approx([1.0, 1.0], abs=1e-8)
    assert not any(pt.flagged for pt in pts)


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(["step", "odd_cubic", "bump", "even_quadratic"]),
       side=st.sampled_from([-1.0, 1.0]),
       ts=st.lists(st.floats(0.0, 400.0), min_size=2, max_size=40))
def test_index_never_decreases_in_the_coupling_size(name, side, ts):
    p = (even_counterexample_profile() if name == "even_quadratic"
         else profiles.builtin("asymmetric_bump" if name == "bump" else name, {}))
    _, counts = resonance._counted(p, side, None)(np.sort(ts))
    assert np.all(np.diff(counts) >= 0), counts


def test_constant_profile_resonances():
    # -w'' + alpha w = lambda w has Neumann levels alpha + (n pi / 2)^2 and
    # eigenfunctions cos(n pi (xi + 1) / 2): resonances at -(n pi / 2)^2
    # with theta = (-1)^n; the ground level leaves 0 upwards for alpha > 0
    const = profiles.Profile((profiles.Segment(-1.0, 1.0, (1.0,)),), label="constant")
    pts = resonance_scan(const, -30.0, 30.0, 0.1)
    want = [-((n * math.pi / 2) ** 2) for n in (3, 2, 1)] + [0.0]
    assert [pt.alpha for pt in pts] == pytest.approx(want, abs=1e-7)
    assert [pt.theta for pt in pts] == pytest.approx([-1.0, 1.0, -1.0, 1.0], abs=1e-8)


def _tilted_miss(alpha):
    """Closed-form D(alpha) of 2 on (-1, 0), -1 on (0, 1): exact transfer
    matrices of w'' = alpha profile w over the two unit segments."""
    Y = np.array([1.0, 0.0])
    for c in (2.0, -1.0):
        q = alpha * c
        k = math.sqrt(abs(q))
        if q > 0:
            T = [[math.cosh(k), math.sinh(k) / k], [k * math.sinh(k), math.cosh(k)]]
        elif q < 0:
            T = [[math.cos(k), math.sin(k) / k], [-k * math.sin(k), math.cos(k)]]
        else:
            T = [[1.0, 1.0], [0.0, 1.0]]
        Y = np.array(T) @ Y
    return Y[1]


@pytest.mark.parametrize("lo, hi, step_", [(-30.0, 30.0, 0.1), (-45.3, 61.7, 0.25),
                                            (-5.0, 100.0, 1.0)])
def test_nonzero_mean_profile_straddling_zero(lo, hi, step_):
    tilted = profiles.Profile((profiles.Segment(-1.0, 0.0, (2.0,)),
                               profiles.Segment(0.0, 1.0, (-1.0,))), label="tilted_step")
    grid = np.linspace(lo, hi, 20001)
    miss = np.array([_tilted_miss(a) for a in grid])
    flips = np.flatnonzero((miss[:-1] < 0) != (miss[1:] < 0))
    # m0 = 1, so alpha = 0 is a simple zero of D, among the flips
    roots = [bisect_oracle(_tilted_miss, grid[i], grid[i + 1]) for i in flips]
    want = sorted(0.0 if abs(r) < 1e-6 else r for r in roots)
    assert len(want) >= 4
    pts = resonance_scan(tilted, lo, hi, step_)
    assert [pt.alpha for pt in pts] == pytest.approx(want, abs=1e-7)

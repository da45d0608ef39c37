import math

import numpy as np
import pytest
from conftest import (
    bisect_oracle,
    collocation_resonances,
    dop853_family,
    phantom_count,
    spy_shots,
    step_h,
    step_theta,
    taylor_shot,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pointbarrier import profiles, resonance, spectra
from pointbarrier.errors import NotInResonanceSetError, NumericsError, StepSizeUnderflowError
from pointbarrier.experiments import even_counterexample_profile
from pointbarrier.ivp import FamilySegment
from pointbarrier.rootfind import resolve_cells, sign_change
from pointbarrier.resonance import (
    coupling_theta,
    eigenfunction,
    resonance_scan,
    scaled_residual,
    shoot,
    shoot_family,
)


def test_shoot_at_zero_coupling(step, odd_cubic, bump):
    # constants solve the cell equation: D(0) = 0 and theta = 1
    for p in (step, odd_cubic, bump):
        w1, dw1 = shoot(p, 0.0)
        assert w1 == pytest.approx(1.0, abs=1e-12)
        assert dw1 == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("window", [(-20.0, 20.0), (0.0, 20.0), (-20.0, 0.0)])
def test_the_zero_row_of_a_scan_is_the_shot_at_zero(step, odd_cubic, bump, window):
    # a scan inserts alpha = 0 without shooting it; the row must be the
    # resonance point its shot gives, (1, 0) exactly, bit for bit
    want = resonance.ResonancePoint(0.0, 1.0, 0.0)
    for p in (step, odd_cubic, bump, even_counterexample_profile()):
        (row,) = [pt for pt in resonance_scan(p, *window) if pt.alpha == 0.0]
        shot = resonance._point(p, 0.0, None, resonance.DEFAULT_RESIDUAL_TOL)
        assert row == shot == want
        assert [math.copysign(1.0, v) for v in (row.alpha, row.theta, row.residual)] == [1.0] * 3


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
    xi, w = eigenfunction(step, pt.alpha)
    assert xi[0] == -1.0 and xi[-1] == 1.0
    assert w[0] == pytest.approx(1.0, abs=1e-12)  # w(-1) = 1 normalization
    assert w[-1] == pytest.approx(pt.theta, rel=1e-10)
    assert pt.residual <= 1e-9


def test_scan_samples_no_eigenfunction(monkeypatch, step, bump):
    # a scan returns alpha, theta, residual and flag only: no shot of it
    # records samples, which only ``eigenfunction`` asks for
    propagate, sampled = resonance.propagate_family, []

    def spy(*args, **kwargs):
        sampled.append(kwargs.get("samples") is not None)
        return propagate(*args, **kwargs)

    monkeypatch.setattr(resonance, "propagate_family", spy)
    resonance_scan(step, -20.0, 20.0, 0.1)
    resonance_scan(bump, -60.0, 0.0, 0.1)
    assert sampled and not any(sampled)


def test_theta_rejects_non_resonant(step):
    with pytest.raises(NotInResonanceSetError):
        coupling_theta(step, 5.0)


def test_a_shot_that_lost_w1_is_flagged(step):
    # the step root near -518.771 has theta = cos k / cosh k of about
    # -1.8e-10, but its shot ends in exactly (0, 0): the residual reads 0,
    # and only theta = 0, impossible at a resonance, shows the loss
    pts = resonance_scan(step, -600.0, -500.0, 1.0)
    lost = [pt for pt in pts if pt.theta == 0.0]
    assert len(lost) == 1 and lost[0].flagged and lost[0].residual == 0.0
    assert step_theta(lost[0].alpha) == pytest.approx(-1.815e-10, rel=1e-3)
    assert all(pt.theta != 0.0 for pt in pts if not pt.flagged)
    with pytest.raises(NotInResonanceSetError, match=r"the shot lost w\(1\)"):
        coupling_theta(step, lost[0].alpha)


def test_theta_at_zero(step, bump, odd_cubic):
    # the shot at zero coupling is exact on constant and meshed segments alike
    for profile in (step, bump, odd_cubic):
        pt = coupling_theta(profile, 0.0)
        assert (pt.alpha, pt.theta, pt.residual) == (0.0, 1.0, 0.0)


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


def test_endpoint_shots_take_the_lobes_lane_by_lane(monkeypatch, step, bump):
    # shoot_family carries each polynomial lobe on the Runge-Kutta kernel: a
    # family of 2-6 couplings in one-member lanes, one per coupling and
    # lobe, of 1 or of 7 and more in one lane per lobe; the step profile,
    # constant throughout, makes no RK call
    calls = []

    def spy(wp, ms, x0, x1, Y, *args, kernel=resonance._rk_span):
        calls.append((x0, x1, len(ms), Y.shape[1]))
        return kernel(wp, ms, x0, x1, Y, *args)

    monkeypatch.setattr(resonance, "_rk_span", spy)
    lobes = [(-1.0, 0.0), (0.0, 0.5)]
    for n in (1, 2, 6, 7, 12):
        calls.clear()
        shoot_family(bump, np.linspace(-50.0, 50.0, n))
        if 1 < n <= 6:
            want = [(a, b, 1, 1) for a, b in lobes for _ in range(n)]
        else:
            want = [(a, b, n, n) for a, b in lobes]
        assert calls == want
    calls.clear()
    shoot_family(step, np.linspace(-50.0, 50.0, 7))
    resonance_scan(step, -20.0, 20.0)
    assert calls == []


# endpoint shots of three bump couplings, frozen from the one-member
# scalar Runge-Kutta kernel that the lockstep kernel replaced: the
# unflagged root at -44.446 (ill-conditioned theta), a root at 82.611, and
# a counted root at -152.305 that the endpoint shot flags
_BUMP_SHOTS = {
    -152.30544931934: ("0x1.9b2ec3d61c003p-15", "-0x1.8c7c866d0b96cp-20"),
    -44.44583934727562: ("0x1.223f16d285555p-8", "-0x1.afc68d4f44e04p-28"),
    82.61132888044321: ("0x1.290a6f171b7c5p+14", "-0x1.940f328800004p-21"),
}


@pytest.mark.parametrize("alpha", sorted(_BUMP_SHOTS))
def test_one_member_shot_is_frozen_bitwise(bump, alpha):
    # a one-member lane steps exactly as the scalar kernel it replaced
    assert tuple(v.hex() for v in shoot(bump, alpha)) == _BUMP_SHOTS[alpha]


# a lane of 7 on [-200, 200], frozen from the kernel before its float path
# was spelled out (the profile unrolled, the builtins max and abs replaced
# by comparisons): rows w(1) and w'(1), the member at 0 exactly (1, 0)
_BUMP_LANE = (
    ("-0x1.98b1cd8ec0cf6p+18", "0x1.3dfd59e9d2b2fp+15", "-0x1.75243aeac81aep+11",
     "0x1.0000000000000p+0", "0x1.e0b5e2c3aea3dp+14", "-0x1.f991aad939dd1p+20",
     "0x1.a2ed5d6b004b5p+24"),
    ("-0x1.62905f84f1a4fp+19", "0x1.0e77ddc9e5f42p+16", "-0x1.30dc02acf6eddp+12",
     "0x0.0p+0", "0x1.6c69fb50c5463p+15", "-0x1.bced286f20276p+21",
     "0x1.bac775bf2321cp+25"),
)


def test_a_lane_of_seven_is_frozen_bitwise(bump):
    # the members of one lane share one step sequence, so this pins the
    # float path's stages, error norm and controller, not one member alone
    states = shoot_family(bump, np.linspace(-200.0, 200.0, 7)).states
    assert tuple(tuple(float(v).hex() for v in row) for row in states) == _BUMP_LANE


@pytest.mark.parametrize("degree", range(7))
def test_the_unrolled_profile_rounds_as_the_segment(degree):
    # the kernel's wp is a _HORNER closure where one unrolls the segment's
    # coefficient count and the segment itself elsewhere; the closure must
    # round as Segment.__call__ does, the sign of a zero included, so the
    # leading 0.0 * x stays: a zero or negative-zero top coefficient, or
    # all coefficients -0.0, tell it apart at x = +-0.0 and at the ends
    assert set(resonance._HORNER) <= set(range(1, 8))
    rng = np.random.default_rng(degree)
    n = degree + 1
    sets = [tuple(rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)) for _ in range(4)]
    sets += [(*c[:-1], top) for c, top in zip(sets, (0.0, -0.0))]
    sets.append((-0.0,) * n)
    for a, b in ((-1.0, 0.0), (0.0, 0.5), (-1.0, 1.0), (-0.75, -0.25)):
        xs = [a, b, 0.0, -0.0, *rng.uniform(a, b, 40).tolist()]
        for coeffs in sets:
            seg = profiles.Segment(a, b, tuple(float(c) for c in coeffs))
            wp = resonance._HORNER.get(n, lambda *_: seg)(*seg.coeffs)
            assert [wp(x).hex() for x in xs] == [seg(x).hex() for x in xs], coeffs


@pytest.fixture(params=["floats", "arrays"])
def stage_path(request, monkeypatch):
    # every lane on the float path, or every lane on the array path
    monkeypatch.setattr(resonance, "_RK_BLOCK", 10**9 if request.param == "floats" else 1)
    return request.param


def test_a_lane_is_invariant_under_a_permutation_of_its_members(bump, stage_path):
    # one lane of 7 shares its step sequence, decided by the largest error
    # of its members, so the order of the members changes no bit
    alphas = np.linspace(-200.0, 200.0, 7)
    perm = np.array([3, 0, 6, 2, 5, 1, 4])
    lane = shoot_family(bump, alphas).states
    assert np.array_equal(shoot_family(bump, alphas[perm]).states, lane[:, perm])
    # and each member stays within 1e-9 of its own one-member shot,
    # relative to the size of its state
    for j, a in enumerate(alphas):
        alone = shoot_family(bump, [a]).states[:, 0]
        assert np.all(np.abs(lane[:, j] - alone) <= 1e-9 * np.abs(alone).max())


def test_a_stiff_member_underflows_its_whole_lane(bump, stage_path):
    # at 1e6 the member cannot keep the error test above the step floor,
    # and the lane it shares with six tame members fails with it
    with pytest.raises(StepSizeUnderflowError):
        shoot_family(bump, [*np.linspace(-50.0, 50.0, 6), 1e6])


@pytest.mark.parametrize("n", [1, 7, 30])
def test_floats_and_arrays_step_a_lane_bitwise_alike(monkeypatch, bump, n):
    # the two stage paths do the same arithmetic in the same order, so the
    # lane-size cut-off between them changes no bit of any member
    alphas = np.linspace(-700.0, 700.0, n)
    shots = {}
    for block in (10**9, 1):
        monkeypatch.setattr(resonance, "_RK_BLOCK", block)
        shots[block] = shoot_family(bump, alphas).states
    assert np.array_equal(shots[1], shots[10**9])


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
    with pytest.raises(ValueError, match="more than 2\\^53"):
        resonance_scan(step, 0.0, 1.0, 1e-16)


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
    _, counts = resonance._neumann_index(step, None)(side * ts, True)
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


@pytest.mark.parametrize("t", [1e4, 1e5, 1e6, 1e7])
def test_index_at_large_couplings_meets_the_weyl_count(bump, t):
    # N(alpha) against (1/pi) int sqrt(|alpha| max(-sgn(alpha) profile, 0)):
    # the right lobe 64 xi (1/2 - xi) of -profile on (0, 1/2) gives
    # sqrt(alpha) / 4, the left lobe 8 xi (1 + xi) of profile on (-1, 0)
    # sqrt(|alpha|) / (2 sqrt 2); the matching shots are rescaled, so no
    # state leaves the range of a double
    _, counts = resonance._neumann_index(bump, None)(np.array([t, -t]), True)
    weyl = [math.sqrt(t) / 4.0, math.sqrt(t) / (2.0 * math.sqrt(2.0))]
    assert np.abs(counts - weyl).max() <= 1.0, (counts, weyl)


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(["step", "odd_cubic", "bump", "even_quadratic"]),
       side=st.sampled_from([-1.0, 1.0]),
       ts=st.lists(st.floats(0.0, 400.0), min_size=2, max_size=40))
def test_index_never_decreases_in_the_coupling_size(name, side, ts):
    p = (even_counterexample_profile() if name == "even_quadratic"
         else profiles.builtin("asymmetric_bump" if name == "bump" else name))
    _, counts = resonance._neumann_index(p, None)(side * np.sort(ts), True)
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


def test_negative_side_shortfall_names_the_alpha_window(monkeypatch, step):
    # a phantom count rise at |alpha| = 45.05, where D keeps its sign: the
    # negative side counts one resonance more than show a sign change, and
    # the message names the window in alpha only, not in t = |alpha|
    want = len(resonance_scan(step, -60.0, -30.0))
    phantom_count(monkeypatch, 45.05)
    with pytest.raises(NumericsError) as info:
        resonance_scan(step, -60.0, -30.0)
    assert str(info.value) == (f"resonance scan of profile 'step' on [-60, -30]: the "
                               f"Neumann index counts {want + 1} resonances, but only {want} "
                               "show a sign change at the halving floor")


def test_a_pair_closer_than_1e_5_relative_is_bracketed():
    # 1 - 3 xi^2 resonates at a pair near 350.8957 only 4.2e-6 apart (1.2e-8
    # relative); its negation has the same pair at -350.8957
    p = even_counterexample_profile()
    neg = profiles.Profile((profiles.Segment(-1.0, 1.0, (-1.0, 0.0, 3.0)),), label="negated")
    pair = [pt.alpha for pt in resonance_scan(p, 350.0, 352.0)]
    assert pair == pytest.approx([350.895681689, 350.895685873], rel=0.0, abs=1e-8)
    mirrored = [pt.alpha for pt in resonance_scan(neg, -352.0, -350.0)]
    assert mirrored == pytest.approx([-a for a in reversed(pair)], rel=0.0, abs=1e-8)


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


# -- the refine of the asymmetric bump on [-200, 200] --------------------------

@pytest.fixture(scope="module")
def bump_scan():
    """The bump's scan of the hypothesis window, with the sizes of the
    families that ``_refine`` propagates."""
    refine, propagate = resonance._refine, resonance.propagate_family
    inside, sizes = [], []

    def counted_propagate(segs, m, *args, **kwargs):
        if inside:
            sizes.append(np.size(m))
        return propagate(segs, m, *args, **kwargs)

    def counted_refine(*args):
        inside.append(True)
        try:
            return refine(*args)
        finally:
            inside.pop()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resonance, "propagate_family", counted_propagate)
        mp.setattr(resonance, "_refine", counted_refine)
        pts = resonance_scan(profiles.builtin("asymmetric_bump"), -200.0, 200.0, 0.1)
    return pts, sizes


def test_bump_roots_straddle_an_independent_sign_change(bump_scan, bump):
    # every refined root, flagged or not, sits within 1e-7 of a zero of D
    # shot by DOP853 and by the decimal Taylor shot: D changes sign across
    # [r - 1e-7, r + 1e-7]
    pts, _ = bump_scan
    roots = np.array([pt.alpha for pt in pts if pt.alpha != 0.0])
    assert roots.size == 7
    ends = np.concatenate((roots - 1e-7, roots + 1e-7))
    segs = [FamilySegment(s.a, s.b, 0.0, s) for s in bump.segments]
    oracles = {
        "dop853": dop853_family(segs, ends, np.array([1.0, 0.0]))[0][1],
        "taylor": np.array([taylor_shot(bump, a, [1.0])[0, 1] for a in ends]),
    }
    for name, dw1 in oracles.items():
        left, right = dw1[:roots.size], dw1[roots.size:]
        assert np.all((left < 0.0) != (right < 0.0)), (name, roots, left, right)


def test_bump_eigenfunctions_meet_the_taylor_shot(bump_scan, bump):
    # the sampled eigenfunction of every confirmed root, against the decimal
    # Taylor shot at every tenth sample, relative to max |w|
    pts, _ = bump_scan
    confirmed = [pt.alpha for pt in pts if not pt.flagged]
    assert len(confirmed) == 6
    for alpha in confirmed:
        xi, w = eigenfunction(bump, alpha)
        ref = taylor_shot(bump, alpha, xi[::10])[:, 0]
        gap = np.max(np.abs(w[::10] - ref)) / np.max(np.abs(ref))
        assert gap <= 1e-9, (alpha, gap)


def test_taylor_shot_meets_the_step_closed_forms(step, kappa_roots):
    # theta at the positive step roots in [0, 200]; on the negative side
    # theta at a rounded root is ill-conditioned (the shot decays towards
    # xi = 1), so there D need only change sign across r +- 1e-7
    g = lambda k: math.tanh(k) - math.tan(k)
    kappas = [bisect_oracle(g, n * math.pi + 0.2, (n + 0.5) * math.pi - 0.2) for n in (1, 2, 3, 4)]
    assert kappas[:2] == list(kappa_roots)
    for k in kappas:
        assert k * k < 200.0
        w1 = taylor_shot(step, k * k, [1.0])[0, 0]
        assert w1 == pytest.approx(step_theta(k * k), rel=1e-12)
        left, right = (taylor_shot(step, -k * k + d, [1.0])[0, 1] for d in (-1e-7, 1e-7))
        assert (left < 0.0) != (right < 0.0), (k, left, right)


def test_collocation_meets_the_step_closed_forms_and_itself(step, bump):
    t = _step_resonances(200.0)
    want = np.concatenate((-t[::-1], t))
    assert want.size == 8
    got = collocation_resonances(step, -200.0, 200.0, 48)
    assert got == pytest.approx(want, rel=1e-8, abs=0.0)
    for p in (step, bump):  # N against 2N points per segment
        coarse, fine = (collocation_resonances(p, -200.0, 200.0, n) for n in (48, 96))
        assert coarse == pytest.approx(fine, rel=1e-8, abs=0.0)


def test_every_collocation_bump_root_has_a_scan_point(bump_scan, bump):
    # flagged or not: the pair near -152.305 and -90.370 is flagged today
    pts, _ = bump_scan
    scanned = np.array([pt.alpha for pt in pts])
    roots = collocation_resonances(bump, -200.0, 200.0, 48)
    assert roots.size == 7
    for r in roots:
        assert np.min(np.abs(scanned - r)) <= 1e-7, (r, scanned)


def test_bump_candidates_stay_flagged(bump_scan):
    pts, _ = bump_scan
    flagged = [pt.alpha for pt in pts if pt.flagged]
    assert flagged == pytest.approx([-152.30544931934, -90.369994899977], abs=1e-7)


def test_bump_refine_takes_a_handful_of_shots(bump_scan):
    # the secant refine needs 8 family propagations here, 45 by bisection
    _, sizes = bump_scan
    assert 0 < len(sizes) <= 12, sizes


# -- the sparse index bisection of a side ----------------------------------------

def _full_grid(lo, hi, n, side):
    """The side's points of np.linspace(lo, hi, n + 1) as t = side *
    alpha, ascending, from 0 when the side's part of the window reaches
    beyond it (None for a side without points)."""
    ts = np.sort(side * np.linspace(lo, hi, n + 1))
    if ts[-1] <= 0.0:
        return None
    return np.concatenate(([0.0], ts[ts > 0.0])) if ts[0] < 0.0 else ts


@pytest.mark.parametrize("lo, hi, scan_step", [
    (-200.0, 200.0, 0.1), (-30.0, 30.0, 0.2), (0.0, 30.0, 1e-5), (-60.0, 0.0, 0.1),
    (-45.3, 61.7, 0.25), (10.0, 110.0, 50.0), (-3.0, -0.0, 0.3), (-7.3, 0.1, 0.013),
    (-1e4, 1e4, 0.37), (1e307, 1.5e307, 1e306),
])
def test_side_grid_is_linspace_bitwise(lo, hi, scan_step):
    # every point from its index alone, signed zeros included
    n = max(1, math.ceil((hi - lo) / scan_step))
    for side in (-1.0, 1.0):
        size, t = resonance._side_grid(lo, hi, n, side)
        want = _full_grid(lo, hi, n, side)
        if want is None:
            assert size == 0
            continue
        assert size == want.size
        assert t(np.arange(size)).tobytes() == want.tobytes()


@pytest.mark.parametrize("name, lo, hi, scan_step", [
    ("step", -200.0, 200.0, 0.1),
    ("asymmetric_bump", -200.0, 200.0, 0.1),
    ("odd_cubic", -200.0, 200.0, 0.1),
    ("even_quadratic", -30.0, 30.0, 0.2),
])
def test_side_brackets_are_those_of_the_full_grid(monkeypatch, name, lo, hi, scan_step):
    # the bisection shoots only the points that locate the cells where the
    # index rises or D changes sign, and finds the brackets that the value
    # halving finds on those cells of the full grid, which this test shoots
    # point by point as the reference: each run of neighbouring such cells
    # is a grid of its own, whose every range is split down to one cell
    p = even_counterexample_profile() if name == "even_quadratic" else profiles.builtin(name)
    n = max(1, math.ceil((hi - lo) / scan_step))
    members = []
    for side in (-1.0, 1.0):
        ts = _full_grid(lo, hi, n, side)
        index = resonance._neumann_index(p, None)
        fvec = lambda ts, with_counts=False: index(side * ts, with_counts)
        fs, cs = fvec(ts, True)
        live = np.concatenate(([False], (cs[1:] > cs[:-1]) | sign_change(fs[:-1], fs[1:]),
                               [False]))
        starts, stops = np.flatnonzero(live[1:] & ~live[:-1]), np.flatnonzero(live[:-1] & ~live[1:])
        want: list = []
        for i, j in zip(starts, stops):  # the cells i..j-1, the points i..j
            ends = ((fs[i:i + 1], cs[i:i + 1]), (fs[j:j + 1], cs[j:j + 1]))
            want += resolve_cells(fvec, ts[i:j + 1].take, j - i + 1, ends=ends)[0]
        want = [(a, b) if side > 0.0 else (-b, -a) for a, b in want]
        assert want
        members.clear()
        with monkeypatch.context() as mp:
            # the counted shots are the matching problem's, in spectra
            spy_shots(mp, spectra, lambda chain, m: members.append(np.size(m)))
            got = resonance._side_brackets(p, side, *resonance._side_grid(lo, hi, n, side),
                                           0.0, None)
        assert got == want
        assert 0 < sum(members) < ts.size / 10
        if name == "asymmetric_bump":
            assert sum(members) <= 64, members

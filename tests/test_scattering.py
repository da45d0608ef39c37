import cmath
import math

import numpy as np
import pytest

from conftest import (match_plane_waves, step_h, step_scatter_decimal, step_scatter_exact,
                      transmission_limit)

from pointbarrier.resonance import resonance_scan
from pointbarrier.scattering import scatter_sweep


def test_free_barrier(step):
    r = scatter_sweep(step, 0.0, [(0.1, 1.0)])[0]
    assert abs(r.R) < 1e-12
    assert abs(r.T - 1.0) < 1e-12


def test_exact_cross_check(step):
    rn = scatter_sweep(step, 4.0, [(0.05, 1.0)])[0]
    re = step_scatter_exact(2.0, 0.05, 1.0)
    assert abs(rn.R - re.R) <= 1e-9
    assert abs(rn.T - re.T) <= 1e-9


def test_constant_segments_take_one_exact_step(step, bump, monkeypatch):
    # a constant profile segment is one exact step: its mesh, cached like
    # any other, is one interval, and scatter_sweep is the two-propagator
    # product of the closed form
    from pointbarrier import ivp

    monkeypatch.setattr(ivp, "_MESH_CACHE", ivp._MeshCache())
    for alpha in (0.5, 4.0, 12.5, 20.0):
        for eps in (1e-3, 0.05, 0.2):
            for k in (0.3, 1.0, 2.9):
                rn = scatter_sweep(step, alpha, [(eps, k)])[0]
                re = step_scatter_exact(math.sqrt(alpha), eps, k)
                assert abs(rn.R - re.R) <= 1e-13
                assert abs(rn.T - re.T) <= 1e-13
    meshes = list(ivp._MESH_CACHE.values())
    assert len(meshes) == 4 * 2 and all(mesh.lo.size == 1 for mesh in meshes)

    meshes = []
    mesh_for = ivp._mesh_for

    def recorded(seg, cfg):
        meshes.append(mesh_for(seg, cfg))
        return meshes[-1]

    monkeypatch.setattr(ivp, "_mesh_for", recorded)
    scatter_sweep(bump, 17.0, [(0.01, 1.3)])
    assert [m.lo.size for m in meshes][-1] == 1  # the zero segment on (1/2, 1)
    assert min(m.lo.size for m in meshes[:-1]) > 1


@pytest.mark.parametrize("alpha", [0.0, 4.0, -4.0, 19.9, -19.9])
def test_sweep_members_equal_their_one_point_results(step, bump, odd_cubic, alpha):
    # bitwise: a point's amplitudes do not depend on the sweep that carries
    # it; the first point has eps k < 1e-3, so on a zero coefficient (alpha
    # = 0, or the bump's zero segment) _expm takes its series branch while
    # the other members of the family do not
    points = [(10.0 ** -3.5, 0.3)] + [(e, k) for e in (10.0 ** -2.2, 0.04, 0.2)
                                      for k in (0.3, 1.7, 3.0)]
    assert points[0][0] * points[0][1] < 1e-3
    # repeated points, and adjacent points of one weight (eps k)^2: their
    # members run in blocks of 2, 4 and 6 that share one transport each
    repeated = [(0.1, 2.0), (0.2, 1.0), (0.1, 2.0), (0.04, 0.3), (0.04, 0.3), (0.04, 0.3),
                (10.0 ** -3.5, 0.3), (0.04, 0.3)]
    assert (0.1 * 2.0) ** 2 == (0.2 * 1.0) ** 2
    for profile in (step, bump, odd_cubic):
        for pts in (points, repeated):
            sweep = scatter_sweep(profile, alpha, pts)
            assert [(r.alpha, r.eps, r.k) for r in sweep] == [(alpha, e, k) for e, k in pts]
            for r, (eps, k) in zip(sweep, pts):
                alone = scatter_sweep(profile, alpha, [(eps, k)])[0]
                assert r.R == alone.R and r.T == alone.T, (profile.label, eps, k)


def test_decimal_oracle_agrees_with_the_closed_form():
    # the two step oracles share no propagator code: floats and numpy on one
    # side, Decimal Taylor series and exp on the other
    for kappa, eps, k in [(2.0, 0.05, 1.0), (0.7, 0.2, 2.9), (4.4, 1e-3, 0.3)]:
        re = step_scatter_exact(kappa, eps, k)
        R, T = step_scatter_decimal(kappa * kappa, eps, k)
        assert abs(re.R - R) <= 1e-13
        assert abs(re.T - T) <= 1e-13


@pytest.mark.parametrize("alpha", [100.0, -100.0, 400.0, -400.0, 2500.0, -2500.0, 1e4, -1e4])
def test_strong_step_matches_the_decimal_oracle(step, alpha):
    # T = -2ik e^{-L} / D keeps its digits however strong the barrier: a
    # general 2x2 solve cancels two products of size |M|^2 and already errs
    # by 6e-8 relative at alpha = 100, where |T| is 6e-6
    points = [(0.1, 1.0), (0.02, 2.5), (1e-3, 0.7)]
    for r, (eps, k) in zip(scatter_sweep(step, alpha, points), points):
        R, T = step_scatter_decimal(alpha, eps, k)
        assert abs(r.T - T) <= 1e-12 * abs(T), (eps, k)
        assert abs(r.R - R) <= 1e-12, (eps, k)


def _dop853_amplitudes(p, alpha, eps, k):
    """R and T with the barrier matrix integrated by scipy's DOP853, segment
    by segment in xi = x / eps, and matched to plane waves at x = -+eps."""
    from scipy.integrate import solve_ivp

    tau2 = (eps * k) ** 2
    M = np.eye(2)
    for seg in p.segments:
        def rhs(xi, y, _seg=seg):
            q = alpha * _seg(xi) - tau2
            return [y[1], q * y[0], y[3], q * y[2]]

        sol = solve_ivp(rhs, (seg.a, seg.b), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                        rtol=1e-13, atol=1e-15)
        assert sol.success
        y = sol.y[:, -1]
        M = np.array([[y[0], y[2]], [y[1], y[3]]]) @ M
    M = np.diag([1.0, 1.0 / eps]) @ M @ np.diag([1.0, eps])  # (w, w') -> (y, y')
    return match_plane_waves(M, cmath.exp(1j * k * eps), cmath.exp(-1j * k * eps), 1j * k)


@pytest.mark.parametrize("alpha, eps, k", [
    (20.0, 1e-3, 1.0), (-20.0, 0.05, 2.7), (12.5, 0.2, 0.5), (-7.3, 1e-2, 3.0),
])
def test_bump_matches_an_independent_integrator(bump, alpha, eps, k):
    r = scatter_sweep(bump, alpha, [(eps, k)])[0]
    R_ref, T_ref = _dop853_amplitudes(bump, alpha, eps, k)
    assert abs(r.R - R_ref) <= 1e-9
    assert abs(r.T - T_ref) <= 1e-9


def test_unitarity_randomized(step, bump):
    rng = np.random.default_rng(23)
    for profile in (step, bump):
        for _ in range(20):
            alpha = rng.uniform(-20.0, 20.0)
            eps = 10.0 ** rng.uniform(-3, -0.7)
            k = rng.uniform(0.3, 3.0)
            r = scatter_sweep(profile, alpha, [(eps, k)])[0]
            assert abs(abs(r.R) ** 2 + abs(r.T) ** 2 - 1.0) <= 1e-10


def test_transmission_small_eps_formula(step):
    # T ~ 2 i eps k e^{-2 i eps k} / ((2 i eps k - h) cos k cosh k) with a
    # remainder of order (eps k)^2 relative; checked by self-convergence
    kappa, k = 2.0, 1.0
    h = step_h(kappa)
    diffs = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        r = step_scatter_exact(kappa, eps, k)
        Tref = (
            2j * eps * k * cmath.exp(-2j * eps * k)
            / ((2j * eps * k - h) * math.cos(kappa) * math.cosh(kappa))
        )
        diffs.append(abs(r.T - Tref))
        assert abs(r.T - Tref) <= 20.0 * (eps * k) ** 2 * abs(r.T)
    # halving eps shrinks the defect by ~8 (the remainder gains eps^2 on
    # top of the eps-sized amplitude)
    assert 5.0 <= diffs[0] / diffs[1] <= 11.0
    assert 5.0 <= diffs[1] / diffs[2] <= 11.0


def test_off_resonance_quadratic_decay(step):
    kappa, k = 2.0, 1.0
    epss = np.geomspace(1e-1, 1e-3, 7)
    t2 = [scatter_sweep(step, kappa**2, [(e, k)])[0].transmission_probability for e in epss]
    slope = np.polyfit(np.log(epss), np.log(t2), 1)[0]
    assert abs(slope - 2.0) <= 0.05
    # the eps^2 coefficient matches the closed form 4 k^2 / (h^2 cos^2 cosh^2)
    coeff = 4 * k * k / (step_h(kappa) ** 2 * math.cos(kappa) ** 2 * math.cosh(kappa) ** 2)
    assert t2[-1] / epss[-1] ** 2 == pytest.approx(coeff, rel=1e-3)


def test_on_resonance_plateau(step, alpha1, theta1, kappa_roots):
    k1 = kappa_roots[0]
    lim = transmission_limit(theta1)
    r = step_scatter_exact(k1, 1e-3, 1.0)
    assert r.transmission_probability == pytest.approx(
        1.0 / (math.cos(k1) ** 2 * math.cosh(k1) ** 2), rel=1e-6
    )
    assert r.transmission_probability == pytest.approx(lim, rel=1e-4)
    # the plateau error vanishes at least linearly in eps (here the linear
    # coefficient of the step profile cancels, so the fit is ~2)
    epss = [0.1, 0.05, 0.025, 0.0125]
    errs = [
        abs(step_scatter_exact(k1, e, 1.0).transmission_probability - lim) for e in epss
    ]
    slope = np.polyfit(np.log(epss), np.log(errs), 1)[0]
    assert slope >= 0.8


def test_plateau_k_independent(step, alpha1, theta1):
    vals = [r.transmission_probability
            for r in scatter_sweep(step, alpha1, [(1e-3, k) for k in (0.5, 1.0, 2.0)])]
    assert max(vals) - min(vals) <= 1e-3
    for v in vals:
        assert v == pytest.approx(transmission_limit(theta1), abs=1e-2)


def test_limit_law_for_general_profile(bump):
    # the resonance-limit law is not specific to the step profile
    pts = [p for p in resonance_scan(bump, 0.5, 30.0, 0.25) if not p.flagged]
    assert pts, "expected a positive resonance of the asymmetric bump below 30"
    pt = pts[0]
    r = scatter_sweep(bump, pt.alpha, [(1e-3, 1.0)])[0]
    assert r.transmission_probability == pytest.approx(
        transmission_limit(pt.theta), rel=1e-2
    )


@pytest.mark.parametrize("alpha, point, name", [
    (math.nan, (0.1, 1.0), "alpha"), (math.inf, (0.1, 1.0), "alpha"),
    (-math.inf, (0.1, 1.0), "alpha"), (1.0, (math.nan, 1.0), "eps"),
    (1.0, (math.inf, 1.0), "eps"), (1.0, (0.1, math.inf), "k"), (1.0, (0.1, math.nan), "k"),
    (1.0, (0.1, -math.inf), "k"),
])
def test_non_finite_input_is_rejected_before_any_shot(step, bump, monkeypatch, alpha, point,
                                                      name):
    # the boundary names what is not finite; a NaN or an infinity used to
    # reach the propagation and fail there as a numerical error
    from pointbarrier import scattering

    def shot(*args, **kwargs):
        raise AssertionError("a non-finite input reached the propagation")

    monkeypatch.setattr(scattering, "propagate_family", shot)
    for profile in (step, bump):
        with pytest.raises(ValueError, match=rf"finite, got .*{name} = |{name} must be finite"):
            scatter_sweep(profile, alpha, [(0.1, 0.5), point])
    # a finite (eps k)^2 past a double keeps its own message
    with pytest.raises(ValueError, match=r"\(eps k\)\^2 overflows at eps = 1e\+200"):
        scatter_sweep(step, 1.0, [(1e200, 1e200)])


def test_input_validation(step):
    with pytest.raises(ValueError):
        scatter_sweep(step, 1.0, [(0.1, 0.0)])[0]
    with pytest.raises(ValueError):
        scatter_sweep(step, 1.0, [(0.0, 1.0)])[0]
    # a bad point anywhere in a sweep is rejected
    with pytest.raises(ValueError, match="positive"):
        scatter_sweep(step, 1.0, [(0.1, 1.0), (0.1, -1.0)])

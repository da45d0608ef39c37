import math

import numpy as np
import pytest
from conftest import dop853_family

from pointbarrier.errors import StepSizeUnderflowError
from pointbarrier.ivp import (
    FamilySegment,
    SolverConfig,
    constant_propagator,
    propagate_family,
    unit_wronskian,
)


def _fundamental(q, a, b, breakpoints=(), cfg=None):
    """Fundamental matrix of -u'' + q u = 0 from a to b, the way scatter
    builds it: one segment per piece between breakpoints, the family
    m = (0, 0) started from the identity, then projected onto det = 1."""
    direction = 1.0 if b > a else -1.0
    inner = sorted((x for x in breakpoints if (x - a) * direction > 0 and (b - x) * direction > 0),
                   key=lambda x: x * direction)
    nodes = [a, *inner, b]
    segs = [FamilySegment(lo, hi, q, 0.0) for lo, hi in zip(nodes, nodes[1:])]
    return unit_wronskian(propagate_family(segs, np.zeros(2), np.eye(2), cfg).states)


def test_constant_solution():
    M = _fundamental(lambda x: 0.0, 0.0, 1.0)
    u, du = M @ [1.0, 0.0]
    assert u == pytest.approx(1.0, abs=1e-12)
    assert du == pytest.approx(0.0, abs=1e-12)


def test_trigonometric_closed_form():
    # -u'' - u = 0 with (1, 0): u = cos x
    u, du = _fundamental(lambda x: -1.0, 0.0, math.pi / 2) @ [1.0, 0.0]
    assert u == pytest.approx(0.0, abs=1e-10)
    assert du == pytest.approx(-1.0, abs=1e-10)


def test_hyperbolic_closed_form():
    u, du = _fundamental(lambda x: 1.0, 0.0, 1.0) @ [0.0, 1.0]
    assert u == pytest.approx(math.sinh(1.0), rel=1e-10)
    assert du == pytest.approx(math.cosh(1.0), rel=1e-10)


def test_free_propagator():
    M = _fundamental(lambda x: 0.0, 0.0, 2.5)
    assert np.allclose(M, [[1.0, 2.5], [0.0, 1.0]], atol=1e-12)


def test_constant_propagator_closed_forms():
    kappa = 1.7
    M = constant_propagator(kappa**2, 1.0)
    ref = np.array(
        [
            [math.cosh(kappa), math.sinh(kappa) / kappa],
            [kappa * math.sinh(kappa), math.cosh(kappa)],
        ]
    )
    assert np.allclose(M, ref, rtol=1e-14)
    w = 3.0
    M = constant_propagator(-w * w, 0.7)
    ref = np.array(
        [
            [math.cos(w * 0.7), math.sin(w * 0.7) / w],
            [-w * math.sin(w * 0.7), math.cos(w * 0.7)],
        ]
    )
    assert np.allclose(M, ref, rtol=1e-14)
    # series region joins the exact branches smoothly
    for c in (1e-9, -1e-9, 0.0):
        M = constant_propagator(c, 0.3)
        assert np.allclose(M, [[1.0, 0.3], [0.0, 1.0]], atol=1e-9)
    # scaled deep-hyperbolic branch stays finite and consistent
    M = constant_propagator(100.0, 10.0)  # cosh(100) ~ 1e43
    assert math.isfinite(M[0, 0]) and M[0, 0] > 1e42
    assert M[0, 0] == pytest.approx(math.cosh(100.0), rel=1e-12)


def _random_piecewise(rng):
    nodes = [0.0, *np.sort(rng.uniform(0.1, 0.9, size=2)), 1.0]
    pieces = []
    for a, b in zip(nodes, nodes[1:]):
        coeffs = rng.uniform(-8, 8, size=3)
        pieces.append((a, b, coeffs))

    def q(x):
        for a, b, c in pieces:
            if a <= x <= b:
                return c[0] + c[1] * x + c[2] * x * x
        return 0.0

    return q, [n for n in nodes[1:-1]]


def test_wronskian_conservation_property():
    rng = np.random.default_rng(11)
    cfg = SolverConfig()
    for _ in range(12):
        q, breaks = _random_piecewise(rng)
        M = _fundamental(q, 0.0, 1.0, breaks, cfg)
        assert abs(np.linalg.det(M) - 1.0) <= 10.0 * cfg.rel_tol


def test_composition_property():
    rng = np.random.default_rng(5)
    for _ in range(6):
        q, breaks = _random_piecewise(rng)
        b = rng.uniform(0.2, 0.8)
        M_full = _fundamental(q, 0.0, 1.0, breaks)
        M_1 = _fundamental(q, 0.0, b, breaks)
        M_2 = _fundamental(q, b, 1.0, breaks)
        assert np.allclose(M_2 @ M_1, M_full, atol=5e-8)


def test_reversal_property():
    rng = np.random.default_rng(17)
    for _ in range(6):
        q, breaks = _random_piecewise(rng)
        Mf = _fundamental(q, 0.0, 1.0, breaks)
        Mb = _fundamental(q, 1.0, 0.0, breaks)
        assert np.allclose(Mf @ Mb, np.eye(2), atol=5e-8)


def test_breakpoints_preserve_accuracy():
    # sharp coefficient jump: without declared breakpoints the controller
    # still converges, but declaring them must give the exact composition
    q = lambda x: 25.0 if x < 0.5 else -25.0
    M = _fundamental(q, 0.0, 1.0, [0.5])
    ref = constant_propagator(-25.0, 0.5) @ constant_propagator(25.0, 0.5)
    assert np.allclose(M, ref, rtol=5e-8, atol=1e-9)


def test_step_size_underflow():
    with pytest.raises(StepSizeUnderflowError) as err:
        _fundamental(lambda x: 1.0 / (0.5 - x) ** 2, 0.0, 0.6)
    assert abs(err.value.location - 0.5) < 0.1


def test_invalid_inputs():
    with pytest.raises(ValueError):
        _fundamental(lambda x: 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        propagate_family([FamilySegment(0.0, 1.0, lambda x: 0.0)], np.zeros(1),
                         np.array([math.inf, 0.0]))
    with pytest.raises(ValueError):
        SolverConfig(rel_tol=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(rel_tol=math.nan)


def test_complex_init_is_rejected():
    # the engine carries real states only; numpy would drop the imaginary part
    segs = [FamilySegment(0.0, 1.0, -4.0)]
    with pytest.raises(ValueError):
        propagate_family(segs, np.zeros(1), np.array([1.0 + 0.0j, 2.0j]))
    with pytest.raises(ValueError):
        propagate_family(segs, np.zeros(2), np.array([[1.0, 0.0], [0.0, 1.0j]]))


def test_family_exact_matches_rk():
    segs = [FamilySegment(-1.0, 0.0, 0.0, 1.0), FamilySegment(0.0, 1.0, 0.0, -1.0)]
    m = np.array([0.5, 4.0, 15.0])
    exact = propagate_family(segs, m, np.array([1.0, 0.0]))
    rk, _, _ = dop853_family(segs, m, np.array([1.0, 0.0]))
    assert np.allclose(exact.states, rk, rtol=1e-9, atol=1e-10)
    # sampled states and zero counts, with members oscillating on either piece
    m = np.array([-90.0, -3.0, 0.0, 2.0, 60.0, 150.0])
    xs = np.linspace(-1.0, 1.0, 17)  # 0.0 is a sample
    exact = propagate_family(segs, m, np.array([1.0, 0.0]), samples=xs, count_zeros=True)
    _, rk_samples, rk_zeros = dop853_family(segs, m, np.array([1.0, 0.0]), samples=xs)
    assert np.allclose(exact.sample_states, rk_samples, rtol=1e-9, atol=1e-10)
    assert exact.zero_counts.max() >= 3
    assert np.array_equal(exact.zero_counts, rk_zeros)


def test_family_rescaling_tracks_logs():
    segs = [FamilySegment(0.0, 8.0, 100.0, 0.0)]
    res = propagate_family(segs, np.zeros(1), np.array([1.0, 0.0]), rescale=True)
    value = math.log(abs(res.states[0, 0])) + res.logs[0]
    # u(8) = cosh(80): log = 80 - log 2
    assert value == pytest.approx(80.0 - math.log(2.0), abs=1e-9)


def test_family_samples_match_endpoints():
    segs = [FamilySegment(0.0, 1.0, lambda x: math.sin(3 * x), 0.0)]
    xs = np.linspace(0.0, 1.0, 11)
    res = propagate_family(segs, np.zeros(1), np.array([0.2, 1.0]), samples=xs)
    for x, state in zip(xs, res.sample_states[:, :, 0]):
        if x == 0.0:
            continue
        u, du = _fundamental(lambda t: math.sin(3 * t), 0.0, float(x)) @ [0.2, 1.0]
        assert state[0] == pytest.approx(u, rel=1e-8, abs=1e-10)
        assert state[1] == pytest.approx(du, rel=1e-8, abs=1e-10)


def test_zero_counting_oscillatory():
    # u = sin(2 pi x) / (2 pi): zeros in (0, 1] at 0.5 and 1.0
    w = 2.0 * math.pi
    segs = [FamilySegment(0.0, 1.0, -w * w, 0.0)]
    res = propagate_family(segs, np.zeros(1), np.array([0.0, 1.0]), count_zeros=True)
    assert res.zero_counts[0] == 2
    # same count through an independent integrator, on a span that does not
    # end at a zero
    segs = [FamilySegment(0.0, 1.2, -w * w, 0.0)]
    res = propagate_family(segs, np.zeros(1), np.array([0.0, 1.0]), count_zeros=True)
    _, _, rk_zeros = dop853_family(segs, np.zeros(1), np.array([0.0, 1.0]))
    assert res.zero_counts[0] == rk_zeros[0] == 2


@pytest.mark.parametrize("c_part", [1.0, lambda x: 0.0 * x + 1.0])
def test_zero_counts_with_several_zeros_per_mesh_interval(c_part):
    # -u'' + (1 - lambda) u = 0 from (0, 1): u = sin(w x) / w with w^2 = lambda - 1,
    # so (0, L] holds floor(w L / pi) zeros.  A float c is one exact step over
    # the whole segment; the callable one passes on its first pass, which
    # keeps the two halves of the segment.
    from pointbarrier.ivp import _mesh_for

    L = 3.0
    segs = [FamilySegment(0.0, L, c_part, -1.0)]
    w = np.array([0.7, 3.3, 12.9, 41.7, 95.3, 250.1])
    res = propagate_family(segs, w * w + 1.0, np.array([0.0, 1.0]), count_zeros=True)
    assert np.array_equal(res.zero_counts, np.floor(w * L / math.pi))
    widest = np.abs(_mesh_for(segs[0], SolverConfig()).h).max()
    assert w.max() * widest / math.pi > 15  # zeros in one interval


@pytest.mark.parametrize("n", [1, 4, 9])
def test_rk_zero_counts_match_an_independent_integrator(n):
    # a callable w runs on the RK pair: its scalar path (n = 1), one lane
    # per member (n <= 6) and the vector path
    chain = [FamilySegment(-1.0, 0.0, 0.0, lambda x: 1.0 + x),
             FamilySegment(0.0, 1.0, 0.0, lambda x: -1.0 - x * x)]
    m = np.linspace(-300.0, 290.0, n) if n > 1 else np.array([-250.0])
    res = propagate_family(chain, m, np.array([1.0, 0.0]), count_zeros=True)
    _, _, ref = dop853_family(chain, m, np.array([1.0, 0.0]))
    assert res.zero_counts.max() >= 3
    assert np.array_equal(res.zero_counts, ref)


def test_zero_counting_hyperbolic():
    # cosh-type solutions have at most one zero (here: none)
    segs = [FamilySegment(0.0, 3.0, 4.0, 0.0)]
    res = propagate_family(segs, np.zeros(1), np.array([1.0, 0.0]), count_zeros=True)
    assert res.zero_counts[0] == 0
    # sign flip across a hyperbolic segment: exactly one zero
    res = propagate_family(segs, np.zeros(1), np.array([1.0, -2.5]), count_zeros=True)
    assert res.zero_counts[0] == 1


# -- Magnus mesh transport of lambda-families ---------------------------------

def _tilted_wall_chain():
    # -u'' + (x^2 + x - lambda) u on [-8, 0]: the members differ by a shift
    return [FamilySegment(-8.0, 0.0, lambda x: x * x + x, -1.0)]


def _unit_states(states, logs):
    norms = np.hypot(states[0], states[1])
    return states / norms, logs + np.log(norms)


@pytest.mark.parametrize("n", [1, 3, 49])
def test_mesh_matches_rk_on_wall_chain(n):
    lams = np.linspace(-2.0, 30.0, n) if n > 1 else np.array([4.2])
    _assert_mesh_matches_rk(_tilted_wall_chain(), lams)


def test_mesh_matches_rk_for_scalar_only_coefficient():
    # math.sin rejects arrays: the mesh samples the coefficient point by point
    chain = [FamilySegment(0.0, 2.0, lambda x: 4.0 * math.sin(3.0 * x), -1.0)]
    _assert_mesh_matches_rk(chain, np.array([-3.0, 0.5, 9.0]))


def test_mesh_is_sized_for_the_deepest_member():
    # only the defect test sizes the mesh, and it must resolve the fastest
    # oscillating member c - max c, not c alone
    chain = [FamilySegment(-12.0, 0.0, lambda x: x * x, -1.0)]
    cfg = SolverConfig(rel_tol=1e-8)
    _assert_mesh_matches_rk(chain, np.array([1.0, 72.0, 139.7]), cfg)


def _assert_members_match_dop853(chain, m):
    """End states to 1e-9 of each member's largest entry, and zero counts,
    at the default config."""
    init = np.array([0.0, 1.0])
    res = propagate_family(chain, m, init, count_zeros=True)
    ref, _, zeros = dop853_family(chain, m, init)
    assert np.all(np.abs(res.states - ref) <= 1e-9 * np.abs(ref).max(axis=0))
    assert np.array_equal(res.zero_counts, zeros)
    return zeros


def test_wall_mesh_is_sized_by_the_tolerance_alone():
    # x^2 on [-3, 0] at the default config: fewer intervals than the old
    # floor of 1% of the segment (200, both halves kept), and every member
    # whose coefficient spans c - max c to c - min c still within 1e-9
    from pointbarrier.ivp import _mesh_for

    seg = FamilySegment(-3.0, 0.0, lambda x: x * x, 1.0)
    assert _mesh_for(seg, SolverConfig()).h.size < 200
    zeros = _assert_members_match_dop853([seg], np.linspace(-9.0, 0.0, 7))
    assert zeros.max() >= 2


def test_oscillating_coefficient_is_not_aliased_by_a_one_interval_start():
    # the first pass is the whole segment, where c = 50 cos(40 x) runs
    # through 12 periods; its three nodes must not pass for a smooth c
    seg = FamilySegment(0.0, 2.0, lambda x: 50.0 * np.cos(40.0 * x), -1.0)
    zeros = _assert_members_match_dop853([seg], np.array([-60.0, 0.0, 20.0, 49.0]))
    assert zeros.max() >= 4


def _assert_mesh_matches_rk(chain, lams, cfg=None):
    init = np.array([0.0, 1.0])
    mesh = propagate_family(chain, lams, init, cfg, rescale=True)
    rk, _, _ = dop853_family(chain, lams, init)
    dir_mesh, log_mesh = _unit_states(mesh.states, mesh.logs)
    dir_rk, log_rk = _unit_states(rk, 0.0)
    assert np.allclose(dir_mesh, dir_rk, rtol=0.0, atol=1e-8)
    assert np.allclose(log_mesh, log_rk, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("chain, lams", [
    # crosses the lowest levels of the wall chain
    (_tilted_wall_chain(), np.linspace(-1.0, 45.0, 181)),
    # a gentle ramp at high frequency: several zeros inside one mesh interval
    ([FamilySegment(0.0, 10.0, lambda x: 0.01 * x, -1.0)], np.linspace(50.0, 4000.0, 12)),
])
def test_mesh_zero_counts_match_rk(chain, lams):
    init = np.array([0.0, 1.0])
    mesh = propagate_family(chain, lams, init, rescale=True, count_zeros=True)
    _, _, rk_zeros = dop853_family(chain, lams, init)
    assert mesh.zero_counts.max() - mesh.zero_counts.min() >= 10
    assert np.array_equal(mesh.zero_counts, rk_zeros)


def test_mesh_samples_match_rk():
    xs = np.linspace(-8.0, 0.0, 37)
    lams = np.array([1.8, 12.5])
    init = np.array([0.0, 1.0])
    mesh = propagate_family(_tilted_wall_chain(), lams, init, rescale=True, samples=xs)
    _, rk_samples, _ = dop853_family(_tilted_wall_chain(), lams, init, samples=xs)
    u_mesh = mesh.sample_states[:, 0] * np.exp(mesh.sample_logs)
    u_rk = rk_samples[:, 0]
    assert np.allclose(u_mesh, u_rk, rtol=1e-8, atol=1e-10 * np.abs(u_rk).max())


def _wall_and_barrier_chain():
    # the left shot of a squeezed-barrier problem: a wall segment, then a
    # narrow asymmetric barrier whose coefficient is a callable
    eps, alpha = 0.05, 3.0

    def barrier(x):
        t = x / eps
        return alpha / eps**2 * (1.0 - t * t) * (1.0 + 0.5 * t)

    return [FamilySegment(-4.0, -eps, lambda x: x * x + x, -1.0),
            FamilySegment(-eps, eps, barrier, -1.0)]


def test_mesh_member_results_do_not_depend_on_the_family():
    # bitwise: a member's states, logs, zero counts and sample records are
    # the same whichever family carries it, also across _WORK_CAP groups
    from pointbarrier import ivp

    chain = _wall_and_barrier_chain()
    lams = np.linspace(-5.0, 60.0, 64)
    xs = np.linspace(-4.0, 0.05, 301)
    init = np.array([0.0, 1.0])
    wall_mesh = ivp._mesh_for(chain[0], ivp.DEFAULT_CONFIG)
    assert lams.size * max(wall_mesh.h.size, xs.size) > 2 * ivp._WORK_CAP

    def run(m):
        return propagate_family(chain, m, init, rescale=True, samples=xs, count_zeros=True)

    family = run(lams)
    assert family.zero_counts.max() >= 3
    for part in (slice(3, 4), slice(0, 1), slice(63, 64), slice(5, 41)):
        alone = run(lams[part])
        assert np.array_equal(family.states[:, part], alone.states)
        assert np.array_equal(family.logs[part], alone.logs)
        assert np.array_equal(family.zero_counts[part], alone.zero_counts)
        assert np.array_equal(family.sample_states[:, :, part], alone.sample_states)
        assert np.array_equal(family.sample_logs[:, part], alone.sample_logs)


def test_samples_go_to_segments_in_path_order(monkeypatch):
    # each segment records the samples from the last one taken up to the
    # first off it; a sample at a join goes to the earlier segment
    from pointbarrier import ivp

    seen = []
    mesh_apply, rk_span = ivp._mesh_apply, ivp._rk_span

    def spy_mesh(mesh, mw, Y, logs, counts, seg_samples, *rest):
        seen.append(np.asarray(seg_samples).tolist())
        mesh_apply(mesh, mw, Y, logs, counts, seg_samples, *rest)

    def spy_rk(*args, record_xs=None, **kwargs):
        seen.append([] if record_xs is None else np.asarray(record_xs).tolist())
        rk_span(*args, record_xs=record_xs, **kwargs)

    monkeypatch.setattr(ivp, "_mesh_apply", spy_mesh)
    monkeypatch.setattr(ivp, "_rk_span", spy_rk)
    segs = [
        FamilySegment(0.0, 1.0, lambda x: x, -1.0),
        FamilySegment(1.0, 2.0, 3.0, -1.0),
        FamilySegment(2.0, 2.5, 0.0, lambda x: -1.0 - x),  # RK
        FamilySegment(2.5, 3.0, 1.0, -1.0),
    ]
    xs = [0.0, 0.5, 1.0, 1.5, 2.0, 2.0, 3.0]
    res = propagate_family(segs, np.array([0.5, 2.0]), np.array([0.0, 1.0]), samples=xs)
    # the RK takes a family of two member by member
    assert seen == [[0.0, 0.5, 1.0], [1.5, 2.0, 2.0], [], [], [3.0]]
    assert np.all(np.isfinite(res.sample_states))
    assert np.allclose(res.sample_states[-1], res.states, rtol=1e-9)

    seen.clear()
    back = [FamilySegment(s.b, s.a, s.c_part, s.w_part) for s in reversed(segs)]
    propagate_family(back, np.array([0.5]), np.array([0.0, 1.0]), samples=[2.2, 2.0, 0.5, 0.0])
    assert seen == [[], [2.2, 2.0], [], [0.5, 0.0]]

    for off in ([0.5, 3.5], [-0.5, 0.5], [0.5, 3.0 + 1e-9]):
        with pytest.raises(ValueError, match="outside the integration path"):
            propagate_family(segs, np.array([0.5]), np.array([0.0, 1.0]), samples=off)


def test_mesh_step_size_underflow():
    segs = [FamilySegment(0.0, 0.6, lambda x: 1.0 / (0.5 - x) ** 2, -1.0)]
    with pytest.raises(StepSizeUnderflowError) as err:
        propagate_family(segs, np.array([1.0, 2.0]), np.array([1.0, 0.0]))
    assert abs(err.value.location - 0.5) < 0.1


def test_rk_step_size_underflow():
    # a callable w puts the same singular coefficient on the RK pair
    segs = [FamilySegment(0.0, 0.6, lambda x: 1.0 / (0.5 - x) ** 2, lambda x: 1.0)]
    with pytest.raises(StepSizeUnderflowError) as err:
        propagate_family(segs, np.array([1.0, 2.0]), np.array([1.0, 0.0]))
    assert abs(err.value.location - 0.5) < 0.1

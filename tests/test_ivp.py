import math

import numpy as np
import pytest
from conftest import constant_propagator, dop853_family, magnus_exponent, sequential_chain

from pointbarrier.errors import NumericsError, StepSizeUnderflowError
from pointbarrier import ivp
from pointbarrier.ivp import FamilySegment, SolverConfig, propagate_chains, propagate_family


def _fundamental(q, a, b, breakpoints=(), cfg=None):
    """Fundamental matrix of -u'' + q u = 0 from a to b, the way scatter
    builds it: one segment per piece between breakpoints, the family
    m = (0, 0) started from the identity, its determinant left as computed."""
    direction = 1.0 if b > a else -1.0
    inner = sorted((x for x in breakpoints if (x - a) * direction > 0 and (b - x) * direction > 0),
                   key=lambda x: x * direction)
    nodes = [a, *inner, b]
    segs = [FamilySegment(lo, hi, q, 0.0) for lo, hi in zip(nodes, nodes[1:])]
    return propagate_family(segs, np.zeros(2), np.eye(2), cfg).states


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


def _constant_step(c, length):
    """Fundamental matrix of -u'' + c u = 0 over ``length`` from one
    constant segment: the library's exact constant-coefficient step."""
    return propagate_family([FamilySegment(0.0, length, c, 0.0)], np.zeros(2), np.eye(2)).states


def test_constant_propagator_closed_forms():
    kappa = 1.7
    M = _constant_step(kappa**2, 1.0)
    ref = np.array(
        [
            [math.cosh(kappa), math.sinh(kappa) / kappa],
            [kappa * math.sinh(kappa), math.cosh(kappa)],
        ]
    )
    assert np.allclose(M, ref, rtol=1e-14)
    w = 3.0
    M = _constant_step(-w * w, 0.7)
    ref = np.array(
        [
            [math.cos(w * 0.7), math.sin(w * 0.7) / w],
            [-w * math.sin(w * 0.7), math.cos(w * 0.7)],
        ]
    )
    assert np.allclose(M, ref, rtol=1e-14)
    # series region joins the exact branches smoothly
    for c in (1e-9, -1e-9, 0.0):
        M = _constant_step(c, 0.3)
        assert np.allclose(M, [[1.0, 0.3], [0.0, 1.0]], atol=1e-9)
    # scaled deep-hyperbolic branch stays finite and consistent
    M = _constant_step(100.0, 10.0)  # cosh(100) ~ 1e43
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


@pytest.mark.parametrize("n", [1, 3, 9])
def test_rescaled_bucket_mesh_segments_keep_the_true_scale(n):
    # a callable-w segment runs on its bucket meshes, counted or not, and
    # keeps its log scales as the other meshes do, so rescale=True hands
    # back the states of rescale=False times the log scales
    chain = [FamilySegment(0.0, 2.0, 40.0, 0.0),
             FamilySegment(2.0, 3.0, 0.0, lambda x: 1.0 + x),
             FamilySegment(3.0, 4.0, lambda x: 25.0 + x, 0.0)]
    m = np.linspace(-30.0, 20.0, n)
    for count_zeros in (False, True):
        plain = propagate_family(chain, m, np.array([1.0, 0.0]), count_zeros=count_zeros)
        scaled = propagate_family(chain, m, np.array([1.0, 0.0]), rescale=True,
                                  count_zeros=count_zeros)
        assert np.all(scaled.logs > 5.0)
        assert np.array_equal(scaled.states * np.exp(scaled.logs), plain.states)
        assert np.array_equal(scaled.zero_counts, plain.zero_counts)


@pytest.mark.parametrize("n", [1, 4, 9])
def test_a_callable_w_runs_on_its_bucket_meshes_whatever_the_call_asks(n):
    # neither counting zeros nor recording samples moves the end states of
    # a callable-w chain: one transport carries every call
    chain = [FamilySegment(-1.0, 0.0, 0.0, lambda x: -8.0 * x * (1.0 + x)),
             FamilySegment(0.0, 0.5, 0.0, lambda x: -32.0 * x + 64.0 * x * x),
             FamilySegment(0.5, 1.0, 0.0, 0.0)]
    m = np.linspace(-150.0, 90.0, n)
    init = np.array([1.0, 0.0])
    plain = propagate_family(chain, m, init)
    counted = propagate_family(chain, m, init, count_zeros=True)
    sampled = propagate_family(chain, m, init, samples=[-0.5, 0.25, 1.0])
    assert np.array_equal(plain.states, counted.states)
    assert np.array_equal(plain.states, sampled.states)


def test_results_beyond_a_double_raise():
    # u(1) = cosh(1000) overflows as a true state but not as a scaled one
    segs = [FamilySegment(0.0, 1.0, 1e6, 0.0)]
    with pytest.raises(NumericsError, match="range of a double"):
        propagate_family(segs, np.zeros(1), np.array([1.0, 0.0]))
    res = propagate_family(segs, np.zeros(1), np.array([1.0, 0.0]), rescale=True)
    assert math.log(abs(res.states[0, 0])) + res.logs[0] == pytest.approx(1000.0 - math.log(2.0))
    # the message names the weight range, whose end -0.0 reads 0, not -0
    with pytest.raises(NumericsError, match=r"of weights 0 to 1000000 leaves"):
        propagate_family([FamilySegment(0.0, 1.0, 0.0, 1.0)], np.array([-0.0, 1e6]),
                         np.array([1.0, 0.0]))
    # sqrt(1e300) / pi half-periods on one interval: more than a double counts
    segs = [FamilySegment(0.0, 1.0, -1e300, 0.0)]
    with pytest.raises(NumericsError, match="counts exactly"):
        propagate_family(segs, np.zeros(1), np.array([0.0, 1.0]), rescale=True, count_zeros=True)


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
    # u = sin(2 pi x) / (2 pi) has zeros at 0.5 and 1.0, but the shot ends at
    # u(1) = -3.9e-17 with u' > 0: its Pruefer angle is short of 2 pi, so the
    # count that agrees with its sign is 1
    w = 2.0 * math.pi
    segs = [FamilySegment(0.0, 1.0, -w * w, 0.0)]
    res = propagate_family(segs, np.zeros(1), np.array([0.0, 1.0]), count_zeros=True)
    assert -1e-16 < res.states[0, 0] < 0.0 < res.states[1, 0]
    assert res.zero_counts[0] == 1
    # same count through an independent integrator, on a span that does not
    # end at a zero
    segs = [FamilySegment(0.0, 1.2, -w * w, 0.0)]
    res = propagate_family(segs, np.zeros(1), np.array([0.0, 1.0]), count_zeros=True)
    _, _, rk_zeros = dop853_family(segs, np.zeros(1), np.array([0.0, 1.0]))
    assert res.zero_counts[0] == rk_zeros[0] == 2


def test_a_zero_on_a_join_is_counted_once():
    # lambda = (7.5 pi)^2 from (0, 1) at -0.5: u(-0.1) = sin(3 pi) / w, which
    # rounds to +1.6e-17.  The interval that ends on the join and the one
    # that starts there read its half-turn alike, so the join adds no zero
    lam = np.array([(7.5 * math.pi) ** 2])
    counts = []
    for joins in ([-0.5, 0.5], [-0.5, -0.1, 0.5]):
        segs = [FamilySegment(a, b, 0.0, -1.0) for a, b in zip(joins, joins[1:])]
        counts.append(propagate_family(segs, lam, np.array([0.0, 1.0]),
                                       count_zeros=True).zero_counts[0])
    assert counts == [7, 7]
    # a callable c puts two intervals on each segment, and the join is a
    # node inside the joined sequence of the chain; alone, and stacked with
    # a longer chain of its own that pads it
    segs = [FamilySegment(a, b, lambda x: 0.0 * x, -1.0) for a, b in [(-0.5, -0.1), (-0.1, 0.5)]]
    assert [ivp._mesh_for(seg, ivp.DEFAULT_CONFIG).lo.size for seg in segs] == [2, 2]
    longer = [FamilySegment(0.5, -0.5, lambda x: 0.0 * x + 1e-3 * x ** 7, -1.0)]
    assert ivp._mesh_for(longer[0], ivp.DEFAULT_CONFIG).lo.size > 4
    alone = propagate_family(segs, lam, np.array([0.0, 1.0]), count_zeros=True)
    stacked = propagate_chains([segs, longer], lam, np.array([0.0, 1.0]), count_zeros=True)
    assert alone.zero_counts[0] == stacked[0].zero_counts[0] == 7


@pytest.mark.parametrize("u_node", [0.0, -0.0, 1e-17, -1e-17])
@pytest.mark.parametrize("w", [3.25 * math.pi, 0.3])
def test_a_zero_on_a_mesh_node_counts_where_its_signs_put_it(u_node, w):
    # u = sin(w (x - 1)) on the nodes 0, 1, 2 with u(1) replaced; w = 3.25 pi
    # makes both intervals oscillating (7 zeros in all), w = 0.3 makes them
    # sign-read ones that share one zero.  The zero at the node is reached
    # when u(1) is an exact zero or has the sign of u'(1), and the two
    # intervals count the zeros of (0, 2] once whichever holds it
    from pointbarrier.ivp import _mesh_zero_counts

    x = np.array([0.0, 1.0, 2.0])
    u, v = np.sin(w * (x - 1.0)), w * np.cos(w * (x - 1.0))
    u[1] = u_node
    states = np.array([u, v])[:, None]  # one member; the interval axis last
    h = np.diff(x)[None]
    qbar = np.full((1, 2), -w * w)
    counts = [int(_mesh_zero_counts(states[..., j:j + 2], qbar[:, j:j + 1], h[:, j:j + 1])[0])
              for j in range(2)]
    reached = u_node == 0.0 or (u_node > 0.0) == (v[1] > 0.0)
    expected = {(True, True): [4, 3], (True, False): [3, 4],
                (False, True): [1, 0], (False, False): [0, 1]}[w > 1.0, reached]
    assert counts == expected
    assert _mesh_zero_counts(states, qbar, h)[0] == sum(expected)


@pytest.mark.parametrize("c_part, w_part", [
    (1.0, -1.0),
    (lambda x: 0.0 * x + 1.0, -1.0),
    (1.0, lambda x: 0.0 * x - 1.0),
], ids=["1.0", "<lambda>", "callable-w"])
def test_zero_counts_with_several_zeros_per_mesh_interval(c_part, w_part):
    # -u'' + (1 - lambda) u = 0 from (0, 1): u = sin(w x) / w with w^2 = lambda - 1,
    # so (0, L] holds floor(w L / pi) zeros.  A float c is one exact step over
    # the whole segment; the callable one passes on its first pass, which
    # keeps the two halves of the segment.  A callable w, counted against
    # DOP853 as well, puts each member on the mesh of its weight bucket,
    # which passes on its first pass too
    from pointbarrier.ivp import _mesh_for, _Steps

    L = 3.0
    segs = [FamilySegment(0.0, L, c_part, w_part)]
    w = np.array([0.7, 3.3, 12.9, 41.7, 95.3, 250.1])
    res = propagate_family(segs, w * w + 1.0, np.array([0.0, 1.0]), count_zeros=True)
    assert np.array_equal(res.zero_counts, np.floor(w * L / math.pi))
    bucket = None
    if callable(w_part):
        _, _, rk_zeros = dop853_family(segs, w * w + 1.0, np.array([0.0, 1.0]))
        assert np.array_equal(res.zero_counts, rk_zeros)
        bucket = 16  # 250.1^2 + 1 is in (2^15, 2^16]
    widest = np.abs(_Steps.join(_mesh_for(segs[0], SolverConfig(), bucket).parts).h).max()
    assert w.max() * widest / math.pi > 15  # zeros in one interval


@pytest.mark.parametrize("n", [1, 4, 9])
def test_bucket_mesh_zero_counts_match_an_independent_integrator(n):
    # a callable w in a counted call runs on the Magnus mesh of each
    # member's weight bucket: one member, members in buckets of their own
    # and several members per bucket; its samples and end states match
    # to 1e-9 of each member's largest
    chain = [FamilySegment(-1.0, 0.0, 0.0, lambda x: 1.0 + x),
             FamilySegment(0.0, 1.0, 0.0, lambda x: -1.0 - x * x)]
    m = np.linspace(-300.0, 290.0, n) if n > 1 else np.array([-250.0])
    xs = np.linspace(-1.0, 1.0, 9)
    res = propagate_family(chain, m, np.array([1.0, 0.0]), samples=xs, count_zeros=True)
    end, sampled, ref = dop853_family(chain, m, np.array([1.0, 0.0]), samples=xs)
    assert res.zero_counts.max() >= 3
    assert np.array_equal(res.zero_counts, ref)
    scale = np.abs(sampled).max(axis=(0, 1))
    assert np.all(np.abs(res.sample_states - sampled) <= 1e-9 * scale)
    assert np.all(np.abs(res.states - end) <= 1e-9 * scale)


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


def _assert_members_match_dop853(chain, m, cfg=None):
    """End states to 1e-9 of each member's largest entry, and zero counts,
    at ``cfg`` (None: the default config)."""
    init = np.array([0.0, 1.0])
    res = propagate_family(chain, m, init, cfg, count_zeros=True)
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
    assert _mesh_for(seg, SolverConfig()).lo.size < 200
    zeros = _assert_members_match_dop853([seg], np.linspace(-9.0, 0.0, 7))
    assert zeros.max() >= 2


def test_oscillating_coefficient_is_not_aliased_by_a_one_interval_start():
    # the first pass is the whole segment, where c = 50 cos(40 x) runs
    # through 12 periods; its three nodes must not pass for a smooth c
    seg = FamilySegment(0.0, 2.0, lambda x: 50.0 * np.cos(40.0 * x), -1.0)
    zeros = _assert_members_match_dop853([seg], np.array([-60.0, 0.0, 20.0, 49.0]))
    assert zeros.max() >= 4


@pytest.mark.parametrize("alpha", [3.0, 12.0, 19.5, -12.0])
def test_scatter_lobe_meshes_spread_their_defect_evenly(alpha):
    # the bump lobes as scatter meshes them: every pair of kept halves (the
    # interval whose defect was taken) meets rel_tol at the mesh's
    # reference shifts, and the median one spends at least a quarter of it,
    # so no interval is cut finer than the tolerance asks; every member
    # across the range of c still matches DOP853
    from pointbarrier.profiles import Segment, builtin
    from pointbarrier.scattering import SCATTER_CONFIG

    tol = SCATTER_CONFIG.rel_tol
    for s in builtin("asymmetric_bump").segments[:2]:
        c = Segment(s.a, s.b, tuple(alpha * k for k in s.coeffs))
        seg = FamilySegment(s.a, s.b, c, -1.0)
        x = np.append(ivp._mesh_for(seg, SCATTER_CONFIG).lo[::2], s.b)
        lo, h = x[:-1], np.diff(x)
        first = ivp._nodes((c,), np.array([s.a]), np.array([s.b - s.a]))[0]
        shifts = np.unique([0.0, -first.min(), -first.max()])[:, None]
        est, _, _ = ivp._step_defect((c,), lo, h, ivp._nodes((c,), lo, h), shifts)
        assert est.max() <= tol
        assert np.median(est) >= tol / 4
        cs = c(np.linspace(s.a, s.b, 201))
        _assert_members_match_dop853([seg], np.linspace(cs.min(), cs.max(), 7), SCATTER_CONFIG)


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
    assert lams.size * max(wall_mesh.lo.size, xs.size) > 2 * ivp._WORK_CAP

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

    # within a pass of several chains: the right shot of the same problem,
    # whose padding and stacking must not mix members either
    chains = [chain, [FamilySegment(4.0, 0.05, lambda x: x * x + x, -1.0)]]
    paths = [xs, np.linspace(4.0, 0.05, 97)]

    def run_chains(m):
        return propagate_chains(chains, m, init, rescale=True, samples=paths, count_zeros=True)

    family = run_chains(lams)
    for part in (slice(3, 4), slice(63, 64), slice(5, 41)):
        for whole, alone in zip(family, run_chains(lams[part])):
            assert np.array_equal(whole.states[:, part], alone.states)
            assert np.array_equal(whole.logs[part], alone.logs)
            assert np.array_equal(whole.zero_counts[part], alone.zero_counts)
            assert np.array_equal(whole.sample_states[:, :, part], alone.sample_states)
            assert np.array_equal(whole.sample_logs[:, part], alone.sample_logs)

    # a counted callable w: each member runs on the mesh of its weight
    # bucket, whatever else the family holds; m = 0, negative weights and
    # weights of exactly a power of two, which top their own bucket
    from pointbarrier.profiles import builtin

    bump = [FamilySegment(s.a, s.b, 0.0, s) for s in builtin("asymmetric_bump").segments]
    m = np.array([-200.0, -128.0, -100.0, -3.5, -1.0, 0.0, 0.25, 1.0, 2.0, 2.5,
                  64.0, 64.5, 128.0, 199.9])
    family = propagate_family(bump, m, np.array([1.0, 0.0]), rescale=True, count_zeros=True)
    assert family.zero_counts.max() >= 3
    for i in range(m.size):
        for part in ([i], [i, (i + 5) % m.size]):
            alone = propagate_family(bump, m[part], np.array([1.0, 0.0]), rescale=True,
                                     count_zeros=True)
            assert np.array_equal(family.states[:, part], alone.states)
            assert np.array_equal(family.logs[part], alone.logs)
            assert np.array_equal(family.zero_counts[part], alone.zero_counts)


def _bits(a):
    return a.view(np.int64)


def test_members_of_one_weight_share_a_transport_bitwise(monkeypatch):
    # adjacent members whose weights have the same bits share one transport
    # in a pass without counts or samples: runs of 1, 2 and 5, one run
    # longer than a _WORK_CAP group that crosses where a group of members
    # would end, and +0.0 next to -0.0, which never share.  Each member,
    # from its own init column, equals its one-member propagation bitwise
    # on one chain, on two stacked chains with a shared row, and on the
    # bucket meshes of a callable w, where a run's members need not be
    # neighbours in the family.  A spy counts the transports: one per run
    # and lane
    from pointbarrier.profiles import builtin

    rows, real_chain = [], ivp._chain

    def spy(M, *args):
        rows.append(M.shape[2])
        return real_chain(M, *args)

    monkeypatch.setattr(ivp, "_chain", spy)

    chain = _wall_and_barrier_chain()
    group = ivp._WORK_CAP // sum(ivp._mesh_for(seg, ivp.DEFAULT_CONFIG).lo.size for seg in chain)
    m = np.concatenate([[3.0, 7.5, 7.5], np.full(5, 3.0), np.full(group + 3, -2.0),
                        [0.0, -0.0, -0.0, 0.0], np.linspace(-5.0, 60.0, group)])
    assert group > 8  # the run of group + 3 members spans member group
    bump = [FamilySegment(s.a, s.b, 0.0, s) for s in builtin("asymmetric_bump").segments]
    mb = np.array([2.5, 2.5, 100.0, 2.5, 0.0, -0.0, -0.0, 2.5, 2.5, 2.5, -2.5])
    # runs: 1, 2, 5, group + 3, then 0.0 | -0.0 -0.0 | 0.0 and group singles;
    # on the bump the bucket of 2.5 holds one run of 2.5 and one of -2.5
    cases = [([chain], m, 7 + group),
             ([chain, [FamilySegment(4.0, 0.05, lambda x: x * x + x, -1.0)]], m, 2 * (7 + group)),
             ([bump], mb, 5)]
    for chains, w, transports in cases:
        init = np.random.default_rng(w.size).normal(size=(2, w.size))
        rows.clear()
        together = propagate_chains(chains, w, init, rescale=True)
        assert sum(rows) == transports and len(rows) >= 2
        for i in range(w.size):
            alone = propagate_chains(chains, w[i:i + 1], init[:, i:i + 1], rescale=True)
            for got, want in zip(together, alone):
                assert np.array_equal(_bits(got.states[:, i]), _bits(want.states[:, 0])), i
                assert _bits(got.logs[i]) == _bits(want.logs[0]), i


def test_chains_carried_together_match_their_own_calls():
    # two chains of very unequal interval counts, run in opposite
    # directions: a wall segment, an exact constant-c step and a barrier on
    # one, a single exact step on the other.  Carried in one pass, the
    # shorter chain padded with identity steps, each matches its own call
    # to rounding, samples included, and counts the same zeros
    def bump(x):
        return 200.0 * (1.0 - 4.0 * x * x)

    chains = [[FamilySegment(-4.0, -1.0, lambda x: x * x + x, -1.0),
               FamilySegment(-1.0, -0.5, 3.0, -1.0),
               FamilySegment(-0.5, 0.5, bump, -1.0)],
              [FamilySegment(2.0, 0.5, 1.0, -1.0)]]
    sizes = [sum(ivp._mesh_for(seg, ivp.DEFAULT_CONFIG).lo.size for seg in chain)
             for chain in chains]
    assert sizes[0] > 100 and sizes[1] == 1
    samples = [np.linspace(-4.0, 0.5, 37), np.linspace(2.0, 0.5, 5)]
    lams = np.linspace(-5.0, 60.0, 9)
    init = np.array([0.0, 1.0])
    together = propagate_chains(chains, lams, init, rescale=True, samples=samples,
                                count_zeros=True)
    assert together[0].zero_counts.max() >= 3
    for chain, xs, res in zip(chains, samples, together):
        alone = propagate_family(chain, lams, init, rescale=True, samples=xs, count_zeros=True)
        assert np.array_equal(res.zero_counts, alone.zero_counts)
        assert np.all(_true_scale_gap(res.states, res.logs, alone.states, alone.logs) <= 1e-13)
        for got, want in zip(zip(res.sample_states, res.sample_logs),
                             zip(alone.sample_states, alone.sample_logs)):
            assert np.all(_true_scale_gap(*got, *want) <= 1e-13)


def test_samples_go_to_segments_in_path_order(monkeypatch):
    # each segment records the samples from the last one taken up to the
    # first off it; a sample at a join goes to the earlier segment
    from pointbarrier import ivp

    seen = []
    sample_plan = ivp._sample_plan

    def spy_mesh(mesh, seg_samples):
        seen.append(np.asarray(seg_samples).tolist())
        return sample_plan(mesh, seg_samples)

    monkeypatch.setattr(ivp, "_sample_plan", spy_mesh)
    segs = [
        FamilySegment(0.0, 1.0, lambda x: x, -1.0),
        FamilySegment(1.0, 2.0, 3.0, -1.0),
        FamilySegment(2.0, 2.5, 0.0, lambda x: -1.0 - x),
        FamilySegment(2.5, 3.0, 1.0, -1.0),
    ]
    m = np.array([0.5, 2.0])
    xs = [0.0, 0.5, 1.0, 1.5, 2.0, 2.0, 3.0]
    res = propagate_family(segs, m, np.array([0.0, 1.0]), samples=xs)
    # the callable-w segment plans once per weight bucket, of 0.5 and of 2.0
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


def test_bucket_mesh_step_size_underflow():
    # a callable w puts the same singular coefficient on its bucket meshes
    segs = [FamilySegment(0.0, 0.6, lambda x: 1.0 / (0.5 - x) ** 2, lambda x: 1.0)]
    with pytest.raises(StepSizeUnderflowError) as err:
        propagate_family(segs, np.array([1.0, 2.0]), np.array([1.0, 0.0]))
    assert abs(err.value.location - 0.5) < 0.1


# -- pieces of the Magnus transport ---------------------------------------------

def _true_scale_gap(a, la, b, lb):
    """max |a e^la - b e^lb| / max |b e^lb| per state, without leaving a double."""
    return np.abs(a * np.exp(la - lb) - b).max(axis=0) / np.abs(b).max(axis=0)


@pytest.mark.parametrize("nodes", [False, True])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 9, 33, 700])
def test_chain_matches_a_sequential_product(N, k, nodes):
    # every tree shape: odd levels leave tails at different depths
    rng = np.random.default_rng(10 * N + k)
    M = rng.normal(size=(2, 2, N, k)).transpose(0, 1, 3, 2)  # the interval axis last
    L = rng.uniform(-1.0, 1.0, (N, k)).T
    y = rng.normal(size=(2, k))
    y /= np.abs(y).max(axis=0)
    ly = rng.uniform(-1.0, 1.0, k)
    end, lend, states, logs = ivp._chain(M, L, y, ly, nodes)
    ref, lref = sequential_chain(M, L, y, ly)
    tol = 2e-13 + 2e-15 * np.abs(lref)  # the product's rounding, then the log scale's
    assert np.all(_true_scale_gap(end, lend, ref[..., -1], lref[:, -1]) <= tol[:, -1])
    if nodes:
        assert states.shape == (2, k, N + 1) and logs.shape == (k, N + 1)
        assert np.all(_true_scale_gap(states, logs, ref, lref) <= tol)
    else:
        assert states is None and logs is None


@pytest.mark.parametrize("nodes", [False, True])
def test_chain_keeps_states_beyond_a_double_finite(nodes):
    # |q| around 1e8 on 700 intervals: exact constant-coefficient steps
    # with exp(r) factored out of the hyperbolic ones, whose true-scale
    # product leaves the range of a double
    rng = np.random.default_rng(7)
    N, k = 700, 2
    q = (rng.choice([-1.0, 1.0], (N, k)) * 1e8 * rng.uniform(0.5, 2.0, (N, k))).T
    h = rng.uniform(1e-4, 2e-3, (N, 1)).T
    w = np.sqrt(np.abs(q))
    r = h * w
    hyper = q > 0.0
    ch = np.where(hyper, 0.5 * (1.0 + np.exp(-2.0 * r)), np.cos(r))
    sh = np.where(hyper, -0.5 * np.expm1(-2.0 * r), np.sin(r))
    M = np.array([[ch, sh / w], [np.where(hyper, w, -w) * sh, ch]])
    L = np.where(hyper, r, 0.0)
    y, ly = np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(k)
    ref, lref = sequential_chain(M, L, y, ly)
    assert lref[:, -1].min() > math.log(np.finfo(float).max)
    end, lend, states, logs = ivp._chain(M, L, y, ly, nodes)
    tol = 2e-13 + 2e-15 * np.abs(lref)
    assert np.all(np.isfinite(end)) and np.all(np.isfinite(lend))
    assert np.all(_true_scale_gap(end, lend, ref[..., -1], lref[:, -1]) <= tol[:, -1])
    if nodes:
        assert np.all(np.isfinite(states)) and np.all(np.isfinite(logs))
        assert np.all(_true_scale_gap(states, logs, ref, lref) <= tol)


def test_coefficient_split_matches_the_direct_exponent():
    # c and the shifts are multiples of 2^-10, so every shifted node value
    # c + s is exact and the direct formula loses nothing to it; about a
    # twelfth of the entries lie on the series branch of _expm
    rng = np.random.default_rng(3)
    N = 400
    h = rng.choice([-1.0, 1.0], N) * 10.0 ** rng.uniform(-5.0, -1.0, N)
    cn = np.round(rng.normal(size=(3, N)) * 10.0 ** rng.uniform(-1.0, 3.0, N) * 1024.0) / 1024.0
    s = rng.choice([-1.0, 1.0], 15) * 10.0 ** rng.uniform(-3.0, 12.0, 15)
    s = np.round(np.append(s, [0.0, 1e12, -1e12]) * 1024.0) / 1024.0
    q = cn[..., None] + s
    assert np.array_equal(q - s, np.broadcast_to(cn[..., None], q.shape))
    x, y, z = magnus_exponent(h[:, None], q)
    det = x * x + y * z
    assert 0.05 < np.mean(np.abs(det) <= ivp._SERIES_THRESHOLD) < 0.5
    assert np.any(det > 1e6) and np.any(det < -1e6)
    got = ivp._expm(*ivp._exponent(ivp._coefficients(h[:, None], cn[..., None]), cn[1][:, None] + s))
    want = ivp._expm(x, y, z)
    gap = np.abs(np.array(got[:4]) * np.exp(got[4] - want[4]) - np.array(want[:4])).max(axis=0)
    # the entries are at most 1 + |x| + |y| + |z| times exp(logscale); the
    # exponent's rounding moves them by that times r = sqrt|det|
    bound = (1.0 + np.sqrt(np.abs(det))) * (1.0 + np.abs(x) + np.abs(y) + np.abs(z))
    assert np.all(gap <= 1e-14 * bound)


def test_expm_branches_match_scipy():
    from scipy.linalg import expm

    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(2, 300))
    z = (rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-9.0, 2.5, 300) - x * x) / y
    m11, m12, m21, m22, logs = ivp._expm(x, y, z)
    det = x * x + y * z
    for branch in (det > 1e-6, det < -1e-6, np.abs(det) <= 1e-6):
        assert branch.sum() > 50
    # the bound of test_coefficient_split_matches_the_direct_exponent
    bound = (1.0 + np.sqrt(np.abs(det))) * (1.0 + np.abs(x) + np.abs(y) + np.abs(z))
    for i in range(300):
        want = expm(np.array([[x[i], y[i]], [z[i], -x[i]]]))
        got = np.array([[m11[i], m12[i]], [m21[i], m22[i]]]) * math.exp(logs[i])
        assert np.abs(got - want).max() <= 1e-14 * bound[i] * math.exp(logs[i])


def test_a_cut_mesh_counts_like_a_fresh_mesh_of_its_span():
    # the wall [-8, -eps] on the mesh of [-8, 0] cut at -eps: its nodes
    # before -eps and one last interval up to it, kept with that mesh.  It
    # counts the zeros of a mesh built for [-8, -eps] alone, and its
    # states agree with that mesh's to the mesh tolerance
    U = lambda x: x * x + x  # noqa: E731
    lams = np.linspace(-1.0, 60.0, 123)
    init = np.array([0.0, 1.0])
    for eps in (0.2, 0.05, 1e-3):
        for wall, end in ((-8.0, -eps), (8.0, eps)):
            cut = FamilySegment(wall, end, U, -1.0, 0.0)
            fresh = FamilySegment(wall, end, U, -1.0)
            a, b = (propagate_family([seg], lams, init, rescale=True, count_zeros=True)
                    for seg in (cut, fresh))
            mesh = ivp._mesh_for(cut, ivp.DEFAULT_CONFIG)
            whole = ivp._mesh_for(FamilySegment(wall, 0.0, U, -1.0), ivp.DEFAULT_CONFIG)
            assert mesh is ivp._mesh_for(cut, ivp.DEFAULT_CONFIG)
            assert np.shares_memory(mesh.parts[0].rows, whole.parts[0].rows)
            assert np.array_equal(mesh.lo, whole.lo[:mesh.lo.size])
            assert ivp._Steps.join(mesh.parts).h.sum() == pytest.approx(end - wall, rel=1e-15)
            assert a.zero_counts.max() >= 8
            assert np.array_equal(a.zero_counts, b.zero_counts)
            assert np.all(_true_scale_gap(a.states, a.logs, b.states, b.logs) <= 1e-10)
    # a callable w in a counted call: the cut of each weight bucket's mesh
    from pointbarrier.profiles import builtin

    seg = builtin("asymmetric_bump").segments[0]
    m = np.array([-150.0, -3.5, 0.0, 2.5, 64.0, 199.9])
    a, b = (propagate_family([FamilySegment(seg.a, -0.3, 1.0, seg, end)], m, init, rescale=True,
                             count_zeros=True) for end in (seg.b, None))
    assert a.zero_counts.max() >= 2
    assert np.array_equal(a.zero_counts, b.zero_counts)
    assert np.all(_true_scale_gap(a.states, a.logs, b.states, b.logs) <= 1e-10)
    with pytest.raises(ValueError, match="mesh_end"):
        propagate_family([FamilySegment(-8.0, -1.0, U, -1.0, -2.0)], lams, init)


def test_the_mesh_cache_keeps_no_copy_of_a_cut():
    # a cut stores its last interval only, and goes with its mesh; each is
    # charged the fixed overhead of a cached mesh besides
    U = lambda x: x * x + x  # noqa: E731
    seg = FamilySegment(-8.0, -0.05, U, -1.0, 0.0)
    propagate_family([seg], np.array([1.0]), np.array([0.0, 1.0]))
    mesh = ivp._mesh_for(seg, ivp.DEFAULT_CONFIG)
    whole = ivp._mesh_for(FamilySegment(-8.0, 0.0, U, -1.0), ivp.DEFAULT_CONFIG)
    assert any(m is whole for m in ivp._MESH_CACHE.values())
    assert whole.cuts[seg.b] is mesh
    assert whole.stored() == (whole.lo.size + 1 + whole.parts[0].rows.size + 9
                              + 2 * ivp._MESH_OVERHEAD)


def test_the_mesh_cache_counts_its_floats_and_evicts_the_oldest(monkeypatch):
    # a cut adds its last step to its mesh; a constant segment's mesh is one
    # cached interval of 11 floats plus the overhead of a mesh, so room for
    # 18 of them and 10 floats to spare keep the 18 most recent, and the
    # wall mesh, used in between, stays
    monkeypatch.setattr(ivp, "_MESH_CACHE", ivp._MeshCache())
    cache, cfg = ivp._MESH_CACHE, ivp.DEFAULT_CONFIG
    U = lambda x: x * x + x  # noqa: E731
    whole = ivp._mesh_for(FamilySegment(-1.0, 0.0, U, -1.0), cfg)
    walls = [FamilySegment(-1.0, -0.1 * (j + 1), U, -1.0, 0.0) for j in range(5)]
    for wall in walls:
        ivp._mesh_for(wall, cfg)
        assert cache.floats == whole.stored()
    monkeypatch.setattr(ivp, "_CACHE_FLOATS", whole.stored() + 18 * (11 + ivp._MESH_OVERHEAD) + 10)
    for c in range(40):
        assert ivp._mesh_for(FamilySegment(0.0, 1.0, float(c), -1.0), cfg).lo.size == 1
        assert ivp._mesh_for(walls[c % 5], cfg) is whole.cuts[walls[c % 5].b]
        assert cache.floats == sum(mesh.stored() for mesh in cache.values())
    assert [key[2] for key in cache if key[2] is not U] == [float(c) for c in range(22, 40)]
    assert len(whole.cuts) == 5 and any(mesh is whole for mesh in cache.values())


def test_the_mesh_cache_budget_bounds_its_count(monkeypatch):
    # each mesh is charged a fixed overhead beyond its arrays, so a
    # thousand one-interval meshes of 11 floats each, which the floats of
    # their arrays alone would all fit, keep only as many as the budget
    # holds at 11 floats plus the overhead each
    monkeypatch.setattr(ivp, "_MESH_CACHE", ivp._MeshCache())
    for c in range(1000):
        ivp._mesh_for(FamilySegment(0.0, 1.0, float(c), -1.0), ivp.DEFAULT_CONFIG)
    cache = ivp._MESH_CACHE
    assert 1000 * 11 < ivp._CACHE_FLOATS
    assert len(cache) == ivp._CACHE_FLOATS // (11 + ivp._MESH_OVERHEAD)
    assert cache.floats == sum(mesh.stored() for mesh in cache.values()) <= ivp._CACHE_FLOATS
    assert [key[2] for key in cache] == [float(c) for c in range(1000 - len(cache), 1000)]


def test_a_mesh_larger_than_half_the_cache_is_built_for_its_call_alone(monkeypatch):
    # a counted bump shot at alpha = 1e6 meshes each lobe on bucket 2^20,
    # more than half of _CACHE_FLOATS: neither mesh is cached, so the
    # meshes of the shots before it stay, and repeating those shots builds
    # nothing
    from pointbarrier.profiles import builtin

    monkeypatch.setattr(ivp, "_MESH_CACHE", ivp._MeshCache())
    chain = [FamilySegment(s.a, s.b, 0.0, s.coeffs[0] if s.is_constant else s)
             for s in builtin("asymmetric_bump").segments]
    init = np.array([1.0, 0.0])
    warm = np.array([-40.0, -3.0, 2.5, 12.0, 100.0])
    before = propagate_family(chain, warm, init, count_zeros=True)
    cache = ivp._MESH_CACHE
    keys, floats = list(cache), cache.floats
    assert len(keys) >= 7
    deep = propagate_family(chain, np.array([1e6]), init, rescale=True, count_zeros=True)
    assert deep.zero_counts[0] > 100
    assert list(cache) == keys and cache.floats == floats
    builds = []
    build = ivp._build_mesh
    monkeypatch.setattr(ivp, "_build_mesh", lambda *args: builds.append(args) or build(*args))
    again = propagate_family(chain, warm, init, count_zeros=True)
    assert builds == []
    assert np.array_equal(again.states, before.states)
    assert np.array_equal(again.zero_counts, before.zero_counts)
    assert np.array_equal(propagate_family(chain, np.array([1e6]), init, rescale=True,
                                           count_zeros=True).states, deep.states)
    assert len(builds) == 2  # both lobes again


def test_chains_with_their_own_weight_rows_match_their_own_calls():
    # one weight row per chain: the rows ride in one pass, stacked and
    # padded, and each chain matches its own call to rounding
    chains = [_wall_and_barrier_chain(),
              [FamilySegment(4.0, 0.05, lambda x: x * x + x, -1.0)],
              [FamilySegment(2.0, 0.5, 1.0, -1.0)]]
    rows = np.array([np.linspace(-5.0, 60.0, 7), np.linspace(3.0, 9.0, 7), np.full(7, 40.0)])
    samples = [np.linspace(-4.0, 0.05, 31), np.linspace(4.0, 0.05, 9), np.linspace(2.0, 0.5, 4)]
    init = np.array([0.0, 1.0])
    together = propagate_chains(chains, rows, init, rescale=True, samples=samples,
                                count_zeros=True)
    assert together[0].zero_counts.max() >= 3
    for chain, row, xs, res in zip(chains, rows, samples, together):
        alone = propagate_family(chain, row, init, rescale=True, samples=xs, count_zeros=True)
        assert np.array_equal(res.zero_counts, alone.zero_counts)
        assert np.all(_true_scale_gap(res.states, res.logs, alone.states, alone.logs) <= 1e-12)
        for got, want in zip(zip(res.sample_states, res.sample_logs),
                             zip(alone.sample_states, alone.sample_logs)):
            assert np.all(_true_scale_gap(*got, *want) <= 1e-12)
    with pytest.raises(ValueError, match="one per chain"):
        propagate_chains(chains, rows[:2], init)
    with pytest.raises(ValueError, match="constant w_parts"):
        propagate_chains([[FamilySegment(0.0, 1.0, 0.0, lambda x: x)]], rows[:1], init)


def test_an_overflow_names_the_weights_of_its_own_chain():
    chains = [[FamilySegment(0.0, 1.0, 0.0, -1.0)], [FamilySegment(0.0, 8.0, 0.0, -1.0)]]
    with pytest.raises(NumericsError, match=r"\[0, 8\] of weights -2000000 to -1000000 "):
        propagate_chains(chains, np.array([[1.0, 2.0], [-1e6, -2e6]]), np.array([0.0, 1.0]))

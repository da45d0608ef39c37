import math

import numpy as np
import pytest
from conftest import (
    BoundaryTrace,
    corrector_lambda1,
    diving_count,
    diving_level_oracle,
    fd_levels,
    limit_trace,
    reflect,
    spy_shots,
)

from pointbarrier import profiles, spectra
from pointbarrier.errors import (
    NotInResonanceSetError,
    NumericsError,
    PreconditionError,
    TruncationDomainError,
)
from pointbarrier.ivp import SolverConfig
from pointbarrier.spectra import (
    ConnectedMatrix,
    DirichletSplit,
    Separated,
    Spectrum,
    ThetaCoupled,
    eigen_limit,
    eigen_perturbed,
    interval_limit_frequencies,
    interval_negative_levels,
    interval_spectrum,
    polynomial_potential,
    split_limit_frequencies,
)


# -- interface-condition records ------------------------------------------------

def test_theta_coupled_is_diagonal_matrix():
    bc = ThetaCoupled(3.0)
    assert np.allclose(bc.matrix(), [[3.0, 0.0], [0.0, 1.0 / 3.0]])
    with pytest.raises(ValueError):
        ThetaCoupled(0.0)


def test_connected_matrix_validation():
    ConnectedMatrix(2.0, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        ConnectedMatrix(2.0, 0.0, 0.0, 0.6)
    with pytest.raises(ValueError):
        ConnectedMatrix(1.0, 0.0, 0.0, 1.0, phi=2.0)
    with pytest.raises(ValueError):
        Separated(0.0, 0.0, 1.0, 0.0)


# -- limit operator ---------------------------------------------------------------

def test_split_half_line_oscillator(harmonic):
    spec = eigen_limit(harmonic, DirichletSplit(), 6, eigenfunctions=False)
    assert np.allclose(spec.eigenvalues, [3, 3, 7, 7, 11, 11], atol=1e-6)
    assert all("degenerate" in f for f in spec.flags)
    sides = [f.split(",")[0] for f in spec.flags]
    assert sides.count("left") == 3 and sides.count("right") == 3


def test_full_line_oscillator_via_continuity(harmonic):
    spec = eigen_limit(harmonic, ThetaCoupled(1.0), 5, eigenfunctions=False)
    assert np.allclose(spec.eigenvalues, [1, 3, 5, 7, 9], atol=1e-6)


def test_finite_difference_oracle_equivalence(harmonic):
    # independent route: dense symmetric three-point discretization of the
    # decoupled half problems
    spec = eigen_limit(harmonic, DirichletSplit(), 6, eigenfunctions=False)
    fd = fd_levels(lambda x: x * x, 0.0, harmonic.truncation_radius, 24000, 3)
    merged = np.sort(np.concatenate([fd, fd]))
    assert np.allclose(spec.eigenvalues, merged, atol=1e-5)


def test_interlacing_between_continuity_and_split(harmonic):
    coupled = eigen_limit(harmonic, ThetaCoupled(2.5), 5, eigenfunctions=False).eigenvalues
    full = eigen_limit(harmonic, ThetaCoupled(1.0), 5, eigenfunctions=False).eigenvalues
    split = eigen_limit(harmonic, DirichletSplit(), 5, eigenfunctions=False).eigenvalues
    for lam, lo, hi in zip(coupled, full, split):
        assert min(lo, hi) - 1e-6 <= lam <= max(lo, hi) + 1e-6


def test_rational_diagonal_interface(harmonic):
    # the historical dipole coupling matrix diag((2+a)/(2-a), (2-a)/(2+a))
    a = 1.0
    bc = ConnectedMatrix((2 + a) / (2 - a), 0.0, 0.0, (2 - a) / (2 + a))
    spec = eigen_limit(harmonic, bc, 3, eigenfunctions=False)
    # for an even background this diagonal family leaves the levels at the
    # full-line values
    assert np.allclose(spec.eigenvalues, [1, 3, 5], atol=1e-6)


def test_interface_phase_drops_out(tilted):
    flat = eigen_limit(tilted, ConnectedMatrix(2.0, 0.0, 0.0, 0.5), 3, eigenfunctions=False)
    phased = eigen_limit(
        tilted, ConnectedMatrix(2.0, 0.0, 0.0, 0.5, phi=0.9), 3, eigenfunctions=False
    )
    assert np.allclose(flat.eigenvalues, phased.eigenvalues, atol=1e-9)


def test_theta_to_infinity_is_dirichlet_neumann(tilted):
    # v(-0) = v(+0)/theta -> 0 and v'(+0) = v'(-0)/theta -> 0: the limit
    # decouples into Dirichlet on the left and Neumann on the right
    coupled = eigen_limit(tilted, ThetaCoupled(1e4), 4, eigenfunctions=False).eigenvalues
    dn = eigen_limit(
        tilted, Separated(0.0, 1.0, 1.0, 0.0), 4, eigenfunctions=False
    ).eigenvalues
    assert np.allclose(coupled, dn, atol=1e-5)


def test_truncation_stability():
    u6 = polynomial_potential([0.0, 0.0, 1.0], 6.0)
    u12 = polynomial_potential([0.0, 0.0, 1.0], 12.0)
    s6 = eigen_limit(u6, ThetaCoupled(1.0), 3, eigenfunctions=False)
    s12 = eigen_limit(u12, ThetaCoupled(1.0), 3, eigenfunctions=False)
    assert np.allclose(s6.eigenvalues, s12.eigenvalues, atol=1e-8)


def test_truncation_error_raised():
    small = polynomial_potential([0.0, 0.0, 1.0], 2.0)
    with pytest.raises(TruncationDomainError):
        eigen_limit(small, ThetaCoupled(1.0), 3, eigenfunctions=False)


def _leftmost_major_sample(v):
    """The orienting sample: the leftmost one of at least half the largest magnitude."""
    mag = np.abs(v)
    return v[np.argmax(mag >= 0.5 * mag.max())]


@pytest.mark.parametrize("potential, count", [("harmonic", 5), ("tilted", 3)])
def test_eigenfunction_orientation_does_not_flip_with_the_tolerance(request, potential, count):
    # the two outer lobes of an odd harmonic level tie to rounding, so the
    # sign of the largest sample flipped between tolerances
    U = request.getfixturevalue(potential)
    ref = None
    for rel_tol in (1e-9, 1e-10, 1e-11):
        spec = eigen_limit(U, ThetaCoupled(1.0), count, SolverConfig(rel_tol),
                           eigenfunctions=True, samples_per_unit=101)
        if ref is None:
            ref = spec.eigenfunctions
        overlap = np.trapezoid(ref * spec.eigenfunctions, spec.x, axis=1)
        assert np.all(overlap > 0.99), (rel_tol, overlap)


def test_eigenfunction_normalization_and_traces(harmonic):
    spec = eigen_limit(harmonic, ThetaCoupled(1.0), 2, eigenfunctions=True)
    for v in spec.eigenfunctions:
        norm = math.sqrt(float(np.trapezoid(v * v, spec.x)))
        assert norm == pytest.approx(1.0, abs=1e-8)
        assert _leftmost_major_sample(v) > 0
    tr = limit_trace(harmonic, spec, 0)
    assert tr.v_minus == pytest.approx(math.pi**-0.25, rel=1e-8)
    assert tr.v_plus == pytest.approx(tr.v_minus, rel=1e-10)
    assert abs(tr.dv_minus) < 1e-9


def test_coupled_trace_satisfies_interface(tilted, theta1):
    spec = eigen_limit(tilted, ThetaCoupled(theta1), 2, eigenfunctions=True)
    for k in range(2):
        tr = limit_trace(tilted, spec, k)
        assert tr.v_plus == pytest.approx(theta1 * tr.v_minus, rel=1e-8)
        assert theta1 * tr.dv_plus == pytest.approx(tr.dv_minus, rel=1e-8)


def test_spectrum_ordering_validation():
    with pytest.raises(ValueError):
        Spectrum(np.array([2.0, 1.0]), np.zeros(2), ["ok", "ok"])


# -- perturbed operator --------------------------------------------------------------

@pytest.fixture(scope="module")
def fd_perturbed_reference(tilted, alpha1):
    """Dense FD diagonalization of the squeezed operator at eps = 0.1."""
    eps = 0.1
    L = tilted.truncation_radius

    def V(xs):
        inside = np.abs(xs) <= eps
        return (xs * xs + xs + np.where(inside & (xs < 0), alpha1 / eps**2, 0.0)
                - np.where(inside & (xs >= 0), alpha1 / eps**2, 0.0))

    return fd_levels(V, -L, L, 64000, 6)


def test_perturbed_against_dense_diagonalization(tilted, step, alpha1, fd_perturbed_reference):
    spec = eigen_perturbed(tilted, step, alpha1, 0.1, (1, 6), eigenfunctions=False)
    assert spec.flags[0] == "diving"
    # the FD reference carries O(h) error at the barrier jumps; agreement at
    # 5e-3 on every level rules out missed or spurious levels
    assert np.allclose(spec.eigenvalues, fd_perturbed_reference, rtol=5e-3, atol=5e-3)


def test_perturbed_zero_coupling_matches_continuity_limit(tilted, step):
    # one assembler samples both problems: at alpha = 0 the squeezed
    # problem (matched at +eps) is the continuous one (matched at 0)
    limit = eigen_limit(tilted, ThetaCoupled(1.0), 3, eigenfunctions=True)
    for eps in (0.2, 0.05):
        spec = eigen_perturbed(tilted, step, 0.0, eps, (1, 3), eigenfunctions=True)
        assert np.allclose(spec.eigenvalues, limit.eigenvalues, atol=1e-8)
        assert np.array_equal(spec.x, limit.x)
        assert np.max(np.abs(spec.eigenfunctions - limit.eigenfunctions)) <= 1e-7


@pytest.mark.parametrize("coeffs, radius", [
    ([0.0, 0.0, 1.0], 7.5), ([0.0, 0.0, 1.0], 8.0), ([0.0, 0.0, 2.0], 5.0),
    ([0.0, 0.0, 0.0, 0.0, 1.0], 5.5),
])
def test_a_degenerate_split_pair_lists_its_left_half_first(coeffs, radius):
    # the halves of an even potential have equal levels; which root rounds
    # lower varied with the potential and the radius, and so did the order
    spec = eigen_limit(polynomial_potential(coeffs, radius), DirichletSplit(), 4,
                       eigenfunctions=False)
    assert spec.flags == ["left,degenerate", "right,degenerate"] * 2


@pytest.mark.parametrize("tilt, first", [(-1e-7, "right"), (1e-7, "left"), (-1e-6, "right")])
def test_a_near_degenerate_split_pair_stays_ascending(tilt, first):
    # a small odd term splits the halves by about |tilt|: above rounding,
    # below ten eig_tol, so the pair is flagged but listed by value
    spec = eigen_limit(polynomial_potential([0.0, tilt, 1.0], 7.0), DirichletSplit(), 4,
                       eig_tol=1e-6, eigenfunctions=False)
    gaps = np.diff(spec.eigenvalues)[::2]
    assert np.all(gaps > 1e-9 * spec.eigenvalues[1::2]) and np.all(gaps < 1e-5), gaps
    other = "left" if first == "right" else "right"
    assert spec.flags == [f"{first},degenerate", f"{other},degenerate"] * 2


def test_split_eigenfunctions_vanish_on_the_dead_half(tilted):
    spec = eigen_limit(tilted, DirichletSplit(), 4, eigenfunctions=True)
    assert sorted(f.split(",")[0] for f in spec.flags) == ["left", "left", "right", "right"]
    for flag, v in zip(spec.flags, spec.eigenfunctions):
        dead = spec.x > 0.0 if flag.startswith("left") else spec.x <= 0.0
        assert np.all(v[dead] == 0.0), flag
        assert np.max(np.abs(v[~dead])) > 0.0
        assert _leftmost_major_sample(v) > 0.0


def test_perturbed_diving_scale(tilted, step, alpha1):
    # the lowest level dives like eps^-2 with the squeezed-cell ground level
    mu = interval_negative_levels(-30.0, 30.0, step, alpha1, 1.0)[0]
    for eps in (0.1, 0.05):
        spec = eigen_perturbed(tilted, step, alpha1, eps, (1, 1), eigenfunctions=False)
        assert spec.flags == ["diving"]
        assert eps * eps * spec.eigenvalues[0] == pytest.approx(mu, rel=2e-3)


def test_perturbed_input_validation(tilted, step):
    with pytest.raises(ValueError):
        eigen_perturbed(tilted, step, 1.0, 0.0, (1, 2))
    with pytest.raises(ValueError):
        eigen_perturbed(tilted, step, 1.0, 0.1, (3, 2))


@pytest.mark.parametrize("name", ["step", "odd_cubic", "asymmetric_bump"])
def test_diving_count_is_the_number_of_diving_levels(tilted, name):
    # the Sturm index at the bounded window's start against the levels the
    # diving search locates, on both sides of alpha = 0
    p = profiles.builtin(name)
    counts = set()
    for alpha in (-30.0, 0.0, 3.0, 60.0):
        for eps in (0.5, 0.05):
            n = diving_count(tilted, p, alpha, eps)
            spec = eigen_perturbed(tilted, p, alpha, eps, (1, n + 1))
            assert spec.flags == ["diving"] * n + ["ok"]
            counts.add(n)
    assert {0, 1, 2} <= counts


def test_bounded_levels_are_found_without_locating_the_diving_ones(tilted, step, alpha1,
                                                                  monkeypatch):
    eps = 0.05
    n = diving_count(tilted, step, alpha1, eps)
    full = eigen_perturbed(tilted, step, alpha1, eps, (1, n + 3))

    def located(*args):
        raise AssertionError("diving levels located")

    monkeypatch.setattr(spectra, "_diving_levels", located)
    bounded = eigen_perturbed(tilted, step, alpha1, eps, (n + 1, n + 3))
    assert n >= 1
    assert bounded.flags == ["ok"] * 3
    assert np.array_equal(bounded.eigenvalues, full.eigenvalues[n:])
    assert np.array_equal(bounded.residuals, full.residuals[n:])


@pytest.mark.parametrize("name, alpha, eps, k, level", [
    ("step", None, 0.01, 1, -107537.81303),
    ("asymmetric_bump", -50.0, 0.002, 3, -696313.748),
])
def test_diving_levels_match_a_dop853_oracle(tilted, alpha1, name, alpha, eps, k, level):
    # the diving levels are refined on the matching function whose index
    # counts them; the walls' meshes are sized from U, not from the level,
    # so the bound is a few 1e-7, not eig_tol
    p = profiles.builtin(name)
    alpha = alpha1 if alpha is None else alpha
    spec = eigen_perturbed(tilted, p, alpha, eps, (k, k))
    ref = diving_level_oracle(tilted, p, alpha, eps, level * (1.0 + 1e-6), level * (1.0 - 1e-6),
                              iters=20)
    assert spec.flags == ["diving"]
    assert abs(spec.eigenvalues[0] - ref) <= 3e-7 * abs(ref)


def test_a_diving_search_short_of_the_count_raises(tilted, step, alpha1, monkeypatch):
    found = spectra._diving_levels

    def one_short(*args):
        roots, residuals = found(*args)
        return roots[1:], residuals[1:]

    monkeypatch.setattr(spectra, "_diving_levels", one_short)
    with pytest.raises(NumericsError, match="counts 1 levels .* found 0"):
        eigen_perturbed(tilted, step, alpha1, 0.1, (1, 2))


def test_a_second_solve_shares_the_barrier_meshes_and_the_start_shot(tilted, step, alpha1,
                                                                     monkeypatch):
    # barrier coefficients are values, so the solve after diving_count
    # builds no mesh, and it shoots its scan start once
    from pointbarrier import ivp

    eps = 0.2
    assert spectra._barrier_chain(step, alpha1, eps, tilted) == spectra._barrier_chain(
        step, alpha1, eps, tilted)
    n = diving_count(tilted, step, alpha1, eps)
    builds, starts = [], []
    build = ivp._build_mesh
    monkeypatch.setattr(ivp, "_build_mesh", lambda *args: builds.append(args) or build(*args))
    start = spectra._weyl_scan(tilted)[1]
    spy_shots(monkeypatch, spectra,
              lambda chain, lams: starts.append(int(np.count_nonzero(lams == start))))
    eigen_perturbed(tilted, step, alpha1, eps, (n + 1, n + 2), eigenfunctions=True,
                    samples_per_unit=101)
    assert builds == []
    assert sum(starts) == 2  # one counted shot: one member on each chain


def test_limit_levels_below_a_pair_closer_than_the_halving_floor_are_found():
    # C = [[0, -1e-6], [1e6, 0]] nearly decouples two Dirichlet halves: the
    # pair at 7 is about 6e-6 apart, below the 7e-5 floor there, but the
    # two levels asked for lie below it (four levels exit 3: see
    # test_cli::test_spectrum_limit_pair_below_the_halving_floor_exits_3)
    U = polynomial_potential([0.0, 0.0, 1.0], 9.0)
    spec = eigen_limit(U, ConnectedMatrix(0.0, -1e-6, 1e6, 0.0), 2, eigenfunctions=False)
    assert spec.eigenvalues.size == 2 and spec.eigenvalues[0] < -9.9e11
    assert spec.eigenvalues[1] == pytest.approx(2.9999977432, abs=1e-9)


# -- interval problems ---------------------------------------------------------------

def test_interval_free_string(step):
    spec = interval_spectrum(-1.0, 2.0, step, 0.0, 1e-3, 5)
    ref = [(math.pi * k / 3.0) ** 2 for k in range(1, 6)]
    assert np.allclose(spec.eigenvalues, ref, rtol=1e-9)


@pytest.mark.parametrize("a, b, eps, count", [(-1.0, 1.0, 0.5, 2), (-1.0, 2.0, 0.05, 2),
                                               (-1.0, 2.0, 0.1, 1)])
def test_interval_levels_on_grid_nodes_at_zero_coupling(step, a, b, eps, count):
    # at alpha = 0 the levels (n pi / (b - a))^2 lie on nodes of the omega
    # grid: a level the index counts on its node may change sign only in
    # the next cell, and a tiny negative u(b) must not read as the angle pi
    spec = interval_spectrum(a, b, step, 0.0, eps, count)
    ref = [(n * math.pi / (b - a)) ** 2 for n in range(1, count + 1)]
    assert spec.eigenvalues == pytest.approx(ref, rel=0.0, abs=spectra.DEFAULT_EIG_TOL)


@pytest.mark.parametrize("a, b", [(-0.5, 0.5), (-1.0, 1.0), (-1.0, 2.0), (-1.0, 3.0), (-2.0, 2.0),
                                  (-0.25, 0.75), (-1.5, 0.5), (-3.0, 1.0)])
def test_interval_levels_at_zero_coupling_with_zeros_on_mesh_nodes(a, b):
    # at alpha = 0 a level's shot often has a zero of u on a mesh node or a
    # segment join (exactly 0.0 at the join x = 0 for asymmetric_bump on
    # (-0.25, 0.75) at (4 pi)^2, eps = 0.1); counted twice or not at all, it
    # would skip levels or raise a false halving-floor error
    for eps in (0.5, 0.25, 0.2, 0.125, 0.1, 0.05, 1e-3):
        if not a < -eps < eps < b:
            continue
        for name in ("step", "odd_cubic", "asymmetric_bump"):
            spec = interval_spectrum(a, b, profiles.builtin(name), 0.0, eps, 16)
            ref = [(n * math.pi / (b - a)) ** 2 for n in range(1, 17)]
            assert spec.eigenvalues == pytest.approx(ref, rel=0.0, abs=spectra.DEFAULT_EIG_TOL), (
                eps, name)


def test_interval_index_at_a_node_with_a_tiny_negative_shot(step):
    # one ulp above (2 pi / 3)^2, where level 2 lies to rounding, the shot
    # has crossed once and ends at u(b) = -1.3e-16: short of its second
    # zero by its sign, so the index reads 1, as the sign does (the scan
    # brackets a root on a node either way), and never 3
    fvec = spectra._interval_fvec(-1.0, 2.0, step, 0.0, 0.05, SolverConfig())
    vals, counts = fvec(np.array([4.386490844928604]), True)
    assert -1e-15 < vals[0] < 0.0
    assert counts.tolist() == [1]


def test_interval_limit_frequencies_continuity():
    w = interval_limit_frequencies(-1.0, 1.0, 1.0, 5)
    assert np.allclose(w, [math.pi * k / 2 for k in range(1, 6)], atol=1e-12)


def test_interval_limit_frequencies_residuals():
    for theta in (0.5, 1.7, 5.0):
        t2 = theta * theta
        for a, b in ((-1.0, 2.0), (-1.3, 0.7)):
            roots = interval_limit_frequencies(a, b, theta, 6)
            for w in roots:
                if abs(math.cos(a * w)) > 1e-3 and abs(math.cos(b * w)) > 1e-3:
                    assert abs(math.tan(b * w) - t2 * math.tan(a * w)) <= 1e-9


def test_interval_limit_frequencies_large_theta():
    # theta -> infinity decouples into Dirichlet (a,0) + Neumann-at-0 (0,b)
    roots = interval_limit_frequencies(-1.0, 2.0, 1e6, 8)
    expected = sorted(
        [math.pi * k for k in (1, 2)] + [(k - 0.5) * math.pi / 2 for k in range(1, 7)]
    )[:8]
    assert np.allclose(roots, expected, atol=1e-4)


def test_split_limit_frequencies_multiplicity():
    w = split_limit_frequencies(-1.0, 2.0, 6)
    # pi and 2 pi are shared by both intervals and appear twice
    assert np.allclose(
        w, [math.pi / 2, math.pi, math.pi, 3 * math.pi / 2, 2 * math.pi, 2 * math.pi]
    )


def test_interval_resonant_limit(step, alpha1, theta1):
    spec = interval_spectrum(-1.0, 2.0, step, alpha1, 1e-3, 6)
    omegas = np.sqrt(spec.eigenvalues)
    limits = interval_limit_frequencies(-1.0, 2.0, theta1, 6)
    assert np.max(np.abs(omegas - limits) / limits) <= 1e-3


def test_interval_nonresonant_limit(step):
    spec = interval_spectrum(-1.0, 2.0, step, 5.0, 1e-3, 6)
    omegas = np.sqrt(spec.eigenvalues)
    limits = split_limit_frequencies(-1.0, 2.0, 6)
    assert np.max(np.abs(omegas - limits) / limits) <= 1e-3


def test_a_level_on_a_grid_node_costs_no_halving(odd_cubic, monkeypatch):
    # at alpha = 0 the levels of (-2, 0.6569) lie on nodes of the omega
    # grid, where rounding can put one below the node by its count and
    # above it by its sign: the sign-change cell brackets it as it is
    halvings = []
    resolve = spectra.resolve_cells

    def spy(fvec, xs, fs, cs, out):
        def shoot(mids, with_counts=False):
            halvings.append(np.size(mids))
            return fvec(mids, with_counts)

        resolve(shoot, xs, fs, cs, out)

    monkeypatch.setattr(spectra, "resolve_cells", spy)
    spec = interval_spectrum(-2.0, 0.6569, odd_cubic, -0.0, 0.5, 1)
    assert halvings == []
    omega = interval_limit_frequencies(-2.0, 0.6569, 1.0, 1)[0]
    assert abs(math.sqrt(spec.eigenvalues[0]) - omega) < 1e-11


def _family_members(monkeypatch):
    """The family members of every chain that ``spectra`` shoots from now
    on, one entry per chain."""
    members = []
    spy_shots(monkeypatch, spectra, lambda chain, lams: members.append(lams.size))
    return members


def test_interval_scan_shoots_only_the_chunks_it_needs(monkeypatch, step, odd_cubic):
    # the lowest level of (-2, 0.6569) lies 8 omega steps up, in the first
    # chunk of 48; the split pairs at eps = 1e-3 are halved apart
    members = _family_members(monkeypatch)
    interval_spectrum(-2.0, 0.6569, odd_cubic, -0.0, 0.5, 1)
    assert sum(members) <= 60
    members.clear()
    spec = interval_spectrum(-1.0, 2.0, step, 5.0, 1e-3, 6)
    assert sum(members) <= 400
    gaps = np.diff(spec.eigenvalues)
    assert gaps.min() < 1e-2 and np.all(gaps > 0.0)  # the pairs near pi^2 and 4 pi^2


def test_interval_pair_closer_than_the_halving_floor_raises(step):
    # at eps = 1e-5 the split pairs near (k pi)^2 are closer than
    # 1e-5 max(1, lambda); the halving happens to separate those at pi^2
    # and 4 pi^2, but not the one at 9 pi^2, whose lower member is level 8
    with pytest.raises(NumericsError, match="halving floor"):
        interval_spectrum(-1.0, 2.0, step, 5.0, 1e-5, 8)
    assert interval_spectrum(-1.0, 2.0, step, 5.0, 1e-5, 7).eigenvalues[-1] < 62.0
    # the lowest level lies below every pair, in the same chunk of omega as
    # the pair at pi^2: the scan stops at it, so no pair can fail the call
    spec = interval_spectrum(-1.0, 2.0, step, 5.0, 1e-5, 1)
    assert spec.eigenvalues == pytest.approx([2.4674269787], abs=1e-9)


def test_interval_validation(step):
    with pytest.raises(ValueError):
        interval_spectrum(0.1, 2.0, step, 1.0, 0.2, 3)
    with pytest.raises(ValueError):
        interval_limit_frequencies(1.0, 2.0, 1.0, 3)


# -- first-order corrector --------------------------------------------------------------

def test_corrector_vanishes_without_perturbation(harmonic, step):
    lim = eigen_limit(harmonic, ThetaCoupled(1.0), 1, eigenfunctions=True)
    lam1 = corrector_lambda1(
        harmonic, step, 0.0, float(lim.eigenvalues[0]), limit_trace(harmonic, lim, 0),
        resonant=True,
    )
    assert lam1 == pytest.approx(0.0, abs=1e-9)


def test_corrector_branch_guards(tilted, step, alpha1):
    trace = BoundaryTrace(v_minus=0.0, v_plus=0.0, dv_minus=0.0, dv_plus=1.0)
    with pytest.raises(PreconditionError):
        # resonant coupling fed to the non-resonant branch: singular cell solve
        corrector_lambda1(tilted, step, alpha1, 4.0, trace, resonant=False)
    with pytest.raises(NotInResonanceSetError):
        corrector_lambda1(tilted, step, 5.0, 4.0, trace, resonant=True)
    both_alive = BoundaryTrace(v_minus=1.0, v_plus=1.0, dv_minus=1.0, dv_plus=1.0)
    with pytest.raises(PreconditionError):
        corrector_lambda1(tilted, step, 5.0, 4.0, both_alive, resonant=False)


def test_corrector_mirror_branch_matches_direct(tilted, step):
    # the left-half branch is handled by mirror symmetry: check it against
    # the right-half branch of the mirrored problem
    from pointbarrier.spectra import polynomial_potential

    split = eigen_limit(tilted, DirichletSplit(), 2, eigenfunctions=True)
    k_left = next(i for i, f in enumerate(split.flags) if f.startswith("left"))
    lam = float(split.eigenvalues[k_left])
    tr = limit_trace(tilted, split, k_left)
    l1_left = corrector_lambda1(tilted, step, 5.0, lam, tr, resonant=False)

    mirrored_U = polynomial_potential([0.0, -1.0, 1.0], tilted.truncation_radius)
    mirrored_tr = BoundaryTrace(
        v_minus=0.0, v_plus=tr.v_minus, dv_minus=0.0, dv_plus=-tr.dv_minus
    )
    l1_right = corrector_lambda1(mirrored_U, reflect(step), 5.0, lam, mirrored_tr, resonant=False)
    assert l1_left == pytest.approx(l1_right, rel=1e-9)


def test_ladder_levels_follow_the_solver_tolerance(tilted, step, alpha1, theta1):
    # the propagation mesh is sized by the config alone: tightening the
    # tolerances 100x moves the criterion-05 ladder levels by < 1e-9
    tight = SolverConfig(rel_tol=1e-12)
    limit = eigen_limit(tilted, ThetaCoupled(theta1), 3, eigenfunctions=False)
    limit_tight = eigen_limit(tilted, ThetaCoupled(theta1), 3, tight, eigenfunctions=False)
    assert np.max(np.abs(limit.eigenvalues - limit_tight.eigenvalues)) < 1e-9
    for eps in (0.2, 0.1, 0.05, 0.025):
        spec = eigen_perturbed(tilted, step, alpha1, eps, (1, 4))
        spec_tight = eigen_perturbed(tilted, step, alpha1, eps, (1, 4), tight)
        assert spec.flags == spec_tight.flags == ["diving", "ok", "ok", "ok"]
        assert np.max(np.abs(spec.eigenvalues[1:] - spec_tight.eigenvalues[1:])) < 1e-9


# -- bracketing by count-guided halving -------------------------------------------

def _recursive_resolve_cell(fvec, xa, fa, ca, xb, fb, cb, out, mids, depth=0):
    """Reference: depth-first halving, one midpoint shot per call;
    ``mids`` collects (depth, midpoint) of every shot."""
    sign_change = fa != 0.0 and (fb == 0.0 or (fa < 0.0) != (fb < 0.0))
    expected = max(0, cb - ca)
    if expected >= 2 or (expected == 1 and not sign_change):
        floor = 1e-5 * max(1.0, abs(xa), abs(xb))
        if xb - xa > floor and depth < 40:
            xm = 0.5 * (xa + xb)
            vm, cm = fvec(np.array([xm]), True)
            fm, nm = float(vm[0]), int(cm[0])
            mids.append((depth, xm))
            _recursive_resolve_cell(fvec, xa, fa, ca, xm, fm, nm, out, mids, depth + 1)
            _recursive_resolve_cell(fvec, xm, fm, nm, xb, fb, cb, out, mids, depth + 1)
            return
    if sign_change:
        out.append((xa, xb))


_ROOTS = np.array([0.5, 2.3, 2.3001, 4.0, 6.7])
# cells: [0, 1] one plain root; [2, 3] a hidden pair; [3, 4] a root
# exactly on its right node; [6, 7] a root
_NODES = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 1e9]


def _counted_roots(phantoms):
    """f with sign changes at ``_ROOTS``, and the count of roots at or
    below x, which also steps at ``phantoms``, where f keeps its sign."""
    steps = np.concatenate((_ROOTS, phantoms))

    def fvec(x, with_counts=False):
        x = np.asarray(x, dtype=float)
        vals = np.prod(x[:, None] - _ROOTS, axis=1)
        return vals, np.sum(x[:, None] >= steps, axis=1)

    return fvec


def _resolve_against_reference(fvec):
    """``resolve_cells`` on ``_NODES`` with its calls recorded, next to the
    recursive reference's brackets and (depth, midpoint) shots."""
    from pointbarrier.rootfind import resolve_cells

    calls = []

    def counted(x, with_counts=False):
        assert with_counts
        calls.append(np.array(x))
        return fvec(x, True)

    fs, cs = fvec(_NODES, True)
    assert fs[4] == 0.0
    want, mids = [], []
    for i in range(len(_NODES) - 1):
        _recursive_resolve_cell(fvec, _NODES[i], float(fs[i]), int(cs[i]), _NODES[i + 1],
                                float(fs[i + 1]), int(cs[i + 1]), want, mids)
    got, error = [], None
    try:
        resolve_cells(counted, _NODES, fs, cs, got)
    except NumericsError as exc:
        error = exc
    depths = sorted({d for d, _ in mids})
    # one call per halving level, holding every midpoint of that level
    assert len(calls) == len(depths)
    for d, shot in zip(depths, calls):
        assert sorted(shot.tolist()) == sorted(x for dd, x in mids if dd == d)
    return got, want, depths, error


def test_resolve_cells_matches_recursive_reference():
    from pointbarrier.rootfind import illinois_vector

    fvec = _counted_roots(np.empty(0))
    got, want, depths, error = _resolve_against_reference(fvec)
    assert error is None
    assert got == want
    assert [round(a, 3) for a, _ in got] == [0.0, 2.3, 2.3, 3.0, 6.0]
    assert depths == list(range(12))  # the pair 1e-4 apart in [2, 3]
    # a bracket end where f is 0 is the root itself
    lo, hi = np.array(got).T
    refined = illinois_vector(lambda x: fvec(x)[0], lo, hi)
    assert refined[3] == 4.0
    assert np.allclose(refined, _ROOTS, atol=1e-12)


def test_resolve_cells_raises_on_count_rises_no_sign_change_shows():
    # [5, 6] a count rise with no sign change, halved to the width floor;
    # [8, 1e9] one that stops at 40 halvings before the floor: both are
    # halved as the reference does, then the shortfall raises
    _, _, depths, error = _resolve_against_reference(_counted_roots(np.array([5.25, 8.5])))
    assert depths == list(range(40))
    assert error is not None
    assert str(error) == ("the index counts 7 roots in (0, 1000000000], but only 5 show a "
                          "sign change at the halving floor")


# -- exact Sturm index and connected couplings -----------------------------------

POTENTIALS = {
    "harmonic": (lambda x: x * x, [0.0, 0.0, 1.0], 7.0),
    "double_well": (lambda x: 0.3 * x - 2.0 * x**2 + 0.5 * x**4, [0.0, 0.3, -2.0, 0.0, 0.5], 5.0),
}


@pytest.mark.parametrize("name", sorted(POTENTIALS))
@pytest.mark.parametrize("s", [2.0, -5.0])
def test_delta_coupling_against_finite_differences(name, s):
    # (v, v')(+0) = (v(-0), v'(-0) + s v(-0)) is -v'' + U v + s delta v:
    # non-diagonal couplings, and s = -5 binds a level below min(0, min U) - 1
    Ufun, coeffs, R = POTENTIALS[name]
    spec = eigen_limit(polynomial_potential(coeffs, R), ConnectedMatrix(1.0, 0.0, s, 1.0), 6,
                       eigenfunctions=False)
    ref = fd_levels(Ufun, -R, R, 8001, 6, s)
    assert spec.flags == ["ok"] * 6
    assert np.allclose(spec.eigenvalues, ref, rtol=1e-4, atol=0.0)
    assert np.all(spec.residuals < 1e-9)


def test_deep_bound_level_is_reached_in_few_steps(monkeypatch, harmonic):
    # s = -50 binds a level near -625, so the scan starts far below min U:
    # the gap there is the distance to min U, not a fixed 0.5
    members = _family_members(monkeypatch)
    spec = eigen_limit(harmonic, ConnectedMatrix(1.0, 0.0, -50.0, 1.0), 3, eigenfunctions=False)
    assert sum(members) < 1000
    R = harmonic.truncation_radius
    ref = fd_levels(lambda x: x * x, -R, R, 28001, 3, -50.0)
    assert np.allclose(spec.eigenvalues, ref, rtol=1e-4, atol=0.0)


def _refine_members(monkeypatch):
    """Members passed to the matching functions by ``illinois_vector``."""
    members = []
    refine = spectra.illinois_vector

    def counted(fvec, lo, hi, **kwargs):
        def shoot(lams):
            members.append(np.size(lams))
            return fvec(lams)

        return refine(shoot, lo, hi, **kwargs)

    monkeypatch.setattr(spectra, "illinois_vector", counted)
    return members


def test_limit_levels_are_refined_in_few_members(monkeypatch, harmonic):
    # the spectrum workload: a converged bracket is not shot again, and a
    # converged end closes its bracket at once (165 members when every
    # bracket was shot until the last converged, creeping by midpoints)
    members = _refine_members(monkeypatch)
    spec = eigen_limit(harmonic, ThetaCoupled(1.0), 5, eigenfunctions=False)
    assert sum(members) <= 60
    assert np.allclose(spec.eigenvalues, [1.0, 3.0, 5.0, 7.0, 9.0], atol=1e-8)


def test_bounded_levels_of_a_converge_rung_are_refined_in_few_members(monkeypatch, tilted,
                                                                      step, alpha1):
    # the converge rung eps = 0.05: 39 members; 54 when every bracket was
    # shot until the last converged, creeping by midpoints
    n = diving_count(tilted, step, alpha1, 0.05)
    members = _refine_members(monkeypatch)
    spec = eigen_perturbed(tilted, step, alpha1, 0.05, (n + 1, n + 3))
    assert spec.flags == ["ok"] * 3
    assert sum(members) <= 45


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_sturm_index_counts_finite_difference_levels(name, cfg):
    from pointbarrier.spectra import _limit_problems, _matching

    Ufun, coeffs, R = POTENTIALS[name]
    U = polynomial_potential(coeffs, R)
    grid = np.linspace(-30.0, 16.0, 185)
    cases = [
        (ConnectedMatrix(1.0, 0.0, 2.0, 1.0), [fd_levels(Ufun, -R, R, 8001, 30, 2.0)]),
        (ConnectedMatrix(1.0, 0.0, -5.0, 1.0), [fd_levels(Ufun, -R, R, 8001, 30, -5.0)]),
        (DirichletSplit(), [fd_levels(Ufun, -R, 0.0, 4000, 30), fd_levels(Ufun, 0.0, R, 4000, 30)]),
    ]
    for bc, refs in cases:
        problems = _limit_problems(U, bc)
        assert len(problems) == len(refs)
        for (what, problem), ref in zip(problems, refs):
            fvec = _matching(problem, cfg)
            # grid points within the FD error of a level are left out
            lams = grid[np.min(np.abs(grid[:, None] - ref), axis=1) > 1e-3]
            assert lams.size > 170
            _, N = fvec(lams, True)
            assert N.tolist() == np.sum(lams[:, None] >= ref, axis=1).tolist(), (bc, what)


@pytest.mark.parametrize("bc", [
    ConnectedMatrix(0.0, 1.0, -1.0, 0.0),  # C (0, 1) = (1, 0): F0 = pi/2
    ConnectedMatrix(2.0, 3.0, 1.0, 2.0),
    Separated(1.0, 0.7, 1.0, -0.4),
])
def test_sturm_index_rises_once_per_sign_change(harmonic, cfg, bc):
    from pointbarrier.spectra import _limit_problems, _matching

    lams = np.linspace(-40.0, 16.0, 1121)
    for what, problem in _limit_problems(harmonic, bc):
        f, N = _matching(problem, cfg)(lams, True)
        assert N[0] == 0, what
        rises = np.diff(N)
        assert np.all(rises >= 0), what
        flips = (f[1:] < 0.0) != (f[:-1] < 0.0)
        assert rises.tolist() == flips.astype(int).tolist(), what
        assert N[-1] >= 4, what


def test_perturbed_scan_splits_only_cells_holding_two_levels(monkeypatch, tilted, step, alpha1):
    # the converge configuration at eps = 0.05: with an exact index a cell
    # whose index rises by one holds one root and shows its sign change, so
    # no cell is halved for a count step without a root
    resolve = spectra.resolve_cells
    split_rises = []

    def spy(fvec, xs, fs, cs, out):
        known = dict(zip(np.asarray(xs, dtype=float).tolist(), np.asarray(cs).tolist()))

        def shoot_mids(mids, with_counts=False):
            vals, counts = fvec(mids, True)
            pts = sorted(known)
            for m in np.asarray(mids).tolist():
                i = int(np.searchsorted(pts, m))
                split_rises.append(known[pts[i]] - known[pts[i - 1]])
            known.update(zip(np.asarray(mids).tolist(), counts.tolist()))
            return vals, counts

        resolve(shoot_mids, xs, fs, cs, out)

    monkeypatch.setattr(spectra, "resolve_cells", spy)
    spec = eigen_perturbed(tilted, step, alpha1, 0.05, (1, 4))
    assert spec.flags == ["diving", "ok", "ok", "ok"]
    assert all(rise >= 2 for rise in split_rises), split_rises

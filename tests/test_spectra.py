import math

import numpy as np
import pytest
from conftest import fd_levels

from pointbarrier import profiles, spectra
from pointbarrier.errors import (
    NotInResonanceSetError,
    NumericsError,
    PreconditionError,
    TruncationDomainError,
)
from pointbarrier.ivp import SolverConfig
from pointbarrier.spectra import (
    BoundaryTrace,
    ConnectedMatrix,
    DirichletSplit,
    Separated,
    Spectrum,
    ThetaCoupled,
    corrector_lambda1,
    diving_count,
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


def test_eigenfunction_normalization_and_traces(harmonic):
    spec = eigen_limit(harmonic, ThetaCoupled(1.0), 2, eigenfunctions=True)
    for v in spec.eigenfunctions:
        norm = math.sqrt(float(np.trapezoid(v * v, spec.x)))
        assert norm == pytest.approx(1.0, abs=1e-8)
        assert v[np.argmax(np.abs(v))] > 0
    tr = spec.boundary_traces[0]
    assert tr.v_minus == pytest.approx(math.pi**-0.25, rel=1e-8)
    assert tr.v_plus == pytest.approx(tr.v_minus, rel=1e-10)
    assert abs(tr.dv_minus) < 1e-9


def test_coupled_trace_satisfies_interface(tilted, theta1):
    spec = eigen_limit(tilted, ThetaCoupled(theta1), 2, eigenfunctions=True)
    for tr in spec.boundary_traces:
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
    limit = eigen_limit(tilted, ThetaCoupled(1.0), 3, eigenfunctions=False)
    for eps in (0.2, 0.05):
        spec = eigen_perturbed(tilted, step, 0.0, eps, (1, 3), eigenfunctions=False)
        assert np.allclose(spec.eigenvalues, limit.eigenvalues, atol=1e-8)


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
    p = profiles.builtin(name, {})
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

    monkeypatch.setattr(spectra, "_perturbed_negative_levels", located)
    bounded = eigen_perturbed(tilted, step, alpha1, eps, (n + 1, n + 3))
    assert n >= 1
    assert bounded.flags == ["ok"] * 3
    assert np.array_equal(bounded.eigenvalues, full.eigenvalues[n:])
    assert np.array_equal(bounded.residuals, full.residuals[n:])


def test_a_diving_search_short_of_the_count_raises(tilted, step, alpha1, monkeypatch):
    found = spectra._perturbed_negative_levels

    def one_short(*args):
        roots, residuals = found(*args)
        return roots[1:], residuals[1:]

    monkeypatch.setattr(spectra, "_perturbed_negative_levels", one_short)
    with pytest.raises(NumericsError, match="counts 1 levels .* found 0"):
        eigen_perturbed(tilted, step, alpha1, 0.1, (1, 2))


def test_grid_roots_raise_when_brackets_fall_short_of_the_count():
    # the count rises at 0.5 and 2.5 but the value changes sign only at 0.5:
    # a root the sign cannot show is an error, not a silent omission
    def fvec(x, with_counts=False):
        x = np.asarray(x, dtype=float)
        vals = x - 0.5
        if not with_counts:
            return vals
        return vals, (x >= 0.5).astype(int) + (x >= 2.5)

    grid = np.linspace(0.0, 4.0, 9)
    with pytest.raises(NumericsError, match="counts 2 eigenvalues .* only 1"):
        spectra._grid_roots(fvec, grid, xtol=1e-12, rtol=1e-12)
    assert np.allclose(spectra._grid_roots(fvec, grid[:5], xtol=1e-12, rtol=1e-12), [0.5])


# -- interval problems ---------------------------------------------------------------

def test_interval_free_string(step):
    spec = interval_spectrum(-1.0, 2.0, step, 0.0, 1e-3, 5)
    ref = [(math.pi * k / 3.0) ** 2 for k in range(1, 6)]
    assert np.allclose(spec.eigenvalues, ref, rtol=1e-9)


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


def test_interval_validation(step):
    with pytest.raises(ValueError):
        interval_spectrum(0.1, 2.0, step, 1.0, 0.2, 3)
    with pytest.raises(ValueError):
        interval_limit_frequencies(1.0, 2.0, 1.0, 3)


# -- first-order corrector --------------------------------------------------------------

def test_corrector_vanishes_without_perturbation(harmonic, step):
    lim = eigen_limit(harmonic, ThetaCoupled(1.0), 1, eigenfunctions=True)
    lam1 = corrector_lambda1(
        harmonic, step, 0.0, float(lim.eigenvalues[0]), lim.boundary_traces[0], resonant=True
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
    from pointbarrier.profiles import reflect
    from pointbarrier.spectra import polynomial_potential

    split = eigen_limit(tilted, DirichletSplit(), 2, eigenfunctions=True)
    k_left = next(i for i, f in enumerate(split.flags) if f.startswith("left"))
    lam = float(split.eigenvalues[k_left])
    tr = split.boundary_traces[k_left]
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


def test_resolve_cells_matches_recursive_reference():
    from pointbarrier.rootfind import illinois_vector, resolve_cells

    # sign changes at the roots; the count of roots at or below x steps at
    # the roots and at the phantoms, where the value keeps its sign
    roots = np.array([0.5, 2.3, 2.3001, 4.0, 6.7])
    phantoms = np.array([5.25, 8.5])

    def fvec(x, with_counts=False):
        x = np.asarray(x, dtype=float)
        vals = np.prod(x[:, None] - roots, axis=1)
        return vals, np.sum(x[:, None] >= np.concatenate((roots, phantoms)), axis=1)

    calls = []

    def counted(x, with_counts=False):
        assert with_counts
        calls.append(np.array(x))
        return fvec(x, True)

    # cells: [0, 1] one plain root; [2, 3] a hidden pair; [3, 4] a root
    # exactly on its right node; [5, 6] a count rise with no sign change,
    # halved to the width floor and dropped; [6, 7] a root; [8, 1e9] a
    # phantom that stops at 40 halvings before the floor
    xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 1e9]
    fs, cs = fvec(xs, True)
    assert fs[4] == 0.0
    want, mids = [], []
    for i in range(len(xs) - 1):
        _recursive_resolve_cell(fvec, xs[i], float(fs[i]), int(cs[i]),
                                xs[i + 1], float(fs[i + 1]), int(cs[i + 1]), want, mids)
    got = []
    resolve_cells(counted, xs, fs, cs, got)
    assert got == want
    assert [round(a, 3) for a, _ in got] == [0.0, 2.3, 2.3, 3.0, 6.0]
    # a bracket end where f is 0 is the root itself
    lo, hi = np.array(got).T
    refined = illinois_vector(lambda x: fvec(x)[0], lo, hi)
    assert refined[3] == 4.0
    assert np.allclose(refined, roots, atol=1e-12)
    depths = sorted({d for d, _ in mids})
    assert depths == list(range(40))
    # one call per halving level, holding every midpoint of that level
    assert len(calls) == len(depths)
    for d, shot in zip(depths, calls):
        assert sorted(shot.tolist()) == sorted(x for dd, x in mids if dd == d)


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
    members = []
    propagate = spectra.propagate_family

    def counted(chain, lams, *args, **kwargs):
        members.append(np.size(lams))
        return propagate(chain, lams, *args, **kwargs)

    monkeypatch.setattr(spectra, "propagate_family", counted)
    spec = eigen_limit(harmonic, ConnectedMatrix(1.0, 0.0, -50.0, 1.0), 3, eigenfunctions=False)
    assert sum(members) < 1000
    R = harmonic.truncation_radius
    ref = fd_levels(lambda x: x * x, -R, R, 28001, 3, -50.0)
    assert np.allclose(spec.eigenvalues, ref, rtol=1e-4, atol=0.0)


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_sturm_index_counts_finite_difference_levels(name, cfg):
    from pointbarrier.spectra import _limit_problems

    Ufun, coeffs, R = POTENTIALS[name]
    U = polynomial_potential(coeffs, R)
    grid = np.linspace(-30.0, 16.0, 185)
    cases = [
        (ConnectedMatrix(1.0, 0.0, 2.0, 1.0), [fd_levels(Ufun, -R, R, 8001, 30, 2.0)]),
        (ConnectedMatrix(1.0, 0.0, -5.0, 1.0), [fd_levels(Ufun, -R, R, 8001, 30, -5.0)]),
        (DirichletSplit(), [fd_levels(Ufun, -R, 0.0, 4000, 30), fd_levels(Ufun, 0.0, R, 4000, 30)]),
    ]
    for bc, refs in cases:
        problems = _limit_problems(U, bc, cfg)
        assert len(problems) == len(refs)
        for (what, fvec), ref in zip(problems, refs):
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
    from pointbarrier.spectra import _limit_problems

    lams = np.linspace(-40.0, 16.0, 1121)
    for what, fvec in _limit_problems(harmonic, bc, cfg):
        f, N = fvec(lams, True)
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

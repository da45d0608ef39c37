"""Eigenvalue solvers for the squeezed-barrier operator and its limits.

Whole-line problems with a confining potential are truncated to a box
[-R, R] with Dirichlet walls (the truncation error is exponentially small
and is monitored by a wall-margin check).  Eigenvalues are located by
shooting: Cauchy data is carried from each wall to a matching point, an
interface condition is applied there, and the eigenvalues are the zeros of
the normalized matching Wronskian (``_matching``, one formula for every
problem).  The Wronskian is evaluated for whole vectors of trial
eigenvalues at once (one family propagation per grid pass), together with
the exact Sturm index of every trial value: the number of eigenvalues at
or below it, from the zero counts of the shots and the Pruefer angles at
the matching point.  The index steers the bracketing scan, and the roots
are polished by a safeguarded vectorized secant iteration.

The interface condition at the origin is one of:

* ``DirichletSplit``: two decoupled half-line Dirichlet problems (the
  totally reflecting limit of a non-resonant squeezed barrier);
* ``ThetaCoupled(theta)``: v(+0) = theta v(-0), theta v'(+0) = v'(-0)
  (the partially transmitting limit at a resonant coupling);
* ``ConnectedMatrix``: a general unimodular real interface matrix with an
  optional unitary phase (the phase drops out of the eigenvalue problem);
* ``Separated``: independent projective boundary conditions on each side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    NotInResonanceSetError,
    NumericsError,
    PreconditionError,
    SpectralWindowError,
    TruncationDomainError,
)
from .ivp import DEFAULT_CONFIG, FamilySegment, SolverConfig, propagate_family
from .profiles import Profile, reflect
from .resonance import _alpha_segments, scaled_residual, shoot
from .rootfind import brent, illinois_vector, resolve_cells, sign_change_brackets

__all__ = [
    "DirichletSplit",
    "ThetaCoupled",
    "ConnectedMatrix",
    "Separated",
    "ConfiningPotential",
    "BoundaryTrace",
    "Spectrum",
    "polynomial_potential",
    "eigen_limit",
    "eigen_perturbed",
    "diving_count",
    "interval_spectrum",
    "interval_negative_levels",
    "interval_limit_frequencies",
    "split_limit_frequencies",
    "corrector_lambda1",
]

DEFAULT_EIG_TOL = 1e-8
DEFAULT_MARGIN = 25.0
SAMPLES_PER_UNIT = 2001
_CHUNK = 48


# -- interface conditions ------------------------------------------------------

@dataclass(frozen=True)
class DirichletSplit:
    """v(-0) = v(+0) = 0: decoupled half problems."""


@dataclass(frozen=True)
class ThetaCoupled:
    """v(+0) = theta v(-0) and theta v'(+0) = v'(-0), theta != 0.

    Equivalent to ``ConnectedMatrix`` with diag(theta, 1/theta) and zero
    phase.
    """

    theta: float

    def __post_init__(self):
        if self.theta == 0.0:
            raise ValueError("theta must be nonzero")

    def matrix(self) -> np.ndarray:
        return np.array([[self.theta, 0.0], [0.0, 1.0 / self.theta]])


@dataclass(frozen=True)
class ConnectedMatrix:
    """(v, v')(+0) = e^{i phi} C (v, v')(-0) with real unimodular C.

    The phase multiplies the whole interface matrix by a unit scalar, so
    it cancels from the matching condition: eigenvalues depend on C
    only.  det C = 1 is enforced to 1e-12.
    """

    c11: float
    c12: float
    c21: float
    c22: float
    phi: float = 0.0

    def __post_init__(self):
        det = self.c11 * self.c22 - self.c12 * self.c21
        if abs(det - 1.0) > 1e-12:
            raise ValueError(f"interface matrix determinant must be 1, got {det}")
        if not -math.pi / 2 <= self.phi <= math.pi / 2:
            raise ValueError("phi must lie in [-pi/2, pi/2]")

    def matrix(self) -> np.ndarray:
        return np.array([[self.c11, self.c12], [self.c21, self.c22]])


@dataclass(frozen=True)
class Separated:
    """h1 v'(0) = h2 v(0) independently on each side (projective pairs)."""

    h1m: float
    h2m: float
    h1p: float
    h2p: float

    def __post_init__(self):
        if self.h1m == self.h2m == 0.0 or self.h1p == self.h2p == 0.0:
            raise ValueError("each projective pair must be nonzero")


BoundaryCoupling = DirichletSplit | ThetaCoupled | ConnectedMatrix | Separated


@dataclass(frozen=True)
class ConfiningPotential:
    """Smooth background potential with its truncation radius.

    The wall check ``U(+-R) >= lambda + margin`` runs at solve time; the
    default margin of 25 makes the Dirichlet-truncation error far below
    the eigenvalue tolerance.
    """

    U: Callable[[float], float]
    truncation_radius: float
    label: str = "potential"

    def __post_init__(self):
        if self.truncation_radius <= 0:
            raise ValueError("truncation_radius must be positive")

    def wall_floor(self) -> float:
        R = self.truncation_radius
        return min(self.U(-R), self.U(R))


def polynomial_potential(coeffs: Sequence[float], radius: float, label: str | None = None) -> ConfiningPotential:
    """Confining potential sum(c_j x^j) on [-radius, radius]."""
    cs = tuple(float(c) for c in coeffs)

    def U(x: float) -> float:
        acc = 0.0
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    return ConfiningPotential(U, radius, label or ("poly:" + ",".join(repr(c) for c in cs)))


@dataclass(frozen=True)
class BoundaryTrace:
    """One-sided boundary data (v, v') at the origin of a normalized
    eigenfunction."""

    v_minus: float
    v_plus: float
    dv_minus: float
    dv_plus: float


@dataclass
class Spectrum:
    """Ordered eigenvalues with optional sampled eigenfunctions.

    Eigenfunctions are normalized to unit L2 norm on the sampled grid and
    oriented so the largest-magnitude sample is positive.  ``residuals``
    are the normalized matching-Wronskian values at convergence;
    ``flags`` carry 'ok', 'left'/'right' (split problems), 'degenerate'
    (near-coincident split pairs) or 'diving' (below the bounded window).
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    flags: list[str]
    x: np.ndarray | None = None
    eigenfunctions: np.ndarray | None = None
    boundary_traces: list[BoundaryTrace] | None = None

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.size > 1 and np.any(np.diff(lam) < -1e-9 * np.maximum(1.0, np.abs(lam[:-1]))):
            raise ValueError("eigenvalues must be ascending")


# -- matching Wronskians -------------------------------------------------------

def _norm2(Y: np.ndarray) -> np.ndarray:
    return np.sqrt(np.abs(Y[0]) ** 2 + np.abs(Y[1]) ** 2)


def _wall_chain(U: ConfiningPotential, wall: float, target: float) -> list[FamilySegment]:
    return [FamilySegment(wall, target, U.U, -1.0)]


def _barrier_chain(p: Profile, alpha: float, eps: float,
                   U: ConfiningPotential | None) -> list[FamilySegment]:
    """Segments covering [-eps, eps] in x with the squeezed profile.

    The coefficient is U(x) + alpha eps^-2 profile(x/eps) - lambda; profile
    breakpoints are segment boundaries so the integrator never straddles a
    discontinuity.
    """
    inv2 = alpha / (eps * eps)
    segs = []
    for seg in p.segments:
        lo, hi = eps * seg.a, eps * seg.b

        if U is None and seg.is_constant:
            segs.append(FamilySegment(lo, hi, inv2 * seg.coeffs[0], -1.0))
            continue

        def cpart(x: float, _seg=seg, _inv2=inv2) -> float:
            val = _inv2 * _seg(x / eps)
            if U is not None:
                val += U.U(x)
            return val

        segs.append(FamilySegment(lo, hi, cpart, -1.0))
    return segs


def _reduced_angle(Y):
    """The Pruefer angle atan2(v, v') of the states ``Y``, mod pi."""
    return np.arctan2(Y[0], Y[1]) % math.pi


def _matching(chains, cfg, C=None, W=(0.0, 1.0)):
    """The matching function of one problem: Dirichlet shots along each of
    ``chains`` meet at their common end.  The first shot must run towards
    +x; a lone shot run towards -x is passed as its mirror image x -> -x,
    with C = diag(1, -1) and W mirrored alike.

    ``fvec(lams)`` returns the normalized Wronskian
    (V0 W1 - V1 W0) / (|V| |W|) of V = C Y, the first shot's end state
    carried across the interface matrix ``C`` (default: none), and W, the
    second shot's end state or, for one chain, the fixed boundary vector
    ``W``: (0, 1) for a Dirichlet end, (h1, h2) for h1 v' = h2 v.
    ``fvec(lams, True)`` also returns the exact number of eigenvalues
    <= lam, the matching-point Pruefer index of SLEIGN2:

        N = (zeros of the shots) + [a < F0] + [a >= r],

    with a, F0 and r the reduced angles of V, C (0, 1) and W in [0, pi),
    except that a fixed W takes r in (0, pi]: a Dirichlet end has r = pi.
    """
    F0 = 0.0 if C is None else _reduced_angle(C[:, 1])
    W = np.asarray(W, dtype=float)
    r_fixed = _reduced_angle(W) or math.pi

    def fvec(lams: np.ndarray, with_counts: bool = False):
        shots = [
            propagate_family(chain, lams, np.array([0.0, 1.0]), cfg,
                             rescale=True, count_zeros=with_counts)
            for chain in chains
        ]
        V = shots[0].states if C is None else C @ shots[0].states
        Y = shots[1].states if len(shots) == 2 else W
        vals = (V[0] * Y[1] - V[1] * Y[0]) / (_norm2(V) * _norm2(Y))
        if not with_counts:
            return vals
        r = _reduced_angle(Y) if len(shots) == 2 else r_fixed
        a = _reduced_angle(V)
        return vals, sum(shot.zero_counts for shot in shots) + (a < F0) + (a >= r)

    return fvec


# -- Weyl-informed eigenvalue grids ---------------------------------------------

def _weyl_scan(U: ConfiningPotential) -> tuple[Callable[[float], float], float]:
    """The Weyl gap function of U and a scan start below min(0, min U),
    both from one sampling of U on [-R, R].  Below min U the gap is the
    distance to min U (at least 0.5), so a deep start reaches it in a few
    steps."""
    R = U.truncation_radius
    xs = np.linspace(-R, R, 801)
    Us = np.array([U.U(float(x)) for x in xs])
    u_min = float(Us.min())

    def gap(lam: float) -> float:
        diff = lam - Us
        mask = diff > 1e-9
        if not np.any(mask):
            return max(0.5, u_min - lam)
        dens = np.trapezoid(1.0 / np.sqrt(diff[mask]), xs[mask]) / (2.0 * math.pi)
        if dens <= 0.0:
            return 0.5
        return min(1.0 / dens, 20.0)

    return gap, min(0.0, u_min) - 1.0


def _verified_scan(
    fvec,
    start: float,
    ceiling: float,
    gap_fn: Callable[[float], float],
    k_needed: int,
    what: str,
):
    """March upward bracketing sign changes of the matching Wronskian.

    ``fvec(lams, True) -> (values, Sturm index)``.  Each chunk of the Weyl
    grid is shot in one call (the first one with the start point).  The
    index counts the eigenvalues at or below each point exactly, so a cell
    across which it rises by two or more holds that many roots (near-
    degenerate pairs of split-like problems defeat any fixed grid), and
    ``resolve_cells`` halves it, one level of midpoints per call, until
    every root shows its own sign change.  Only the rises of the index
    matter, so levels below ``start`` (the diving levels of the squeezed
    problem) are neither found nor in the way.
    """
    brackets: list[tuple[float, float]] = []
    xs = [start]
    vals, counts = np.empty(0), np.empty(0, dtype=int)  # shots of xs[:vals.size]
    guard = 0
    while len(brackets) < k_needed:
        lam = xs[-1]
        for _ in range(_CHUNK):
            lam = lam + 0.5 * gap_fn(lam)
            xs.append(lam)
            if lam > ceiling:
                break
        v, c = fvec(np.array(xs[vals.size:]), True)
        vals, counts = np.concatenate((vals, v)), np.concatenate((counts, c))
        resolve_cells(fvec, xs, vals, counts, brackets)
        xs, vals, counts = xs[-1:], vals[-1:], counts[-1:]
        if xs[0] > ceiling:
            if len(brackets) < k_needed:
                raise TruncationDomainError(
                    f"{what}: only {len(brackets)} of {k_needed} eigenvalues found below "
                    f"the wall ceiling {ceiling:.6g}; enlarge the truncation radius"
                )
            break
        guard += 1
        if guard > 4000:
            raise SpectralWindowError(f"{what}: eigenvalue search did not terminate")
    return brackets[:k_needed]


def _grid_roots(fvec, grid: np.ndarray, xtol: float, rtol: float) -> np.ndarray:
    """Roots of ``fvec`` in the cells of the ascending ``grid``: cells are
    split until the zero counts show every root, then refined together.
    Raises ``NumericsError`` when the brackets fall short of the count."""
    vals, counts = fvec(grid, True)
    brackets: list[tuple[float, float]] = []
    resolve_cells(fvec, grid, vals, counts, brackets)
    if len(brackets) < counts[-1] - counts[0]:
        raise NumericsError(
            f"the Sturm index counts {counts[-1] - counts[0]} eigenvalues in ({grid[0]:.10g}, "
            f"{grid[-1]:.10g}], but only {len(brackets)} show a sign change at the halving floor")
    if not brackets:
        return np.empty(0)
    lo = np.array([x for x, _ in brackets])
    hi = np.array([x for _, x in brackets])
    return illinois_vector(fvec, lo, hi, xtol=xtol, rtol=rtol)


def _refine(fvec, brackets, eig_tol):
    if not brackets:
        return np.empty(0), np.empty(0)
    lo = np.array([a for a, _ in brackets])
    hi = np.array([b for _, b in brackets])
    xtol = max(1e-13, min(1e-10, eig_tol * 1e-3))
    roots = illinois_vector(fvec, lo, hi, xtol=xtol, rtol=1e-14)
    residuals = np.abs(fvec(roots))
    return roots, residuals


# -- limit operator --------------------------------------------------------------

def eigen_limit(
    U: ConfiningPotential,
    bc: BoundaryCoupling,
    k_max: int,
    cfg: SolverConfig | None = None,
    eig_tol: float = DEFAULT_EIG_TOL,
    *,
    margin: float = DEFAULT_MARGIN,
    eigenfunctions: bool = True,
    samples_per_unit: int = SAMPLES_PER_UNIT,
) -> Spectrum:
    """Lowest ``k_max`` eigenvalues of -v'' + U v with interface ``bc`` at 0.

    Dirichlet walls sit at +-R (R from the potential record).  Split-type
    couplings solve their two half problems; they may return near-
    coincident pairs, and both members are reported and flagged.  A
    connected coupling (``ThetaCoupled``, ``ConnectedMatrix``) solves one
    problem across the interface matrix.  Every problem is scanned
    upwards from a start below its lowest level, moved down until the
    Sturm index reads 0 there, so bound states of attractive couplings
    are found.  Raises ``TruncationDomainError`` when a requested level
    comes within ``margin`` of the wall potential.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    cfg = cfg or DEFAULT_CONFIG
    ceiling = U.wall_floor() - margin
    gap_fn, start = _weyl_scan(U)

    found = []
    for flag, fvec in _limit_problems(U, bc, cfg):
        what = "coupled problem" if flag == "ok" else f"{flag} half problem"
        brackets = _verified_scan(fvec, _scan_start(fvec, start, what), ceiling, gap_fn,
                                  k_max, what)
        roots, residuals = _refine(fvec, brackets, eig_tol)
        found.extend((lam, res, flag) for lam, res in zip(roots, residuals))
    found = sorted(found, key=lambda t: t[0])
    lams = np.array([t[0] for t in found])
    residuals = np.array([t[1] for t in found])
    flags = [t[2] for t in found]
    # flag before the cut: the partner of the last kept level may lie beyond it
    for i in range(len(lams) - 1):
        if lams[i + 1] - lams[i] < 10.0 * eig_tol:
            flags[i] += ",degenerate"
            flags[i + 1] += ",degenerate"
    lams, residuals, flags = lams[:k_max], residuals[:k_max], flags[:k_max]

    if lams.size and lams[-1] > ceiling:
        raise TruncationDomainError(
            f"eigenvalue {lams[-1]:.6g} is within {margin} of the wall potential "
            f"{U.wall_floor():.6g}; enlarge the truncation radius"
        )

    spec = Spectrum(lams, residuals, flags)
    if eigenfunctions:
        _attach_limit_eigenfunctions(spec, U, bc, cfg, samples_per_unit)
    return spec


_MIRROR = np.diag([1.0, -1.0])


def _limit_problems(U, bc, cfg):
    """(flag, matching function) of each problem of the limit operator: the
    two half problems of a split coupling, or the one coupled problem."""
    R = U.truncation_radius
    left, right = _wall_chain(U, -R, 0.0), _wall_chain(U, R, 0.0)
    if isinstance(bc, DirichletSplit):
        bc = Separated(0.0, 1.0, 0.0, 1.0)
    if isinstance(bc, Separated):
        # the right half is the mirror image of a left one: x -> -x flips v'
        return [("left", _matching([left], cfg, W=(bc.h1m, bc.h2m))),
                ("right", _matching([right], cfg, C=_MIRROR, W=(bc.h1p, -bc.h2p)))]
    return [("ok", _matching([left, right], cfg, C=bc.matrix()))]


def _scan_start(fvec, start: float, what: str) -> float:
    """Move ``start`` down (start -> 2 start - 1) until no eigenvalue lies
    at or below it."""
    for _ in range(60):
        if fvec(np.array([start]), True)[1][0] == 0:
            return start
        start = 2.0 * start - 1.0
    raise SpectralWindowError(f"{what}: eigenvalues remain below {start:.6g}")


# -- perturbed operator -----------------------------------------------------------

def eigen_perturbed(
    U: ConfiningPotential,
    p: Profile,
    alpha: float,
    eps: float,
    k_range: tuple[int, int],
    cfg: SolverConfig | None = None,
    eig_tol: float = DEFAULT_EIG_TOL,
    *,
    margin: float = DEFAULT_MARGIN,
    eigenfunctions: bool = False,
    samples_per_unit: int = SAMPLES_PER_UNIT,
) -> Spectrum:
    """Eigenvalues k_lo..k_hi (1-based, global) of the squeezed-barrier
    operator -y'' + (U + alpha eps^-2 profile(x/eps)) y on [-R, R].

    The Sturm index counts the levels below the bounded window, which dive
    like eps^-2 (``diving_count``), and only the levels asked for are
    located.  Diving ones are searched for down to -2 |alpha| max|profile|
    eps^-2, a lower bound of the operator, and refined to about 1e-7
    relative (only their count and magnitude matter); a search that finds
    other than the counted number raises ``NumericsError``.  Bounded ones
    are scanned upwards and refined to ``eig_tol``.
    """
    k_lo, k_hi = k_range
    if not (1 <= k_lo <= k_hi):
        raise ValueError("need 1 <= k_lo <= k_hi")
    cfg = cfg or DEFAULT_CONFIG
    barrier, fvec, gap_fn, lam_split, n_dive = _perturbed_problem(U, p, alpha, eps, cfg)
    lams, residuals, flags = np.empty(0), np.empty(0), []
    first = n_dive + 1  # the global index of lams[0]
    if k_lo <= n_dive:
        lams, residuals = _perturbed_negative_levels(U, p, alpha, eps, barrier, lam_split)
        if lams.size != n_dive:
            raise NumericsError(f"the Sturm index counts {n_dive} levels below "
                                f"{lam_split:.6g}, but the diving search found {lams.size}")
        flags, first = ["diving"] * n_dive, 1
    if k_hi > n_dive:
        brackets = _verified_scan(fvec, lam_split, U.wall_floor() - margin, gap_fn,
                                  k_hi - n_dive, "squeezed-barrier problem")
        roots, res = _refine(fvec, brackets, eig_tol)
        lams, residuals = np.concatenate((lams, roots)), np.concatenate((residuals, res))
        flags += ["ok"] * roots.size
    chosen = slice(k_lo - first, k_hi - first + 1)
    spec = Spectrum(lams[chosen], residuals[chosen], flags[chosen])
    if eigenfunctions:
        _attach_perturbed_eigenfunctions(spec, U, barrier, eps, cfg, samples_per_unit)
    return spec


def diving_count(U: ConfiningPotential, p: Profile, alpha: float, eps: float,
                 cfg: SolverConfig | None = None) -> int:
    """Number of diving levels of the squeezed-barrier operator (see
    ``eigen_perturbed``): the Sturm index at the scan start of the bounded
    window, from one counted shot."""
    return _perturbed_problem(U, p, alpha, eps, cfg or DEFAULT_CONFIG)[-1]


def _perturbed_problem(U, p, alpha, eps, cfg):
    """(barrier chain, matching function, Weyl gap function, scan start of
    the bounded window, number of levels below that start) of the
    squeezed-barrier problem."""
    if not 0.0 < eps < 1.0:
        raise ValueError("need 0 < eps < 1")
    if eps >= U.truncation_radius:
        raise ValueError("barrier wider than the computational box")
    gap_fn, lam_split = _weyl_scan(U)
    # one chain per solve, so that equal barrier segments share a cached mesh
    barrier = _barrier_chain(p, alpha, eps, U)
    fvec = _perturbed_fvec(U, barrier, eps, U.truncation_radius, cfg)
    return barrier, fvec, gap_fn, lam_split, int(fvec(np.array([lam_split]), True)[1][0])


def _perturbed_fvec(U, barrier, eps, wall, cfg):
    """Matching Wronskian at x = +eps of the squeezed problem with
    Dirichlet walls at -+wall: the left shot crosses the ``barrier`` chain."""
    chains = [_wall_chain(U, -wall, -eps) + barrier, _wall_chain(U, wall, eps)]
    return _matching(chains, cfg)


def _perturbed_negative_levels(U, p, alpha, eps, barrier, lam_split):
    """All eigenvalues below ``lam_split``, chunked by depth.

    For each depth band the Dirichlet walls are pulled in to
    eps + 44 / sqrt(|lambda|/2) (clamped to R): outside that range the
    solutions decay through at least ~60 e-folds, so the wall position is
    irrelevant, and the integration span stays O(1) even for levels of
    size eps^-2.  A cheaper tolerance is used: these levels scale like
    eps^-2 and only their count and leading digits matter.
    """
    depth = 2.0 * abs(alpha) * p.max_abs() / (eps * eps)
    lam_min = min(lam_split, -depth)
    loose = SolverConfig(rel_tol=1e-8)
    R = U.truncation_radius

    bands = []
    top = lam_split
    while top > lam_min:
        bottom = max(lam_min, top * 4.0 if top < -1.0 else top - 4.0)
        if bottom > lam_min and lam_min / bottom < 1.5:
            bottom = lam_min
        bands.append((bottom, top))
        top = bottom

    roots_all = []
    res_all = []
    for bottom, top in bands:
        wall = min(R, eps + 44.0 / math.sqrt(max(1.0, 0.5 * abs(top))))
        fvec = _perturbed_fvec(U, barrier, eps, wall, loose)
        roots = _grid_roots(fvec, np.linspace(bottom, top, 60), xtol=1e-11, rtol=1e-8)
        if not roots.size:
            continue
        roots_all.extend(float(r) for r in roots)
        res_all.extend(float(abs(v)) for v in fvec(roots))
    order = np.argsort(roots_all)
    return np.array(roots_all)[order], np.array(res_all)[order]


# -- interval problem (no background potential) ------------------------------------

def _interval_fvec(a, b, p, alpha, eps, cfg):
    """u(b) of the Dirichlet shot from a across the barrier, normalized."""
    chain = (
        [FamilySegment(a, -eps, 0.0, -1.0)]
        + _barrier_chain(p, alpha, eps, None)
        + [FamilySegment(eps, b, 0.0, -1.0)]
    )
    return _matching([chain], cfg)


def interval_spectrum(
    a: float,
    b: float,
    p: Profile,
    alpha: float,
    eps: float,
    count: int,
    cfg: SolverConfig | None = None,
    eig_tol: float = DEFAULT_EIG_TOL,
) -> Spectrum:
    """Lowest ``count`` nonnegative eigenvalues of the squeezed barrier on
    (a, b) with Dirichlet ends and no background potential.

    The scan runs over the frequency omega = sqrt(lambda); near-coincident
    pairs (both half-intervals close to resonance) are resolved by an
    omega step that also shrinks with eps.
    """
    if not (a < -eps < eps < b):
        raise ValueError("need a < -eps < eps < b")
    if count < 1:
        raise ValueError("count must be at least 1")
    cfg = cfg or DEFAULT_CONFIG
    fvec = _interval_fvec(a, b, p, alpha, eps, cfg)

    d_omega = min(math.pi / (8.0 * (abs(a) + b)), max(eps / 2.0, 1e-4))
    brackets: list[tuple[float, float]] = []
    omega = 0.0
    vals, counts = np.empty(0), np.empty(0, dtype=int)  # shot of the last point scanned
    guard = 0
    while len(brackets) < count:
        omegas = omega + d_omega * np.arange(1, 513)
        xs = np.concatenate(([omega], omegas)) ** 2
        v, c = fvec(xs[vals.size:], True)
        vals, counts = np.concatenate((vals, v)), np.concatenate((counts, c))
        resolve_cells(fvec, xs, vals, counts, brackets)
        omega = float(omegas[-1])
        vals, counts = vals[-1:], counts[-1:]
        guard += 1
        if guard > 200:
            raise SpectralWindowError("interval eigenvalue search did not terminate")
    brackets = brackets[:count]
    lams, residuals = _refine(fvec, brackets, eig_tol)
    return Spectrum(lams, residuals, ["ok"] * len(lams))


def interval_negative_levels(
    a: float,
    b: float,
    p: Profile,
    alpha: float,
    eps: float,
    cfg: SolverConfig | None = None,
    *,
    rel_floor: float = 1e-7,
) -> np.ndarray:
    """All negative eigenvalues of the squeezed barrier on (a, b), ascending.

    Scans the rescaled depth mu = eps^2 lambda on a geometric grid from the
    operator lower bound -2 |alpha| max|profile| down to ``rel_floor``
    times that depth, which picks up arbitrarily shallow wells at desk
    scale.
    """
    if alpha == 0.0:
        return np.empty(0)
    cfg = cfg or DEFAULT_CONFIG
    fvec = _interval_fvec(a, b, p, alpha, eps, cfg)
    depth = 2.0 * abs(alpha) * p.max_abs()
    mu = -np.geomspace(depth, depth * rel_floor, 220)
    return np.sort(_grid_roots(fvec, mu / (eps * eps), xtol=1e-12, rtol=1e-10))


def interval_limit_frequencies(a: float, b: float, theta: float, count: int) -> np.ndarray:
    """First ``count`` positive limit eigenfrequencies of the interval
    problem at a resonant coupling with ratio ``theta``.

    These are the roots of ``tan(b w) = theta^2 tan(a w)``, evaluated in
    the pole-free form G(w) = sin(bw)cos(aw) - theta^2 sin(aw)cos(bw) so
    that coincident tangent poles (e.g. theta = 1 with |a| = b) are kept.
    Brackets come from a fine frequency grid; each root is polished by
    Newton steps on G.
    """
    if not (a < 0.0 < b):
        raise ValueError("need a < 0 < b")
    if count < 1:
        raise ValueError("count must be at least 1")
    t2 = theta * theta

    def G(w):
        return np.sin(b * w) * np.cos(a * w) - t2 * np.sin(a * w) * np.cos(b * w)

    def dG(w):
        return (
            b * np.cos(b * w) * np.cos(a * w)
            - a * np.sin(b * w) * np.sin(a * w)
            - t2 * (a * np.cos(a * w) * np.cos(b * w) - b * np.sin(a * w) * np.sin(b * w))
        )

    dw = math.pi / (16.0 * (abs(a) + b) * max(1.0, min(10.0, abs(theta))))
    roots: list[float] = []
    w0 = 0.0
    f0 = 0.0  # G(0) = 0 is the trivial root, excluded
    guard = 0
    while len(roots) < count:
        ws = w0 + dw * np.arange(1, 2049)
        fs = G(ws)
        xs = np.concatenate(([w0], ws))
        vals = np.concatenate(([f0], fs))
        for lo, hi in sign_change_brackets(xs, vals):
            if len(roots) >= count:
                break
            if lo == 0.0:
                continue
            w = _brent_scalar(G, lo, hi)
            for _ in range(3):
                d = dG(w)
                if d == 0.0:
                    break
                w -= G(w) / d
            if w > 1e-12:
                roots.append(float(w))
        w0 = float(ws[-1])
        f0 = float(fs[-1])
        guard += 1
        if guard > 400:
            raise SpectralWindowError("frequency search did not terminate")
    return np.array(roots[:count])


def split_limit_frequencies(a: float, b: float, count: int) -> np.ndarray:
    """First ``count`` positive roots of tan(a w) tan(b w) = 0: the limit
    eigenfrequencies of the decoupled Dirichlet intervals (a, 0) and
    (0, b).  Frequencies shared by both intervals are double eigenvalues
    of the decoupled operator and are listed twice."""
    if not (a < 0.0 < b):
        raise ValueError("need a < 0 < b")
    vals = []
    for k in range(1, count + 1):
        vals.append(k * math.pi / abs(a))
        vals.append(k * math.pi / b)
    return np.array(sorted(vals)[:count])


def _brent_scalar(f, lo, hi):
    root, _ = brent(lambda x: float(f(x)), float(lo), float(hi), xtol=1e-14)
    return root


# -- first-order eigenvalue correction ----------------------------------------------

def corrector_lambda1(
    U: ConfiningPotential,
    p: Profile,
    alpha: float,
    lam: float,
    v_data: BoundaryTrace,
    resonant: bool,
    cfg: SolverConfig | None = None,
    residual_tol: float = 1e-9,
) -> float:
    """First-order coefficient lambda_1 of the eigenvalue expansion
    lambda(eps) ~ lambda + eps lambda_1 for the squeezed barrier.

    ``v_data`` holds the boundary data of the unit-normalized limit
    eigenfunction.  Non-resonant branch (eigenfunction supported on one
    half-axis): solve the one-sided Neumann cell problem
    -w1'' + alpha profile w1 = 0, w1'(-1) = 0, w1'(1) = v'(+0) and return
    v'(+0) (v'(+0) - w1(1)); the left-half case is handled by mirror
    symmetry.  Resonant branch: with W the Neumann cell eigenfunction
    normalized to W(-1) = 1 and theta = W(1),

        g1 = v'(-0) phi2(1) - v'(+0) - theta v'(-0),
        h1 = (U(0) - lam) [ v(-0) int W^2 - theta v(+0) - v(-0) ],
        lambda_1 = h1 v(-0) - g1 v'(+0),

    where phi2 is the cell solution with data (0, 1) at -1 and the second
    derivatives v''(+-0) = (U(0) - lam) v(+-0) come from the differential
    equation rather than numerical differentiation.
    """
    cfg = cfg or DEFAULT_CONFIG
    vd = v_data
    scale = max(abs(vd.v_minus), abs(vd.v_plus), abs(vd.dv_minus), abs(vd.dv_plus), 1e-30)

    if not resonant:
        left_dead = max(abs(vd.v_minus), abs(vd.dv_minus)) <= 1e-8 * scale
        right_dead = max(abs(vd.v_plus), abs(vd.dv_plus)) <= 1e-8 * scale
        if left_dead == right_dead:
            raise PreconditionError(
                "non-resonant branch needs an eigenfunction vanishing on exactly one half-axis"
            )
        if right_dead:
            # eigenfunction lives on the left: mirror the problem
            prof = reflect(p)
            slope = -vd.dv_minus
        else:
            prof = p
            slope = vd.dv_plus
        w1_end, miss = shoot(prof, alpha, cfg)
        if scaled_residual(prof, alpha, w1_end, miss) <= residual_tol:
            raise PreconditionError(
                "non-resonant corrector called at a resonant coupling (singular cell problem)"
            )
        w1_at_1 = slope * w1_end / miss
        return slope * (slope - w1_at_1)

    w1_end, miss = shoot(p, alpha, cfg)
    rho = scaled_residual(p, alpha, w1_end, miss)
    if rho > residual_tol:
        raise NotInResonanceSetError(
            f"resonant corrector called off the resonance set (defect {rho:.3e})"
        )
    theta = w1_end
    # cell eigenfunction samples for int W^2 (Simpson on a uniform grid)
    xi = np.linspace(-1.0, 1.0, 2001)
    cell = _alpha_segments(p)
    res = propagate_family(cell, np.array([alpha]), np.array([1.0, 0.0]), cfg, samples=xi)
    W = res.sample_states[:, 0, 0]
    intW2 = _simpson(W * W, xi)
    phi2 = propagate_family(cell, np.array([alpha]), np.array([0.0, 1.0]), cfg).states[0, 0]

    g1 = vd.dv_minus * phi2 - vd.dv_plus - theta * vd.dv_minus
    u0 = U.U(0.0)
    ddv_minus = (u0 - lam) * vd.v_minus
    ddv_plus = (u0 - lam) * vd.v_plus
    h1 = (u0 - lam) * vd.v_minus * intW2 - theta * ddv_plus - ddv_minus
    return h1 * vd.v_minus - g1 * vd.dv_plus


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    n = len(x) - 1
    h = (x[-1] - x[0]) / n
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


# -- eigenfunction assembly ----------------------------------------------------------

def _grid(R: float, samples_per_unit: int) -> np.ndarray:
    n = int(round(2 * R * samples_per_unit)) + 1
    return np.linspace(-R, R, n)


def _sample_piece(chain, lam, cfg, xs_path):
    """Propagate one chain recording samples; keep values in (mantissa,
    log-exponent) form so pieces with different growth can be combined."""
    res = propagate_family(chain, np.array([lam]), np.array([0.0, 1.0]), cfg,
                           rescale=True, samples=xs_path)
    return {
        "u": res.sample_states[:, 0, 0].copy(),
        "du": res.sample_states[:, 1, 0].copy(),
        "log": res.sample_logs[:, 0].copy(),
        "end": res.states[:, 0].copy(),
        "end_log": float(res.logs[0]),
    }


def _l2(x, v):
    return math.sqrt(float(np.trapezoid(v * v, x)))


def _combine_pieces(xs, pieces):
    """Stitch (values, exponents) pieces on a shared grid, normalize to unit
    L2 norm, orient the largest sample positive; returns (v, overall scale
    applied to raw e^0-exponent quantities)."""
    ref = max(float(np.max(pc_log)) for _, pc_log in pieces if pc_log.size)
    v = np.concatenate([vals * np.exp(logs - ref) for vals, logs in pieces])
    nrm = _l2(xs, v)
    sgn = 1.0
    if nrm > 0:
        v = v / nrm
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
            sgn = -1.0
    return v, ref, (sgn / nrm if nrm > 0 else 1.0)


def _stitch(xs, pl, pr, target):
    """Join a left piece and a right piece (sampled from the right wall
    inwards) on ``xs``.  The right piece is scaled so that its end state
    meets ``target``, the left end state carried across the interface, in
    its larger component; returns what ``_combine_pieces`` does."""
    idx = int(np.argmax(np.abs(pr["end"])))
    ratio = target[idx] / pr["end"][idx]
    # right-piece exponents shifted onto the left piece's scale
    shift = pl["end_log"] - pr["end_log"]
    return _combine_pieces(
        xs, [(pl["u"], pl["log"]), (ratio * pr["u"][::-1], pr["log"][::-1] + shift)]
    )


def _attach_limit_eigenfunctions(spec, U, bc, cfg, samples_per_unit):
    R = U.truncation_radius
    xs = _grid(R, samples_per_unit)
    left_xs = xs[xs <= 0.0]
    right_xs = xs[xs > 0.0]
    funcs = np.zeros((len(spec.eigenvalues), len(xs)))
    traces = []
    for i, lam in enumerate(spec.eigenvalues):
        lam = float(lam)
        if isinstance(bc, (DirichletSplit, Separated)):
            # the level lives on one side; the other side is identically zero
            left = spec.flags[i].startswith("left")
            path = left_xs if left else right_xs[::-1]
            pc = _sample_piece(_wall_chain(U, -R if left else R, 0.0), lam, cfg, path)
            live = (pc["u"], pc["log"]) if left else (pc["u"][::-1], pc["log"][::-1])
            dead = (np.zeros(len(xs) - len(path)), np.full(len(xs) - len(path), -np.inf))
            funcs[i], ref, s = _combine_pieces(xs, [live, dead] if left else [dead, live])
            end = pc["end"] * (math.exp(pc["end_log"] - ref) * s)
            (vm, dvm), (vp, dvp) = (end, (0.0, 0.0)) if left else ((0.0, 0.0), end)
            traces.append(BoundaryTrace(v_minus=vm, v_plus=vp, dv_minus=dvm, dv_plus=dvp))
        else:
            pl = _sample_piece(_wall_chain(U, -R, 0.0), lam, cfg, left_xs)
            pr = _sample_piece(_wall_chain(U, R, 0.0), lam, cfg, right_xs[::-1])
            V = bc.matrix() @ pl["end"]
            funcs[i], ref, s = _stitch(xs, pl, pr, V)
            e = math.exp(pl["end_log"] - ref) * s
            (vm, dvm), (vp, dvp) = pl["end"] * e, V * e
            traces.append(BoundaryTrace(v_minus=vm, v_plus=vp, dv_minus=dvm, dv_plus=dvp))
    spec.x = xs
    spec.eigenfunctions = funcs
    spec.boundary_traces = traces


def _attach_perturbed_eigenfunctions(spec, U, barrier, eps, cfg, samples_per_unit):
    R = U.truncation_radius
    xs = _grid(R, samples_per_unit)
    left_xs = xs[xs <= eps]
    right_xs = xs[xs > eps]
    left_chain = _wall_chain(U, -R, -eps) + barrier
    right_chain = _wall_chain(U, R, eps)
    funcs = np.zeros((len(spec.eigenvalues), len(xs)))
    for i, lam in enumerate(spec.eigenvalues):
        lam = float(lam)
        pl = _sample_piece(left_chain, lam, cfg, left_xs)
        pr = _sample_piece(right_chain, lam, cfg, right_xs[::-1])
        funcs[i], _, _ = _stitch(xs, pl, pr, pl["end"])
    spec.x = xs
    spec.eigenfunctions = funcs
    spec.boundary_traces = None

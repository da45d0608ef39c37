"""Eigenvalue solvers for the squeezed-barrier operator and its limits.

Whole-line problems with a confining potential are truncated to a box
[-R, R] with Dirichlet walls (the truncation error is exponentially small
and is monitored by a wall-margin check).  Eigenvalues are located by
shooting: Cauchy data is carried from each wall to a matching point, an
interface condition is applied there, and the eigenvalues are the zeros of
the normalized matching Wronskian.  Each problem is one value
(``_Problem``), from which one formula builds its Wronskian (``_matching``)
and one assembler its eigenfunctions (``_attach_eigenfunctions``).  The
Wronskian is evaluated for whole vectors of trial eigenvalues at once (one
family propagation per grid pass), together with the exact Sturm index of
every trial value: the number of eigenvalues at or below it, from the zero
counts of the shots and the Pruefer angles at the matching point.  The
index steers the bracketing scan, and the roots are polished by a
safeguarded vectorized secant iteration.

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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NumericsError, SpectralWindowError, TruncationDomainError
from .ivp import DEFAULT_CONFIG, FamilySegment, SolverConfig, propagate_family
from .profiles import Profile, Segment
from .rootfind import illinois_vector, resolve_cells, sign_change_brackets

__all__ = [
    "DirichletSplit",
    "ThetaCoupled",
    "ConnectedMatrix",
    "Separated",
    "ConfiningPotential",
    "Spectrum",
    "polynomial_potential",
    "eigen_limit",
    "eigen_perturbed",
    "interval_spectrum",
    "interval_negative_levels",
    "interval_limit_frequencies",
    "split_limit_frequencies",
]

DEFAULT_EIG_TOL = 1e-8
_WALL_MARGIN = 25.0  # least gap between the wall potential and a requested level
_DEPTH_FLOOR = 1e-7  # shallowest interval well scanned, relative to the lower bound
_DIVE_RATIO = 1.25  # ratio of neighbouring points of the grid of a diving search
SAMPLES_PER_UNIT = 2001
_CHUNK = 48
_BELOW_PI = math.nextafter(math.pi, 0.0)


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

    The wall check ``U(+-R) >= lambda + 25`` runs at solve time
    (``_WALL_MARGIN``); a margin of 25 makes the Dirichlet-truncation
    error far below the eigenvalue tolerance.
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


def _rounding_gap(lam):
    """How far two eigenvalues may descend and still count as ascending."""
    return 1e-9 * np.maximum(1.0, np.abs(lam))


@dataclass
class Spectrum:
    """Ordered eigenvalues with optional sampled eigenfunctions.

    ``eigenfunctions[i]`` samples level i on the uniform grid ``x`` of
    [-R, R] (both None unless requested), normalized to unit L2 norm there
    and oriented so the leftmost sample of at least half the largest
    magnitude is positive (a near-tie of two extreme lobes cannot flip
    it); a split level is exactly 0 on its other half.  ``residuals`` are
    the normalized matching-Wronskian values at convergence; ``flags``
    carry 'ok', 'left'/'right' (split problems), 'degenerate' (near-
    coincident split pairs; a pair equal to rounding lists its left half
    first whichever root rounds lower) or 'diving' (below the bounded
    window).
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    flags: list[str]
    x: np.ndarray | None = None
    eigenfunctions: np.ndarray | None = None

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.size > 1 and np.any(np.diff(lam) < -_rounding_gap(lam[:-1])):
            raise ValueError("eigenvalues must be ascending")


# -- matching Wronskians -------------------------------------------------------

def _norm2(Y: np.ndarray) -> np.ndarray:
    return np.sqrt(np.abs(Y[0]) ** 2 + np.abs(Y[1]) ** 2)


def _wall_chain(U: ConfiningPotential, wall: float, target: float) -> list[FamilySegment]:
    return [FamilySegment(wall, target, U.U, -1.0)]


@dataclass(frozen=True)
class _BarrierPart:
    """The coefficient U(x) + inv2 seg(x / eps) of one barrier segment (U
    may be None).  A value, not a closure: equal barriers built by
    different calls hit the same cached mesh."""

    seg: Segment
    inv2: float
    eps: float
    U: ConfiningPotential | None

    def __call__(self, x):
        val = self.inv2 * self.seg(x / self.eps)
        if self.U is not None:
            val += self.U.U(x)
        return val


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
        else:
            segs.append(FamilySegment(lo, hi, _BarrierPart(seg, inv2, eps, U), -1.0))
    return segs


def _reduced_angle(Y):
    """The Pruefer angle atan2(v, v') of the states ``Y``, mod pi, in
    [0, pi): a tiny negative angle would round to pi itself."""
    return np.minimum(np.arctan2(Y[0], Y[1]) % math.pi, _BELOW_PI)


class _Problem(NamedTuple):
    """One eigenvalue problem: Dirichlet shots along ``chains`` meet at
    their common end, the matching point, where the interface matrix ``C``
    (None: none) carries the first shot's end state across.  A lone shot
    meets the fixed end vector ``W``: (0, 1) for a Dirichlet end, (h1, h2)
    for h1 v' = h2 v.  It is matched as if it ran towards +x: one run
    towards -x takes C = diag(1, -1) and W mirrored alike."""

    chains: list[list[FamilySegment]]
    C: np.ndarray | None = None
    W: tuple[float, float] = (0.0, 1.0)


def _matching(problem: _Problem, cfg):
    """The matching function of ``problem``.

    ``fvec(lams)`` returns the normalized Wronskian
    (V0 W1 - V1 W0) / (|V| |W|) of V = C Y, the first shot's end state
    carried across C, and W, the second shot's end state or, for one
    chain, the fixed end vector.  ``fvec(lams, True)`` also returns the
    exact number of eigenvalues <= lam, the matching-point Pruefer index
    of SLEIGN2:

        N = (zeros of the shots) + [a < F0] + [a >= r],

    with a, F0 and r the reduced angles of V, C (0, 1) and W in [0, pi),
    except that a fixed W takes r in (0, pi]: a Dirichlet end has r = pi.
    """
    chains, C, W = problem
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
    shot,
    ceiling: float,
    gap_fn: Callable[[float], float],
    k_needed: int,
    what: str,
):
    """March upward bracketing sign changes of the matching Wronskian.

    ``fvec(lams, True) -> (values, Sturm index)``; ``shot`` is that of
    ``[start]``, taken by the caller.  Each chunk of the grid, in steps of
    half of ``gap_fn``, is shot in one call.  The index counts the
    eigenvalues at or below each point exactly, so ``resolve_cells``
    halves a cell across which it rises by two or more (near-degenerate
    pairs of split-like problems defeat any fixed grid) until every root
    shows its own sign change.  A chunk is resolved only up to its first
    point that counts every level still needed, and one cell past it with
    the index held at that point's: a level on that point may show its
    sign change only in the next cell, and a pair closer than the halving
    floor raises ``NumericsError`` only when it holds a requested level.
    Only the rises of the index matter, so levels below ``start``
    (the diving levels of the squeezed problem) are neither found nor in
    the way.
    """
    brackets: list[tuple[float, float]] = []
    xs = [start]
    vals, counts = shot  # shots of xs[:vals.size]
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
        reached = np.flatnonzero(counts - counts[0] >= k_needed - len(brackets))
        if reached.size:
            end = min(reached[0] + 2, len(xs))
            cs = np.minimum(counts[:end], counts[reached[0]])
        else:
            end, cs = len(xs), counts
        resolve_cells(fvec, xs[:end], vals[:end], cs, brackets)
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


def _diving_levels(fvec, bottom: float, top: float, eig_tol: float):
    """(roots, residuals) of every root of ``fvec`` in (bottom, top],
    bottom < top < 0: the cells of one geometric grid whose neighbouring
    points are at most ``_DIVE_RATIO`` apart are split until the index
    shows every root (``resolve_cells``), then refined to ``eig_tol``."""
    n = math.ceil(math.log(bottom / top) / math.log(_DIVE_RATIO)) + 1
    grid = np.geomspace(bottom, top, n)
    brackets: list[tuple[float, float]] = []
    resolve_cells(fvec, grid, *fvec(grid, True), brackets)
    return _refine(fvec, brackets, eig_tol)


def _refine(fvec, brackets, eig_tol):
    if not brackets:
        return np.empty(0), np.empty(0)
    lo, hi = np.array(brackets).T
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
    eigenfunctions: bool = True,
    samples_per_unit: int = SAMPLES_PER_UNIT,
) -> Spectrum:
    """Lowest ``k_max`` eigenvalues of -v'' + U v with interface ``bc`` at 0.

    Dirichlet walls sit at +-R (R from the potential record).  Split-type
    couplings solve their two half problems; they may return near-
    coincident pairs, and both members are reported and flagged, ascending
    (the left one first when they are equal to rounding).  A connected
    coupling (``ThetaCoupled``, ``ConnectedMatrix``) solves one problem
    across the interface matrix.  Every problem is scanned upwards from a
    start below its lowest level, moved down until the Sturm index reads 0
    there, so bound states of attractive couplings are found.  Raises ``TruncationDomainError`` when a requested level
    comes within ``_WALL_MARGIN`` of the wall potential.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    cfg = cfg or DEFAULT_CONFIG
    ceiling = U.wall_floor() - _WALL_MARGIN
    gap_fn, start = _weyl_scan(U)

    found = []
    for rank, (flag, problem) in enumerate(_limit_problems(U, bc)):
        fvec = _matching(problem, cfg)
        what = "coupled problem" if flag == "ok" else f"{flag} half problem"
        brackets = _verified_scan(fvec, *_scan_start(fvec, start, what), ceiling, gap_fn,
                                  k_max, what)
        roots, residuals = _refine(fvec, brackets, eig_tol)
        found.extend((lam, res, flag, problem, rank) for lam, res in zip(roots, residuals))
    found.sort(key=lambda t: t[0])
    # which root of an exactly degenerate pair rounds lower is noise, so a
    # pair within rounding keeps the order of its problems; a wider pair,
    # however close, stays ascending
    for i in range(len(found) - 1):
        if (found[i][4] > found[i + 1][4]
                and found[i + 1][0] - found[i][0] <= _rounding_gap(found[i + 1][0])):
            found[i], found[i + 1] = found[i + 1], found[i]
    # flag before the cut: the partner of the last kept level may lie beyond it
    ties = [i for i in range(len(found) - 1)
            if abs(found[i + 1][0] - found[i][0]) < 10.0 * eig_tol]
    lams, residuals = np.array([t[:2] for t in found]).T
    flags, problems = [t[2] for t in found], [t[3] for t in found]
    for i in ties:
        flags[i] += ",degenerate"
        flags[i + 1] += ",degenerate"
    lams, residuals, flags = lams[:k_max], residuals[:k_max], flags[:k_max]

    if lams.size and lams[-1] > ceiling:
        raise TruncationDomainError(
            f"eigenvalue {lams[-1]:.6g} is within {_WALL_MARGIN} of the wall potential "
            f"{U.wall_floor():.6g}; enlarge the truncation radius"
        )

    spec = Spectrum(lams, residuals, flags)
    if eigenfunctions:
        _attach_eigenfunctions(spec, U.truncation_radius, problems, cfg, samples_per_unit)
    return spec


_MIRROR = np.diag([1.0, -1.0])


def _limit_problems(U, bc) -> list[tuple[str, _Problem]]:
    """(flag, problem) of each problem of the limit operator: the two half
    problems of a split coupling, or the one coupled problem."""
    R = U.truncation_radius
    left, right = _wall_chain(U, -R, 0.0), _wall_chain(U, R, 0.0)
    if isinstance(bc, DirichletSplit):
        bc = Separated(0.0, 1.0, 0.0, 1.0)
    if isinstance(bc, Separated):
        # the right half is the mirror image of a left one: x -> -x flips v'
        return [("left", _Problem([left], W=(bc.h1m, bc.h2m))),
                ("right", _Problem([right], _MIRROR, (bc.h1p, -bc.h2p)))]
    return [("ok", _Problem([left, right], bc.matrix()))]


def _scan_start(fvec, start: float, what: str):
    """Move ``start`` down (start -> 2 start - 1) until no eigenvalue lies
    at or below it; returns it with its counted shot."""
    for _ in range(60):
        shot = fvec(np.array([start]), True)
        if shot[1][0] == 0:
            return start, shot
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
    eigenfunctions: bool = False,
    samples_per_unit: int = SAMPLES_PER_UNIT,
) -> Spectrum:
    """Eigenvalues k_lo..k_hi (1-based, global) of the squeezed-barrier
    operator -y'' + (U + alpha eps^-2 profile(x/eps)) y on [-R, R].

    The Sturm index counts the levels below the bounded window, which dive
    like eps^-2, and only the levels asked for are located, all as roots,
    to ``eig_tol``, of the one matching function whose index counted them.
    Diving ones are searched for from the scan start of the bounded window
    less 2 |alpha| max|profile| eps^-2, which lies below the operator, up
    to that start; a search that finds other than the counted number
    raises ``NumericsError``.  Bounded ones are scanned upwards.  The
    walls' meshes are sized from U, not from the level, so a level of size
    eps^-2 is good to a few 1e-7 relative, not to ``eig_tol``: 17 diving
    levels of tilted_harmonic (R = 8) at eps from 0.05 to 1e-3 were within
    3.4e-7 of a DOP853 oracle.
    """
    k_lo, k_hi = k_range
    if not (1 <= k_lo <= k_hi):
        raise ValueError("need 1 <= k_lo <= k_hi")
    _, levels = _perturbed_problem(U, p, alpha, eps, cfg or DEFAULT_CONFIG)
    return levels(k_range, eig_tol, eigenfunctions, samples_per_unit)


def _perturbed_problem(U, p, alpha, eps, cfg):
    """(n_dive, levels) of the squeezed-barrier problem, from one Weyl scan
    and one counted shot at the scan start of the bounded window: its Sturm
    index ``n_dive`` is the number of diving levels, and ``levels(k_range,
    eig_tol, eigenfunctions, samples_per_unit)`` solves for the levels
    k_lo..k_hi (see ``eigen_perturbed``)."""
    if not 0.0 < eps < 1.0:
        raise ValueError("need 0 < eps < 1")
    if eps >= U.truncation_radius:
        raise ValueError("barrier wider than the computational box")
    gap_fn, lam_split = _weyl_scan(U)
    barrier = _barrier_chain(p, alpha, eps, U)
    R = U.truncation_radius  # Dirichlet walls at -+R, matched at +eps past the barrier
    problem = _Problem([_wall_chain(U, -R, -eps) + barrier, _wall_chain(U, R, eps)])
    fvec = _matching(problem, cfg)
    shot = fvec(np.array([lam_split]), True)
    n_dive = int(shot[1][0])

    def levels(k_range, eig_tol, eigenfunctions, samples_per_unit) -> Spectrum:
        k_lo, k_hi = k_range
        lams, residuals, flags = np.empty(0), np.empty(0), []
        first = n_dive + 1  # the global index of lams[0]
        if k_lo <= n_dive:
            depth = 2.0 * abs(alpha) * p.max_abs / (eps * eps)
            lams, residuals = _diving_levels(fvec, lam_split - depth, lam_split, eig_tol)
            if lams.size != n_dive:
                raise NumericsError(f"the Sturm index counts {n_dive} levels below "
                                    f"{lam_split:.6g}, but the diving search found {lams.size}")
            flags, first = ["diving"] * n_dive, 1
        if k_hi > n_dive:
            brackets = _verified_scan(fvec, lam_split, shot, U.wall_floor() - _WALL_MARGIN,
                                      gap_fn, k_hi - n_dive, "squeezed-barrier problem")
            roots, res = _refine(fvec, brackets, eig_tol)
            lams, residuals = np.concatenate((lams, roots)), np.concatenate((residuals, res))
            flags += ["ok"] * roots.size
        chosen = slice(k_lo - first, k_hi - first + 1)
        spec = Spectrum(lams[chosen], residuals[chosen], flags[chosen])
        if eigenfunctions:
            _attach_eigenfunctions(spec, U.truncation_radius, [problem] * len(spec.flags), cfg,
                                   samples_per_unit)
        return spec

    return n_dive, levels


# -- interval problem (no background potential) ------------------------------------

def _interval_fvec(a, b, p, alpha, eps, cfg):
    """u(b) of the Dirichlet shot from a across the barrier, normalized."""
    chain = (
        [FamilySegment(a, -eps, 0.0, -1.0)]
        + _barrier_chain(p, alpha, eps, None)
        + [FamilySegment(eps, b, 0.0, -1.0)]
    )
    return _matching(_Problem([chain]), cfg)


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

    ``_verified_scan`` marches up from lambda = 0 in steps of
    pi / (8 (|a| + b)) in omega = sqrt(lambda); the Sturm index halves
    near-coincident pairs (both half-intervals close to resonance) apart.
    """
    if not (a < -eps < eps < b):
        raise ValueError("need a < -eps < eps < b")
    if count < 1:
        raise ValueError("count must be at least 1")
    cfg = cfg or DEFAULT_CONFIG
    fvec = _interval_fvec(a, b, p, alpha, eps, cfg)
    d_omega = math.pi / (8.0 * (abs(a) + b))

    def gap(lam: float) -> float:  # lam + gap / 2 = (sqrt(lam) + d_omega)^2
        return 2.0 * d_omega * (2.0 * math.sqrt(lam) + d_omega)

    brackets = _verified_scan(fvec, 0.0, fvec(np.array([0.0]), True), math.inf, gap, count,
                              "interval problem")
    lams, residuals = _refine(fvec, brackets, eig_tol)
    return Spectrum(lams, residuals, ["ok"] * len(lams))


def interval_negative_levels(
    a: float,
    b: float,
    p: Profile,
    alpha: float,
    eps: float,
    cfg: SolverConfig | None = None,
) -> np.ndarray:
    """All negative eigenvalues of the squeezed barrier on (a, b), ascending.

    Searches (like the diving levels of ``eigen_perturbed``) from the
    operator lower bound -2 |alpha| max|profile| eps^-2 up to
    ``_DEPTH_FLOOR`` (1e-7) times that bound, which picks up arbitrarily
    shallow wells at desk scale, and refines to ``DEFAULT_EIG_TOL``.
    """
    if alpha == 0.0:
        return np.empty(0)
    fvec = _interval_fvec(a, b, p, alpha, eps, cfg or DEFAULT_CONFIG)
    bottom = -2.0 * abs(alpha) * p.max_abs / (eps * eps)
    return _diving_levels(fvec, bottom, bottom * _DEPTH_FLOOR, DEFAULT_EIG_TOL)[0]


def interval_limit_frequencies(a: float, b: float, theta: float, count: int) -> np.ndarray:
    """First ``count`` positive limit eigenfrequencies of the interval
    problem at a resonant coupling with ratio ``theta``.

    These are the roots of ``tan(b w) = theta^2 tan(a w)``, evaluated in
    the pole-free form G(w) = sin(bw)cos(aw) - theta^2 sin(aw)cos(bw) so
    that coincident tangent poles (e.g. theta = 1 with |a| = b) are kept.
    Brackets come from a fine frequency grid, a chunk at a time; one
    ``illinois_vector`` call refines the brackets of a chunk, and three
    Newton steps on G polish each root.
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
        brackets = [(lo, hi) for lo, hi in sign_change_brackets(xs, vals) if lo > 0.0]
        if brackets:
            lo, hi = np.array(brackets[:count - len(roots)]).T
            w = illinois_vector(G, lo, hi, xtol=1e-14, rtol=4e-16)
            stop = np.zeros(w.shape, dtype=bool)
            for _ in range(3):
                d = dG(w)
                stop |= d == 0.0
                w = np.where(stop, w, w - G(w) / np.where(stop, 1.0, d))
            roots.extend(w[w > 1e-12].tolist())
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


# -- eigenfunction assembly ----------------------------------------------------------

def _attach_eigenfunctions(spec, R, problems, cfg, samples_per_unit):
    """Sample the eigenfunction of each level of ``spec`` on the uniform
    grid of [-R, R], ``samples_per_unit`` points per unit length;
    ``problems[i]`` is the problem of level i.

    A shot from -R samples the grid points at or left of the matching
    point, one from +R those right of it, and the side of a lone shot is
    0.  A second shot is scaled so that its end state meets C applied to
    the first one's.  Samples stay (mantissa, log-exponent) pairs until
    the shots are joined, normalized to unit L2 norm on the grid and
    oriented so the leftmost sample with at least half the largest
    magnitude is positive.  The largest sample alone would not do: the
    outer lobes of an odd level of a symmetric potential tie to rounding.
    """
    xs = np.linspace(-R, R, int(round(2 * R * samples_per_unit)) + 1)
    funcs = np.zeros((len(spec.eigenvalues), len(xs)))
    for i, (lam, (chains, C, _)) in enumerate(zip(spec.eigenvalues, problems)):
        n_left = int(np.searchsorted(xs, chains[0][-1].b, side="right"))
        vals, logs = np.zeros(len(xs)), np.full(len(xs), -np.inf)
        for j, chain in enumerate(chains):
            from_left = chain[0].a < chain[-1].b
            side = slice(0, n_left) if from_left else slice(n_left, None)
            path = xs[side] if from_left else xs[side][::-1]
            res = propagate_family(chain, np.array([float(lam)]), np.array([0.0, 1.0]), cfg,
                                   rescale=True, samples=path)
            u, log = res.sample_states[:, 0, 0], res.sample_logs[:, 0]
            end, end_log = res.states[:, 0], float(res.logs[0])
            if not from_left:
                u, log = u[::-1], log[::-1]
            if j == 0:
                target, target_log = (end if C is None else C @ end), end_log
            else:
                k = int(np.argmax(np.abs(end)))
                u, log = target[k] / end[k] * u, log + (target_log - end_log)
            vals[side], logs[side] = u, log
        v = vals * np.exp(logs - logs.max())
        nrm = math.sqrt(float(np.trapezoid(v * v, xs)))
        if nrm > 0:
            v = v / nrm
            mag = np.abs(v)
            if v[np.argmax(mag >= 0.5 * mag.max())] < 0:
                v = -v
        funcs[i] = v
    spec.x = xs
    spec.eigenfunctions = funcs

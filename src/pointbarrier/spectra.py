"""Eigenvalue solvers for the squeezed-barrier operator and its limits.

Whole-line problems with a confining potential are truncated to a box
[-R, R] with Dirichlet walls (the truncation error is exponentially small
and is monitored by a wall-margin check).  Eigenvalues are located by
shooting: Cauchy data is carried from each wall to a matching point, an
interface condition is applied there, and the eigenvalues are the zeros of
the normalized matching Wronskian.  Each problem is one value
(``_Problem``), from which one formula builds its Wronskian (``_matching``)
and one assembler its eigenfunctions (``_attach_eigenfunctions``, one
sampled shot per chain for all the problem's levels).  The Wronskian is
evaluated for whole vectors of trial eigenvalues at once (one family
propagation per call), together with the exact Sturm index of every
trial value: the number of eigenvalues at or below it, from the zero
counts of the shots and the Pruefer angles at the matching point.  Every
search brackets its levels by one ``rootfind.resolve_cells`` call on its
window as a grid of one cell: the two ends, each shot once, and halving
on the index down to the one floor until each level shows its own sign
change.  The roots are polished by one safeguarded vectorized secant
iteration (``_refine_each``).

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
from .ivp import (DEFAULT_CONFIG, FamilySegment, SolverConfig, _eval_c, propagate_chains,
                  propagate_family)
from .profiles import Profile, Segment
from .rootfind import illinois_vector, resolve_cells

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
SAMPLES_PER_UNIT = 2001
MAX_GRID_POINTS = 2**27  # of one sampled eigenfunction: 1 GiB as float64
_BELOW_PI = math.nextafter(math.pi, 0.0)


# -- interface conditions ------------------------------------------------------

@dataclass(frozen=True)
class DirichletSplit:
    """v(-0) = v(+0) = 0: decoupled half problems."""


@dataclass(frozen=True)
class ThetaCoupled:
    """v(+0) = theta v(-0) and theta v'(+0) = v'(-0), theta != 0.

    Equivalent to ``ConnectedMatrix`` with diag(theta, 1/theta) and zero
    phase; both diagonal entries must be finite.
    """

    theta: float

    def __post_init__(self):
        if self.theta == 0.0:
            raise ValueError("theta must be nonzero")
        if not abs(self.theta) + abs(1.0 / self.theta) < math.inf:  # NaN fails too
            raise ValueError(f"theta and 1/theta must be finite, got theta = {self.theta!r}")

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
        if not abs(det - 1.0) <= 1e-12:  # NaN fails too, as does any non-finite entry
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
        if not all(math.isfinite(h) for h in (self.h1m, self.h2m, self.h1p, self.h2p)):
            raise ValueError("projective pairs must be finite")
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
        if not 0.0 < self.truncation_radius < math.inf:  # NaN fails too
            raise ValueError("truncation_radius must be positive and finite")

    def wall_floor(self) -> float:
        R = self.truncation_radius
        return min(self.U(-R), self.U(R))


def polynomial_potential(coeffs: Sequence[float], radius: float,
                         label: str | None = None) -> ConfiningPotential:
    """Confining potential sum(c_j x^j) on [-radius, radius], evaluated by
    Horner's rule (``profiles.Segment``, also on arrays).  A value, not a
    closure: potentials parsed by different calls share their meshes."""
    cs = tuple(float(c) for c in coeffs)
    return ConfiningPotential(Segment(-radius, radius, cs), radius,
                              label or ("poly:" + ",".join(map(repr, cs))))


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
    the normalized matching-Wronskian values at convergence, and one near
    1 is no failed level by itself: across a level that the Sturm index
    proves the Wronskian may jump between -1 and +1 instead of passing
    through 0 (levels 3 and 7 of the harmonic well at theta = 1e300, both
    right); ``flags``
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

def _wall_chain(U: ConfiningPotential, wall: float, target: float) -> list[FamilySegment]:
    """The wall from ``wall`` to ``target`` on the mesh of its half box."""
    return [FamilySegment(wall, target, U.U, -1.0, 0.0)]


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
    """One eigenvalue problem: shots along ``chains`` from ``start`` meet at
    their common end, the matching point, where the interface matrix ``C``
    (None: none) carries the first shot's end state across.  A lone shot
    meets the fixed end vector ``W``, as if it ran towards +x: one run
    towards -x takes C = diag(1, -1) and W mirrored alike.  A start or W of
    (0, 1) is a Dirichlet end, (h1, h2) one with h1 v' = h2 v."""

    chains: list[list[FamilySegment]]
    C: np.ndarray | None = None
    W: tuple[float, float] = (0.0, 1.0)
    start: tuple[float, float] = (0.0, 1.0)


def _matching(problems: list[_Problem], cfg):
    """The matching function of ``problems``.

    ``fvec(lams, owners=owners)`` returns, at each trial value lams[i] of
    the problem problems[owners[i]] (owners None: problems[0]), the
    normalized Wronskian (V0 W1 - V1 W0) / (|V| |W|) of V = C Y, the first
    shot's end state carried across C, and W, the second shot's end state
    or, for one chain, the fixed end vector; it is 0 where a shot ends in
    exactly (0, 0), a root to rounding.  ``fvec(lams, True)`` also returns
    the exact number of eigenvalues <= lam, the matching-point Pruefer
    index of SLEIGN2:

        N = (zeros of the shots) + [a < F0] + [a >= r],

    with a, F0 and r the reduced angles of V, C (0, 1) and W in [0, pi),
    except that a fixed W takes r in (0, pi]: a Dirichlet end has r = pi.
    Each evaluation is one ``propagate_chains`` call from the problems'
    one ``start``, on the weight row ``lams`` without ``owners``, else on
    each problem's values padded to a common count by repeating its last
    one (pads dropped).  Resonance scans count on it too.
    """
    F0s = [0.0 if C is None else _reduced_angle(C[:, 1]) for _, C, _, _ in problems]
    init, = {problem.start for problem in problems}

    def fvec(lams: np.ndarray, with_counts: bool = False, owners=None):
        lams = np.asarray(lams, dtype=float)
        which = [0] if owners is None else np.unique(owners)
        groups = [np.arange(lams.size)] if owners is None else [np.flatnonzero(owners == i)
                                                                for i in which]
        n = max(idx.size for idx in groups)
        rows = lams if owners is None else [lams[idx[np.minimum(np.arange(n), idx.size - 1)]]
                                            for i, idx in zip(which, groups)
                                            for _ in problems[i].chains]
        shots = iter(propagate_chains([chain for i in which for chain in problems[i].chains], rows,
                                      init, cfg, rescale=True, count_zeros=with_counts))
        vals, counts = np.empty(lams.size), np.empty(lams.size, dtype=int)
        for i, idx in zip(which, groups):
            (_, C, W, _), own = problems[i], [next(shots) for _ in problems[i].chains]
            V = own[0].states[:, :idx.size] if C is None else C @ own[0].states[:, :idx.size]
            Y = own[1].states[:, :idx.size] if len(own) == 2 else W
            norms = np.hypot(*V) * np.hypot(*Y)
            vals[idx] = np.divide(V[0] * Y[1] - V[1] * Y[0], norms, out=np.zeros(norms.shape),
                                  where=norms != 0.0)
            if with_counts:
                r = _reduced_angle(Y) if len(own) == 2 else (_reduced_angle(W) or math.pi)
                a = _reduced_angle(V)
                counts[idx] = sum(s.zero_counts[:idx.size] for s in own) + (a < F0s[i]) + (a >= r)
        return (vals, counts) if with_counts else vals

    return fvec


# -- window halving -----------------------------------------------------------------

def _window_start(U: ConfiningPotential) -> float:
    """min(0, min U) - 1, with min U from a sampling of U on [-R, R] (one
    array call where U takes one, ``ivp._eval_c``): the bottom of the
    bounded window of a squeezed problem, below which its levels dive."""
    R = U.truncation_radius
    return min(0.0, float(np.min(_eval_c(U.U, np.linspace(-R, R, 801))))) - 1.0


def _refine_each(solves, cfg, eig_tol) -> list:
    """(roots, residuals) of each solve (problem, brackets, ...), refined in
    lockstep to ``eig_tol``: each round is one ``propagate_chains`` call for
    them all, and a lone problem is matched without owners."""
    owners = np.repeat(np.arange(len(solves)), [len(solve[1]) for solve in solves])
    if not owners.size:
        return [(np.empty(0), np.empty(0))] * len(solves)
    fvec = _matching([solve[0] for solve in solves], cfg)
    each = owners if len(solves) > 1 else None
    lo, hi = np.array([b for solve in solves for b in solve[1]]).T
    roots = illinois_vector(fvec, lo, hi, xtol=min(1e-10, eig_tol * 1e-3), rtol=1e-14, owners=each)
    residuals = np.abs(fvec(roots, owners=each))
    return [(roots[owners == j], residuals[owners == j]) for j in range(len(solves))]


def _check_ceiling(what: str, found: int, k: int, ceiling: float) -> None:
    """Raise ``TruncationDomainError`` when the index counts ``found`` < ``k``
    levels below the wall ceiling."""
    if found < k:
        raise TruncationDomainError(
            f"{what}: only {max(found, 0)} of {k} eigenvalues found below "
            f"the wall ceiling {ceiling:.6g}; enlarge the truncation radius")


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
    across the interface matrix.  The levels of each problem are bracketed
    by halving the window (start, ceiling]: the start lies below its
    lowest level, moved down until the Sturm index reads 0 there, so bound
    states of attractive couplings are found, and the ceiling lies
    ``_WALL_MARGIN`` below the wall potential; two half problems are refined
    in lockstep.  Raises ``TruncationDomainError`` when fewer than
    ``k_max`` levels of a problem lie below the ceiling, and ``ValueError``
    (before any shot) for an eigenfunction grid of over ``MAX_GRID_POINTS``
    points.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if eigenfunctions:
        _check_grid(U.truncation_radius, samples_per_unit)
    cfg = cfg or DEFAULT_CONFIG
    ceiling = U.wall_floor() - _WALL_MARGIN
    start = _window_start(U)

    def bracket(flag, problem):
        fvec = _matching([problem], cfg)
        what = "coupled problem" if flag == "ok" else f"{flag} half problem"
        lo, shot = _scan_start(fvec, start, what)
        brackets, count = resolve_cells(fvec, np.array([lo, ceiling]).take, 2, k_max, (shot, None))
        _check_ceiling(what, count, k_max, ceiling)
        return problem, brackets

    flagged = _limit_problems(U, bc)
    outcomes = _refine_each([bracket(*fp) for fp in flagged], cfg, eig_tol)
    found = sorted(((lam, res, flag, problem, rank)
                    for rank, ((flag, problem), outcome) in enumerate(zip(flagged, outcomes))
                    for lam, res in zip(*outcome)), key=lambda t: t[0])
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
    spec = Spectrum(lams[:k_max], residuals[:k_max], flags[:k_max])
    if eigenfunctions:
        _attach_eigenfunctions(spec, U.truncation_radius, problems[:k_max], cfg, samples_per_unit)
    return spec


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
                ("right", _Problem([right], np.diag([1.0, -1.0]), (bc.h1p, -bc.h2p)))]
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

    The Sturm index counts the levels below the bounded window, which
    starts at min(0, min U) - 1: they dive like eps^-2.  Only the levels
    asked for are located, all as roots, to ``eig_tol``, of the one
    matching function whose index counted them, each set by halving one
    window: the diving ones from the start less 2 |alpha| max|profile|
    eps^-2, which lies below the operator, up to the start (a search that
    finds other than the counted number raises ``NumericsError``), the
    bounded ones from the start up to the wall ceiling, as in
    ``eigen_limit``.  The walls' meshes are sized from U, not from the
    level, so a level of size eps^-2 is good to a few 1e-7 relative, not
    to ``eig_tol``: 17 diving levels of tilted_harmonic (R = 8) at eps
    from 0.05 to 1e-3 were within 3.4e-7 of a DOP853 oracle.
    """
    k_lo, k_hi = k_range
    if not (1 <= k_lo <= k_hi):
        raise ValueError("need 1 <= k_lo <= k_hi")
    if eigenfunctions:
        _check_grid(U.truncation_radius, samples_per_unit)
    cfg = cfg or DEFAULT_CONFIG
    n_dive, problem, brackets, finish = _perturbed_problem(U, p, alpha, eps, cfg)
    [outcome] = _refine_each([(problem, brackets(k_range))], cfg, eig_tol)
    return finish(k_range, *outcome, eigenfunctions, samples_per_unit)


def _perturbed_problem(U, p, alpha, eps, cfg):
    """(n_dive, problem, brackets, finish) of the squeezed-barrier problem,
    from one counted shot at the start of the bounded window: its Sturm
    index ``n_dive`` is the number of diving levels, ``brackets(k_range)``
    brackets the levels k_lo..k_hi (every diving one when k_lo is one), and
    ``finish(k_range, roots, residuals, eigenfunctions, samples_per_unit)``
    gives their spectrum from the refined roots (see ``eigen_perturbed``)."""
    if not 0.0 < eps < 1.0:
        raise ValueError("need 0 < eps < 1")
    if eps >= U.truncation_radius:
        raise ValueError("barrier wider than the computational box")
    lam_split = _window_start(U)
    barrier = _barrier_chain(p, alpha, eps, U)
    R = U.truncation_radius  # Dirichlet walls at -+R, matched at +eps past the barrier
    problem = _Problem([_wall_chain(U, -R, -eps) + barrier, _wall_chain(U, R, eps)])
    fvec = _matching([problem], cfg)
    shot = fvec(np.array([lam_split]), True)
    n_dive = int(shot[1][0])

    def brackets(k_range) -> list:
        k_lo, k_hi = k_range
        found = []
        if k_lo <= n_dive:
            bottom = lam_split - 2.0 * abs(alpha) * p.max_abs / (eps * eps)
            found = resolve_cells(fvec, np.array([bottom, lam_split]).take, 2, ends=(None, shot))[0]
            if len(found) != n_dive:
                raise NumericsError(f"the Sturm index counts {n_dive} levels below "
                                    f"{lam_split:.6g}, but the diving search found {len(found)}")
        if k_hi > n_dive:
            ceiling, k = U.wall_floor() - _WALL_MARGIN, k_hi - n_dive
            bounded, count = resolve_cells(fvec, np.array([lam_split, ceiling]).take, 2, k,
                                           (shot, None))
            _check_ceiling("squeezed-barrier problem", count, k, ceiling)
            found += bounded
        return found

    def finish(k_range, roots, residuals, eigenfunctions, samples_per_unit) -> Spectrum:
        k_lo, k_hi = k_range
        flags = ["diving"] * n_dive if k_lo <= n_dive else []
        first = 1 if flags else n_dive + 1  # the global index of roots[0]
        flags += ["ok"] * (roots.size - len(flags))
        chosen = slice(k_lo - first, k_hi - first + 1)
        spec = Spectrum(roots[chosen], residuals[chosen], flags[chosen])
        if eigenfunctions:
            _attach_eigenfunctions(spec, U.truncation_radius, [problem] * len(spec.flags), cfg,
                                   samples_per_unit)
        return spec

    return n_dive, problem, brackets, finish


# -- interval problem (no background potential) ------------------------------------

def _interval_problem(a, b, p, alpha, eps) -> _Problem:
    """The Dirichlet shot from a across the barrier to b, where it meets
    the Dirichlet end."""
    return _Problem([[FamilySegment(a, -eps, 0.0, -1.0)]
                     + _barrier_chain(p, alpha, eps, None)
                     + [FamilySegment(eps, b, 0.0, -1.0)]])


def _interval_levels(problem, a, b, count, cfg, eig_tol):
    """(levels, residuals) of the lowest ``count`` levels above 0 of the
    interval ``problem``, whose free outer pieces are as long as (a, 0) and
    (0, b), found in the window of ``interval_spectrum``."""
    if count < 1:
        raise ValueError("count must be at least 1")
    fvec = _matching([problem], cfg)
    low = fvec(np.array([0.0]), True)
    top = split_limit_frequencies(a, b, int(low[1][0]) + count)[-1] ** 2
    top *= 1.0 + 1e-6
    brackets, found = resolve_cells(fvec, np.array([0.0, top]).take, 2, count, (low, None))
    if found < count:
        raise NumericsError(
            f"interval problem: the index counts {found} levels in "
            f"(0, {top:.6g}], fewer than the {count} that min-max puts there")
    [levels] = _refine_each([(problem, brackets)], cfg, eig_tol)
    return levels


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

    The window (0, top] is halved on the Sturm index until each level
    shows its own sign change, near-coincident pairs (both half-intervals
    close to resonance) included.  ``top`` is level j = N(0) + ``count`` of
    the outer Dirichlet pieces (a, -eps) and (eps, b), raised by 1e-6
    relative: by min-max a Dirichlet condition at -+eps raises every
    level, so level j of (a, b) lies at or below ``top``, and an index
    that counts fewer levels there raises ``NumericsError``.
    """
    if not (a < -eps < eps < b):
        raise ValueError("need a < -eps < eps < b")
    lams, residuals = _interval_levels(_interval_problem(a, b, p, alpha, eps), a + eps, b - eps,
                                       count, cfg or DEFAULT_CONFIG, eig_tol)
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
    cfg = cfg or DEFAULT_CONFIG
    problem = _interval_problem(a, b, p, alpha, eps)
    bottom = -2.0 * abs(alpha) * p.max_abs / (eps * eps)
    window = np.array([bottom, bottom * _DEPTH_FLOOR])
    brackets = resolve_cells(_matching([problem], cfg), window.take, 2)[0]
    return _refine_each([(problem, brackets)], cfg, DEFAULT_EIG_TOL)[0][0]


def interval_limit_frequencies(a: float, b: float, theta: float, count: int) -> np.ndarray:
    """First ``count`` positive limit eigenfrequencies of the interval
    problem at a resonant coupling with ratio ``theta``: the roots of
    ``tan(b w) = theta^2 tan(a w)``, square roots of the levels of the
    ``ThetaCoupled(theta)`` problem on (a, 0) and (0, b) with Dirichlet
    ends, found as those of ``interval_spectrum`` and refined to 1e-13.
    By min-max level ``count`` of the Dirichlet intervals (a, 0) and (0, b)
    tops the window: Dirichlet at 0 restricts the coupled form domain."""
    if not (a < 0.0 < b):
        raise ValueError("need a < 0 < b")
    problem = _Problem([[FamilySegment(a, 0.0, 0.0, -1.0)], [FamilySegment(b, 0.0, 0.0, -1.0)]],
                       ThetaCoupled(theta).matrix())
    return np.sqrt(_interval_levels(problem, a, b, count, DEFAULT_CONFIG, 1e-13)[0])


def split_limit_frequencies(a: float, b: float, count: int) -> np.ndarray:
    """First ``count`` positive roots of tan(a w) tan(b w) = 0: the limit
    eigenfrequencies of the decoupled Dirichlet intervals (a, 0) and
    (0, b).  Frequencies shared by both intervals are double eigenvalues
    of the decoupled operator and are listed twice."""
    if not (a < 0.0 < b):
        raise ValueError("need a < 0 < b")
    vals = sorted(k * math.pi / side for k in range(1, count + 1) for side in (abs(a), b))
    return np.array(vals[:count])


# -- eigenfunction assembly ----------------------------------------------------------

def _check_grid(R: float, samples_per_unit) -> None:
    """Reject an eigenfunction grid of [-R, R] of over ``MAX_GRID_POINTS`` points."""
    if samples_per_unit > (MAX_GRID_POINTS - 1) / (2.0 * R):
        raise ValueError(f"samples_per_unit={samples_per_unit} puts more than {MAX_GRID_POINTS} "
                         f"points on the eigenfunction grid of [-{R:g}, {R:g}]")


def _attach_eigenfunctions(spec, R, problems, cfg, samples_per_unit):
    """Sample the eigenfunction of each level of ``spec`` on the uniform
    grid of [-R, R], ``samples_per_unit`` points per unit length;
    ``problems[i]`` is the problem of level i.

    A shot from -R samples the grid points at or left of the matching
    point, one from +R those right of it, and the side of a lone shot is
    0.  Each chain of a problem is shot once, its levels as the family.  A
    second shot is scaled so that its end state meets C applied to the
    first one's.  Samples stay (mantissa, log-exponent) pairs until the
    shots are joined, normalized to unit L2 norm on the grid and oriented
    so the leftmost sample with at least half the largest magnitude is
    positive.  The largest sample alone would not do: the outer lobes of an
    odd level of a symmetric potential tie to rounding.
    """
    xs = np.linspace(-R, R, int(round(2 * R * samples_per_unit)) + 1)
    funcs = np.zeros((len(spec.eigenvalues), len(xs)))
    for problem in {id(problem): problem for problem in problems}.values():
        chains, C, _, start = problem
        levels = [i for i, other in enumerate(problems) if other is problem]
        n_left = int(np.searchsorted(xs, chains[0][-1].b, side="right"))
        shots = []
        for chain in chains:
            from_left = chain[0].a < chain[-1].b
            side = slice(0, n_left) if from_left else slice(n_left, None)
            path = xs[side] if from_left else xs[side][::-1]
            shots.append((side, from_left, propagate_family(
                chain, spec.eigenvalues[levels], np.array(start), cfg, rescale=True, samples=path)))
        for col, i in enumerate(levels):
            vals, logs = np.zeros(len(xs)), np.full(len(xs), -np.inf)
            for j, (side, from_left, res) in enumerate(shots):
                u, log = res.sample_states[:, 0, col], res.sample_logs[:, col]
                end, end_log = res.states[:, col], float(res.logs[col])
                if not from_left:
                    u, log = u[::-1], log[::-1]
                if j == 0:
                    target, target_log = (end if C is None else C @ end), end_log
                else:
                    k = int(np.argmax(np.abs(end)))
                    u, log = target[k] / end[k] * u, log + (target_log - end_log)
                vals[side], logs[side] = u, log
            v = vals * np.exp(logs - logs.max())
            with np.errstate(over="ignore"):  # shots scaled apart by a theta near 1e300
                nrm = math.sqrt(float(np.trapezoid(v * v, xs)))
            if math.isinf(nrm):  # so the squares overflow: square v / max|v| instead
                v = v / np.abs(v).max()
                nrm = math.sqrt(float(np.trapezoid(v * v, xs)))
            if nrm > 0:
                v = v / nrm
                mag = np.abs(v)
                if v[np.argmax(mag >= 0.5 * mag.max())] < 0:
                    v = -v
            funcs[i] = v
    spec.x = xs
    spec.eigenfunctions = funcs

"""Resonant coupling constants and the endpoint coupling ratio of a profile.

A coupling constant ``alpha`` is *resonant* when the Neumann problem

    -w'' + alpha * profile(xi) * w = 0  on (-1, 1),   w'(-1) = w'(1) = 0

has a nontrivial solution.  Shooting from the left endpoint with data
``(w, w')(-1) = (1, 0)`` turns this into a scalar miss function
``D(alpha) = w'(1; alpha)`` whose zeros form the resonance set.  At a
resonance the endpoint ratio ``theta = w(1) / w(-1)`` is independent of the
eigenfunction normalization and fixes the limiting interface condition of
the squeezed barrier, as well as its limiting transmission probability.

``alpha = 0`` is always resonant (constants solve the equation, theta = 1)
but is a *double* zero of D for zero-mean profiles, so scans insert it
analytically instead of relying on a sign change.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NotInResonanceSetError
from .ivp import DEFAULT_CONFIG, FamilyResult, FamilySegment, SolverConfig, propagate_family
from .profiles import Profile
from .rootfind import bisect_vector, sign_change_brackets

__all__ = [
    "ResonancePoint",
    "shoot",
    "shoot_family",
    "resonance_scan",
    "coupling_theta",
    "scaled_residual",
    "step_h",
    "step_theta",
]

DEFAULT_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class ResonancePoint:
    """One member of the resonance set.

    ``residual`` is the scale-normalized Neumann defect |w'(1)| divided by
    the natural derivative scale of the shot (see ``scaled_residual``), so
    it stays meaningful when the eigenfunction grows exponentially in the
    coupling constant.  ``xi``/``w`` sample the eigenfunction, normalized
    to w(-1) = 1, on a uniform grid of [-1, 1].  ``flagged`` marks
    tangency candidates reported by the double-root guard, which are not
    confirmed sign-change roots.
    """

    alpha: float
    theta: float
    residual: float
    xi: np.ndarray
    w: np.ndarray
    flagged: bool = False


def _alpha_segments(p: Profile) -> list[FamilySegment]:
    """Segments for the family -w'' + alpha * profile * w = 0 on [-1, 1]."""
    segs = []
    for seg in p.segments:
        w_part = seg.coeffs[0] if seg.is_constant else seg
        segs.append(FamilySegment(seg.a, seg.b, 0.0, w_part))
    return segs


def shoot_family(
    p: Profile,
    alphas,
    cfg: SolverConfig | None = None,
    *,
    normalization: float = 1.0,
) -> FamilyResult:
    """Left-Neumann shots for a whole vector of coupling constants at once."""
    return propagate_family(
        _alpha_segments(p),
        np.asarray(alphas, dtype=float),
        np.array([float(normalization), 0.0]),
        cfg or DEFAULT_CONFIG,
    )


def shoot(
    p: Profile,
    alpha: float,
    cfg: SolverConfig | None = None,
    *,
    normalization: float = 1.0,
) -> tuple[float, float]:
    """Endpoint data (w(1), w'(1)) of the shot with w(-1)=normalization, w'(-1)=0.

    ``w'(1)`` is the resonance miss function D(alpha).  Piecewise-constant
    profile segments take one exact constant-coefficient step; the others
    run on the Runge-Kutta pair.
    """
    res = shoot_family(p, [alpha], cfg, normalization=normalization)
    return float(res.states[0, 0]), float(res.states[1, 0])


def scaled_residual(p: Profile, alpha, w1, dw1):
    """Neumann defect |w'(1)| measured against the shot's natural scale.

    The eigenfunction of a shot normalized to w(-1) = 1 grows like
    cosh(sqrt(|alpha| max|profile|)), so an absolute tolerance on |w'(1)|
    is meaningless for large couplings; dividing by
    kappa * max(1, |w(1)|) with kappa = max(1, sqrt(|alpha| max|profile|))
    keeps the defect comparable to a unit-normalized one.

    Broadcasts over arrays of ``alpha``, ``w1`` and ``dw1``; scalar inputs
    give a float.  ``np.fmax`` ignores a NaN argument as the builtin
    ``max(1.0, x)`` does, so array and scalar results agree bitwise.
    """
    kappa = np.fmax(1.0, np.sqrt(np.abs(alpha) * p.max_abs()))
    rho = np.abs(dw1) / (kappa * np.fmax(1.0, np.abs(w1)))
    return float(rho) if np.ndim(rho) == 0 else rho


def _eigenfunction_samples(p: Profile, alpha: float, cfg: SolverConfig, n_samples: int):
    xi = np.linspace(-1.0, 1.0, n_samples)
    res = propagate_family(
        _alpha_segments(p), np.array([alpha]), np.array([1.0, 0.0]), cfg, samples=xi
    )
    return xi, res.sample_states[:, 0, 0].copy()


def _point(p, alpha, cfg, n_samples, flagged=False) -> ResonancePoint:
    w1, dw1 = shoot(p, alpha, cfg)
    xi, w = _eigenfunction_samples(p, alpha, cfg, n_samples)
    return ResonancePoint(
        alpha=float(alpha),
        theta=float(w1),
        residual=scaled_residual(p, alpha, w1, dw1),
        xi=xi,
        w=w,
        flagged=flagged,
    )


def resonance_scan(
    p: Profile,
    alpha_min: float,
    alpha_max: float,
    scan_step: float = 0.1,
    cfg: SolverConfig | None = None,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    *,
    n_samples: int = 401,
    halving_check: bool = True,
) -> list[ResonancePoint]:
    """All resonant couplings in [alpha_min, alpha_max], sorted ascending.

    Sign changes of D(alpha) on a uniform grid are bracketed and refined by
    vectorized bisection; roots are simple away from zero, so bracketing
    finds them all provided ``scan_step`` is below the smallest root gap.
    A second pass at half the step guards against a too-coarse grid (a
    warning is raised and the extra roots are merged in).  It reuses the
    coarse shots for the half grid's even points and refines only the
    half-step brackets that hold no coarse root, so a half cell that holds
    a coarse root plus two more roots is not searched again (bisecting it
    could only find one of the two, and only by chance).  alpha = 0 is
    inserted analytically whenever the window contains it.  Grid points
    where |D| dips below tolerance without a sign change are returned as
    ``flagged`` tangency candidates rather than confirmed resonances.
    """
    if not alpha_min < alpha_max:
        raise ValueError("need alpha_min < alpha_max")
    if scan_step <= 0:
        raise ValueError("scan_step must be positive")
    cfg = cfg or DEFAULT_CONFIG

    grid = _grid(alpha_min, alpha_max, scan_step)
    shots = shoot_family(p, grid, cfg).states
    roots = _refine(p, sign_change_brackets(grid, shots[1]), scan_step, cfg)
    if halving_check:
        extra = _half_step_roots(p, grid, shots[1], roots, scan_step, cfg)
        if extra:
            warnings.warn(
                f"scan_step={scan_step} too coarse for profile {p.label!r}: "
                f"half-step re-scan found additional resonances {extra}",
                stacklevel=2,
            )
            roots.extend(extra)

    # alpha = 0 is resonant for every profile; for zero-mean profiles it is
    # a double root of D with no sign change, so it is inserted by hand.
    zero_guard = max(scan_step, 1e-6)
    roots = [r for r in roots if abs(r) > 1e-12]
    points = [_point(p, r, cfg, n_samples) for r in sorted(roots)]
    dropped = [pt for pt in points if not pt.residual <= residual_tol]
    if dropped:
        # D changes sign across each of them, so a root is there; the shot
        # at the refined alpha is not accurate enough to confirm it
        warnings.warn(
            f"residual_tol={residual_tol:g} drops sign-change roots of profile {p.label!r}: "
            + ", ".join(f"alpha={pt.alpha!r} (residual {pt.residual:.3e})" for pt in dropped),
            stacklevel=2,
        )
    points = [pt for pt in points if pt.residual <= residual_tol]

    if alpha_min <= 0.0 <= alpha_max:
        points.append(_point(p, 0.0, cfg, n_samples))

    points.extend(
        _tangency_candidates(p, grid, shots, scan_step, cfg, residual_tol,
                             n_samples, [pt.alpha for pt in points], zero_guard)
    )
    points.sort(key=lambda pt: pt.alpha)
    return points


def _grid(alpha_min, alpha_max, step) -> np.ndarray:
    """Uniform scan grid of cells no wider than about ``step``."""
    n_cells = max(1, int(math.ceil((alpha_max - alpha_min) / step)))
    return np.linspace(alpha_min, alpha_max, n_cells + 1)


def _refine(p, brackets, step, cfg) -> list[float]:
    """Simple roots of D in the sign-change ``brackets`` of a grid of ``step``."""
    if not brackets:
        return []
    lo = np.array([a for a, _ in brackets])
    hi = np.array([b for _, b in brackets])

    def fvec(xs: np.ndarray) -> np.ndarray:
        return shoot_family(p, xs, cfg).states[1]

    roots = bisect_vector(fvec, lo, hi, xtol=1e-14, rtol=4e-16)
    # simplicity check: D must change sign across each reported root
    delta = step / 10.0
    sides = fvec(np.concatenate([roots - delta, roots + delta]))
    left, right = sides[:roots.size], sides[roots.size:]
    return [float(r) for r, fl, fr in zip(roots, left, right) if (fl < 0) != (fr < 0)]


def _half_step_roots(p, grid, miss, roots, step, cfg) -> list[float]:
    """Roots of the half-step re-scan that the coarse pass did not find.

    ``grid`` and ``miss`` are the coarse grid and its D values.  The half
    grid splits every coarse cell in two; its even points are the coarse
    grid (``linspace`` gives them bitwise), so only its midpoints are shot.
    A half-step bracket that holds a coarse root is not refined; roots
    refined elsewhere are dropped when they lie within the merge tolerance
    of a coarse root.
    """
    alpha_min, alpha_max = float(grid[0]), float(grid[-1])
    half = np.linspace(alpha_min, alpha_max, 2 * grid.size - 1)
    miss_half = np.empty(half.size)
    miss_half[::2] = miss
    miss_half[1::2] = shoot_family(p, half[1::2], cfg).states[1]
    known = np.array(roots)
    unexplained = [
        (a, b) for a, b in sign_change_brackets(half, miss_half)
        if not np.any((a <= known) & (known <= b))
    ]
    merge_tol = 1e-6 * max(1.0, abs(alpha_min), abs(alpha_max))
    refined = _refine(p, unexplained, step / 2.0, cfg)
    return [r for r in refined if all(abs(r - s) > merge_tol for s in roots)]


def _tangency_candidates(
    p, grid, shots, step, cfg, residual_tol, n_samples, known, zero_guard
) -> list[ResonancePoint]:
    """Double-root guard: |D| below tolerance on the scan grid with no sign
    change, read off the scan's ``shots``."""
    w1, dw1 = shots
    rho = scaled_residual(p, grid, w1, dw1)
    out = []
    for i in np.flatnonzero(rho <= residual_tol):
        a = grid[i]
        if abs(a) <= 1.5 * zero_guard:
            continue
        if any(abs(a - r) <= 2.0 * step for r in known):
            continue
        is_min = (i == 0 or abs(dw1[i]) <= abs(dw1[i - 1])) and (
            i == len(grid) - 1 or abs(dw1[i]) <= abs(dw1[i + 1])
        )
        if is_min:
            out.append(_point(p, float(a), cfg, n_samples, flagged=True))
    return out


def coupling_theta(
    p: Profile,
    alpha_resonant: float,
    cfg: SolverConfig | None = None,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    *,
    normalization: float = 1.0,
) -> float:
    """Endpoint ratio w(1)/w(-1) of the Neumann eigenfunction at a resonance.

    The caller must supply a refined resonant coupling; if the shot's
    scale-normalized Neumann defect exceeds ``residual_tol`` the value is
    rejected.  The result does not depend on ``normalization``.
    """
    if alpha_resonant == 0.0:
        return 1.0
    cfg = cfg or DEFAULT_CONFIG
    w1, dw1 = shoot(p, alpha_resonant, cfg, normalization=normalization)
    theta = w1 / normalization
    rho = scaled_residual(p, alpha_resonant, theta, dw1 / normalization)
    if rho > residual_tol:
        raise NotInResonanceSetError(
            f"alpha={alpha_resonant} is not in the resonance set of {p.label!r}: "
            f"scaled Neumann defect {rho:.3e} exceeds {residual_tol:.1e}"
        )
    return theta


# -- closed forms for the step profile ----------------------------------------

def step_h(kappa: float) -> float:
    """Characteristic function kappa*(tanh(kappa) - tan(kappa)) of the step
    profile; its positive zeros are the square roots of the positive
    resonances."""
    if abs(math.cos(kappa)) < 1e-12:
        raise ValueError(f"kappa={kappa} is a tangent pole")
    return kappa * (math.tanh(kappa) - math.tan(kappa))


def step_theta(alpha: float) -> float:
    """Closed-form coupling ratio of the step profile.

    cosh(sqrt(alpha))/cos(sqrt(alpha)) for alpha >= 0 and
    cos(sqrt(-alpha))/cosh(sqrt(-alpha)) for alpha < 0; only meaningful at
    resonant alpha, but defined wherever the cosine does not vanish.
    """
    if alpha >= 0.0:
        s = math.sqrt(alpha)
        c = math.cos(s)
        if abs(c) < 1e-12:
            raise ValueError(f"cos(sqrt(alpha)) vanishes at alpha={alpha}")
        return math.cosh(s) / c
    s = math.sqrt(-alpha)
    return math.cos(s) / math.cosh(s)

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
analytically instead of relying on a sign change.  Away from 0 every
resonance is a simple zero of D, and the scan counts them: the Neumann
index N(alpha), the number of eigenvalues <= 0 of
-w'' + alpha profile w = lambda w, rises by exactly one at each resonance
as |alpha| grows, so a scan knows how many roots each grid cell holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotInResonanceSetError, NumericsError
from .ivp import DEFAULT_CONFIG, FamilyResult, FamilySegment, SolverConfig, propagate_family
from .profiles import Profile, ProfileKind, classify
from .rootfind import bisect_vector, resolve_cells

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
    to w(-1) = 1, on a uniform grid of [-1, 1].  ``flagged`` marks a
    counted root whose shot misses the scan's residual tolerance: the index
    proves a resonance there, but the shot is too inexact to confirm it.
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


def _point(p, alpha, cfg, n_samples, residual_tol) -> ResonancePoint:
    w1, dw1 = shoot(p, alpha, cfg)
    xi, w = _eigenfunction_samples(p, alpha, cfg, n_samples)
    rho = scaled_residual(p, alpha, w1, dw1)
    return ResonancePoint(float(alpha), float(w1), rho, xi, w, flagged=not rho <= residual_tol)


def resonance_scan(
    p: Profile,
    alpha_min: float,
    alpha_max: float,
    scan_step: float = 0.1,
    cfg: SolverConfig | None = None,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    *,
    n_samples: int = 401,
) -> list[ResonancePoint]:
    """All resonant couplings in [alpha_min, alpha_max], sorted ascending.

    Each side of alpha = 0 is scanned in t = |alpha| on the points of one
    uniform grid of the window.  The Neumann index (see ``_counted``)
    rises by exactly one at each resonance of a side, so
    ``resolve_cells`` halves every cell that hides roots until each shows
    its own sign change of D, and the brackets of both sides are refined
    together by vectorized bisection.  A side that brackets fewer roots
    than its index rise at the halving floor raises ``NumericsError``.
    alpha = 0 is inserted analytically whenever the window contains it.
    Roots whose shot misses ``residual_tol`` come back ``flagged``.
    """
    if not alpha_min < alpha_max:
        raise ValueError("need alpha_min < alpha_max")
    if scan_step <= 0:
        raise ValueError("scan_step must be positive")
    cfg = cfg or DEFAULT_CONFIG

    n_cells = max(1, math.ceil((alpha_max - alpha_min) / scan_step))
    grid = np.linspace(alpha_min, alpha_max, n_cells + 1)
    cls = classify(p)
    m0 = cls.m0 if cls.kind is ProfileKind.GENERAL else 0.0
    brackets = []
    for side in (-1.0, 1.0):
        brackets.extend(_side_brackets(p, side, side * grid, m0, cfg))
    points = [_point(p, r, cfg, n_samples, residual_tol) for r in _refine(p, brackets, cfg)]
    if alpha_min <= 0.0 <= alpha_max:
        points.append(_point(p, 0.0, cfg, n_samples, residual_tol))
    points.sort(key=lambda pt: pt.alpha)
    return points


def _counted(p, side, cfg):
    """``fvec(ts, True) -> (D, N)`` at alpha = side * ts.

    N is the Neumann index: the number of eigenvalues <= 0 of
    -w'' + alpha profile w = lambda w with Neumann ends, read off the
    left Neumann shot as its zero count plus [atan2(w, w') mod pi >= pi/2]
    at xi = 1.  Each eigencurve crosses 0 only at a resonance, with slope
    of sign -sgn(alpha), so N never decreases in t and rises by exactly
    one at each resonance (Binding & Volkmer, SIAM Rev. 38 (1996) 27-48).
    """
    segs = _alpha_segments(p)

    def fvec(ts, with_counts=True):
        res = propagate_family(segs, side * np.asarray(ts, dtype=float),
                               np.array([1.0, 0.0]), cfg, count_zeros=True)
        w1, dw1 = res.states
        return dw1, res.zero_counts + (np.arctan2(w1, dw1) % math.pi >= 0.5 * math.pi)

    return fvec


def _side_brackets(p, side, ts, m0, cfg) -> list[tuple[float, float]]:
    """Sign-change brackets, in alpha, of the resonances on one ``side``
    (+1 or -1) of alpha = 0, from the grid points ``ts`` = side * grid.

    A side that holds 0 starts its scan there, where the shot is exactly
    (1, 0) and N = 1.  For a nonzero mean m0 the ground level leaves 0
    upwards on the side where alpha m0 > 0, so N starts at 0 there.
    """
    ts = np.sort(ts)
    if ts[-1] <= 0.0:
        return []
    if ts[0] < 0.0:
        ts = np.concatenate(([0.0], ts[ts > 0.0]))
    fvec = _counted(p, side, cfg)
    fs, cs = fvec(ts, True)
    if ts[0] == 0.0 and side * m0 > 0.0:
        cs[0] -= 1
    out: list[tuple[float, float]] = []
    resolve_cells(fvec, ts, fs, cs, out)
    if len(out) < cs[-1] - cs[0]:
        lo, hi = sorted((side * ts[0], side * ts[-1]))
        raise NumericsError(
            f"resonance scan of profile {p.label!r} on [{lo:.10g}, {hi:.10g}]: the Neumann "
            f"index counts {cs[-1] - cs[0]} resonances, but only {len(out)} show a sign "
            "change at the halving floor"
        )
    return [(a, b) if side > 0.0 else (-b, -a) for a, b in out]


def _refine(p, brackets, cfg) -> np.ndarray:
    """Roots of D in the sign-change ``brackets``, all in one bisection."""
    if not brackets:
        return np.empty(0)
    lo, hi = np.array(brackets).T
    miss = lambda xs: shoot_family(p, xs, cfg).states[1]
    return bisect_vector(miss, lo, hi, xtol=1e-14, rtol=4e-16)


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

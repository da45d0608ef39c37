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
resonance is a simple zero of D, and the scan counts them: a resonance is
an eigenvalue 0 of -w'' + alpha profile w = lambda w with Neumann ends, so
N(alpha), its number of eigenvalues <= 0 (the index of ``spectra._matching``),
rises by one at each resonance as |alpha| grows, and a scan knows how many
roots each grid cell holds.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketShortfallError, NotInResonanceSetError, NumericsError
from .ivp import DEFAULT_CONFIG, FamilyResult, FamilySegment, SolverConfig, propagate_family
from .profiles import Profile, ProfileKind, classify
from .rootfind import illinois_vector, resolve_cells, sign_change
from .spectra import _matching, _Problem

__all__ = [
    "ResonancePoint",
    "shoot",
    "shoot_family",
    "resonance_scan",
    "eigenfunction",
    "coupling_theta",
    "scaled_residual",
]

DEFAULT_RESIDUAL_TOL = 1e-9
DEFAULT_SCAN_STEP = 0.1  # width of the coupling grid cells of a resonance scan
_EIGENFUNCTION_SAMPLES = 401  # uniform samples of each resonance eigenfunction on [-1, 1]


@dataclass(frozen=True)
class ResonancePoint:
    """One member of the resonance set.

    ``residual`` is the scale-normalized Neumann defect |w'(1)| divided by
    the natural derivative scale of the shot (see ``scaled_residual``), so
    it stays meaningful when the eigenfunction grows exponentially in the
    coupling constant.  ``flagged`` marks a counted root whose shot misses
    the scan's residual tolerance or lost w(1) (theta exactly 0): the index
    proves a resonance there, but the shot is too inexact to confirm it.
    A point carries no samples of its eigenfunction; ``eigenfunction``
    shoots them on request.
    """

    alpha: float
    theta: float
    residual: float
    flagged: bool = False


def _alpha_segments(p: Profile) -> list[FamilySegment]:
    """Segments for the family -w'' + alpha * profile * w = 0 on [-1, 1]."""
    segs = []
    for seg in p.segments:
        w_part = seg.coeffs[0] if seg.is_constant else seg
        segs.append(FamilySegment(seg.a, seg.b, 0.0, w_part))
    return segs


def shoot_family(p: Profile, alphas, cfg: SolverConfig | None = None) -> FamilyResult:
    """Left-Neumann shots, w(-1) = 1 and w'(-1) = 0, for a whole vector of
    coupling constants at once."""
    return propagate_family(
        _alpha_segments(p),
        np.asarray(alphas, dtype=float),
        np.array([1.0, 0.0]),
        cfg or DEFAULT_CONFIG,
    )


def shoot(p: Profile, alpha: float, cfg: SolverConfig | None = None) -> tuple[float, float]:
    """Endpoint data (w(1), w'(1)) of the shot with w(-1) = 1, w'(-1) = 0.

    ``w'(1)`` is the resonance miss function D(alpha).  Piecewise-constant
    profile segments take one exact constant-coefficient step; the others
    run on the Runge-Kutta pair, which carries only such endpoint shots
    (unsampled and uncounted).
    """
    res = shoot_family(p, [alpha], cfg)
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
    kappa = np.fmax(1.0, np.sqrt(np.abs(alpha) * p.max_abs))
    rho = np.abs(dw1) / (kappa * np.fmax(1.0, np.abs(w1)))
    return float(rho) if np.ndim(rho) == 0 else rho


def eigenfunction(p: Profile, alpha: float, cfg: SolverConfig | None = None):
    """``(xi, w)``: the left-Neumann shot at ``alpha``, normalized to
    w(-1) = 1, sampled on a uniform grid of 401 points of [-1, 1].

    A sampled shot runs on the Magnus meshes: the weight-bucket mesh of
    ``alpha`` on a non-constant segment (the mesh the scan's counted
    shots use), one exact step on a constant one.  Each sample is one
    Magnus substep from the mesh node before it."""
    xi = np.linspace(-1.0, 1.0, _EIGENFUNCTION_SAMPLES)
    res = propagate_family(
        _alpha_segments(p), np.array([alpha]), np.array([1.0, 0.0]), cfg or DEFAULT_CONFIG,
        samples=xi,
    )
    return xi, res.sample_states[:, 0, 0].copy()


def _point(p, alpha, cfg, residual_tol) -> ResonancePoint:
    w1, dw1 = shoot(p, alpha, cfg)
    rho = scaled_residual(p, alpha, w1, dw1)
    lost = w1 == 0.0  # theta is never 0 at a resonance: w(1) = w'(1) = 0 makes w = 0
    return ResonancePoint(float(alpha), float(w1), rho, flagged=not rho <= residual_tol or lost)


def resonance_scan(
    p: Profile,
    alpha_min: float,
    alpha_max: float,
    scan_step: float = DEFAULT_SCAN_STEP,
    cfg: SolverConfig | None = None,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> list[ResonancePoint]:
    """All resonant couplings in [alpha_min, alpha_max], sorted ascending.

    Each side of alpha = 0 is scanned in t = |alpha| on the points of one
    uniform grid of the window, ceil(width / scan_step) cells (at most
    2^53).  The Neumann index (see ``_neumann_index``) rises by exactly one
    at each resonance of a side, so ``_side_brackets`` shoots only the grid
    points that locate the cells where it rises, ``resolve_cells`` halves
    every cell that hides roots until each shows its own sign change of
    D, and the brackets of both sides are refined together by
    ``illinois_vector``.  The counted shots are the rescaled matching shots
    of ``spectra`` on the weight-bucket Magnus meshes, the refine and the
    endpoint shots of the roots run at true scale on the Runge-Kutta pair.
    A side that brackets fewer roots than its index rise at the halving floor
    raises ``NumericsError``.  alpha = 0 is inserted analytically whenever
    the window contains it.  Roots whose shot misses ``residual_tol``, or
    lost w(1), come back ``flagged``.
    """
    if not alpha_min < alpha_max:
        raise ValueError("need alpha_min < alpha_max")
    if scan_step <= 0:
        raise ValueError("scan_step must be positive")
    if not math.isfinite((alpha_max - alpha_min) / scan_step):
        raise ValueError("(alpha_max - alpha_min) / scan_step must be finite")
    n_cells = max(1, math.ceil((alpha_max - alpha_min) / scan_step))
    if n_cells > 2**53:
        raise ValueError(f"the scan grid would have {n_cells:.3g} cells, more than 2^53")
    cfg = cfg or DEFAULT_CONFIG

    cls = classify(p)
    m0 = cls.m0 if cls.kind is ProfileKind.GENERAL else 0.0
    brackets = []
    for side in (-1.0, 1.0):
        size, t = _side_grid(alpha_min, alpha_max, n_cells, side)
        brackets.extend(_side_brackets(p, side, size, t, m0, cfg))
    points = [_point(p, r, cfg, residual_tol) for r in _refine(p, brackets, cfg)]
    if alpha_min <= 0.0 <= alpha_max:
        points.append(_point(p, 0.0, cfg, residual_tol))
    points.sort(key=lambda pt: pt.alpha)
    return points


def _side_grid(lo: float, hi: float, n: int, side: float):
    """``(size, t)``: the points of the uniform grid of [lo, hi] with ``n``
    cells that lie on one ``side`` (+1 or -1) of alpha = 0, as t = side *
    alpha in ascending order, and ``t(k)`` for an index array ``k`` of
    them, computed from the index alone.

    Grid point i is lo + i ((hi - lo) / n), and hi for i = n: the points of
    ``np.linspace(lo, hi, n + 1)``, bitwise.  A side whose part of the
    window reaches beyond 0 starts at t = 0, followed by the grid points
    strictly on that side; one that does not reach 0 has no points.
    """
    d = (hi - lo) / n

    def alpha(i):
        return np.where(i == n, hi, lo + i * d)

    if side > 0.0:
        if hi <= 0.0:
            return 0, None
        if lo >= 0.0:
            return n + 1, alpha
        i0 = bisect.bisect_right(range(n + 1), 0.0, key=alpha)  # the first point above 0
        return n - i0 + 2, lambda k: np.where(k == 0, 0.0, alpha(i0 + k - 1))
    if lo >= 0.0:
        return 0, None
    if hi <= 0.0:
        return n + 1, lambda k: -alpha(n - k)
    i1 = bisect.bisect_left(range(n + 1), 0.0, key=alpha) - 1  # the last point below 0
    return i1 + 2, lambda k: np.where(k == 0, 0.0, -alpha(i1 - k + 1))


def _neumann_index(p, cfg):
    """``fvec(alphas, True) -> (D, N)`` of the Neumann problem's matching
    shots from (1, 0): D = -w'(1) / |(w, w')(1)|, and N never decreases in
    |alpha|, since each eigencurve crosses 0 only at a resonance, with slope
    of sign -sgn(alpha) (Binding & Volkmer, SIAM Rev. 38 (1996) 27-48)."""
    return _matching([_Problem([_alpha_segments(p)], W=(1.0, 0.0), start=(1.0, 0.0))], cfg)


def _side_brackets(p, side, size, t, m0, cfg) -> list[tuple[float, float]]:
    """Sign-change brackets, in alpha, of the resonances on one ``side``
    (+1 or -1) of alpha = 0, among the ``size`` grid points ``t(k)`` =
    side * alpha of that side (``_side_grid``).

    It counts on ``_neumann_index`` at alpha = side * t.  A side that holds
    0 starts its scan there, where the shot is exactly (1, 0) and N = 1.
    For a nonzero mean m0 the ground level leaves 0 upwards on the side
    where alpha m0 > 0, so N starts at 0 there.

    The two ends of the side are shot first.  Then, one ``fvec`` round per
    level, every range of grid indices between neighbouring shot points
    whose N rises, or whose D changes sign, is split at its middle index,
    until each such range is one grid cell.  N never decreases in t, so a
    range where it neither rises nor D changes sign holds no root, and the
    cells of the points shot are those where ``resolve_cells`` would find
    roots on the full grid: it gets the points shot, with their values and
    counts, and returns the brackets it would return there.
    """
    if size == 0:
        return []
    index = _neumann_index(p, cfg)
    fvec = lambda ts, with_counts=False: index(side * ts, with_counts)
    ks = np.array([0, size - 1])
    ts = t(ks)
    fs, cs = fvec(ts, True)
    if ts[0] == 0.0 and side * m0 > 0.0:
        cs[0] -= 1
    shot = [(ks, ts, fs, cs)]
    ka, fa, ca, kb, fb, cb = ks[:1], fs[:1], cs[:1], ks[1:], fs[1:], cs[1:]
    while True:
        split = (kb - ka > 1) & ((cb > ca) | sign_change(fa, fb))
        if not split.any():
            break
        ka, fa, ca, kb, fb, cb = (v[split] for v in (ka, fa, ca, kb, fb, cb))
        km = (ka + kb) // 2
        tm = t(km)
        fm, cm = fvec(tm, True)
        shot.append((km, tm, fm, cm))
        ka, fa, ca = np.concatenate((ka, km)), np.concatenate((fa, fm)), np.concatenate((ca, cm))
        kb, fb, cb = np.concatenate((km, kb)), np.concatenate((fm, fb)), np.concatenate((cm, cb))
    ks, ts, fs, cs = (np.concatenate(v) for v in zip(*shot))
    order = np.argsort(ks)
    ts, fs, cs = ts[order], fs[order], cs[order]
    out: list[tuple[float, float]] = []
    try:
        resolve_cells(fvec, ts, fs, cs, out)
    except BracketShortfallError as exc:
        lo, hi = sorted((side * ts[0], side * ts[-1]))
        raise NumericsError(
            f"resonance scan of profile {p.label!r} on [{lo:.10g}, {hi:.10g}]: the Neumann "
            f"index counts {exc.counted} resonances, but only {exc.found} show a sign change "
            "at the halving floor") from None
    return [(a, b) if side > 0.0 else (-b, -a) for a, b in out]


def _refine(p, brackets, cfg) -> np.ndarray:
    """Roots of D in the sign-change ``brackets``, all in one
    ``illinois_vector`` call: each shot carries only the open brackets."""
    if not brackets:
        return np.empty(0)
    lo, hi = np.array(brackets).T
    miss = lambda xs: shoot_family(p, xs, cfg).states[1]
    return illinois_vector(miss, lo, hi, xtol=1e-14, rtol=4e-16)


def coupling_theta(
    p: Profile,
    alpha_resonant: float,
    cfg: SolverConfig | None = None,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> ResonancePoint:
    """The resonance point at ``alpha_resonant`` from one shot: ``theta`` is
    the endpoint ratio w(1)/w(-1) of the Neumann eigenfunction.

    The caller must supply a refined resonant coupling; if the shot's
    scale-normalized Neumann defect exceeds ``residual_tol``, or the shot
    lost w(1), the value is rejected.
    """
    pt = _point(p, alpha_resonant, cfg, residual_tol)
    if pt.flagged:
        why = ("the shot lost w(1), which reads exactly 0" if pt.theta == 0.0 else
               f"scaled Neumann defect {pt.residual:.3e} exceeds {residual_tol:.1e}")
        raise NotInResonanceSetError(
            f"alpha={alpha_resonant} is not in the resonance set of {p.label!r}: {why}")
    return pt


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
from itertools import groupby

import numpy as np

from .errors import (BracketShortfallError, NotInResonanceSetError, NumericsError,
                     StepSizeUnderflowError)
from .ivp import (DEFAULT_CONFIG, FamilyResult, FamilySegment, SolverConfig, _check_finite,
                  propagate_family)
from .profiles import Profile, ProfileKind, classify
from .rootfind import illinois_vector, resolve_cells
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
    coupling constants at once, at true scale.

    Each run of constant profile segments is one ``propagate_family`` call
    (one exact step per segment); each polynomial segment runs on the
    Dormand-Prince kernel (``_rk_segment``, ``_rk_span``), which carries
    these unsampled, uncounted endpoint shots alone, the members of a lane
    on one shared step sequence.  A state that leaves the range of a double
    raises ``NumericsError``, as in ``propagate_family``."""
    cfg = cfg or DEFAULT_CONFIG
    m = np.atleast_1d(np.asarray(alphas, dtype=float))
    segs = _alpha_segments(p)
    Y = np.repeat([[1.0], [0.0]], m.size, axis=1)
    with np.errstate(all="ignore"):  # a non-finite state raises below
        for constant, run in groupby(segs, lambda seg: not callable(seg.w_part)):
            if not constant:
                for seg in run:
                    _rk_segment(seg, m, Y, cfg, abs(segs[-1].b - segs[0].a))
                continue
            _check_finite(segs, m, [Y])  # propagate_family starts from finite states only
            res = propagate_family(list(run), m, Y, cfg, rescale=True)
            Y = res.states * np.exp(res.logs)
    _check_finite(segs, m, [Y])
    return FamilyResult(Y, np.zeros(m.size))


def shoot(p: Profile, alpha: float, cfg: SolverConfig | None = None) -> tuple[float, float]:
    """Endpoint data (w(1), w'(1)) of the shot with w(-1) = 1, w'(-1) = 0.

    ``w'(1)`` is the resonance miss function D(alpha), shot by
    ``shoot_family``.
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
    at each resonance of a side, so ``resolve_cells`` (``_side_brackets``)
    shoots only the grid points that locate the cells where it rises,
    halves every cell that hides roots down to the one floor until each
    shows its own sign change of D, and the brackets of both sides are
    refined together by ``illinois_vector``.  The counted shots are the
    rescaled matching shots of ``spectra`` on the weight-bucket Magnus
    meshes, the refine and the endpoint shots of the roots run at true
    scale on the Runge-Kutta kernel, whose lanes (``_rk_segment``) decide
    which shots share their steps.  A side that brackets fewer roots than
    its index rise at the halving floor raises ``NumericsError``.  alpha =
    0 is inserted analytically whenever the window contains it.  Roots
    whose shot misses ``residual_tol``, or lost w(1), come back
    ``flagged``.
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
        points.append(ResonancePoint(0.0, 1.0, 0.0))  # its shot is exactly (1, 0)
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
    side * alpha of that side (``_side_grid``), found by ``resolve_cells``.

    It counts on ``_neumann_index`` at alpha = side * t.  A side that holds
    0 starts its scan there, where the shot is exactly (1, 0) and N = 1.
    For a nonzero mean m0 the ground level leaves 0 upwards on the side
    where alpha m0 > 0, so N starts at 0 there.  N never decreases in t,
    so a range of grid indices where it neither rises nor D changes sign
    holds no root.  A side whose index counts more resonances than show a
    sign change at the halving floor raises ``NumericsError``, naming its
    window in alpha.
    """
    if size == 0:
        return []
    index = _neumann_index(p, cfg)

    def counted(ts, _):
        fs, cs = index(side * ts, True)
        return fs, cs - ((side * m0 > 0.0) & (ts == 0.0))

    try:
        brackets, _ = resolve_cells(counted, t, size)
    except BracketShortfallError as exc:
        lo, hi = sorted(side * t(np.array([0, size - 1])) + 0.0)  # + 0.0: no -0
        raise NumericsError(
            f"resonance scan of profile {p.label!r} on [{lo:.10g}, {hi:.10g}]: the Neumann "
            f"index counts {exc.counted} resonances, but only {exc.found} show a sign change "
            "at the halving floor") from None
    return [(a, b) if side > 0.0 else (-b, -a) for a, b in brackets]


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


# -- the Dormand-Prince 5(4) kernel of the true-scale shots, in lockstep lanes ------

_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_DP_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
_DP_B4 = (
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
)
_DP_E = tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))
_RK_ABS_TOL = 1e-12  # absolute floor of the RK error test
_RK_MAX_STEP = 1e-2  # RK step cap, relative to the span of the profile
_RK_MIN_STEP = 1e-14  # RK underflow floor, relative to the span of the profile
_RK_BLOCK = 23  # lanes of this many members and more step on numpy arrays
_HORNER = {  # Segment.__call__ unrolled by coefficient count, its leading 0.0 * x kept
    2: lambda c0, c1: lambda x: (0.0 * x + c1) * x + c0,
    3: lambda c0, c1, c2: lambda x: ((0.0 * x + c2) * x + c1) * x + c0,
    4: lambda c0, c1, c2, c3: lambda x: (((0.0 * x + c3) * x + c2) * x + c1) * x + c0,
}


def _rk_segment(seg: FamilySegment, m: np.ndarray, Y: np.ndarray, cfg: SolverConfig,
                span: float) -> None:
    """Carry the true-scale states ``Y`` (2, n) of the couplings ``m`` in
    place across ``seg``, where q = 0 + m w(x), with steps capped at
    ``_RK_MAX_STEP`` and floored at ``_RK_MIN_STEP`` times ``span``.

    Each lane is one ``_rk_span`` run, whose members share one step
    sequence: a family of 2-6 couplings goes member by member, one of 1 or
    of 7 and more as one lane.  The split stays because the lanes set the
    last bits of every shot.  Every member alone confirms 8 bump roots on
    [-200, 200] where the frozen set has 6; every family as one lane keeps
    the 6 and the flagged pair, but moves two thetas of ``even_quadratic``
    by up to 5.3e-15 relative."""
    lanes = [slice(j, j + 1) for j in range(m.size)] if 1 < m.size <= 6 else [slice(0, m.size)]
    wp = _HORNER.get(len(seg.w_part.coeffs), lambda *_: seg.w_part)(*seg.w_part.coeffs)
    for lane in lanes:
        _rk_span(wp, m[lane].tolist(), seg.a, seg.b, Y[:, lane], cfg,
                 _RK_MAX_STEP * span, _RK_MIN_STEP * span)


def _rk_span(wp, ms, x0, x1, Y, cfg, hmax, hmin) -> None:
    """Advance the columns of Y in place from x0 to x1 (a span with no
    interior breaks), one per coupling of ``ms``, where q = 0 + m wp(x):
    wp rounds bitwise as ``Segment.__call__`` (``_HORNER`` unrolls it to cubics).

    Every member steps on one step sequence: wp is evaluated once per stage
    for all of them, and a step passes only when every member passes its
    error test.  The error of a step is the largest of the members' errors;
    a non-finite one rejects the step.  A lane of fewer than ``_RK_BLOCK``
    members runs its stages member by member in plain Python floats, a
    wider one on numpy arrays (``_dp_block``).  Both do the same elementwise
    arithmetic in the same order, so a member's state is bitwise the same
    either way: the cut-off sets the speed only."""
    rtol, atol = cfg.rel_tol, _RK_ABS_TOL
    direction = 1.0 if x1 > x0 else -1.0
    (a21,) = _DP_A[1]
    a31, a32 = _DP_A[2]
    a41, a42, a43 = _DP_A[3]
    a51, a52, a53, a54 = _DP_A[4]
    a61, a62, a63, a64, a65 = _DP_A[5]
    b1, _, b3, b4, b5, b6 = _DP_A[6]
    e1, _, e3, e4, e5, e6, e7 = _DP_E
    c2, c3, c4, c5 = _DP_C[1:5]  # c6 = 1: stages 6 and 7 both sit at x + hh

    x = x0
    w = wp(x)
    qmag = max(abs(0.0 + m * w) for m in ms)
    span = abs(x1 - x0)
    h = direction * min(hmax, span, 0.5 / (math.sqrt(qmag) + 1.0 / span))
    block = len(ms) >= _RK_BLOCK
    if block:
        stages, Z, K = _dp_block(ms, Y, w, rtol)
    else:  # u, v and q u per member, q u being the first slope of the next step
        us, vs = Y.tolist()
        kv1s = [(0.0 + m * w) * u for m, u in zip(ms, us)]

    while (x1 - x) * direction > 1e-15 * max(1.0, abs(x1)):
        clip = abs(h) > abs(x1 - x)
        hh = x1 - x if clip else h
        w2 = wp(x + c2 * hh)
        w3 = wp(x + c3 * hh)
        w4 = wp(x + c4 * hh)
        w5 = wp(x + c5 * hh)
        xe = x + hh
        w7 = wp(xe)
        if block:
            Z5, K7, err = stages(Z, K, hh, w2, w3, w4, w5, w7)
        else:
            err = 0.0
            u5s, v5s, kv7s = [], [], []
            for m, u, v, kv1 in zip(ms, us, vs, kv1s):
                su = u + hh * (a21 * v)
                sv = v + hh * (a21 * kv1)
                ku2 = sv
                kv2 = (0.0 + m * w2) * su
                su = u + hh * (a31 * v + a32 * ku2)
                sv = v + hh * (a31 * kv1 + a32 * kv2)
                ku3 = sv
                kv3 = (0.0 + m * w3) * su
                su = u + hh * (a41 * v + a42 * ku2 + a43 * ku3)
                sv = v + hh * (a41 * kv1 + a42 * kv2 + a43 * kv3)
                ku4 = sv
                kv4 = (0.0 + m * w4) * su
                su = u + hh * (a51 * v + a52 * ku2 + a53 * ku3 + a54 * ku4)
                sv = v + hh * (a51 * kv1 + a52 * kv2 + a53 * kv3 + a54 * kv4)
                ku5 = sv
                kv5 = (0.0 + m * w5) * su
                su = u + hh * (a61 * v + a62 * ku2 + a63 * ku3 + a64 * ku4 + a65 * ku5)
                sv = v + hh * (a61 * kv1 + a62 * kv2 + a63 * kv3 + a64 * kv4 + a65 * kv5)
                q7 = 0.0 + m * w7
                ku6 = sv
                kv6 = q7 * su
                u5 = u + hh * (b1 * v + b3 * ku3 + b4 * ku4 + b5 * ku5 + b6 * ku6)
                v5 = v + hh * (b1 * kv1 + b3 * kv3 + b4 * kv4 + b5 * kv5 + b6 * kv6)
                kv7 = q7 * u5
                eu = hh * (e1 * v + e3 * ku3 + e4 * ku4 + e5 * ku5 + e6 * ku6 + e7 * v5)
                ev = hh * (e1 * kv1 + e3 * kv3 + e4 * kv4 + e5 * kv5 + e6 * kv6 + e7 * kv7)
                # the builtins max and abs spelled out; max(a, b) is b only if b > a
                du, du5 = -u if u < 0.0 else u, -u5 if u5 < 0.0 else u5
                dv, dv5 = -v if v < 0.0 else v, -v5 if v5 < 0.0 else v5
                e = (-eu if eu < 0.0 else eu) / (atol + rtol * (du5 if du5 > du else du))
                ev = (-ev if ev < 0.0 else ev) / (atol + rtol * (dv5 if dv5 > dv else dv))
                e = ev if ev > e else e
                if e > err or e != e:  # a NaN, once in, stays: nothing compares above it
                    err = e
                u5s.append(u5)
                v5s.append(v5)
                kv7s.append(kv7)
        if err <= 1.0:
            x = xe
            if block:
                Z, K = Z5, K7
            else:
                us, vs, kv1s = u5s, v5s, kv7s
            if not clip:  # err <= 1 makes 0.9 err^-0.2 >= 0.9: only the cap of 5 binds
                fac = 5.0 if err == 0.0 else 0.9 * err**-0.2
                h *= 5.0 if fac > 5.0 else fac
                if abs(h) > hmax:
                    h = direction * hmax
        else:
            h = hh * (max(0.1, 0.9 * err**-0.2) if math.isfinite(err) else 0.1)
            if abs(h) < hmin:
                raise StepSizeUnderflowError(x)
    Y[:] = Z if block else (us, vs)


def _dp_block(ms, Y, w, rtol):
    """The stages of a step of ``_rk_span`` for a whole lane at once, on
    numpy arrays: returns the step, ``(Z, K, hh, w2, w3, w4, w5, w7) -> (Z5,
    K7, err)``, and the starting Z and K.  The state is Z = (u, v) with its
    first slope K = (v, q u), each a (2, n) array;
    a stage's slope is its Z with the rows swapped, times (1, 0 + m w).
    Each new slope is added, times its tableau column, to the running sums
    of every later stage, of the fifth-order state and of the error, so
    each sum takes its terms in the float path's order (a zero coefficient
    adds no term there, and none here).  The fifth-order state is the
    sixth stage of that loop, its slope at x + hh the seventh."""
    atol = _RK_ABS_TOL
    tab = np.zeros((7, 7))  # rows: stages 2-6, the fifth-order state, the error
    for i in range(1, 6):
        tab[i - 1, :i] = _DP_A[i]
    tab[5], tab[6] = _DP_B5, _DP_E
    enters = [slice(0, 7), slice(1, 5), *(slice(j, 7) for j in range(2, 7))]  # b2 = e2 = 0
    cols = [tab[rows, j, None, None] for j, rows in enumerate(enters)]
    one = np.array([[1.0], [0.0]])
    mm = np.array([[0.0] * len(ms), ms])

    def stages(Z, K, hh, w2, w3, w4, w5, w7):
        Q = one + mm * np.array([w2, w3, w4, w5, w7, w7])[:, None, None]
        S = cols[0] * K
        for j in range(1, 7):
            Zj = Z + hh * S[j - 1]
            K = Zj[::-1] * Q[j - 1]
            S[enters[j]] += cols[j] * K
        err = float((abs(hh * S[6]) / (atol + rtol * np.maximum(abs(Z), abs(Zj)))).max())
        return Zj, K, err

    return stages, Y.copy(), Y[::-1] * (one + mm * w)

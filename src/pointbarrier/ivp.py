"""Propagation engine for linear second-order equations -u'' + q(x) u = 0.

Everything downstream (shooting, spectra, scattering) reduces to carrying
real Cauchy data (u, u') across an interval.  The engine propagates whole
*families* of coefficients ``q_i(x) = c(x) + m_i * w(x)`` at once
(vectorized over the family index) along a chain of segments, and picks
one of two transports per segment:

* a sixth-order Magnus transport when ``w`` is a constant (zero
  included): the members differ by a constant shift, as in every
  eigenvalue family ``c(x) - lambda``.  Each step uses c at three Gauss
  nodes (Blanes, Casas & Ros, BIT 40 (2000) 434-450); sl(2) is closed
  under commutators, so its exponent is a traceless 2x2 matrix whose
  exponential is closed form (cosh/sinh, cos/sin, or a series near zero).
  The mesh is built once per (segment, config) from ``c`` and the
  tolerance alone and cached; a call exponentiates every interval of
  every member in one vectorized pass and chains the 2x2 matrices with a
  blocked scan.  A constant ``c`` needs one interval, on which the step
  is the exact constant-coefficient propagator;
* an embedded Dormand-Prince 5(4) adaptive Runge-Kutta pair on the
  first-order system when ``w`` is callable, as in the coupling families
  ``alpha * profile`` of resonance shots, with mandatory step boundaries
  at the segment ends (piecewise coefficients lose no order).

States carry an accumulated log-scale so that strongly exponential regimes
never overflow; determinant signs are unaffected because the scales are
positive.  The fundamental matrix of a chain is the propagation of a
family of two equal members from ``init = eye(2)``, with
``unit_wronskian`` projecting out the drift of its determinant.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import StepSizeUnderflowError

__all__ = [
    "SolverConfig",
    "FamilySegment",
    "FamilyResult",
    "constant_propagator",
    "propagate_family",
    "unit_wronskian",
]


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance of the Magnus mesh and the Runge-Kutta pair.

    ``rel_tol`` bounds the one-step vs two-half-step defect of every mesh
    interval and the local error of every RK step relative to the state
    (with the absolute floor ``_RK_ABS_TOL``).  The tolerance alone sizes
    the mesh; the RK steps are capped at 1e-2 times the span of the chain.
    A mesh interval or RK step shorter than ``_MIN_STEP`` times its span
    (of the segment, for a mesh) raises ``StepSizeUnderflowError``.
    """

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not self.rel_tol > 0:  # NaN fails too
            raise ValueError("tolerances must be positive")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class FamilySegment:
    """Coefficient description on one sub-interval.

    The coefficient of the family member with weight ``m`` is
    ``c_part(x) + m * w_part(x)``; each part is either a plain float
    (constant on the segment) or a callable of ``x``.  A float ``w_part``
    (zero included) puts the segment on the Magnus mesh, where a float
    ``c_part`` takes one exact step; a callable ``w_part`` puts it on the
    Runge-Kutta pair.
    """

    a: float
    b: float
    c_part: float | Callable[[float], float]
    w_part: float | Callable[[float], float] = 0.0


@dataclass
class FamilyResult:
    """Terminal states of a family propagation.

    ``states`` has shape (2, n); ``logs`` holds the accumulated natural-log
    scale factor per member (zero unless ``rescale`` was requested).  When
    sample points were supplied, ``sample_states`` ((k, 2, n)) and
    ``sample_logs`` ((k, n)) record the states there.
    ``zero_counts`` (when requested) counts the interior zeros of u along
    the path per member, which by Sturm oscillation theory indexes the
    eigenvalues of regular problems.
    """

    states: np.ndarray
    logs: np.ndarray
    sample_states: np.ndarray | None = None
    sample_logs: np.ndarray | None = None
    zero_counts: np.ndarray | None = None


# -- Dormand-Prince 5(4) tableau ---------------------------------------------

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
_RK_MAX_STEP = 1e-2  # RK step cap, relative to the span of the chain
_MIN_STEP = 1e-14  # underflow floor of a step or mesh interval, relative to its span


# -- adaptive RK on a family ---------------------------------------------------
#
# Zero counts of the RK come from sign flips of u between accepted steps,
# which are far shorter than the local zero spacing (h ~ 0.03 / sqrt|q|
# versus pi / sqrt|q|).

def _rk_span(
    qv: Callable[[float], np.ndarray | float],
    x0: float,
    x1: float,
    Y: np.ndarray,
    logs: np.ndarray,
    cfg: SolverConfig,
    hmax: float,
    hmin: float,
    rescale: bool,
    record_xs=None,
    record_fn=None,
    counts: np.ndarray | None = None,
) -> None:
    """Advance Y in place from x0 to x1 (monotone span, no interior breaks).

    ``record_xs`` (sorted along the direction of travel) forces exact stops
    where ``record_fn(index_in_record_xs)`` is invoked; the adaptive step
    and the FSAL stage survive across the stops.  ``counts`` (one entry
    per column of ``Y``) gathers the zeros of u.  A single-column ``Y``
    takes the scalar path.
    """
    span = abs(x1 - x0)
    if span == 0.0 and record_xs is None:
        return
    path = _rk_span_scalar if Y.shape[1] == 1 else _rk_span_vector
    path(qv, x0, x1, Y, logs, cfg, hmax, hmin, rescale, record_xs, record_fn, counts)


def _stops(x1: float, record_xs) -> list[float]:
    stops = list(record_xs) if record_xs is not None else []
    stops.append(x1)
    return stops


def _rk_span_scalar(
    qv, x0, x1, Y, logs, cfg, hmax, hmin, rescale, record_xs, record_fn, counts=None
) -> None:
    """Single-trajectory path in plain Python scalars."""
    rtol, atol = cfg.rel_tol, _RK_ABS_TOL
    direction = 1.0 if x1 > x0 else -1.0
    u = Y[0, 0].item()
    v = Y[1, 0].item()
    lg = float(logs[0])
    q = qv  # float-valued closure supplied by propagate_family for n == 1
    psign = (u > 0) - (u < 0)

    (a21,) = _DP_A[1]
    a31, a32 = _DP_A[2]
    a41, a42, a43 = _DP_A[3]
    a51, a52, a53, a54 = _DP_A[4]
    a61, a62, a63, a64, a65 = _DP_A[5]
    b1, _, b3, b4, b5, b6 = _DP_A[6]
    e1, _, e3, e4, e5, e6, e7 = _DP_E
    c2, c3, c4, c5, c6 = _DP_C[1:6]

    x = x0
    ku1 = v
    kv1 = q(x) * u
    qmag = abs(q(x0))
    span = abs(x1 - x0)
    h = direction * min(hmax, span if span > 0 else hmax, 0.5 / (math.sqrt(qmag) + (1.0 / span if span > 0 else 1.0)))

    stops = _stops(x1, record_xs)
    i_stop = 0
    while i_stop < len(stops):
        target = stops[i_stop]
        while (target - x) * direction > 1e-15 * max(1.0, abs(target)):
            clip = abs(h) > abs(target - x)
            hh = target - x if clip else h
            # unrolled Dormand-Prince stages for the linear system
            su = u + hh * (a21 * ku1)
            sv = v + hh * (a21 * kv1)
            xs = x + c2 * hh
            ku2 = sv
            kv2 = q(xs) * su
            su = u + hh * (a31 * ku1 + a32 * ku2)
            sv = v + hh * (a31 * kv1 + a32 * kv2)
            xs = x + c3 * hh
            ku3 = sv
            kv3 = q(xs) * su
            su = u + hh * (a41 * ku1 + a42 * ku2 + a43 * ku3)
            sv = v + hh * (a41 * kv1 + a42 * kv2 + a43 * kv3)
            xs = x + c4 * hh
            ku4 = sv
            kv4 = q(xs) * su
            su = u + hh * (a51 * ku1 + a52 * ku2 + a53 * ku3 + a54 * ku4)
            sv = v + hh * (a51 * kv1 + a52 * kv2 + a53 * kv3 + a54 * kv4)
            xs = x + c5 * hh
            ku5 = sv
            kv5 = q(xs) * su
            su = u + hh * (a61 * ku1 + a62 * ku2 + a63 * ku3 + a64 * ku4 + a65 * ku5)
            sv = v + hh * (a61 * kv1 + a62 * kv2 + a63 * kv3 + a64 * kv4 + a65 * kv5)
            xs = x + c6 * hh
            ku6 = sv
            kv6 = q(xs) * su
            u5 = u + hh * (b1 * ku1 + b3 * ku3 + b4 * ku4 + b5 * ku5 + b6 * ku6)
            v5 = v + hh * (b1 * kv1 + b3 * kv3 + b4 * kv4 + b5 * kv5 + b6 * kv6)
            xe = x + hh
            ku7 = v5
            kv7 = q(xe) * u5

            eu = hh * (e1 * ku1 + e3 * ku3 + e4 * ku4 + e5 * ku5 + e6 * ku6 + e7 * ku7)
            ev = hh * (e1 * kv1 + e3 * kv3 + e4 * kv4 + e5 * kv5 + e6 * kv6 + e7 * kv7)
            den_u = atol + rtol * max(abs(u), abs(u5))
            den_v = atol + rtol * max(abs(v), abs(v5))
            err = max(abs(eu) / den_u, abs(ev) / den_v)
            if err <= 1.0:
                x = xe
                u, v = u5, v5
                ku1, kv1 = ku7, kv7
                if counts is not None:
                    sgn = (u > 0) - (u < 0)
                    if sgn and psign and sgn != psign:
                        counts[0] += 1
                    psign = sgn or psign
                if rescale:
                    s = max(abs(u), abs(v))
                    if s > 1e3 or (0.0 < s < 1e-3):
                        u /= s
                        v /= s
                        ku1 /= s
                        kv1 /= s
                        lg += math.log(s)
                fac = 5.0 if err == 0.0 else min(5.0, 0.9 * err**-0.2)
                if not clip:
                    h *= max(0.2, fac)
                    if abs(h) > hmax:
                        h = direction * hmax
            else:
                if not math.isfinite(err):
                    h = hh * 0.1
                else:
                    h = hh * max(0.1, 0.9 * err**-0.2)
                if abs(h) < hmin:
                    raise StepSizeUnderflowError(x)
        if record_fn is not None and i_stop < len(stops) - 1:
            Y[0, 0] = u
            Y[1, 0] = v
            logs[0] = lg
            record_fn(i_stop)
        i_stop += 1
    Y[0, 0] = u
    Y[1, 0] = v
    logs[0] = lg


def _rk_span_vector(
    qv, x0, x1, Y, logs, cfg, hmax, hmin, rescale, record_xs, record_fn, counts=None
) -> None:
    """Family path: flat (2n,) states, stage combinations via BLAS matvec."""
    rtol, atol = cfg.rel_tol, _RK_ABS_TOL
    direction = 1.0 if x1 > x0 else -1.0
    n = Y.shape[1]
    y = Y.reshape(-1).copy()  # [u_0..u_{n-1}, v_0..v_{n-1}]
    K = np.empty((7, 2 * n))
    A = [np.asarray(row) for row in _DP_A]
    B5 = np.asarray(_DP_B5[:6])
    E = np.asarray(_DP_E)
    stage = np.empty_like(y)
    psign = np.sign(y[:n])

    def eval_rhs(x: float, state: np.ndarray, out: np.ndarray) -> None:
        out[:n] = state[n:]
        np.multiply(qv(x), state[:n], out=out[n:])

    def flush() -> None:
        Y[0] = y[:n]
        Y[1] = y[n:]

    x = x0
    eval_rhs(x, y, K[0])
    qmag = float(np.max(np.abs(qv(x))))
    span = abs(x1 - x0)
    h = direction * min(
        hmax,
        span if span > 0 else hmax,
        0.5 / (math.sqrt(qmag) + (1.0 / span if span > 0 else 1.0)),
    )

    stops = _stops(x1, record_xs)
    i_stop = 0
    while i_stop < len(stops):
        target = stops[i_stop]
        while (target - x) * direction > 1e-15 * max(1.0, abs(target)):
            clip = abs(h) > abs(target - x)
            hh = target - x if clip else h
            for i in range(1, 7):
                np.multiply(hh, A[i] @ K[:i], out=stage)
                stage += y
                eval_rhs(x + _DP_C[i] * hh, stage, K[i])
            y5 = y + hh * (B5 @ K[:6])
            err = E @ K
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
            with np.errstate(invalid="ignore", divide="ignore"):
                err_norm = abs(hh) * float(np.max(np.abs(err) / scale))
            if not math.isfinite(err_norm):
                err_norm = math.inf
            if err_norm <= 1.0:
                x += hh
                y = y5
                K[0] = K[6]
                if counts is not None:
                    sgn = np.sign(y[:n])
                    counts[(psign != 0) & (sgn != 0) & (sgn != psign)] += 1
                    psign = np.where(sgn != 0, sgn, psign)
                if rescale:
                    s = np.maximum(np.abs(y[:n]), np.abs(y[n:]))
                    if not np.all((s > 1e-3) & (s < 1e3)):
                        s = np.where(s == 0.0, 1.0, s)
                        y[:n] /= s
                        y[n:] /= s
                        K[0, :n] /= s
                        K[0, n:] /= s
                        logs += np.log(s)
                fac = 5.0 if err_norm == 0.0 else min(5.0, 0.9 * err_norm**-0.2)
                if not clip:
                    h *= max(0.2, fac)
                    if abs(h) > hmax:
                        h = direction * hmax
            else:
                h = hh * (max(0.1, 0.9 * err_norm**-0.2) if math.isfinite(err_norm) else 0.1)
                if abs(h) < hmin:
                    raise StepSizeUnderflowError(x)
        if record_fn is not None and i_stop < len(stops) - 1:
            flush()
            record_fn(i_stop)
        i_stop += 1
    flush()


# -- sixth-order Magnus transport on a cached mesh ------------------------------

_GAUSS = math.sqrt(15.0) / 10.0  # Gauss nodes sit at 1/2 - _GAUSS, 1/2, 1/2 + _GAUSS
_GAUSS_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0
_VARIATION_CAP = 0.5  # bound on h^2 times the spread of c over an interval's nodes (zero counts)
_MAX_SPLIT = 8  # most pieces a rejected interval is cut into per refinement pass
_ROUNDING_FLOOR = 1e-14  # local tolerances below this only chase rounding noise
_MAX_INTERVALS = 1 << 18  # a mesh that needs more intervals is treated as underflow
_WORK_CAP = 1 << 13  # intervals (or samples) x members handled per transport pass
_CACHE_FLOATS = 1 << 16  # mesh cache budget in stored floats (512 kB)
_RENORM_EVERY = 4  # chained products are rescaled every this many steps
_SERIES_THRESHOLD = 1e-6  # |det| below this: the step's cosh/sinh by power series


@dataclass(eq=False)
class _Mesh:
    """Intervals of one segment and c at the three Gauss nodes of each:
    the member shifted by ``mw`` steps with ``q = cn + mw``."""

    c: float | Callable[[float], float]
    x: np.ndarray  # N + 1 nodes in the direction of travel
    h: np.ndarray
    cn: np.ndarray  # (3, N)

    @property
    def floats(self) -> int:
        return self.x.size + self.h.size + self.cn.size


_MESH_CACHE: OrderedDict = OrderedDict()


def _eval_c(c, xs: np.ndarray) -> np.ndarray:
    """``c`` at every point of ``xs``: one array call when ``c`` accepts an
    array (checked against scalar calls at both ends), else point by point;
    a float ``c`` is constant."""
    if not callable(c):
        return np.full(xs.shape, float(c))
    if xs.size:
        try:
            with np.errstate(all="ignore"):
                vals = np.asarray(c(xs), dtype=float)
            if vals.shape == xs.shape and vals[0] == c(float(xs[0])) and vals[-1] == c(float(xs[-1])):
                return vals
        except (TypeError, ValueError):  # branches or math functions: scalars only
            pass
    return np.fromiter((c(float(x)) for x in xs), dtype=float, count=xs.size)


def _nodes(c, lo: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``c`` at the three Gauss nodes of every interval [lo, lo + h]: (3, N)."""
    xs = np.concatenate([lo + (0.5 - _GAUSS) * h, lo + 0.5 * h, lo + (0.5 + _GAUSS) * h])
    return _eval_c(c, xs).reshape(3, lo.size)


def _expm(x, y, z):
    """exp([[x, y], [z, -x]]) as (m11, m12, m21, m22, logscale), the matrix
    being exp(logscale) times the entries; broadcasts over its arguments."""
    det = x * x + y * z
    r = np.sqrt(np.abs(det))
    hyper = det > 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # hyperbolic branch with exp(r) factored out of cosh r and sinh r
        ch = np.where(hyper, 0.5 * (1.0 + np.exp(-2.0 * r)), np.cos(r))
        sh = np.where(hyper, -0.5 * np.expm1(-2.0 * r), np.sin(r)) / r
    logs = np.where(hyper, r, 0.0)
    tiny = np.abs(det) <= _SERIES_THRESHOLD
    if np.any(tiny):
        ch = np.where(tiny, 1.0 + det / 2.0 * (1.0 + det / 12.0 * (1.0 + det / 30.0)), ch)
        sh = np.where(tiny, 1.0 + det / 6.0 * (1.0 + det / 20.0 * (1.0 + det / 42.0)), sh)
        logs = np.where(tiny, 0.0, logs)
    shx = sh * x
    return ch + shx, sh * y, sh * z, ch - shx, logs


def _steps(h, q):
    """Sixth-order Magnus steps of -u'' + q u = 0 over signed lengths ``h``
    from q at the three Gauss nodes (``q[0]``, ``q[1]``, ``q[2]``), as
    ``_expm`` entries.

    With A = [[0, 1], [q, 0]] at the nodes, a1 = h A2, a2 = sqrt(15) h / 3
    (A3 - A1) and a3 = 10 h / 3 (A3 - 2 A2 + A1), the exponent is a1 + a3 /
    12 + [-20 a1 - a3 + C1, a2 + C2] / 240 with C1 = [a1, a2] and C2 =
    -[a1, 2 a3 + C1] / 60, written out below as [[x, y], [z, -x]].
    """
    q1, q2, q3 = q
    a2 = math.sqrt(15.0) / 3.0 * h * (q3 - q1)
    a3 = 10.0 / 3.0 * h * (q3 - 2.0 * q2 + q1)
    hq2 = h * q2
    x = h * a2 / 240.0 * (-20.0 + 4.0 / 3.0 * h * hq2 + h * a3 / 30.0)
    y = h + h * h / 240.0 * (h * a2 * a2 / 15.0 - 4.0 / 3.0 * a3)
    z = hq2 + a3 / 12.0 + h / 240.0 * (
        4.0 / 3.0 * hq2 * a3 + a3 * a3 / 15.0 - 2.0 * a2 * a2 + h * hq2 * a2 * a2 / 15.0
    )
    return _expm(x, y, z)


def constant_propagator(c: float, length: float) -> np.ndarray:
    """Exact 2x2 propagator of -u'' + c u = 0 over a signed ``length``.

    ``c > 0`` gives the hyperbolic matrix [[cosh kL, sinh kL / k],
    [k sinh kL, cosh kL]] with k = sqrt(c); ``c < 0`` the trigonometric
    analogue; c near 0 is evaluated by series (free-particle limit
    [[1, L], [0, 1]]).  This is the Magnus step of a constant
    coefficient, which is exact.
    """
    L = float(length)
    m11, m12, m21, m22, logs = _expm(0.0, L, L * float(c))
    return np.array([[m11, m12], [m21, m22]]) * math.exp(logs)


def _step_defect(c, lo, h, cn, shifts):
    """Relative gap between one Magnus step and two half steps per
    interval, maximized over the reference shifts of c, in the norm that
    scales u' by h (so the measure has no units); also returns c at the
    nodes of both halves."""
    half = 0.5 * h
    A, B = _nodes(c, lo, half), _nodes(c, lo + half, half)
    col = h[:, None]
    one = _steps(col, cn[..., None] + shifts)
    sa = _steps(0.5 * col, A[..., None] + shifts)
    sb = _steps(0.5 * col, B[..., None] + shifts)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f = np.exp(sa[4] + sb[4] - one[4])
        two = (
            (sb[0] * sa[0] + sb[1] * sa[2]) * f,
            (sb[0] * sa[1] + sb[1] * sa[3]) * f,
            (sb[2] * sa[0] + sb[3] * sa[2]) * f,
            (sb[2] * sa[1] + sb[3] * sa[3]) * f,
        )
        scale = (1.0, 1.0 / col, col, 1.0)
        gap = np.max([np.abs(p - t) * s for p, t, s in zip(one, two, scale)], axis=0)
        size = np.max([np.abs(t) * s for t, s in zip(two, scale)], axis=0)
        est = np.max(gap / size, axis=1)
    return np.where(np.isfinite(est), est, np.inf), A, B


def _build_mesh(seg: FamilySegment, cfg: SolverConfig) -> _Mesh:
    """Refine a uniform mesh of ``seg`` until every interval passes.

    An interval passes when its one-step vs two-half-step defect is at most
    ``rel_tol`` (the per-step test of the adaptive RK) and c spreads by at
    most ``_VARIATION_CAP / h^2`` over its Gauss nodes; the mesh keeps its
    two halves, whose error is about a sixty-fourth of the defect (the
    analogue of the RK's local extrapolation).  The defect is taken for
    the members whose coefficient is ``c``, ``c - min c`` and ``c - max
    c``: the ends of the range where the segment's bound states live,
    as seen at the nodes of the first pass.  The first pass is the whole
    segment; an interval shorter than ``_MIN_STEP`` times the segment
    raises ``StepSizeUnderflowError``.  Nothing here depends on the
    family.
    """
    c = seg.c_part
    hmin = _MIN_STEP * abs(seg.b - seg.a)
    lo, hi = np.array([float(seg.a)]), np.array([float(seg.b)])
    cn = _nodes(c, lo, hi - lo)
    seen = cn[np.isfinite(cn)]
    shifts = np.unique([0.0, -seen.min(), -seen.max()]) if seen.size else np.zeros(1)
    tol = max(cfg.rel_tol, _ROUNDING_FLOOR)
    kept = []
    total = 0
    while lo.size:
        h = hi - lo
        est, A, B = _step_defect(c, lo, h, cn, shifts)
        with np.errstate(invalid="ignore"):
            ok = (est <= tol) & (np.ptp(cn, axis=0) * h * h <= _VARIATION_CAP)
        mid = lo + 0.5 * h
        kept.append((lo[ok], mid[ok], A[:, ok]))
        kept.append((mid[ok], hi[ok], B[:, ok]))
        total += 2 * int(ok.sum())
        bad = ~ok
        if not bad.any():
            break
        lo, hi, est = lo[bad], hi[bad], est[bad]
        with np.errstate(over="ignore", invalid="ignore"):
            parts = np.ceil(1.2 * (est / tol) ** (1.0 / 7.0))  # the defect scales like h^7
        parts = np.clip(np.nan_to_num(parts, nan=2.0), 2, _MAX_SPLIT).astype(int)
        short = np.abs(hi - lo) / parts < hmin
        if short.any() or total + 2 * int(parts.sum()) > _MAX_INTERVALS:
            where = float(lo[np.argmax(short)] if short.any() else lo[0])
            raise StepSizeUnderflowError(where)
        # cut interval i into parts[i] equal pieces; shared edges stay bitwise equal
        owner = np.repeat(np.arange(lo.size), parts)
        j = np.arange(owner.size) - np.repeat(np.cumsum(parts) - parts, parts)
        width = (hi - lo)[owner]
        start = lo[owner]
        new_lo = start + width * (j / parts[owner])
        new_hi = np.where(j + 1 == parts[owner], hi[owner], start + width * ((j + 1) / parts[owner]))
        lo, hi = new_lo, new_hi
        cn = _nodes(c, lo, hi - lo)
    lo, hi, cn = zip(*kept)
    lo, hi, cn = np.concatenate(lo), np.concatenate(hi), np.concatenate(cn, axis=1)
    direction = 1.0 if seg.b > seg.a else -1.0
    order = np.argsort(lo * direction, kind="stable")
    lo, hi = lo[order], hi[order]
    return _Mesh(c, np.append(lo, hi[-1]), hi - lo, cn[:, order])


def _mesh_for(seg: FamilySegment, cfg: SolverConfig) -> _Mesh:
    """The cached mesh of (seg, cfg), built on first use (LRU, bounded by
    ``_CACHE_FLOATS``).  A constant ``c_part`` needs no cache: its mesh is
    the whole segment, where the Magnus step is exact."""
    if not callable(seg.c_part):
        lo, h = np.array([seg.a]), np.array([seg.b - seg.a])
        return _Mesh(seg.c_part, np.array([seg.a, seg.b]), h, _nodes(seg.c_part, lo, h))
    key = (seg, cfg)
    try:
        mesh = _MESH_CACHE.get(key)
    except TypeError:  # unhashable coefficient: build without caching
        return _build_mesh(seg, cfg)
    if mesh is not None:
        _MESH_CACHE.move_to_end(key)
        return mesh
    mesh = _build_mesh(seg, cfg)
    _MESH_CACHE[key] = mesh
    stored = sum(m.floats for m in _MESH_CACHE.values())
    while stored > _CACHE_FLOATS and len(_MESH_CACHE) > 1:
        _, old = _MESH_CACHE.popitem(last=False)
        stored -= old.floats
    return mesh


def _sample_plan(mesh: _Mesh, xs: np.ndarray):
    """(node index, partial length, c at its Gauss nodes) of the Magnus
    substep from the preceding mesh node to each sample point."""
    direction = 1.0 if mesh.h[0] > 0 else -1.0
    idx = np.searchsorted(mesh.x * direction, xs * direction, side="right") - 1
    idx = np.clip(idx, 0, mesh.h.size - 1)
    t = xs - mesh.x[idx]
    return idx, t, _nodes(mesh.c, mesh.x[idx], t)


def _unit(Y: np.ndarray, logs: np.ndarray):
    """Y (2, k) scaled to unit max-norm per column, with the logs updated."""
    s = np.abs(Y).max(axis=0)
    s[s == 0.0] = 1.0
    return Y / s, logs + np.log(s)


def _chain(M: np.ndarray, L: np.ndarray, y: np.ndarray, ly: np.ndarray, nodes: bool):
    """Carry the states ``y`` (2, k) with log scales ``ly`` (k,) through the
    interval matrices ``M`` (2, 2, N, k) with log scales ``L`` (N, k).

    Blocked scan: running products over S ~ sqrt(N) intervals inside each
    block (vectorized across blocks), then the block products applied
    block after block, so no Python loop runs over members or over every
    interval.  Returns the end state and logs, and with ``nodes`` the
    states (2, N + 1, k) and logs (N + 1, k) at every mesh node.
    """
    N, k = L.shape
    S = math.isqrt(N - 1) + 1
    B = -(-N // S)
    Mp = np.zeros((2, 2, B * S, k))
    Mp[0, 0, N:] = Mp[1, 1, N:] = 1.0  # identity padding
    Mp[:, :, :N] = M
    # step-major layout: the matrices of step s of every block are contiguous
    Mp = np.ascontiguousarray(Mp.reshape(2, 2, B, S, k).transpose(3, 0, 1, 2, 4))
    Lp = np.zeros((B * S, k))
    Lp[:N] = L
    Lp = np.ascontiguousarray(Lp.reshape(B, S, k).swapaxes(0, 1))
    P = np.empty((S, 2, 2, B, k))
    P[0] = Mp[0]
    for s in range(1, S):
        m, p, q = Mp[s], P[s - 1], P[s]
        np.multiply(m[:, 0, None], p[None, 0], out=q)
        q += m[:, 1, None] * p[None, 1]
        if s % _RENORM_EVERY == 0 or s == S - 1:
            sc = np.abs(q).max(axis=(0, 1))
            q /= sc
            Lp[s] += np.log(sc)
    LP = np.cumsum(Lp, axis=0)  # (S, B, k)
    Yb = np.empty((2, B, k))
    LY = np.empty((B, k))
    cur, lcur = y, ly
    for b in range(B):
        Yb[:, b] = cur
        LY[b] = lcur
        T = P[S - 1, :, :, b]
        cur = T[:, 0] * cur[0] + T[:, 1] * cur[1]
        lcur = lcur + LP[S - 1, b]
        if b % _RENORM_EVERY == _RENORM_EVERY - 1:
            cur, lcur = _unit(cur, lcur)
    cur, lcur = _unit(cur, lcur)
    if not nodes:
        return cur, lcur, None, None
    inner = P[:, :, 0] * Yb[0] + P[:, :, 1] * Yb[1]  # (S, 2, B, k)
    states = np.concatenate(
        [y[:, None], inner.transpose(1, 2, 0, 3).reshape(2, B * S, k)[:, :N]], axis=1
    )
    logs = np.concatenate([ly[None], (LP + LY).swapaxes(0, 1).reshape(B * S, k)[:N]])
    return cur, lcur, states, logs


def _mesh_zero_counts(states: np.ndarray, qbar: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Zeros of u per member across the mesh, from the node states
    (2, N + 1, k) and the mean coefficient ``qbar`` (N, k) of every
    interval.

    An interval whose mean coefficient turns u through more than a radian
    (-qbar h^2 > 1) counts the multiples of pi crossed by the Pruefer
    angle atan2(w u, u'), w = sqrt(-qbar): the mean-coefficient closed
    form predicts the turn w |h|, the actual end state fixes its
    fraction.  Any other interval holds at most one zero (the variation
    cap of the mesh bounds max(-q) h^2 well below pi^2), seen as a sign
    flip.
    """
    u, v = states
    u0, u1, v0, v1 = u[:-1], u[1:], v[:-1], v[1:]
    hh = h[:, None]
    add = ((u0 != 0.0) & (u1 != 0.0) & ((u0 < 0.0) != (u1 < 0.0))).astype(int)
    osc = -qbar * hh * hh > 1.0
    if osc.any():
        w = np.sqrt(np.where(osc, -qbar, 1.0))
        sg = np.sign(hh)
        th0 = np.arctan2(w * u0, sg * v0)
        ph1 = np.arctan2(w * u1, sg * v1)
        th1 = ph1 + 2.0 * math.pi * np.round((th0 + w * np.abs(hh) - ph1) / (2.0 * math.pi))
        turns = np.floor(th1 / math.pi) - np.floor(th0 / math.pi)
        add = np.where(osc, turns.astype(int), add)
    return add.sum(axis=0)


def _mesh_apply(mesh, mw, Y, logs, counts, seg_samples, rec_states, rec_logs, rec_i) -> None:
    """Advance the family (Y, logs), shifted by ``mw``, in place across one
    meshed segment, recording ``seg_samples`` from row ``rec_i`` on.
    Members are taken in groups of at most ``_WORK_CAP`` intervals x
    members."""
    plan = _sample_plan(mesh, seg_samples) if len(seg_samples) else None
    N = mesh.h.size
    K = len(seg_samples)
    rows = slice(rec_i, rec_i + K)
    group = max(1, _WORK_CAP // max(N, K))
    h = mesh.h[:, None]
    nodes = counts is not None or plan is not None
    for lo in range(0, mw.size, group):
        c = slice(lo, lo + group)
        q = mesh.cn[..., None] + mw[c]
        m11, m12, m21, m22, lg = _steps(h, q)
        y, ly = _unit(Y[:, c], logs[c])
        end, lend, st, sl = _chain(np.array([[m11, m12], [m21, m22]]), lg, y, ly, nodes)
        Y[:, c] = end
        logs[c] = lend
        if counts is not None:
            counts[c] += _mesh_zero_counts(st, np.tensordot(_GAUSS_WEIGHTS, q, 1), mesh.h)
        if plan is not None:
            idx, t, cs = plan
            p11, p12, p21, p22, pl = _steps(t[:, None], cs[..., None] + mw[c])
            su, sv = st[:, idx]
            rec_states[rows, 0, c] = p11 * su + p12 * sv
            rec_states[rows, 1, c] = p21 * su + p22 * sv
            rec_logs[rows, c] = sl[idx] + pl


# -- family propagation over segment chains -----------------------------------

def propagate_family(
    segments: Sequence[FamilySegment],
    m,
    init,
    cfg: SolverConfig | None = None,
    *,
    rescale: bool = False,
    samples=None,
    count_zeros: bool = False,
) -> FamilyResult:
    """Carry Cauchy data across an ordered chain of coefficient segments.

    ``m`` is the family weight vector (shape (n,), possibly n = 1); the
    member coefficients are ``c_part(x) + m_i w_part(x)``.  ``init`` is a
    shared finite real (2,) state or a (2, n) block; a complex one raises
    ``ValueError``.  Consecutive segments must join; they may run in
    either direction, consistently.  ``samples`` requests state records
    at given x locations (visited in path order).
    """
    cfg = cfg or DEFAULT_CONFIG
    m = np.atleast_1d(np.asarray(m, dtype=float))
    n = m.size
    init = np.asarray(init)
    if np.iscomplexobj(init) or not np.all(np.isfinite(init)):
        raise ValueError("init must be a finite real state")
    if init.ndim == 1:
        Y = np.repeat(init.astype(float).reshape(2, 1), n, axis=1)
    else:
        Y = init.astype(float)
        if Y.shape != (2, n):
            raise ValueError(f"init must have shape (2,) or (2, {n})")
    logs = np.zeros(n)

    if not segments:
        raise ValueError("need at least one segment")
    x_start = segments[0].a
    x_end = segments[-1].b
    direction = 1.0 if x_end > x_start else -1.0
    for seg in segments:
        if (seg.b - seg.a) * direction <= 0:
            raise ValueError("segments must advance monotonically")
    for left, right in zip(segments, segments[1:]):
        if abs(left.b - right.a) > 1e-12 * max(1.0, abs(left.b)):
            raise ValueError("segments must join end-to-start")

    if samples is not None:
        sample_x = np.asarray(samples, dtype=float)
        if sample_x.size and np.any(np.diff(sample_x) * direction < 0):
            raise ValueError("samples must be ordered along the integration direction")
        rec_states = np.empty((sample_x.size, 2, n))
        rec_logs = np.empty((sample_x.size, n))
    else:
        sample_x = None
        rec_states = rec_logs = None
    rec_i = 0
    counts = np.zeros(n, dtype=int) if count_zeros else None
    span = abs(x_end - x_start)
    hmax, hmin = _RK_MAX_STEP * span, _MIN_STEP * span

    for seg in segments:
        seg_samples = np.empty(0)
        if sample_x is not None:
            # the samples from rec_i on up to the first one off this segment
            rest = sample_x[rec_i:]
            inside = ((rest - seg.a) * direction >= -1e-12) & ((seg.b - rest) * direction >= -1e-12)
            seg_samples = rest if inside.all() else rest[:int(np.argmin(inside))]
        if not callable(seg.w_part):
            _mesh_apply(_mesh_for(seg, cfg), m * float(seg.w_part), Y, logs, counts, seg_samples,
                        rec_states, rec_logs, rec_i)
            rec_i += len(seg_samples)
            continue
        if not rescale:  # the RK's absolute tolerance reads true states
            Y *= np.exp(logs)
            logs[:] = 0.0
        cp, wp = seg.c_part, seg.w_part
        c = cp if callable(cp) else (lambda x, c0=float(cp): c0)
        # tiny families run faster member-by-member on the scalar fast path
        base = rec_i
        lanes = [slice(i, i + 1) for i in range(n)] if 1 < n <= 6 else [slice(0, n)]
        for lane in lanes:
            Yl, logs_l = Y[:, lane], logs[lane]
            ml = float(m[lane.start]) if Yl.shape[1] == 1 else m

            def record(j: int, _lane=lane, _Y=Yl, _logs=logs_l) -> None:
                rec_states[base + j, :, _lane] = _Y
                rec_logs[base + j, _lane] = _logs

            _rk_span(
                lambda x, ml=ml: c(x) + ml * wp(x), seg.a, seg.b, Yl, logs_l, cfg, hmax, hmin,
                rescale,
                record_xs=seg_samples if len(seg_samples) else None,
                record_fn=record if len(seg_samples) else None,
                counts=counts[lane] if counts is not None else None,
            )
        rec_i += len(seg_samples)

    if sample_x is not None and rec_i != sample_x.size:
        raise ValueError("some sample points fell outside the integration path")
    if not rescale:  # hand back true states
        Y *= np.exp(logs)
        logs[:] = 0.0
        if rec_states is not None:
            rec_states *= np.exp(rec_logs)[:, None, :]
            rec_logs[:] = 0.0

    return FamilyResult(Y, logs, rec_states, rec_logs, counts)


def unit_wronskian(M: np.ndarray) -> np.ndarray:
    """Project a near-unimodular real 2x2 matrix onto det = 1."""
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if not det > 0:
        raise ValueError(f"propagator determinant collapsed to {det}")
    return M / math.sqrt(det)

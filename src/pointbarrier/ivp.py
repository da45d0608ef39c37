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
  tolerance alone and cached together with each interval's shift-free
  step coefficients, so a member's exponent is two multiply-adds away; a
  call exponentiates every interval of every member in one vectorized
  pass and chains the 2x2 matrices with a pairwise product tree.  A
  constant ``c`` needs one interval, on which the step is the exact
  constant-coefficient propagator;
* the same Magnus transport when ``w`` is callable and the call counts
  zeros, as in the counted coupling families ``alpha * profile`` of a
  resonance scan: each member runs on the mesh of its weight bucket
  2^ceil(log2 max(|m|, 1)), built once per (segment, config, bucket) for
  the weights up to +-bucket and cached with c and w at the Gauss nodes,
  so a member's results depend on its own weight alone;
* an embedded Dormand-Prince 5(4) adaptive Runge-Kutta pair on the
  first-order system when ``w`` is callable and the call counts no
  zeros, as in the shots that refine and confirm a resonance, with
  mandatory step boundaries at the segment ends (piecewise coefficients
  lose no order).

States carry an accumulated log-scale so that strongly exponential regimes
never overflow; determinant signs are unaffected because the scales are
positive.  The fundamental matrix of a chain is the propagation of a
family of two equal members from ``init = eye(2)``.
"""

from __future__ import annotations

import math
import sys
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericsError, StepSizeUnderflowError

__all__ = [
    "SolverConfig",
    "FamilySegment",
    "FamilyResult",
    "propagate_family",
]


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance of the Magnus mesh and the Runge-Kutta pair.

    ``rel_tol`` bounds the one-step vs two-half-step defect of every mesh
    interval and the local error of every RK step relative to the state
    (with the absolute floor ``_RK_ABS_TOL``).  The tolerance alone sizes
    the mesh of a constant w, the tolerance and the weight bucket that of
    a callable w; the RK steps, which carry the uncounted families of a
    callable w, are capped at 1e-2 times the span of the chain.
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
    ``c_part`` takes one exact step.  A callable ``w_part`` puts it on one
    Magnus mesh per weight bucket when the call counts zeros, and on the
    Runge-Kutta pair when it does not.
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
_DP_A_ROWS = tuple(np.array(row) for row in _DP_A)  # the tableau as the vector path reads it
_DP_B5_ROW = np.array(_DP_B5[:6])
_DP_E_ROW = np.array(_DP_E)
_RK_ABS_TOL = 1e-12  # absolute floor of the RK error test
_RK_MAX_STEP = 1e-2  # RK step cap, relative to the span of the chain
_MIN_STEP = 1e-14  # underflow floor of a step or mesh interval, relative to its span


# -- adaptive RK on a family ---------------------------------------------------

def _rk_span(
    qv: Callable[[float], np.ndarray | float],
    x0: float,
    x1: float,
    Y: np.ndarray,
    cfg: SolverConfig,
    hmax: float,
    hmin: float,
    record_xs=None,
    record_fn=None,
) -> None:
    """Advance Y in place from x0 to x1 (monotone span, no interior breaks).

    ``record_xs`` (sorted along the direction of travel) forces exact stops
    where ``record_fn(index_in_record_xs)`` is invoked; the adaptive step
    and the FSAL stage survive across the stops.  A single-column ``Y``
    takes the scalar path.
    """
    span = abs(x1 - x0)
    if span == 0.0 and record_xs is None:
        return
    path = _rk_span_scalar if Y.shape[1] == 1 else _rk_span_vector
    path(qv, x0, x1, Y, cfg, hmax, hmin, record_xs, record_fn)


def _stops(x1: float, record_xs) -> list[float]:
    stops = list(record_xs) if record_xs is not None else []
    stops.append(x1)
    return stops


def _rk_span_scalar(qv, x0, x1, Y, cfg, hmax, hmin, record_xs, record_fn) -> None:
    """Single-trajectory path in plain Python scalars."""
    rtol, atol = cfg.rel_tol, _RK_ABS_TOL
    direction = 1.0 if x1 > x0 else -1.0
    u = Y[0, 0].item()
    v = Y[1, 0].item()
    q = qv  # float-valued closure supplied by propagate_family for n == 1

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
            record_fn(i_stop)
        i_stop += 1
    Y[0, 0] = u
    Y[1, 0] = v


def _rk_span_vector(qv, x0, x1, Y, cfg, hmax, hmin, record_xs, record_fn) -> None:
    """Family path: flat (2n,) states, stage combinations via BLAS matvec,
    every array of the step loop allocated once per call."""
    rtol, atol = cfg.rel_tol, _RK_ABS_TOL
    direction = 1.0 if x1 > x0 else -1.0
    n = Y.shape[1]
    y = Y.reshape(-1).copy()  # [u_0..u_{n-1}, v_0..v_{n-1}]
    y5, comb, stage, err, scale = (np.empty_like(y) for _ in range(5))
    K = np.empty((7, 2 * n))

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
                np.matmul(_DP_A_ROWS[i], K[:i], out=comb)
                np.multiply(hh, comb, out=stage)
                stage += y
                eval_rhs(x + _DP_C[i] * hh, stage, K[i])
            np.matmul(_DP_B5_ROW, K[:6], out=comb)
            np.multiply(hh, comb, out=y5)
            y5 += y
            np.matmul(_DP_E_ROW, K, out=err)
            np.abs(y, out=scale)
            np.maximum(scale, np.abs(y5, out=comb), out=scale)
            scale *= rtol
            scale += atol
            np.abs(err, out=err)
            err /= scale
            err_norm = abs(hh) * float(err.max())
            if not math.isfinite(err_norm):
                err_norm = math.inf
            if err_norm <= 1.0:
                x += hh
                y, y5 = y5, y
                K[0] = K[6]
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
_VARIATION_CAP = 0.5  # bound on h^2 times the spread of q over an interval's nodes (zero counts)
_MAX_SPLIT = 8  # most pieces a rejected interval is cut into per refinement pass
_ROUNDING_FLOOR = 1e-14  # local tolerances below this only chase rounding noise
_MAX_INTERVALS = 1 << 18  # a mesh that needs more intervals is treated as underflow
_WORK_CAP = 1 << 13  # intervals (or samples) x members handled per transport pass
_CACHE_FLOATS = 1 << 16  # mesh cache budget in stored floats (512 kB)
_RENORM_EVERY = 4  # the products of the chaining tree are rescaled every this many levels
_SERIES_THRESHOLD = 1e-6  # |det| below this: the step's cosh/sinh by power series
_EXACT_COUNT = 2.0**53  # largest zero count of one interval that a double holds exactly


@dataclass(eq=False)
class _Steps:
    """Magnus steps over the signed lengths ``h`` (N,), each from the
    coefficients at its three Gauss nodes, for the members of a family.

    A constant w keeps the shift-free coefficients of each step
    (``_coefficients``): the member shifted by ``mw`` steps with
    ``_steps(coef, cmid + mw)``.  A callable w keeps c and w at the nodes
    (``cn``, ``wn``), and the member with weight m forms its own
    coefficients from c + m w there.  Per-step arrays are (N, 1) columns
    and node arrays (3, N, 1), which broadcast over the members.
    """

    h: np.ndarray
    coef: tuple | None = None  # constant w: five shift-free coefficient columns
    cmid: np.ndarray | None = None  # constant w: c at the middle Gauss node
    cn: np.ndarray | None = None  # callable w: c at the Gauss nodes
    wn: np.ndarray | None = None  # callable w: w at the Gauss nodes

    @classmethod
    def of(cls, h: np.ndarray, nodes: np.ndarray) -> _Steps:
        """The steps over ``h`` from ``nodes`` (``_nodes`` of c, or of c
        and a callable w)."""
        if len(nodes) == 1:
            cn = nodes[0]
            return cls(h, _coefficients(h[:, None], cn[..., None]), cn[1][:, None])
        return cls(h, cn=nodes[0][..., None], wn=nodes[1][..., None])

    def matrices(self, m):
        """The steps of the members ``m`` (k,), as ``_expm`` entries (N,
        k); ``m`` holds the shifts mw of a constant w, or the weights of a
        callable one."""
        if self.wn is None:
            return _steps(self.coef, self.cmid + m)
        qn = self.cn + m * self.wn
        return _steps(_coefficients(self.h[:, None], qn), qn[1])

    @property
    def floats(self) -> int:
        arrays = (self.h, *(self.coef or ()), self.cmid, self.cn, self.wn)
        return sum(a.size for a in arrays if a is not None)


@dataclass(eq=False)
class _Mesh:
    """Intervals of one segment, their Magnus steps and the Gauss means of
    c and of a callable w over each, (N, 1) columns: the member ``m`` has
    the mean coefficient ``qbar(m)``."""

    fs: tuple  # c, and w when callable
    x: np.ndarray  # N + 1 nodes in the direction of travel
    steps: _Steps
    cbar: np.ndarray
    wbar: np.ndarray | None

    @classmethod
    def of(cls, fs: tuple, x: np.ndarray, nodes: np.ndarray) -> _Mesh:
        """The mesh of ``fs`` on the nodes ``x``, from ``_nodes`` of ``fs``."""
        cbar, *wbar = (np.tensordot(_GAUSS_WEIGHTS, n, 1)[:, None] for n in nodes)
        return cls(fs, x, _Steps.of(np.diff(x), nodes), cbar, wbar[0] if wbar else None)

    @property
    def h(self) -> np.ndarray:
        return self.steps.h

    def qbar(self, m):
        """Gauss mean coefficient of every interval for the members ``m``
        (``_Steps.matrices``)."""
        return self.cbar + m if self.wbar is None else self.cbar + m * self.wbar

    @property
    def floats(self) -> int:
        arrays = (self.x, self.cbar, self.wbar)
        return self.steps.floats + sum(a.size for a in arrays if a is not None)


_MESH_CACHE: OrderedDict = OrderedDict()


def _eval_c(c, xs: np.ndarray) -> np.ndarray:
    """``c`` at every point of ``xs``: one array call when ``c`` accepts an
    array (checked against scalar calls at both ends), else point by point;
    a float ``c`` is constant."""
    if not callable(c):
        return np.full(xs.shape, float(c))
    if xs.size:
        try:
            vals = np.asarray(c(xs), dtype=float)
            if vals.shape == xs.shape and vals[0] == c(float(xs[0])) and vals[-1] == c(float(xs[-1])):
                return vals
        except (TypeError, ValueError):  # branches or math functions: scalars only
            pass
    return np.fromiter((c(float(x)) for x in xs), dtype=float, count=xs.size)


def _nodes(fs, lo: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Each function of ``fs`` at the three Gauss nodes of every interval
    [lo, lo + h]: (len(fs), 3, N)."""
    xs = np.concatenate([lo + (0.5 - _GAUSS) * h, lo + 0.5 * h, lo + (0.5 + _GAUSS) * h])
    vals = [_eval_c(f, xs).reshape(1, 3, lo.size) for f in fs]
    return vals[0] if len(vals) == 1 else np.concatenate(vals)


def _expm(x, y, z):
    """exp([[x, y], [z, -x]]) as (m11, m12, m21, m22, logscale), the matrix
    being exp(logscale) times the entries; broadcasts over its arguments.
    Each of the three branches of det = x^2 + yz is evaluated on its own
    entries only."""
    det = x * x + y * z
    ch, sh, logs = np.empty(det.shape), np.empty(det.shape), np.zeros(det.shape)
    hyper = det > _SERIES_THRESHOLD
    osc = det < -_SERIES_THRESHOLD
    tiny = ~(hyper | osc)
    if hyper.any():  # exp(r) factored out of cosh r and sinh r
        r = np.sqrt(det[hyper])
        e = np.expm1(-2.0 * r)
        ch[hyper] = 1.0 + 0.5 * e
        sh[hyper] = -0.5 * e / r
        logs[hyper] = r
    if osc.any():
        r = np.sqrt(-det[osc])
        ch[osc] = np.cos(r)
        sh[osc] = np.sin(r) / r
    if tiny.any():
        d = det[tiny]
        ch[tiny] = 1.0 + d / 2.0 * (1.0 + d / 12.0 * (1.0 + d / 30.0))
        sh[tiny] = 1.0 + d / 6.0 * (1.0 + d / 20.0 * (1.0 + d / 42.0))
    shx = sh * x
    return ch + shx, sh * y, sh * z, ch - shx, logs


def _coefficients(h, cn):
    """Shift-free coefficients (xc, xq, y, zc, zq) of sixth-order Magnus
    steps of -u'' + q u = 0 over signed lengths ``h``, from c at the three
    Gauss nodes (``cn[0]``, ``cn[1]``, ``cn[2]``): the member with q = c +
    s steps with the exponent [[xc + xq q2, y], [zc + zq q2, -x]], q2 =
    cn[1] + s.  Broadcasts over its arguments; ``_steps`` applies it.

    With A = [[0, 1], [q, 0]] at the nodes, a1 = h A2, a2 = sqrt(15) h / 3
    (A3 - A1) and a3 = 10 h / 3 (A3 - 2 A2 + A1), the exponent is a1 + a3 /
    12 + [-20 a1 - a3 + C1, a2 + C2] / 240 with C1 = [a1, a2] and C2 =
    -[a1, 2 a3 + C1] / 60.  The differences a2 and a3 of q do not see a
    constant shift, so the exponent is affine in q2.
    """
    q1, q2, q3 = cn
    a2 = math.sqrt(15.0) / 3.0 * h * (q3 - q1)
    a3 = 10.0 / 3.0 * h * (q3 - 2.0 * q2 + q1)
    xc = h * a2 / 240.0 * (h * a3 / 30.0 - 20.0)
    xq = h * h * h * a2 / 180.0
    y = h + h * h / 240.0 * (h * a2 * a2 / 15.0 - 4.0 / 3.0 * a3)
    zc = a3 / 12.0 + h / 240.0 * (a3 * a3 / 15.0 - 2.0 * a2 * a2)
    zq = h + h * h / 240.0 * (4.0 / 3.0 * a3 + h * a2 * a2 / 15.0)
    return xc, xq, y, zc, zq


def _steps(coef, q2):
    """Magnus steps with the coefficients ``coef`` (``_coefficients``) at
    the middle-node coefficients ``q2``, as ``_expm`` entries."""
    xc, xq, y, zc, zq = coef
    return _expm(xc + xq * q2, y, zc + zq * q2)


def _step_defect(fs, lo, h, nodes, weights):
    """Relative gap between one Magnus step and two half steps per
    interval, maximized over the reference members ``weights`` (shifts of
    c for a constant w, weights of a callable one), in the norm that
    scales u' by h (so the measure has no units); also returns ``fs`` at
    the nodes of both halves."""
    half = 0.5 * h
    A, B = _nodes(fs, lo, half), _nodes(fs, lo + half, half)
    col = h[:, None]
    one = _Steps.of(h, nodes).matrices(weights)
    sa = _Steps.of(half, A).matrices(weights)
    sb = _Steps.of(half, B).matrices(weights)
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


def _spread(nodes, weights) -> np.ndarray:
    """Spread of the member coefficient over the Gauss nodes of each
    interval: of c for a constant w, else the largest over the reference
    weights (the spread is convex in the weight, so the outer two bound
    every weight between them)."""
    if len(nodes) == 1:
        return np.ptp(nodes[0], axis=0)
    cn, wn = nodes
    return np.ptp(cn[..., None] + weights * wn[..., None], axis=0).max(axis=1)


def _build_mesh(seg: FamilySegment, cfg: SolverConfig, bucket: int | None = None) -> _Mesh:
    """Refine a uniform mesh of ``seg`` until every interval passes.

    An interval passes when its one-step vs two-half-step defect is at most
    ``rel_tol`` (the per-step test of the adaptive RK) and the member
    coefficient spreads by at most ``_VARIATION_CAP / h^2`` over its Gauss
    nodes; the mesh keeps its two halves, whose error is about a
    sixty-fourth of the defect (the analogue of the RK's local
    extrapolation).  For a constant w (``bucket`` None) the defect is
    taken for the members whose coefficient is ``c``, ``c - min c`` and
    ``c - max c``: the ends of the range where the segment's bound states
    live, as seen at the nodes of the first pass.  For a callable w it is
    taken at the weights 0 and +-2^bucket, which bound the members of that
    bucket (the top bucket, 2^1024, at +-the largest double).  The first
    pass is the whole segment; an interval shorter than ``_MIN_STEP``
    times the segment raises ``StepSizeUnderflowError``.  Nothing here
    depends on the family.
    """
    fs = (seg.c_part,) if bucket is None else (seg.c_part, seg.w_part)
    hmin = _MIN_STEP * abs(seg.b - seg.a)
    lo, hi = np.array([float(seg.a)]), np.array([float(seg.b)])
    nodes = _nodes(fs, lo, hi - lo)
    if bucket is None:
        seen = nodes[0][np.isfinite(nodes[0])]
        weights = np.unique([0.0, -seen.min(), -seen.max()]) if seen.size else np.zeros(1)
    else:
        top = math.ldexp(1.0, bucket) if bucket < 1024 else sys.float_info.max
        weights = np.array([-top, 0.0, top])
    tol = max(cfg.rel_tol, _ROUNDING_FLOOR)
    kept = []
    total = 0
    while lo.size:
        h = hi - lo
        est, A, B = _step_defect(fs, lo, h, nodes, weights)
        ok = (est <= tol) & (_spread(nodes, weights) * h * h <= _VARIATION_CAP)
        mid = lo + 0.5 * h
        kept.append((lo[ok], mid[ok], A[..., ok]))
        kept.append((mid[ok], hi[ok], B[..., ok]))
        total += 2 * int(ok.sum())
        bad = ~ok
        if not bad.any():
            break
        lo, hi, est = lo[bad], hi[bad], est[bad]
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
        nodes = _nodes(fs, lo, hi - lo)
    lo, hi, nodes = zip(*kept)
    lo, hi, nodes = np.concatenate(lo), np.concatenate(hi), np.concatenate(nodes, axis=2)
    direction = 1.0 if seg.b > seg.a else -1.0
    order = np.argsort(lo * direction, kind="stable")
    return _Mesh.of(fs, np.append(lo[order], hi[order][-1]), nodes[..., order])


def _mesh_for(seg: FamilySegment, cfg: SolverConfig, bucket: int | None = None) -> _Mesh:
    """The cached mesh of (seg, cfg), or of (seg, cfg, bucket) for a
    callable w, built on first use (LRU, bounded by ``_CACHE_FLOATS``).  A
    constant ``c_part`` with a constant w needs no cache: its mesh is the
    whole segment, where the Magnus step is exact."""
    if bucket is None and not callable(seg.c_part):
        x = np.array([seg.a, seg.b], dtype=float)
        fs = (seg.c_part,)
        return _Mesh.of(fs, x, _nodes(fs, x[:1], np.diff(x)))
    key = (seg, cfg) if bucket is None else (seg, cfg, bucket)
    try:
        mesh = _MESH_CACHE.get(key)
    except TypeError:  # unhashable coefficient: build without caching
        return _build_mesh(seg, cfg, bucket)
    if mesh is not None:
        _MESH_CACHE.move_to_end(key)
        return mesh
    mesh = _build_mesh(seg, cfg, bucket)
    _MESH_CACHE[key] = mesh
    stored = sum(m.floats for m in _MESH_CACHE.values())
    while stored > _CACHE_FLOATS and len(_MESH_CACHE) > 1:
        _, old = _MESH_CACHE.popitem(last=False)
        stored -= old.floats
    return mesh


def _meshes(seg: FamilySegment, cfg: SolverConfig, m: np.ndarray):
    """``(mesh, cols, mw)`` for each mesh that carries members of the
    family ``m`` across ``seg``: the member indices ``cols`` (None: all)
    and the values ``mw`` that ``_Steps.matrices`` takes for them.  A
    constant w puts the whole family on one mesh; a callable w puts each
    member on the mesh of its weight bucket 2^e, e = ceil(log2 max(|m|,
    1)), so that its results depend on its own weight alone."""
    if not callable(seg.w_part):
        yield _mesh_for(seg, cfg), None, m * float(seg.w_part)
        return
    mant, e = np.frexp(np.maximum(np.abs(m), 1.0))
    e -= mant == 0.5  # a power of two is the top of its own bucket
    for bucket in np.unique(e):
        cols = np.flatnonzero(e == bucket)
        yield _mesh_for(seg, cfg, int(bucket)), cols, m[cols]


def _sample_plan(mesh: _Mesh, xs: np.ndarray):
    """(node index, steps) of the Magnus substep from the preceding mesh
    node to each sample point."""
    direction = 1.0 if mesh.h[0] > 0 else -1.0
    idx = np.searchsorted(mesh.x * direction, xs * direction, side="right") - 1
    idx = np.clip(idx, 0, mesh.h.size - 1)
    t = xs - mesh.x[idx]
    return idx, _Steps.of(t, _nodes(mesh.fs, mesh.x[idx], t))


def _unit(Y: np.ndarray, logs: np.ndarray):
    """Y (2, k) scaled to unit max-norm per column, with the logs updated."""
    s = np.abs(Y).max(axis=0)
    s[s == 0.0] = 1.0
    return Y / s, logs + np.log(s)


def _chain(M: np.ndarray, L: np.ndarray, y: np.ndarray, ly: np.ndarray, nodes: bool):
    """Carry the states ``y`` (2, k) with log scales ``ly`` (k,) through the
    interval matrices ``M`` (2, 2, N, k) with log scales ``L`` (N, k).

    Pairwise tree: each level multiplies neighbouring matrices, the later
    one on the left, for all pairs at once, and rescales the products
    every ``_RENORM_EVERY`` levels; an odd level's last matrix is a tail.
    The end state passes through the top product, then through the tails
    from the highest level down.  With ``nodes`` a down-sweep gives the
    states (2, N + 1, k) and logs (N + 1, k) at every mesh node: a pair
    starts where its parent does, its second matrix where the first one
    leaves.  Every operation is elementwise per member.
    """
    k = L.shape[1]
    tree = [(M, L)]
    while M.shape[2] > 1:
        n = M.shape[2] // 2 * 2
        a, b = M[:, :, 0:n:2], M[:, :, 1:n:2]
        M = b[:, 0, None] * a[None, 0]
        M += b[:, 1, None] * a[None, 1]
        L = L[0:n:2] + L[1:n:2]
        if len(tree) % _RENORM_EVERY == 0:
            sc = np.abs(M).max(axis=(0, 1))
            M /= sc
            L += np.log(sc)
        tree.append((M, L))
    cur = M[:, 0, 0] * y[0] + M[:, 1, 0] * y[1]
    lcur = ly + L[0]
    starts = {}
    for level in reversed(range(len(tree) - 1)):
        T, LT = tree[level]
        if T.shape[2] % 2:
            starts[level] = cur, lcur
            cur = T[:, 0, -1] * cur[0] + T[:, 1, -1] * cur[1]
            lcur = lcur + LT[-1]
    cur, lcur = _unit(cur, lcur)
    if not nodes:
        return cur, lcur, None, None
    S, LS = y[:, None], ly[None]
    for level in reversed(range(len(tree) - 1)):
        T, LT = tree[level]
        N, n = T.shape[2], 2 * S.shape[1]
        a = T[:, :, 0:n:2]
        S2, LS2 = np.empty((2, N, k)), np.empty((N, k))
        S2[:, 0:n:2], LS2[0:n:2] = S, LS
        S2[:, 1:n:2] = a[:, 0] * S[0] + a[:, 1] * S[1]
        LS2[1:n:2] = LS + LT[0:n:2]
        if N % 2:
            S2[:, -1], LS2[-1] = starts[level]
        S, LS = S2, LS2
    return cur, lcur, np.concatenate([S, cur[:, None]], axis=1), np.concatenate([LS, lcur[None]])


def _mesh_zero_counts(states: np.ndarray, qbar: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Zeros of u per member across the mesh, from the node states
    (2, N + 1, k) and the mean coefficient ``qbar`` (N, k) of every
    interval.

    Each node has its own half-turn: whether its Pruefer angle atan2(u,
    u'), taken in [0, 2 pi) along the direction of travel, has reached pi.
    It reads the signs alone (u < 0, or an exact zero of u met with u' <
    0), so the interval that ends on a node and the one that starts there
    agree on a zero sitting there: the first counts it.  An interval
    whose mean coefficient turns u through more than a radian (-qbar h^2
    > 1) counts its whole laps of the scaled angle atan2(w u, u'), w =
    sqrt(-qbar), as the mean-coefficient closed form predicts them from
    the turn w |h| and the node angles, plus the change of half-turn.
    Any other interval holds at most one zero (the variation cap of the
    mesh bounds max(-q) h^2 well below pi^2), seen as a change of
    half-turn.  A turn count that a double cannot hold exactly (above
    2^53, or not finite) raises ``NumericsError``.
    """
    u, v = states
    sg = 1.0 if h[0] > 0 else -1.0
    half = (u < 0.0) | ((u == 0.0) & (sg * v < 0.0))
    add = (half[1:] != half[:-1]).astype(int)
    osc = -qbar * (h * h)[:, None] > 1.0
    if osc.any():
        i, k = np.nonzero(osc)
        w = np.sqrt(-qbar[i, k])

        def angle(node):  # in [0, 2 pi], on the side of pi that ``half`` reads
            ph = np.arctan2(w * u[node, k], sg * v[node, k])
            return np.where(half[node, k] & (ph <= 0.0), ph + 2.0 * math.pi, ph)

        laps = np.round((angle(i) + w * np.abs(h[i]) - angle(i + 1)) / (2.0 * math.pi))
        turns = 2.0 * laps + half[i + 1, k] - half[i, k]
        if not np.all(np.abs(turns) <= _EXACT_COUNT):  # NaN fails too
            raise NumericsError(
                f"a mesh interval turns u through {np.max(np.abs(turns)):.6g} half-periods, "
                "more than a double counts exactly")
        add[i, k] = turns
    return add.sum(axis=0)


def _mesh_apply(mesh, mw, cols, Y, logs, counts, seg_samples, rec_states, rec_logs,
                rec_i) -> None:
    """Advance the members ``cols`` (None: all) of the family (Y, logs),
    with the values ``mw`` of ``_Steps.matrices``, in place across one
    meshed segment, recording ``seg_samples`` from row ``rec_i`` on.
    Members are taken in groups of at most ``_WORK_CAP`` intervals x
    members."""
    plan = _sample_plan(mesh, seg_samples) if len(seg_samples) else None
    N = mesh.h.size
    K = len(seg_samples)
    rows = slice(rec_i, rec_i + K)
    group = max(1, _WORK_CAP // max(N, K))
    nodes = counts is not None or plan is not None
    for lo in range(0, mw.size, group):
        part = mw[lo:lo + group]
        c = slice(lo, lo + group) if cols is None else cols[lo:lo + group]
        m11, m12, m21, m22, lg = mesh.steps.matrices(part)
        y, ly = _unit(Y[:, c], logs[c])
        end, lend, st, sl = _chain(np.array([[m11, m12], [m21, m22]]), lg, y, ly, nodes)
        Y[:, c] = end
        logs[c] = lend
        if counts is not None:
            counts[c] += _mesh_zero_counts(st, mesh.qbar(part), mesh.h)
        if plan is not None:
            idx, sub = plan
            p11, p12, p21, p22, pl = sub.matrices(part)
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
    at given x locations (visited in path order).  ``rescale`` keeps the
    log scales of the Magnus segments; a Runge-Kutta segment starts from
    true-scale states and adds no scale.  ``count_zeros`` counts the
    interior zeros of u per member, and puts every segment on a Magnus
    mesh (``FamilySegment``).  A returned state, log
    or sample that is not finite, or a zero count that a double cannot
    hold exactly, raises ``NumericsError``; numpy warns of nothing inside.
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

    # one boundary for the whole chain: an overflow or a NaN inside shows
    # up as a non-finite result, which raises below
    with np.errstate(all="ignore"):
        for seg in segments:
            seg_samples = np.empty(0)
            if sample_x is not None:
                # the samples from rec_i on up to the first one off this segment
                rest = sample_x[rec_i:]
                inside = (((rest - seg.a) * direction >= -1e-12)
                          & ((seg.b - rest) * direction >= -1e-12))
                seg_samples = rest if inside.all() else rest[:int(np.argmin(inside))]
            if not callable(seg.w_part) or counts is not None:
                for mesh, cols, mw in _meshes(seg, cfg, m):
                    _mesh_apply(mesh, mw, cols, Y, logs, counts, seg_samples, rec_states,
                                rec_logs, rec_i)
                rec_i += len(seg_samples)
                continue
            Y *= np.exp(logs)  # the RK's absolute tolerance reads true states
            logs[:] = 0.0
            cp, wp = seg.c_part, seg.w_part
            c0 = None if callable(cp) else float(cp)
            # tiny families run faster member-by-member on the scalar fast path
            base = rec_i
            lanes = [slice(i, i + 1) for i in range(n)] if 1 < n <= 6 else [slice(0, n)]
            for lane in lanes:
                Yl = Y[:, lane]
                ml = float(m[lane.start]) if Yl.shape[1] == 1 else m

                def record(j: int, _lane=lane, _Y=Yl) -> None:
                    rec_states[base + j, :, _lane] = _Y
                    rec_logs[base + j, _lane] = 0.0

                if c0 is None:
                    qv = lambda x, ml=ml: cp(x) + ml * wp(x)
                else:
                    qv = lambda x, ml=ml: c0 + ml * wp(x)
                _rk_span(
                    qv, seg.a, seg.b, Yl, cfg, hmax, hmin,
                    record_xs=seg_samples if len(seg_samples) else None,
                    record_fn=record if len(seg_samples) else None,
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

    results = (Y, logs) if rec_states is None else (Y, logs, rec_states, rec_logs)
    if not all(np.isfinite(r).all() for r in results):
        raise NumericsError(
            f"the propagation over [{x_start:.10g}, {x_end:.10g}] of weights "
            f"{m.min():.10g} to {m.max():.10g} leaves the range of a double")

    return FamilyResult(Y, logs, rec_states, rec_logs, counts)


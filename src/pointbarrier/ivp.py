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
  step coefficients, so a member's exponent is two multiply-adds away.  A
  constant ``c`` needs one interval, on which the step is the exact
  constant-coefficient propagator.  The meshes of a chain's consecutive
  segments join into one interval sequence, and those of all chains of a
  call stack on the member axis, padded with identity steps: one pass
  exponentiates them and chains the 2x2 matrices with one pairwise
  product tree, the interval axis innermost;
* the same Magnus transport when ``w`` is callable and the call counts
  zeros, as in the counted coupling families ``alpha * profile`` of a
  resonance scan: each member runs on the mesh of its weight bucket
  2^ceil(log2 max(|m|, 1)), built once per (segment, config, bucket) for
  the weights up to +-bucket and cached with c and w at the Gauss nodes,
  one pass per bucket, so a member's results depend on its own weight
  and the chains alone;
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
from itertools import zip_longest
from typing import Callable, Sequence

import numpy as np

from .errors import NumericsError, StepSizeUnderflowError

__all__ = [
    "SolverConfig",
    "FamilySegment",
    "FamilyResult",
    "propagate_chains",
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
_WORK_CAP = 1 << 13  # intervals (or samples) x members x chains handled per transport pass
_CACHE_FLOATS = 1 << 16  # mesh cache budget in stored floats (512 kB)
_RENORM_EVERY = 4  # the products of the chaining tree are rescaled every this many levels
_SERIES_THRESHOLD = 1e-6  # |det| below this: the step's cosh/sinh by power series
_EXACT_COUNT = 2.0**53  # largest zero count of one interval that a double holds exactly


@dataclass(eq=False)
class _Steps:
    """Magnus steps over the signed lengths ``h`` (N,) as ``rows`` (9, N):
    h, the Gauss means of c and w (the member with weight m has the mean
    coefficient cbar + m wbar), then for a constant w (``shift``) c at the
    middle node and the shift-free ``_coefficients``, with which the member
    steps as ``_exponent(coef, cmid + m w)``, and for a callable w c and w
    at the three Gauss nodes, from which it forms its own coefficients."""

    shift: bool
    rows: np.ndarray

    @classmethod
    def of(cls, h: np.ndarray, nodes: np.ndarray, w) -> _Steps:
        """The steps over ``h`` from ``nodes``: ``_nodes`` of c, with the
        constant ``w``, or of c and a callable w."""
        means = [np.tensordot(_GAUSS_WEIGHTS, n, 1) for n in nodes]
        if len(nodes) == 1:
            return cls(True, np.array([h, means[0], np.full(h.shape, float(w)), nodes[0][1],
                                       *_coefficients(h, nodes[0])]))
        return cls(False, np.array([h, *means, *nodes[0], *nodes[1]]))

    @classmethod
    def join(cls, parts: list[_Steps]) -> _Steps:
        """The steps of ``parts``, all of one kind of w, in sequence."""
        if len(parts) == 1:
            return parts[0]
        return cls(parts[0].shift, np.concatenate([p.rows for p in parts], axis=1))

    @classmethod
    def stack(cls, parts: list[_Steps]) -> _Steps:
        """The steps of ``parts``, of one kind of w, side by side as rows (9,
        L, N), the shorter padded with zeros, which step as the identity."""
        if len(parts) == 1:
            return cls(parts[0].shift, parts[0].rows[:, None])
        rows = np.zeros((9, len(parts), max(p.h.size for p in parts)))
        for j, p in enumerate(parts):
            rows[:, j, :p.h.size] = p.rows
        return cls(parts[0].shift, rows)

    @property
    def h(self) -> np.ndarray:
        return self.rows[0]

    def exponents(self, m):
        """The exponents (x, y, z) of the steps of the members ``m`` (k,
        1): (k, N) each, or (L, k, N) for stacked steps."""
        r = self.rows[..., None, :]
        if self.shift:
            return _exponent(r[4:], r[3] + m * r[2])
        return _node_exponents(r[0], r[3:].reshape(2, 3, *r.shape[1:]), m)


@dataclass(eq=False)
class _Mesh:
    """Intervals of one segment: their nodes ``x`` (N + 1) in the direction
    of travel and their Magnus steps."""

    seg: FamilySegment
    x: np.ndarray
    steps: _Steps

    @property
    def h(self) -> np.ndarray:
        return self.steps.h


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
    cn[1] + s.  Broadcasts over its arguments; ``_exponent`` applies it.

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


def _exponent(coef, q2):
    """Exponents (x, y, z) of the Magnus steps with the coefficients
    ``coef`` (``_coefficients``) at the middle-node coefficients ``q2``."""
    xc, xq, y, zc, zq = coef
    return xc + xq * q2, y, zc + zq * q2


def _node_exponents(h, nodes, m):
    """Exponents of the Magnus steps over ``h`` of the members ``m`` (k, 1)
    from ``nodes`` with a member axis before the interval axis: ``_nodes``
    of c, each member shifting c by its m, or of c and a callable w."""
    if len(nodes) == 1:
        return _exponent(_coefficients(h, nodes[0]), nodes[0][1] + m)
    qn = nodes[0] + m * nodes[1]
    return _exponent(_coefficients(h, qn), qn[1])


def _step_defect(fs, lo, h, nodes, weights):
    """Relative gap between one Magnus step and two half steps per
    interval, maximized over the reference members ``weights`` (shifts of
    c for a constant w, weights of a callable one), in the norm that
    scales u' by h (so the measure has no units); also returns ``fs`` at
    the nodes of both halves."""
    half = 0.5 * h
    A, B = _nodes(fs, lo, half), _nodes(fs, lo + half, half)
    one, sa, sb = (_expm(*_node_exponents(t, n[..., None, :], weights))
                   for t, n in ((h, nodes), (half, A), (half, B)))
    f = np.exp(sa[4] + sb[4] - one[4])
    two = (
        (sb[0] * sa[0] + sb[1] * sa[2]) * f,
        (sb[0] * sa[1] + sb[1] * sa[3]) * f,
        (sb[2] * sa[0] + sb[3] * sa[2]) * f,
        (sb[2] * sa[1] + sb[3] * sa[3]) * f,
    )
    scale = (1.0, 1.0 / h, h, 1.0)
    gap = np.max([np.abs(p - t) * s for p, t, s in zip(one, two, scale)], axis=0)
    size = np.max([np.abs(t) * s for t, s in zip(two, scale)], axis=0)
    est = np.max(gap / size, axis=0)
    return np.where(np.isfinite(est), est, np.inf), A, B


def _spread(nodes, weights) -> np.ndarray:
    """Spread of the member coefficient over the Gauss nodes of each
    interval: of c for a constant w, else the largest over the reference
    weights (the spread is convex in the weight, so the outer two bound
    every weight between them)."""
    if len(nodes) == 1:
        return np.ptp(nodes[0], axis=0)
    cn, wn = nodes
    return np.ptp(cn[:, None] + weights * wn[:, None], axis=0).max(axis=0)


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
    weights = weights[:, None]  # a column of members (``_node_exponents``)
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
    x = np.append(lo[order], hi[order][-1])
    return _Mesh(seg, x, _Steps.of(np.diff(x), nodes[..., order], seg.w_part))


def _mesh_for(seg: FamilySegment, cfg: SolverConfig, bucket: int | None = None) -> _Mesh:
    """The cached mesh of (seg, cfg), or of (seg, cfg, bucket) for a
    callable w, built on first use (LRU, bounded by ``_CACHE_FLOATS``).  A
    constant ``c_part`` with a constant w needs no cache: its mesh is the
    whole segment, where the Magnus step is exact."""
    if bucket is None and not callable(seg.c_part):
        x, h = np.array([seg.a, seg.b], dtype=float), np.array([seg.b - seg.a], dtype=float)
        return _Mesh(seg, x, _Steps.of(h, _nodes((seg.c_part,), x[:1], h), seg.w_part))
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
    stored = sum(m.x.size + m.steps.rows.size for m in _MESH_CACHE.values())
    while stored > _CACHE_FLOATS and len(_MESH_CACHE) > 1:
        _, old = _MESH_CACHE.popitem(last=False)
        stored -= old.x.size + old.steps.rows.size
    return mesh


def _buckets(m: np.ndarray) -> list:
    """(bucket, member indices) for each weight bucket 2^e, e = ceil(log2
    max(|m|, 1)), that holds members of the family ``m``."""
    mant, e = np.frexp(np.maximum(np.abs(m), 1.0))
    e -= mant == 0.5  # a power of two is the top of its own bucket
    return [(int(bucket), np.flatnonzero(e == bucket)) for bucket in np.unique(e)]


def _sample_plan(mesh: _Mesh, xs: np.ndarray):
    """(node index, length, nodes, w) of the Magnus substep from the
    preceding mesh node to each sample point, for ``_node_exponents`` with
    the member m shifting c by m w (w = 1 for a callable w)."""
    direction = 1.0 if mesh.h[0] > 0 else -1.0
    idx = np.searchsorted(mesh.x * direction, xs * direction, side="right") - 1
    idx = np.minimum(np.maximum(idx, 0), mesh.h.size - 1)
    t, seg = xs - mesh.x[idx], mesh.seg
    fs = (seg.c_part,) if mesh.steps.shift else (seg.c_part, seg.w_part)
    w = float(seg.w_part) if mesh.steps.shift else 1.0
    return idx, t, _nodes(fs, mesh.x[idx], t), np.full(t.shape, w)


def _unit(Y: np.ndarray, logs: np.ndarray):
    """Y (2, k) scaled to unit max-norm per column, with the logs updated."""
    s = np.abs(Y).max(axis=0)
    s[s == 0.0] = 1.0
    return Y / s, logs + np.log(s)


def _chain(M: np.ndarray, L: np.ndarray, y: np.ndarray, ly: np.ndarray, nodes: bool):
    """Carry the states ``y`` (2, k) with log scales ``ly`` (k,) through the
    interval matrices ``M`` (2, 2, k, N) with log scales ``L`` (k, N).

    Pairwise tree: each level multiplies neighbouring matrices, the later
    one on the left, for all pairs at once, and rescales the products
    every ``_RENORM_EVERY`` levels; an odd level's last matrix is a tail.
    The end state passes through the top product, then through the tails
    from the highest level down.  With ``nodes`` a down-sweep gives the
    states (2, k, N + 1) and logs (k, N + 1) at every mesh node: a pair
    starts where its parent does, its second matrix where the first one
    leaves.  Matrix j of level l starts at node j 2^l, so every level
    writes its nodes into one array in place.  Every operation is
    elementwise per member.
    """
    k, N = L.shape
    tree = [(M, L)]
    while M.shape[3] > 1:
        n = M.shape[3] // 2 * 2
        a, b = M[..., 0:n:2], M[..., 1:n:2]
        M = b[:, 0, None] * a[None, 0]
        M += b[:, 1, None] * a[None, 1]
        L = L[:, 0:n:2] + L[:, 1:n:2]
        if len(tree) % _RENORM_EVERY == 0:
            sc = np.abs(M).max(axis=(0, 1))
            M /= sc
            L += np.log(sc)
        tree.append((M, L))
    cur = M[:, 0, :, 0] * y[0] + M[:, 1, :, 0] * y[1]
    lcur = ly + L[:, 0]
    starts = {}
    for level in reversed(range(len(tree) - 1)):
        T, LT = tree[level]
        if T.shape[3] % 2:
            starts[level] = cur, lcur
            cur = T[:, 0, :, -1] * cur[0] + T[:, 1, :, -1] * cur[1]
            lcur = lcur + LT[:, -1]
    cur, lcur = _unit(cur, lcur)
    if not nodes:
        return cur, lcur, None, None
    S, LS = np.empty((2, k, N + 1)), np.empty((k, N + 1))
    S[..., 0], LS[:, 0], S[..., N], LS[:, N] = y, ly, cur, lcur
    for level in reversed(range(len(tree) - 1)):
        T, LT = tree[level]
        step, n = 1 << level, T.shape[3] // 2 * 2
        pairs, seconds = slice(0, n * step, 2 * step), slice(step, n * step, 2 * step)
        a, Sp = T[..., 0:n:2], S[..., pairs]
        np.add(a[:, 0] * Sp[0], a[:, 1] * Sp[1], out=S[..., seconds])
        np.add(LS[:, pairs], LT[:, 0:n:2], out=LS[:, seconds])
        if T.shape[3] % 2:
            S[..., n * step], LS[:, n * step] = starts[level]
    return cur, lcur, S, LS


def _mesh_zero_counts(states: np.ndarray, qbar: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Zeros of u per member across the mesh, from the node states
    (2, k, N + 1), the mean coefficient ``qbar`` (k, N) and the signed
    length ``h`` (k, N) of every interval; a zero-length interval ends a
    shorter chain's row and counts nothing.

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
    sg = np.where(h[:, :1] > 0.0, 1.0, -1.0)
    half = (u < 0.0) | ((u == 0.0) & (sg * v < 0.0))
    add = (half[:, 1:] != half[:, :-1]).astype(int)
    osc = -qbar * (h * h) > 1.0
    if osc.any():
        k, i = np.nonzero(osc)
        w = np.sqrt(-qbar[k, i])

        def angle(node):  # in [0, 2 pi], on the side of pi that ``half`` reads
            ph = np.arctan2(w * u[k, node], sg[k, 0] * v[k, node])
            return np.where(half[k, node] & (ph <= 0.0), ph + 2.0 * math.pi, ph)

        laps = np.round((angle(i) + w * np.abs(h[k, i]) - angle(i + 1)) / (2.0 * math.pi))
        turns = 2.0 * laps + half[k, i + 1] - half[k, i]
        if not np.all(np.abs(turns) <= _EXACT_COUNT):  # NaN fails too
            raise NumericsError(
                f"a mesh interval turns u through {np.max(np.abs(turns)):.6g} half-periods, "
                "more than a double counts exactly")
        add[k, i] = turns
    return add.sum(axis=1)


# -- family propagation over segment chains -----------------------------------

class _Shot:
    """The family along one chain: states ``Y`` (2, n) with log scales,
    zero counts and sample records (None: not asked for), segment i's
    samples in the rows ``rows[i]`` of ``xs``; a sample on a join goes to
    the earlier segment."""

    def __init__(self, chain, Y: np.ndarray, samples, count_zeros: bool):
        if not chain:
            raise ValueError("need at least one segment")
        direction = 1.0 if chain[-1].b > chain[0].a else -1.0
        if any((seg.b - seg.a) * direction <= 0 for seg in chain):
            raise ValueError("segments must advance monotonically")
        if any(abs(a.b - b.a) > 1e-12 * max(1.0, abs(a.b)) for a, b in zip(chain, chain[1:])):
            raise ValueError("segments must join end-to-start")
        n = Y.shape[1]
        self.chain, self.Y, self.logs = chain, Y, np.zeros(n)
        self.counts = np.zeros(n, dtype=int) if count_zeros else None
        self.rows = self.rec_states = self.rec_logs = None
        if samples is None:
            return
        self.xs = np.asarray(samples, dtype=float)
        path = self.xs * direction
        if np.any(path[1:] < path[:-1]):
            raise ValueError("samples must be ordered along the integration direction")
        cuts = np.searchsorted(path, [seg.b * direction + 1e-12 for seg in chain], side="right")
        if cuts[-1] != path.size or path.size and path[0] < chain[0].a * direction - 1e-12:
            raise ValueError("some sample points fell outside the integration path")
        self.rows = [slice(lo, hi) for lo, hi in zip([0, *cuts[:-1]], cuts)]
        self.rec_states, self.rec_logs = np.empty((path.size, 2, n)), np.empty((path.size, n))

    def pieces(self, count_zeros: bool) -> list:
        """(route, first, stop) of each run of segments on one transport: the
        mesh of a constant w (False), the bucket meshes of a counted
        callable w (True), or the Runge-Kutta pair (None, one segment)."""
        routes = [callable(seg.w_part) if count_zeros or not callable(seg.w_part) else None
                  for seg in self.chain]
        cuts = [i for i in range(1, len(routes))
                if routes[i] is None or routes[i] is not routes[i - 1]]
        return [(routes[a], a, b) for a, b in zip([0, *cuts], [*cuts, len(routes)])]

    def lane(self, first: int, stop: int, cfg: SolverConfig, bucket: int | None):
        """(shot, steps, plan) of the segments first:stop as one interval
        sequence on the meshes of ``bucket`` (None: a constant w); the plan
        (None: no samples) holds each sample's node, substep and row."""
        meshes = [_mesh_for(seg, cfg) if bucket is None else _mesh_for(seg, cfg, bucket)
                  for seg in self.chain[first:stop]]
        steps = _Steps.join([mesh.steps for mesh in meshes])
        if self.rows is None:
            return self, steps, None
        plans = [_sample_plan(mesh, self.xs[r]) for mesh, r in zip(meshes, self.rows[first:stop])]
        offsets = np.cumsum([0] + [mesh.h.size for mesh in meshes[:-1]])
        plans = [(p[0] + offset, *p[1:]) for p, offset in zip(plans, offsets)]
        plan = plans[0] if len(plans) == 1 else [np.concatenate(p, axis=-1) for p in zip(*plans)]
        rows = slice(self.rows[first].start, self.rows[stop - 1].stop)
        return self, steps, (*plan, rows) if plan[0].size else None

    def rk(self, i: int, m: np.ndarray, cfg: SolverConfig) -> None:
        """Carry the family across segment i on the Runge-Kutta pair, from
        true-scale states."""
        seg, Y = self.chain[i], self.Y
        Y *= np.exp(self.logs)  # the RK's absolute tolerance reads true states
        self.logs[:] = 0.0
        span = abs(self.chain[-1].b - self.chain[0].a)
        xs, base = (self.xs[self.rows[i]], self.rows[i].start) if self.rows else ((), 0)
        cp, wp = seg.c_part, seg.w_part
        c0 = None if callable(cp) else float(cp)
        # tiny families run faster member-by-member on the scalar fast path
        lanes = [slice(j, j + 1) for j in range(m.size)] if 1 < m.size <= 6 else [slice(0, m.size)]
        for lane in lanes:
            Yl = Y[:, lane]
            ml = float(m[lane.start]) if Yl.shape[1] == 1 else m

            def record(j: int, _lane=lane, _Y=Yl) -> None:
                self.rec_states[base + j, :, _lane] = _Y
                self.rec_logs[base + j, _lane] = 0.0

            if c0 is None:
                qv = lambda x, ml=ml: cp(x) + ml * wp(x)
            else:
                qv = lambda x, ml=ml: c0 + ml * wp(x)
            _rk_span(
                qv, seg.a, seg.b, Yl, cfg, _RK_MAX_STEP * span, _MIN_STEP * span,
                record_xs=xs if len(xs) else None,
                record_fn=record if len(xs) else None,
            )


def _carry(lanes: list, m: np.ndarray, cols: np.ndarray) -> None:
    """Carry the members ``cols`` of the family ``m`` in place across one
    interval sequence per lane (``_Shot.lane``), stacked (``_Steps.stack``)
    for one ``_expm`` and one ``_chain`` call; each row counts its zeros
    on its own lengths and direction, and a member's bits do not depend on
    the rest of the family.  Members go in groups of at most ``_WORK_CAP``
    intervals (or samples) x members x lanes."""
    steps = _Steps.stack([steps for _, steps, _ in lanes])
    L, N = steps.h.shape
    S = max((plan[0].size for _, _, plan in lanes if plan), default=0)
    counting = lanes[0][0].counts is not None
    group = max(1, _WORK_CAP // (L * max(N, S)))
    for lo in range(0, cols.size, group):
        c = cols[lo:lo + group]
        g = c.size
        if c[-1] - c[0] == g - 1:  # a run of members: basic indexing is cheaper
            c = slice(c[0], c[-1] + 1)
        w = m[c, None]
        m11, m12, m21, m22, lg = (e.reshape(L * g, N) for e in _expm(*steps.exponents(w)))
        y = np.concatenate([shot.Y[:, c] for shot, _, _ in lanes], axis=1)
        ly = np.concatenate([shot.logs[c] for shot, _, _ in lanes])
        end, lend, st, sl = _chain(np.array([[m11, m12], [m21, m22]]), lg, *_unit(y, ly),
                                   counting or S > 0)
        if counting:
            qbar = steps.rows[1, :, None] + w * steps.rows[2, :, None]
            add = _mesh_zero_counts(st, qbar.reshape(L * g, N), np.repeat(steps.h, g, axis=0))
        for j, (shot, _, plan) in enumerate(lanes):
            r = slice(j * g, j * g + g)
            shot.Y[:, c], shot.logs[c] = end[:, r], lend[r]
            if counting:
                shot.counts[c] += add[r]
            if plan:
                idx, t, nodes, ws, rows = plan
                p11, p12, p21, p22, pl = _expm(*_node_exponents(t, nodes[..., None, :], w * ws))
                su, sv = st[:, r][..., idx]
                shot.rec_states[rows, 0, c] = (p11 * su + p12 * sv).T
                shot.rec_states[rows, 1, c] = (p21 * su + p22 * sv).T
                shot.rec_logs[rows, c] = (sl[r][:, idx] + pl).T


def propagate_chains(chains: Sequence[Sequence[FamilySegment]], m, init,
                     cfg: SolverConfig | None = None, *, rescale: bool = False, samples=None,
                     count_zeros: bool = False) -> list[FamilyResult]:
    """``propagate_family`` of one family on each of ``chains``, which may
    differ in span and direction, with ``samples`` None or one sequence per
    chain.  Their meshed segments run in one pass (per weight bucket),
    whose padding moves a chain's results against a call of its own by
    rounding only."""
    cfg = cfg or DEFAULT_CONFIG
    m = np.atleast_1d(np.asarray(m, dtype=float))
    n = m.size
    init = np.asarray(init)
    if np.iscomplexobj(init) or not np.all(np.isfinite(init)):
        raise ValueError("init must be a finite real state")
    if init.shape not in ((2,), (2, n)):
        raise ValueError(f"init must have shape (2,) or (2, {n})")
    shots = [_Shot(chain, np.zeros((2, n)) + init.reshape(2, -1), xs, count_zeros)
             for chain, xs in zip(chains, [None] * len(chains) if samples is None else samples)]

    # one boundary for the whole call: an overflow or a NaN inside shows
    # up as a non-finite result, which raises below
    with np.errstate(all="ignore"):
        for pieces in zip_longest(*(shot.pieces(count_zeros) for shot in shots)):
            runs = {}
            for shot, piece in zip(shots, pieces):
                if piece is not None and piece[0] is None:
                    shot.rk(piece[1], m, cfg)
                elif piece is not None:
                    runs.setdefault(piece[0], []).append((shot, piece[1], piece[2]))
            for route, run in runs.items():
                for bucket, cols in _buckets(m) if route else [(None, np.arange(n))]:
                    _carry([shot.lane(first, stop, cfg, bucket) for shot, first, stop in run],
                           m, cols)
        for shot in shots:
            if not rescale:  # hand back true states
                shot.Y *= np.exp(shot.logs)
                shot.logs[:] = 0.0
                if shot.rec_states is not None:
                    shot.rec_states *= np.exp(shot.rec_logs)[:, None, :]
                    shot.rec_logs[:] = 0.0
            results = [shot.Y, shot.logs, shot.rec_states, shot.rec_logs]
            if not all(np.isfinite(r).all() for r in results if r is not None):
                raise NumericsError(  # + 0.0: the end of a negative side reads 0, not -0
                    f"the propagation over [{shot.chain[0].a:.10g}, {shot.chain[-1].b:.10g}] of "
                    f"weights {m.min() + 0.0:.10g} to {m.max() + 0.0:.10g} leaves the range "
                    "of a double")
    return [FamilyResult(shot.Y, shot.logs, shot.rec_states, shot.rec_logs, shot.counts)
            for shot in shots]


def propagate_family(segments: Sequence[FamilySegment], m, init,
                     cfg: SolverConfig | None = None, *, rescale: bool = False, samples=None,
                     count_zeros: bool = False) -> FamilyResult:
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
    mesh (``FamilySegment``).  A returned state, log or sample that is not
    finite, or a zero count that a double cannot hold exactly, raises
    ``NumericsError``; numpy warns of nothing inside.  The one-chain case
    of ``propagate_chains``.
    """
    return propagate_chains([segments], m, init, cfg, rescale=rescale,
                            samples=None if samples is None else [samples],
                            count_zeros=count_zeros)[0]

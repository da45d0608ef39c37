"""Propagation engine for linear second-order equations -u'' + q(x) u = 0.

Everything downstream (shooting, spectra, scattering) reduces to carrying
real Cauchy data (u, u') across an interval.  The engine propagates whole
*families* of coefficients ``q_i(x) = c(x) + m_i * w(x)`` at once
(vectorized over the family index) along a chain of segments, on one
transport in two forms:

* a sixth-order Magnus transport when ``w`` is a constant (zero
  included): the members differ by a constant shift, as in every
  eigenvalue family ``c(x) - lambda``.  Each step uses c at three Gauss
  nodes (Blanes, Casas & Ros, BIT 40 (2000) 434-450); sl(2) is closed
  under commutators, so its exponent is a traceless 2x2 matrix whose
  exponential is closed form (cosh/sinh, cos/sin, or a series near zero).
  The mesh is built once per (segment value, config) from ``c`` and the
  tolerance alone and cached together with each interval's shift-free
  step coefficients, so a member's exponent is two multiply-adds away.  A
  constant ``c`` needs one interval, on which the step is the exact
  constant-coefficient propagator.  The meshes of a chain's consecutive
  segments join into one interval sequence, and those of all chains of a
  call stack on the member axis, padded with identity steps, each with
  its own weight row: one pass exponentiates them and chains the 2x2
  matrices with one pairwise product tree, the interval axis innermost;
* the same Magnus transport when ``w`` is callable, as in the coupling
  families ``alpha * profile`` of a resonance scan and the sampled
  resonance eigenfunctions: each member runs on the mesh of its weight bucket
  2^ceil(log2 max(|m|, 1)), built once per (segment, config, bucket) for
  the weights up to +-bucket and cached with c and w at the Gauss nodes,
  one pass per bucket, so a member's results depend on its own weight
  and the chains alone.

States carry an accumulated log-scale so that strongly exponential regimes
never overflow; determinant signs are unaffected because the scales are
positive.  The fundamental matrix of a chain is the propagation of a
family of two equal members from ``init = eye(2)``.
"""

from __future__ import annotations

import math
import sys
from collections import OrderedDict
from dataclasses import dataclass, field, replace
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
    """Tolerance of the Magnus mesh.

    ``rel_tol`` bounds the one-step vs two-half-step defect of every mesh
    interval.  The tolerance alone sizes the mesh of a constant w, the
    tolerance and the weight bucket that of a callable w.  A mesh interval
    shorter than ``_MIN_STEP`` times its segment raises
    ``StepSizeUnderflowError``.
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
    Magnus mesh per weight bucket.  Meshes are cached by value;
    ``mesh_end`` (None: ``b``), at or beyond ``b``, ends the meshed span:
    the segment runs on the mesh of [a, mesh_end] cut at b.
    """

    a: float
    b: float
    c_part: float | Callable[[float], float]
    w_part: float | Callable[[float], float] = 0.0
    mesh_end: float | None = None


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


# -- sixth-order Magnus transport on a cached mesh ------------------------------

_GAUSS = math.sqrt(15.0) / 10.0  # Gauss nodes sit at 1/2 - _GAUSS, 1/2, 1/2 + _GAUSS
_GAUSS_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0
_VARIATION_CAP = 0.5  # bound on h^2 times the spread of q over an interval's nodes (zero counts)
_MAX_SPLIT = 8  # most pieces a rejected interval is cut into per refinement pass
_ROUNDING_FLOOR = 1e-14  # local tolerances below this only chase rounding noise
_MIN_STEP = 1e-14  # underflow floor of a mesh interval, relative to its segment
_MAX_INTERVALS = 1 << 18  # a mesh that needs more intervals is treated as underflow
_WORK_CAP = 1 << 13  # intervals (or samples) x members x chains handled per transport pass
_CACHE_FLOATS = 1 << 16  # mesh cache budget in stored floats (512 kB)
# a cached one-interval mesh holds 951 bytes (tracemalloc), 88 of them its 11 stored floats
_MESH_OVERHEAD = 108  # floats charged per cached mesh or cut beyond its arrays
_RENORM_EVERY = 4  # the products of the chaining tree are rescaled every this many levels
_SERIES_THRESHOLD = 1e-6  # |det| below this: the step's cosh/sinh by power series
_EXACT_COUNT = 2.0**53  # largest zero count of one interval that a double holds exactly


@dataclass(eq=False)
class _Steps:
    """Magnus steps over the signed lengths ``h`` (N,) of mesh intervals or
    of sample substeps (``_sample_plan``) as ``rows`` (9, N): h, the Gauss
    means of c and w (the member with weight m has the mean coefficient
    cbar + m wbar), then for a constant w (``shift``) c at the middle node
    and the shift-free ``_coefficients``, with which the member steps as
    ``_exponent(coef, cmid + m w)``, and for a callable w c and w at the
    three Gauss nodes, from which it forms its own coefficients."""

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
    """Intervals of one segment: their starts ``lo`` (N) in the direction of
    travel and their Magnus steps in ``parts``, for a cut (``_cut``) a view
    of its mesh's steps and its last interval's; ``cuts`` by their end."""

    seg: FamilySegment
    lo: np.ndarray
    parts: list
    cuts: dict = field(default_factory=dict)

    def stored(self) -> int:
        """Floats charged for it and its cuts: their arrays (a cut's last step;
        the rest are views), and ``_MESH_OVERHEAD`` each, which bounds their number."""
        return (_MESH_OVERHEAD + self.lo.size + 1 + self.parts[0].rows.size
                + sum(_MESH_OVERHEAD + cut.parts[-1].rows.size for cut in self.cuts.values()))


class _MeshCache(OrderedDict):
    """Meshes by key, the least recently used first, with ``floats`` the
    sum of their ``stored``, kept as they come and go."""

    floats = 0


_MESH_CACHE = _MeshCache()


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
    ``rel_tol`` (an adaptive integrator's per-step test) and the member
    coefficient spreads by at most ``_VARIATION_CAP / h^2`` over its Gauss
    nodes; the mesh keeps its two halves, whose error is about a
    sixty-fourth of the defect (the analogue of an adaptive integrator's
    local extrapolation).  For a constant w (``bucket`` None) the defect is
    taken for the members whose coefficient is ``c``, ``c - min c`` and
    ``c - max c``: the ends of the range where the segment's bound states
    live, as seen at the nodes of the first pass.  For a callable w it is
    taken at the weights 0 and +-2^bucket, which bound the members of that
    bucket (the top bucket, 2^1024, at +-the largest double).  The first
    pass is the whole segment; an interval shorter than ``_MIN_STEP``
    times the segment raises ``StepSizeUnderflowError``.  A constant c
    with a constant w keeps the first pass, one interval, on which the
    Magnus step is the exact propagator.  Nothing here depends on the
    family.
    """
    fs = (seg.c_part,) if bucket is None else (seg.c_part, seg.w_part)
    hmin = _MIN_STEP * abs(seg.b - seg.a)
    lo, hi = np.array([float(seg.a)]), np.array([float(seg.b)])
    nodes = _nodes(fs, lo, hi - lo)
    if bucket is None and not callable(seg.c_part):
        return _Mesh(seg, lo, [_Steps.of(hi - lo, nodes, seg.w_part)])
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
    return _Mesh(seg, x[:-1], [_Steps.of(np.diff(x), nodes[..., order], seg.w_part)])


def _cut(mesh: _Mesh, seg: FamilySegment) -> _Mesh:
    """``mesh`` cut at ``seg.b``: its intervals that start before b, the last
    one ending at b with c (and w) at its own Gauss nodes; a shorter step
    has a smaller defect and spread, so the cut passes its mesh's tests."""
    if (seg.mesh_end - seg.b) * (seg.b - seg.a) < 0.0:
        raise ValueError("mesh_end must lie at or beyond the end of its segment")
    direction = 1.0 if seg.b > seg.a else -1.0
    k = int(np.searchsorted(mesh.lo * direction, seg.b * direction, side="left"))
    lo, head = mesh.lo[k - 1:k], mesh.parts[0]
    fs = (seg.c_part, seg.w_part) if callable(seg.w_part) else (seg.c_part,)
    last = _Steps.of(seg.b - lo, _nodes(fs, lo, seg.b - lo), seg.w_part)
    return _Mesh(seg, mesh.lo[:k], [_Steps(head.shift, head.rows[:, :k - 1]), last])


def _mesh_for(seg: FamilySegment, cfg: SolverConfig, bucket: int | None = None) -> _Mesh:
    """The cached mesh of (seg, cfg), or of (seg, cfg, bucket) for a
    callable w, built on first use (LRU, bounded by ``_CACHE_FLOATS``) and
    keyed by the segment's value over [a, mesh_end], whose cut at b a
    segment short of mesh_end gets: a segment's mesh depends on it alone."""
    end = seg.b if seg.mesh_end is None else seg.mesh_end
    key = (seg.a, end, seg.c_part, seg.w_part, cfg, bucket)
    try:
        mesh = _MESH_CACHE.get(key)
    except TypeError:  # unhashable coefficient: build without caching
        mesh = _build_mesh(replace(seg, b=end, mesh_end=None), cfg, bucket)
        return mesh if end == seg.b else _cut(mesh, seg)
    if mesh is None:
        mesh = _MESH_CACHE[key] = _build_mesh(replace(seg, b=end, mesh_end=None), cfg, bucket)
        _MESH_CACHE.floats += mesh.stored()
    _MESH_CACHE.move_to_end(key)
    if end != seg.b and seg.b not in mesh.cuts:
        mesh.cuts[seg.b] = _cut(mesh, seg)
        _MESH_CACHE.floats += _MESH_OVERHEAD + mesh.cuts[seg.b].parts[-1].rows.size
    while _MESH_CACHE.floats > _CACHE_FLOATS and len(_MESH_CACHE) > 1:
        _, old = _MESH_CACHE.popitem(last=False)
        _MESH_CACHE.floats -= old.stored()
    return mesh.cuts.get(seg.b, mesh)


def _buckets(m: np.ndarray) -> list:
    """(bucket, member indices) for each weight bucket 2^e, e = ceil(log2
    max(|m|, 1)), that holds members of the family ``m``."""
    mant, e = np.frexp(np.maximum(np.abs(m), 1.0))
    e -= mant == 0.5  # a power of two is the top of its own bucket
    return [(int(bucket), np.flatnonzero(e == bucket)) for bucket in np.unique(e)]


def _sample_plan(mesh: _Mesh, xs: np.ndarray):
    """(node index, substeps) of the sample points ``xs``: the index of the
    mesh node preceding each one, and the Magnus substeps (``_Steps``) from
    there to it, built once for every member of the call."""
    direction = 1.0 if mesh.parts[-1].h[0] > 0 else -1.0
    idx = np.searchsorted(mesh.lo * direction, xs * direction, side="right") - 1
    idx = np.minimum(np.maximum(idx, 0), mesh.lo.size - 1)
    t, seg = xs - mesh.lo[idx], mesh.seg
    fs = (seg.c_part,) if mesh.parts[-1].shift else (seg.c_part, seg.w_part)
    return idx, _Steps.of(t, _nodes(fs, mesh.lo[idx], t), seg.w_part)


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
    """The family ``m`` (n,) along one chain: states ``Y`` (2, n) with log
    scales, zero counts and sample records (None: not asked for), segment
    i's samples in the rows ``rows[i]`` of ``xs``; a sample on a join goes
    to the earlier segment."""

    def __init__(self, chain, m: np.ndarray, Y: np.ndarray, samples, count_zeros: bool):
        if not chain:
            raise ValueError("need at least one segment")
        direction = 1.0 if chain[-1].b > chain[0].a else -1.0
        if any((seg.b - seg.a) * direction <= 0 for seg in chain):
            raise ValueError("segments must advance monotonically")
        if any(abs(a.b - b.a) > 1e-12 * max(1.0, abs(a.b)) for a, b in zip(chain, chain[1:])):
            raise ValueError("segments must join end-to-start")
        n = Y.shape[1]
        self.chain, self.m, self.Y, self.logs = chain, m, Y, np.zeros(n)
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

    def pieces(self) -> list:
        """(route, first, stop) of each run of segments on one transport: the
        mesh of a constant w (False) or the bucket meshes of a callable w
        (True)."""
        routes = [callable(seg.w_part) for seg in self.chain]
        cuts = [i for i in range(1, len(routes)) if routes[i] is not routes[i - 1]]
        return [(routes[a], a, b) for a, b in zip([0, *cuts], [*cuts, len(routes)])]

    def lane(self, first: int, stop: int, cfg: SolverConfig, bucket: int | None):
        """(shot, steps, plan) of the segments first:stop as one interval
        sequence on the meshes of ``bucket`` (None: a constant w); the plan
        (None: no samples) holds each sample's node, the substeps of all
        samples joined (``_Steps.join``) and their rows."""
        meshes = [_mesh_for(seg, cfg) if bucket is None else _mesh_for(seg, cfg, bucket)
                  for seg in self.chain[first:stop]]
        steps = _Steps.join([part for mesh in meshes for part in mesh.parts])
        if self.rows is None:
            return self, steps, None
        plans = [_sample_plan(mesh, self.xs[r]) for mesh, r in zip(meshes, self.rows[first:stop])]
        offsets = np.cumsum([0] + [mesh.lo.size for mesh in meshes[:-1]])
        idx = np.concatenate([i + offset for (i, _), offset in zip(plans, offsets)])
        if not idx.size:
            return self, steps, None
        rows = slice(self.rows[first].start, self.rows[stop - 1].stop)
        return self, steps, (idx, _Steps.join([sub for _, sub in plans]), rows)


def _carry(lanes: list, m: np.ndarray, cols: np.ndarray) -> None:
    """Carry the members ``cols`` of the weights ``m`` (one row, or one per
    lane) in place across one interval sequence per lane (``_Shot.lane``),
    stacked (``_Steps.stack``) for one ``_expm`` and one ``_chain`` call;
    each row counts its zeros on its own lengths and direction, and takes
    its samples through its plan's substeps, built once for every group.  A
    member's bits do not depend on the rest of the family.  Members go in
    groups of at most ``_WORK_CAP`` intervals (or samples) x members x lanes."""
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
        # (g, 1), or (L, g, 1) for rows of their own
        w = m[c, None] if m.ndim == 1 else np.stack([shot.m[c] for shot, _, _ in lanes])[..., None]
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
                idx, sub, rows = plan
                p11, p12, p21, p22, pl = _expm(*sub.exponents(w if m.ndim == 1 else w[j]))
                su, sv = st[:, r][..., idx]
                shot.rec_states[rows, 0, c] = (p11 * su + p12 * sv).T
                shot.rec_states[rows, 1, c] = (p21 * su + p22 * sv).T
                shot.rec_logs[rows, c] = (sl[r][:, idx] + pl).T


def _check_finite(chain, m: np.ndarray, results: list) -> None:
    """Raise ``NumericsError`` unless each of ``results`` (None: absent),
    the outcome of carrying the weights ``m`` along ``chain``, is finite."""
    if not all(np.isfinite(r).all() for r in results if r is not None):
        raise NumericsError(  # + 0.0: the end of a negative side reads 0, not -0
            f"the propagation over [{chain[0].a:.10g}, {chain[-1].b:.10g}] of "
            f"weights {m.min() + 0.0:.10g} to {m.max() + 0.0:.10g} leaves "
            "the range of a double")


def propagate_chains(chains: Sequence[Sequence[FamilySegment]], m, init,
                     cfg: SolverConfig | None = None, *, rescale: bool = False, samples=None,
                     count_zeros: bool = False) -> list[FamilyResult]:
    """``propagate_family`` of one family on each of ``chains``, which may
    differ in span and direction, with ``samples`` None or one sequence per
    chain, and ``m`` one weight row for every chain or, with a constant w
    throughout, one per chain.  Their segments run in one pass (per weight
    bucket), whose padding moves a chain's results against a call of its
    own by rounding only."""
    cfg = cfg or DEFAULT_CONFIG
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if m.ndim > 1 and (m.shape[:-1] != (len(chains),)
                       or any(callable(seg.w_part) for chain in chains for seg in chain)):
        raise ValueError("m must be one weight row, or one per chain with constant w_parts")
    n = m.shape[-1]
    init = np.asarray(init)
    if np.iscomplexobj(init) or not np.all(np.isfinite(init)):
        raise ValueError("init must be a finite real state")
    if init.shape not in ((2,), (2, n)):
        raise ValueError(f"init must have shape (2,) or (2, {n})")
    rows = m if m.ndim == 2 else [m] * len(chains)
    shots = [_Shot(chain, row, np.zeros((2, n)) + init.reshape(2, -1), xs, count_zeros)
             for chain, row, xs in zip(chains, rows,
                                       [None] * len(chains) if samples is None else samples)]

    # one boundary for the whole call: an overflow or a NaN inside shows
    # up as a non-finite result, which raises below
    with np.errstate(all="ignore"):
        for pieces in zip_longest(*(shot.pieces() for shot in shots)):
            runs = {}
            for shot, piece in zip(shots, pieces):
                if piece is not None:
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
            _check_finite(shot.chain, shot.m,
                          [shot.Y, shot.logs, shot.rec_states, shot.rec_logs])
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
    log scales.  ``count_zeros`` counts the interior zeros of u per member.
    Every segment runs on a Magnus mesh (``FamilySegment``).  A returned
    state, log or sample that is not finite, or a zero count that
    a double cannot hold exactly, raises ``NumericsError``; numpy warns of
    nothing inside.  The one-chain case of ``propagate_chains``.
    """
    return propagate_chains([segments], m, init, cfg, rescale=rescale,
                            samples=None if samples is None else [samples],
                            count_zeros=count_zeros)[0]

"""Shared fixtures: profiles, potentials, and independent oracle values.

The transcendental constants (resonant couplings of the step profile) are
recomputed here by plain bisection on tanh(k) - tan(k), independently of
the library's scan machinery, and frozen for the whole session.  Family
propagations are checked against scipy's DOP853 integrator, eigenvalues
against a tridiagonal finite-difference diagonalization, and diving levels
against bisection on the matching Wronskian of DOP853 shots.  Shots of the
coupling equation on polynomial profiles are also checked against a Taylor
shot in ``decimal`` arithmetic, which shares nothing with the library or
with DOP853, and resonance sets against Chebyshev collocation.  The
closed forms of the step profile (its resonance
function, coupling ratio and scattering amplitudes, the latter also in
``decimal`` arithmetic for barriers whose matrices leave the range of a
double), the resonant transmission limit and the first-order eigenvalue
corrector live here too: they check the
library, which does not use them.  So does the boundary data of a limit
eigenfunction at the origin, which only the corrector reads.  The
Magnus transport's pieces are checked against their plain forms: the
exponent written per member from the Blanes-Casas-Ros formula, and the
chained interval matrices multiplied one interval at a time.
"""

from __future__ import annotations

import cmath
import math
from decimal import Decimal, getcontext, localcontext
from typing import NamedTuple

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal

from pointbarrier import profiles, resonance
from pointbarrier.errors import NotInResonanceSetError, PreconditionError
from pointbarrier.ivp import DEFAULT_CONFIG, FamilySegment, SolverConfig, propagate_family
from pointbarrier.profiles import Profile, Segment
from pointbarrier.resonance import _alpha_segments, scaled_residual, shoot
from pointbarrier.scattering import ScatteringResult
from pointbarrier.spectra import _perturbed_problem, polynomial_potential


def bisect_oracle(f, a, b, iters=200):
    """Plain bisection, kept deliberately independent of the library."""
    fa = f(a)
    fb = f(b)
    assert (fa < 0) != (fb < 0), "oracle bracket must straddle a sign change"
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = f(m)
        if (fm < 0) == (fa < 0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def dop853_family(segments, m, init, samples=None):
    """Independent reference for ``propagate_family``: scipy's DOP853 at
    rtol 1e-13 on the first-order system of every member at once,
    restarted at each segment end so that jumps of the coefficient cost no
    order.

    Returns the end states (2, n), the states at ``samples`` ((k, 2, n),
    or None) and the interior zeros of u per member, counted by one
    ``events`` function per member (a zero at the start of a segment is
    not counted).
    """
    m = np.atleast_1d(np.asarray(m, dtype=float))
    n = m.size
    y = np.broadcast_to(np.asarray(init, dtype=float).reshape(2, -1), (2, n)).ravel()
    xs = [] if samples is None else list(np.asarray(samples, dtype=float))
    recorded = []
    zeros = np.zeros(n, dtype=int)
    part = lambda f: f if callable(f) else (lambda x, v=float(f): v)
    for seg in segments:
        c, w = part(seg.c_part), part(seg.w_part)
        rhs = lambda x, y, c=c, w=w: np.concatenate([y[n:], (c(x) + m * w(x)) * y[:n]])
        events = [lambda x, y, i=i: y[i] for i in range(n)]
        sol = solve_ivp(rhs, (seg.a, seg.b), y, method="DOP853", rtol=1e-13, atol=1e-15,
                        events=events, dense_output=bool(xs))
        assert sol.success, sol.message
        zeros += [np.count_nonzero(t != seg.a) for t in sol.t_events]
        lo, hi = min(seg.a, seg.b), max(seg.a, seg.b)
        while xs and lo <= xs[0] <= hi:
            recorded.append(sol.sol(xs.pop(0)).reshape(2, n))
        y = sol.y[:, -1]
    sampled = np.array(recorded) if samples is not None else None
    return y.reshape(2, n), sampled, zeros


def diving_level_oracle(U, p, alpha, eps, lo, hi, iters=40):
    """The level of -y'' + (U + alpha eps^-2 p(x/eps)) y in (lo, hi), lo <
    hi < 0, by ``bisect_oracle`` on the normalized matching Wronskian at x
    = eps of two ``dop853_family`` shots from Dirichlet walls: the left
    one across the barrier.  A wall sits 25 e-folds of the shallower end
    out from the barrier (at most at -+R), where a shot of the whole box
    would leave the range of a double; the level moves by about e^-50
    relative."""
    wall = min(U.truncation_radius, eps + 25.0 / math.sqrt(-hi))
    inv2 = alpha / (eps * eps)
    barrier = [FamilySegment(eps * seg.a, eps * seg.b,
                             lambda x, seg=seg: U.U(x) + inv2 * seg(x / eps), -1.0)
               for seg in p.segments]
    left = [FamilySegment(-wall, -eps, U.U, -1.0)] + barrier
    right = [FamilySegment(wall, eps, U.U, -1.0)]

    def wronskian(lam):
        (u0, v0), (u1, v1) = (dop853_family(chain, lam, np.array([0.0, 1.0]))[0][:, 0]
                              for chain in (left, right))
        return (u0 * v1 - v0 * u1) / (math.hypot(u0, v0) * math.hypot(u1, v1))

    return bisect_oracle(wronskian, lo, hi, iters)


def fd_levels(U, lo, hi, n, k, s=0.0):
    """Lowest ``k`` Dirichlet eigenvalues of -v'' + U v + s delta(x) v on
    [lo, hi]: three-point stencil on ``n`` interior nodes, ``U`` evaluated
    on the node array at once, s/h added at the node x = 0 when the grid
    has one.  Independent of every shooting path; the error is O(h^2) for
    smooth U, with h = (hi - lo) / (n + 1)."""
    h = (hi - lo) / (n + 1)
    xs = lo + h * np.arange(1, n + 1)
    diag = 2.0 / h**2 + U(xs)
    diag[np.abs(xs) < 0.5 * h] += s / h
    off = np.full(n - 1, -1.0 / h**2)
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1), eigvals_only=True)


def diving_count(U, p, alpha, eps, cfg=None) -> int:
    """Number of diving levels of the squeezed-barrier operator, as the
    library reads it: the Sturm index of its one counted shot at the scan
    start of the bounded window.  Tests use it to address bounded levels
    by global index; it is not an independent oracle."""
    return _perturbed_problem(U, p, alpha, eps, cfg or DEFAULT_CONFIG)[0]


def gauss_legendre_moment(p, k, n=48):
    """High-order quadrature oracle for profile moments (per segment)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    total = 0.0
    for seg in p.segments:
        mid = 0.5 * (seg.a + seg.b)
        half = 0.5 * (seg.b - seg.a)
        xs = mid + half * nodes
        total += half * float(np.sum(weights * xs**k * np.array([seg(x) for x in xs])))
    return total


# -- CSV payloads ---------------------------------------------------------------

def write_csv_per_cell(path, header, rows) -> None:
    """Reference for the CLI's chunked CSV writer, one cell at a time:
    floats (numpy's included) as ``%.17e``, every other cell as ``str``,
    quoted where csv.QUOTE_MINIMAL quotes (a comma, a quote, CR or LF)."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(f"{float(cell):.17e}")
            else:
                text = str(cell)
                if any(ch in text for ch in ',"\r\n'):
                    text = '"' + text.replace('"', '""') + '"'
                cells.append(text)
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


# -- closed forms for the step profile ------------------------------------------

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


def _taylor_shift(coeffs, x0: Decimal) -> list[Decimal]:
    """Ascending coefficients of P(x0 + t) from those of P(x), by repeated
    synthetic division (no powers, so x0 = 0 raises nothing)."""
    c = [Decimal(v) for v in coeffs]
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += x0 * c[j + 1]
    return c


def taylor_shot(p: Profile, alpha: float, xs) -> np.ndarray:
    """States (w, w') (k, 2) at the points ``xs`` of [-1, 1] of w'' =
    alpha P(xi) w from (1, 0) at xi = -1, in ``decimal`` arithmetic only
    (Corliss & Chang, ACM TOMS 8 (1982) 114-144).

    On a polynomial segment the solution is entire; its Taylor
    coefficients about x0 follow (n + 2)(n + 1) a_{n+2} = alpha sum_j p_j
    a_{n-j}, with p_j those of P re-expanded about x0.  The series is
    summed to 80 terms at 50 digits and re-expanded every 0.05 in xi, at
    every breakpoint and at every sample: a step h drops terms of about
    (sqrt(|alpha P|) h)^80 / 80!, far below 1e-50 for |alpha P| up to 1e4.
    """
    terms = 80
    with localcontext() as ctx:
        ctx.prec = 50
        a = Decimal(alpha)
        grid = {Decimal(-1) + Decimal("0.05") * i for i in range(41)}
        stops = sorted(grid | {Decimal(s.a) for s in p.segments} | {Decimal(s.b) for s in p.segments}
                       | {Decimal(float(x)) for x in xs})
        stops = [s for s in stops if Decimal(-1) <= s <= Decimal(1)]
        w, dw = Decimal(1), Decimal(0)
        at = {stops[0]: (w, dw)}
        for x0, x1 in zip(stops, stops[1:]):
            mid = (x0 + x1) / 2
            seg = next(s for s in p.segments if Decimal(s.a) <= mid <= Decimal(s.b))
            pc = _taylor_shift(seg.coeffs, x0)
            c = [w, dw]
            for n in range(terms - 2):
                conv = sum(pc[j] * c[n - j] for j in range(min(n, len(pc) - 1) + 1))
                c.append(a * conv / ((n + 2) * (n + 1)))
            t = x1 - x0
            w, dw = Decimal(0), Decimal(0)
            for n in range(terms - 1, -1, -1):  # Horner, for w and w'
                w = w * t + c[n]
                if n:
                    dw = dw * t + n * c[n]
            at[x1] = (w, dw)
        return np.array([[float(v) for v in at[Decimal(float(x))]] for x in xs])


def collocation_resonances(p: Profile, lo: float, hi: float, n: int) -> np.ndarray:
    """The nonzero resonances alpha in [lo, hi] of ``p``, ascending, by
    Chebyshev collocation (Trefethen, *Spectral Methods in MATLAB*, SIAM
    2000, ch. 6-7), which shares nothing with the library's shots.

    They are mu = -alpha of -w'' = mu P w on (-1, 1) with Neumann ends, on
    n + 1 Chebyshev points per segment, with w and w' continuous at the
    breakpoints.  Those rows and the Neumann rows of B are zero, so the
    pencil (A, B) is shifted and inverted: the eigenvalues nu of (A - s
    B)^-1 B give mu = s + 1/nu.  alpha = 0 is left out: for a zero-mean
    profile it is a double root, which rounding splits into a pair near
    +-1e-5 or a complex one.
    """
    t = -np.cos(np.pi * np.arange(n + 1) / n)  # ascending
    c = np.where((t == t[0]) | (t == t[-1]), 2.0, 1.0) * (-1.0) ** np.arange(n + 1)
    D = np.outer(c, 1.0 / c) / (t[:, None] - t[None, :] + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    size = len(p.segments) * (n + 1)
    A, B = np.zeros((size, size)), np.zeros((size, size))
    blocks = []
    for s, seg in enumerate(p.segments):
        i = slice(s * (n + 1), (s + 1) * (n + 1))
        D1 = D * (2.0 / (seg.b - seg.a))
        A[i, i] = -D1 @ D1
        B[i, i] = np.diag([seg(x) for x in seg.a + (seg.b - seg.a) * (t + 1.0) / 2.0])
        A[i.start], B[i.start], A[i.stop - 1], B[i.stop - 1] = 0.0, 0.0, 0.0, 0.0
        blocks.append((i, D1))
    (first, D_first), (last, D_last) = blocks[0], blocks[-1]
    A[first.start, first] = D_first[0]  # w'(-1) = 0
    A[last.stop - 1, last] = D_last[-1]  # w'(1) = 0
    for (i, Di), (j, Dj) in zip(blocks, blocks[1:]):
        A[i.stop - 1, i.stop - 1], A[i.stop - 1, j.start] = 1.0, -1.0  # w
        A[j.start, i], A[j.start, j] = Di[-1], -Dj[0]  # w'
    shift = 0.3
    nu = np.linalg.eigvals(np.linalg.solve(A - shift * B, B))
    mu = shift + 1.0 / nu[np.abs(nu) > 1e-12]
    alpha = -mu[np.abs(mu.imag) <= 1e-6 * np.maximum(1.0, np.abs(mu))].real
    return np.sort(alpha[(lo <= alpha) & (alpha <= hi) & (np.abs(alpha) > 1e-3)])


def constant_propagator(c: float, length: float) -> np.ndarray:
    """Exact 2x2 propagator of -u'' + c u = 0 over a signed ``length``:
    [[cosh kL, sinh kL / k], [k sinh kL, cosh kL]] with k = sqrt(c) for
    c > 0, the trigonometric analogue for c < 0, [[1, L], [0, 1]] at 0."""
    L = float(length)
    if c > 0.0:
        k = math.sqrt(c)
        return np.array([[math.cosh(k * L), math.sinh(k * L) / k],
                         [k * math.sinh(k * L), math.cosh(k * L)]])
    if c < 0.0:
        k = math.sqrt(-c)
        return np.array([[math.cos(k * L), math.sin(k * L) / k],
                         [-k * math.sin(k * L), math.cos(k * L)]])
    return np.array([[1.0, L], [0.0, 1.0]])


def magnus_exponent(h, q):
    """(x, y, z) of the sixth-order Magnus exponent [[x, y], [z, -x]] of
    -u'' + q u = 0 over signed lengths ``h``, from q at the three Gauss
    nodes, written per member from the Blanes-Casas-Ros formula (BIT 40
    (2000) 434-450): with A = [[0, 1], [q, 0]] at the nodes, a1 = h A2,
    a2 = sqrt(15) h / 3 (A3 - A1) and a3 = 10 h / 3 (A3 - 2 A2 + A1), the
    exponent is a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240 with C1 =
    [a1, a2] and C2 = -[a1, 2 a3 + C1] / 60."""
    q1, q2, q3 = q
    a2 = math.sqrt(15.0) / 3.0 * h * (q3 - q1)
    a3 = 10.0 / 3.0 * h * (q3 - 2.0 * q2 + q1)
    hq2 = h * q2
    x = h * a2 / 240.0 * (-20.0 + 4.0 / 3.0 * h * hq2 + h * a3 / 30.0)
    y = h + h * h / 240.0 * (h * a2 * a2 / 15.0 - 4.0 / 3.0 * a3)
    z = hq2 + a3 / 12.0 + h / 240.0 * (
        4.0 / 3.0 * hq2 * a3 + a3 * a3 / 15.0 - 2.0 * a2 * a2 + h * hq2 * a2 * a2 / 15.0
    )
    return x, y, z


def spy_shots(monkeypatch, module, record):
    """Call ``record(chain, m)`` for each chain that ``module`` shoots from
    now on, one call per chain, whether through ``propagate_family`` or
    ``propagate_chains``; ``m`` is the chain's own weight row when the
    call gives one per chain."""
    family, chains = module.propagate_family, module.propagate_chains

    def one(chain, m, *args, **kwargs):
        record(chain, np.asarray(m))
        return family(chain, m, *args, **kwargs)

    def several(chain_list, m, *args, **kwargs):
        rows = np.asarray(m)
        for j, chain in enumerate(chain_list):
            record(chain, rows[j] if rows.ndim == 2 else rows)
        return chains(chain_list, m, *args, **kwargs)

    monkeypatch.setattr(module, "propagate_family", one)
    monkeypatch.setattr(module, "propagate_chains", several)


def phantom_count(monkeypatch, at: float) -> None:
    """Make the Neumann index of every resonance scan from now on count one
    more root at |alpha| >= ``at``, where D keeps its sign: a count that is
    not an exact index, which no halving can resolve."""
    index = resonance._neumann_index

    def with_phantom(p, cfg):
        fvec = index(p, cfg)

        def counted(alphas, with_counts=False):
            vals, counts = fvec(alphas, True)
            return vals, counts + (np.abs(alphas) >= at)

        return counted

    monkeypatch.setattr(resonance, "_neumann_index", with_phantom)


def sequential_chain(M, L, y, ly):
    """States (2, k, N + 1) and logs (k, N + 1) at every node of the states
    ``y`` (2, k) with logs ``ly`` carried through the interval matrices
    ``M`` (2, 2, k, N) with logs ``L`` (k, N) one interval at a time,
    each state rescaled to unit max-norm."""
    k, N = L.shape
    states, logs = np.empty((2, k, N + 1)), np.empty((k, N + 1))
    cur, lcur = np.array(y, dtype=float), np.array(ly, dtype=float)
    for i in range(N):
        states[..., i], logs[:, i] = cur, lcur
        cur = M[:, 0, :, i] * cur[0] + M[:, 1, :, i] * cur[1]
        s = np.abs(cur).max(axis=0)
        cur, lcur = cur / s, lcur + L[:, i] + np.log(s)
    states[..., N], logs[:, N] = cur, lcur
    return states, logs


def match_plane_waves(M, ep, em, ik):
    """``(R, T)`` of e^{ikx} + R e^{-ikx} at x = -eps matched to T e^{ikx}
    at x = eps through the x-variable barrier matrix ``M`` (nested 2x2,
    carrying (y, y') from -eps to eps), with ``ep`` = e^{ik eps} and ``em``
    = e^{-ik eps}.

    A general 2x2 solve by Cramer's rule that does not use det M = 1, so
    the numerator of T cancels about 2 log10 |M| digits.  Plain arithmetic
    only: it runs on complex floats and on ``DecimalComplex`` alike.
    """
    incident = [M[0][0] * em + M[0][1] * (ik * em), M[1][0] * em + M[1][1] * (ik * em)]
    reflected = [M[0][0] * ep - M[0][1] * (ik * ep), M[1][0] * ep - M[1][1] * (ik * ep)]
    # incident + R reflected = T (ep, ik ep)
    det = ep * reflected[1] - reflected[0] * (ik * ep)
    R = (incident[0] * (ik * ep) - ep * incident[1]) / det
    T = (incident[0] * reflected[1] - reflected[0] * incident[1]) / det
    return R, T


def step_scatter_exact(kappa: float, eps: float, k: float):
    """Closed-form scattering for the step profile at alpha = kappa^2 > 0.

    The barrier matrix is the product of two constant-coefficient
    propagators (hyperbolic on the uphill half, trigonometric on the well),
    matched to plane waves by ``match_plane_waves``.
    """
    if k <= 0:
        raise ValueError("wavenumber k must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    alpha = kappa * kappa
    tau2 = (eps * k) ** 2
    M_xi = constant_propagator(-alpha - tau2, 1.0) @ constant_propagator(alpha - tau2, 1.0)
    M = np.diag([1.0, 1.0 / eps]) @ M_xi @ np.diag([1.0, eps])  # (w, w') -> (y, y')
    R, T = match_plane_waves(M, cmath.exp(1j * k * eps), cmath.exp(-1j * k * eps), 1j * k)
    return ScatteringResult(k=k, eps=eps, alpha=alpha, R=complex(R), T=complex(T))


class DecimalComplex:
    """x + iy on two ``decimal.Decimal`` parts, with the field operations
    that ``match_plane_waves`` uses; arithmetic runs at the context
    precision."""

    def __init__(self, re, im=0):
        self.re, self.im = Decimal(re), Decimal(im)

    def __add__(self, z):
        return DecimalComplex(self.re + z.re, self.im + z.im)

    def __sub__(self, z):
        return DecimalComplex(self.re - z.re, self.im - z.im)

    def __mul__(self, z):
        if not isinstance(z, DecimalComplex):  # a real Decimal
            z = DecimalComplex(z)
        return DecimalComplex(self.re * z.re - self.im * z.im, self.re * z.im + self.im * z.re)

    __rmul__ = __mul__

    def __truediv__(self, z):
        n = z.re * z.re + z.im * z.im
        return DecimalComplex((self.re * z.re + self.im * z.im) / n,
                              (self.im * z.re - self.re * z.im) / n)

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def _decimal_cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """cos x and sin x by their Taylor series, summed at the context
    precision; the alternating terms cancel about |x| / ln 10 digits."""
    tol = Decimal(10) ** -(getcontext().prec + 5)
    cs = [Decimal(0), Decimal(0)]
    term, n = Decimal(1), 0
    while n <= abs(x) or abs(term) > tol:
        cs[n % 2] += term if n % 4 < 2 else -term
        n += 1
        term = term * x / n
    return cs[0], cs[1]


def _decimal_propagator(c: Decimal):
    """Exact propagator of -u'' + c u = 0 over a unit length, as nested
    Decimals: cosh and sinh from ``Decimal.exp`` for c > 0, cos and sin from
    their Taylor series for c < 0."""
    if c > 0:
        s = c.sqrt()
        e = s.exp()
        ch, sh = (e + 1 / e) / 2, (e - 1 / e) / 2
        return [[ch, sh / s], [s * sh, ch]]
    if c < 0:
        s = (-c).sqrt()
        cos, sin = _decimal_cos_sin(s)
        return [[cos, sin / s], [-s * sin, cos]]
    return [[Decimal(1), Decimal(1)], [Decimal(0), Decimal(1)]]


def step_scatter_decimal(alpha: float, eps: float, k: float, digits: int = 200):
    """``(R, T)`` of the step profile at any real alpha, from the exact step
    propagators in decimal arithmetic, independently of the library's
    propagation and of its det M = 1 matching.

    The work runs at ``digits`` significant digits plus what the Taylor
    sums and the Cramer solve of ``match_plane_waves`` cancel: about
    3 sqrt(|alpha|) / ln 10 digits, and log10(1 / eps) more.
    """
    growth = math.sqrt(abs(alpha) + (eps * k) ** 2) / math.log(10.0)
    with localcontext() as ctx:
        ctx.prec = digits + 3 * math.ceil(growth) + math.ceil(abs(math.log10(eps))) + 10
        a, e, kk = Decimal(alpha), Decimal(eps), Decimal(k)
        tau2 = (e * kk) ** 2
        left, right = _decimal_propagator(a - tau2), _decimal_propagator(-a - tau2)
        M = [[sum(right[i][j] * left[j][n] for j in range(2)) for n in range(2)]
             for i in range(2)]
        M = [[M[0][0], M[0][1] * e], [M[1][0] / e, M[1][1]]]  # (w, w') -> (y, y')
        cos, sin = _decimal_cos_sin(e * kk)
        R, T = match_plane_waves(M, DecimalComplex(cos, sin), DecimalComplex(cos, -sin),
                                 DecimalComplex(0, kk))
        return complex(R), complex(T)


def transmission_limit(theta: float) -> float:
    """Limiting transmission probability 4 theta^2 / (1 + theta^2)^2 at a
    resonant coupling with ratio theta; 1 at theta = 1, -> 0 as |theta|
    grows (~ 4 / theta^2)."""
    t2 = theta * theta
    if math.isinf(t2):
        return 0.0
    return 4.0 * t2 / (1.0 + t2) ** 2


# -- profile values ------------------------------------------------------------

def evaluate(p: Profile, xi: float) -> float:
    """Value of the profile ``p`` at ``xi``: exactly 0 outside [-1, 1], an
    internal breakpoint on its right-hand segment, +1 on the last one."""
    if xi < -1.0 or xi > 1.0:
        return 0.0
    return next((seg for seg in p.segments if xi < seg.b), p.segments[-1])(xi)


def reflect(p: Profile) -> Profile:
    """Profile mirrored through the origin: ``evaluate(reflect(p), xi) ==
    evaluate(p, -xi)``."""
    segs = []
    for seg in reversed(p.segments):
        coeffs = tuple(c * (-1.0) ** j for j, c in enumerate(seg.coeffs))
        segs.append(Segment(-seg.b, -seg.a, coeffs))
    return Profile(tuple(segs), label=p.label + "_reflected")


# -- first-order eigenvalue correction -----------------------------------------

class BoundaryTrace(NamedTuple):
    """One-sided boundary data (v, v') at the origin of a normalized
    eigenfunction."""

    v_minus: float
    v_plus: float
    dv_minus: float
    dv_plus: float


def limit_trace(U, spec, k, cfg=None) -> BoundaryTrace:
    """(v, v') at 0- and 0+ of eigenfunction ``k`` of the limit spectrum
    ``spec`` (sampled with the default solver configuration, or ``cfg``).

    Each side takes a Dirichlet shot of its own from its wall to 0,
    sampled on that side's grid points (x <= 0 on the left, x > 0 on the
    right) and scaled to the returned eigenfunction at that side's largest
    sample.  A side where the eigenfunction is 0 has zero data.
    """
    R = U.truncation_radius
    x, v, lam = spec.x, spec.eigenfunctions[k], float(spec.eigenvalues[k])
    data = []
    for wall, side in ((-R, x <= 0.0), (R, x > 0.0)):
        path, vals = (x[side], v[side]) if wall < 0 else (x[side][::-1], v[side][::-1])
        j = int(np.argmax(np.abs(vals)))
        if vals[j] == 0.0:
            data.append((0.0, 0.0))
            continue
        shot = propagate_family([FamilySegment(wall, 0.0, U.U, -1.0)], np.array([lam]),
                                np.array([0.0, 1.0]), cfg or DEFAULT_CONFIG, rescale=True,
                                samples=path)
        scale = vals[j] / shot.sample_states[j, 0, 0] * math.exp(
            float(shot.logs[0] - shot.sample_logs[j, 0]))
        data.append(tuple(scale * shot.states[:, 0]))
    (vm, dvm), (vp, dvp) = data
    return BoundaryTrace(v_minus=vm, v_plus=vp, dv_minus=dvm, dv_plus=dvp)


def corrector_lambda1(U, p, alpha, lam, v_data, resonant, cfg=None, residual_tol=1e-9):
    """First-order coefficient lambda_1 of the eigenvalue expansion
    lambda(eps) ~ lambda + eps lambda_1 for the squeezed barrier.

    ``v_data`` holds the boundary data (a ``BoundaryTrace``, from
    ``limit_trace`` or built by hand) of the unit-normalized limit
    eigenfunction.  Non-resonant branch
    (eigenfunction supported on one half-axis): solve the one-sided Neumann
    cell problem -w1'' + alpha profile w1 = 0, w1'(-1) = 0, w1'(1) = v'(+0)
    and return v'(+0) (v'(+0) - w1(1)); the left-half case is handled by
    mirror symmetry.  Resonant branch: with W the Neumann cell
    eigenfunction normalized to W(-1) = 1 and theta = W(1),

        g1 = v'(-0) phi2(1) - v'(+0) - theta v'(-0),
        h1 = (U(0) - lam) [ v(-0) int W^2 - theta v(+0) - v(-0) ],
        lambda_1 = h1 v(-0) - g1 v'(+0),

    where phi2 is the cell solution with data (0, 1) at -1 and the second
    derivatives v''(+-0) = (U(0) - lam) v(+-0) come from the differential
    equation rather than numerical differentiation.
    """
    cfg = cfg or DEFAULT_CONFIG
    vd = v_data
    scale = max(abs(vd.v_minus), abs(vd.v_plus), abs(vd.dv_minus), abs(vd.dv_plus), 1e-30)

    if not resonant:
        left_dead = max(abs(vd.v_minus), abs(vd.dv_minus)) <= 1e-8 * scale
        right_dead = max(abs(vd.v_plus), abs(vd.dv_plus)) <= 1e-8 * scale
        if left_dead == right_dead:
            raise PreconditionError(
                "non-resonant branch needs an eigenfunction vanishing on exactly one half-axis"
            )
        if right_dead:
            # eigenfunction lives on the left: mirror the problem
            prof = reflect(p)
            slope = -vd.dv_minus
        else:
            prof = p
            slope = vd.dv_plus
        w1_end, miss = shoot(prof, alpha, cfg)
        if scaled_residual(prof, alpha, w1_end, miss) <= residual_tol:
            raise PreconditionError(
                "non-resonant corrector called at a resonant coupling (singular cell problem)"
            )
        w1_at_1 = slope * w1_end / miss
        return slope * (slope - w1_at_1)

    w1_end, miss = shoot(p, alpha, cfg)
    rho = scaled_residual(p, alpha, w1_end, miss)
    if rho > residual_tol:
        raise NotInResonanceSetError(
            f"resonant corrector called off the resonance set (defect {rho:.3e})"
        )
    theta = w1_end
    # cell eigenfunction samples for int W^2 (Simpson on a uniform grid)
    xi = np.linspace(-1.0, 1.0, 2001)
    cell = _alpha_segments(p)
    res = propagate_family(cell, np.array([alpha]), np.array([1.0, 0.0]), cfg, samples=xi)
    W = res.sample_states[:, 0, 0]
    intW2 = _simpson(W * W, xi)
    phi2 = propagate_family(cell, np.array([alpha]), np.array([0.0, 1.0]), cfg).states[0, 0]

    g1 = vd.dv_minus * phi2 - vd.dv_plus - theta * vd.dv_minus
    u0 = U.U(0.0)
    ddv_minus = (u0 - lam) * vd.v_minus
    ddv_plus = (u0 - lam) * vd.v_plus
    h1 = (u0 - lam) * vd.v_minus * intW2 - theta * ddv_plus - ddv_minus
    return h1 * vd.v_minus - g1 * vd.dv_plus


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    n = len(x) - 1
    h = (x[-1] - x[0]) / n
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


# -- fixtures ----------------------------------------------------------------------

@pytest.fixture(scope="session")
def step():
    return profiles.builtin("step")


@pytest.fixture(scope="session")
def odd_cubic():
    return profiles.builtin("odd_cubic")


@pytest.fixture(scope="session")
def bump():
    return profiles.builtin("asymmetric_bump")


@pytest.fixture(scope="session")
def kappa_roots():
    """First two positive roots of tan k = tanh k (bisection oracle)."""
    g = lambda k: math.tanh(k) - math.tan(k)
    k1 = bisect_oracle(g, math.pi + 0.2, 1.5 * math.pi - 0.2)
    k2 = bisect_oracle(g, 2 * math.pi + 0.2, 2.5 * math.pi - 0.2)
    return k1, k2


@pytest.fixture(scope="session")
def alpha1(kappa_roots):
    return kappa_roots[0] ** 2


@pytest.fixture(scope="session")
def theta1(kappa_roots):
    k1 = kappa_roots[0]
    return math.cosh(k1) / math.cos(k1)


@pytest.fixture(scope="session")
def harmonic():
    return polynomial_potential([0.0, 0.0, 1.0], 7.0, "harmonic")


@pytest.fixture(scope="session")
def tilted():
    # x^2 + x: the two half-line spectra are disjoint
    return polynomial_potential([0.0, 1.0, 1.0], 8.0, "tilted_harmonic")


@pytest.fixture(scope="session")
def cfg():
    return SolverConfig()

"""Bracketing and scalar root refinement used by every spectral scan.

Scans evaluate a smooth miss function on a grid (often vectorized), pick up
sign changes, then polish each bracket.  Every eigenvalue and resonance
scan brackets with ``resolve_cells``: an exact root count at the grid
points tells it which cells hide roots.  ``brent`` is the classic
inverse-quadratic/secant/bisection combination; ``bisect_vector`` polishes
many brackets simultaneously when the miss function can be evaluated on a
whole vector of points at once (one family propagation per iteration).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

_EPS = float(np.finfo(float).eps)


def sign_change_brackets(xs: Sequence[float], fs: Sequence[float]) -> list[tuple[float, float]]:
    """Consecutive grid cells where f changes sign strictly."""
    out = []
    for i in range(len(xs) - 1):
        fa, fb = fs[i], fs[i + 1]
        if fa == 0.0:
            continue
        if fb == 0.0:
            # zero exactly on a node: pair with the next nonzero value later
            continue
        if (fa < 0.0) != (fb < 0.0):
            out.append((xs[i], xs[i + 1]))
    return out


def resolve_cells(fvec, xs, fs, cs, out) -> None:
    """Append to ``out`` the sign-change brackets in the cells of the
    ascending points ``xs``, with values ``fs`` and zero counts ``cs``, in
    ascending order.

    A zero of f exactly on a node ends the bracket of the cell to its
    left, where a count of the roots at or below each point puts it.  A
    cell whose count rises by two or more, or by one with no sign change
    (a count that is not an exact index), hides roots: it is halved until
    each root shows its own sign change, down to a width of
    1e-5 max(1, |xa|, |xb|) or 40 halvings.
    Halving is level-synchronous: every pending cell of one level is split
    at once and all the midpoints are shot in one ``fvec(mids, True)``
    call.  The cells stay disjoint, so sorting the brackets by their left
    ends gives the order of a left-to-right depth-first halving.
    """
    x = np.asarray(xs, dtype=float)
    f = np.asarray(fs, dtype=float)
    c = np.asarray(cs, dtype=int)
    xa, fa, ca, xb, fb, cb = x[:-1], f[:-1], c[:-1], x[1:], f[1:], c[1:]
    lo, hi = [], []
    for depth in range(41):
        sign = (fa != 0.0) & ((fb == 0.0) | ((fa < 0.0) != (fb < 0.0)))
        rise = cb - ca
        floor = 1e-5 * np.maximum(1.0, np.maximum(np.abs(xa), np.abs(xb)))
        split = ((rise >= 2) | ((rise == 1) & ~sign)) & (xb - xa > floor) & (depth < 40)
        done = sign & ~split
        lo.append(xa[done])
        hi.append(xb[done])
        if not split.any():
            break
        xa, fa, ca, xb, fb, cb = (v[split] for v in (xa, fa, ca, xb, fb, cb))
        xm = 0.5 * (xa + xb)
        fm, cm = fvec(xm, True)
        xa, fa, ca = np.concatenate((xa, xm)), np.concatenate((fa, fm)), np.concatenate((ca, cm))
        xb, fb, cb = np.concatenate((xm, xb)), np.concatenate((fm, fb)), np.concatenate((cm, cb))
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    order = np.argsort(lo)
    out.extend(zip(lo[order].tolist(), hi[order].tolist()))


def brent(
    f: Callable[[float], float],
    a: float,
    b: float,
    fa: float | None = None,
    fb: float | None = None,
    xtol: float = 1e-13,
    rtol: float = 8.0 * _EPS,
    maxiter: int = 128,
) -> tuple[float, float]:
    """Root of f in the sign-change bracket [a, b]; returns (root, f(root))."""
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    if fa == 0.0:
        return a, 0.0
    if fb == 0.0:
        return b, 0.0
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError(f"not a sign-change bracket: f({a})={fa}, f({b})={fb}")
    c, fc = a, fa
    d = e = b - a
    for _ in range(maxiter):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * rtol * abs(b) + 0.5 * xtol
        mid = 0.5 * (c - b)
        if abs(mid) <= tol or fb == 0.0:
            return b, fb
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = mid
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * mid * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * mid * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * mid * q - abs(tol * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = e = mid
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, mid)
        fb = f(b)
        if (fb < 0.0) == (fc < 0.0):
            c, fc = a, fa
            d = e = b - a
    return b, fb


def illinois_vector(
    fvec: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    xtol: float = 1e-13,
    rtol: float = 1e-14,
    maxiter: int = 80,
) -> np.ndarray:
    """Safeguarded regula falsi (Illinois weighting) on many brackets at once.

    Converges superlinearly while keeping each iterate strictly inside its
    bracket, so one vectorized function evaluation per iteration polishes
    every root simultaneously.  Falls back to the midpoint whenever the
    secant step degenerates.  A bracket end where f is 0 is its root.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    flo = np.asarray(fvec(lo), dtype=float).copy()
    fhi = np.asarray(fvec(hi), dtype=float).copy()
    bad = (flo != 0.0) & (fhi != 0.0) & ((flo < 0.0) == (fhi < 0.0))
    if np.any(bad):
        raise ValueError(f"bracket {np.nonzero(bad)[0][0]} does not straddle a sign change")
    hi = np.where(flo == 0.0, lo, hi)  # collapse onto an end where f is 0
    lo = np.where(fhi == 0.0, hi, lo)
    side = np.zeros(lo.shape, dtype=int)  # -1: last replaced lo, +1: last replaced hi
    for _ in range(maxiter):
        width = np.abs(hi - lo)
        tol = xtol + rtol * np.maximum(np.abs(lo), np.abs(hi))
        if np.all(width <= tol):
            break
        denom = fhi - flo
        with np.errstate(invalid="ignore", divide="ignore"):
            x = (lo * fhi - hi * flo) / denom
        mid = 0.5 * (lo + hi)
        bad = ~np.isfinite(x)
        margin = 1e-12 * np.maximum(1.0, np.abs(x))
        bad |= (x - np.minimum(lo, hi)) < margin
        bad |= (np.maximum(lo, hi) - x) < margin
        x = np.where(bad, mid, x)
        fx = np.asarray(fvec(x), dtype=float)
        replace_hi = (fx < 0.0) != (flo < 0.0)
        # Illinois: halve the retained endpoint's value on a repeated side
        stale_hi = replace_hi & (side == 1)
        stale_lo = ~replace_hi & (side == -1)
        flo = np.where(stale_hi, 0.5 * flo, flo)
        fhi = np.where(stale_lo, 0.5 * fhi, fhi)
        lo = np.where(replace_hi, lo, x)
        flo = np.where(replace_hi, flo, fx)
        hi = np.where(replace_hi, x, hi)
        fhi = np.where(replace_hi, fx, fhi)
        side = np.where(replace_hi, 1, -1)
        exact = fx == 0.0
        if np.any(exact):
            lo = np.where(exact, x, lo)
            hi = np.where(exact, x, hi)
    return 0.5 * (lo + hi)


def bisect_vector(
    fvec: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    xtol: float = 1e-13,
    rtol: float = 1e-13,
    maxiter: int = 100,
) -> np.ndarray:
    """Bisection on many brackets at once.

    ``fvec`` maps an array of abscissae to an array of function values for
    the corresponding brackets (one evaluation of a whole family per
    iteration).  Each (lo[i], hi[i]) must bracket a sign change.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    flo = fvec(lo)
    neg_lo = flo < 0.0
    for _ in range(maxiter):
        width = hi - lo
        if np.all(np.abs(width) <= xtol + rtol * np.abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        fm = fvec(mid)
        go_right = (fm < 0.0) == neg_lo
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)

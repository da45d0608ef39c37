"""Bracketing and root refinement used by every spectral scan.

An exact root count (a Sturm or Neumann index) at the points of a grid
tells ``resolve_cells``, the one window search, which cells hide roots:
it bisects grid indices down to the cells where the count rises or the
value changes sign, then halves those cells down to one floor,
``_FLOOR``, until each wanted root shows its own sign change.  Every
eigenvalue search hands it its window as a grid of one cell; a
resonance scan hands it the grid of one side of alpha = 0.  ``sign_change``
is the one rule for which cell a sign change, or a zero on a node,
belongs to.  ``illinois_vector`` is the one refiner: it polishes many
brackets at once, of one problem or of several (an owner per bracket),
with the miss function evaluated on a whole vector of points per
iteration (one family propagation).  It shoots only the brackets still
open, so each root depends on its own bracket alone, and keeps its
secant point a tolerance step inside the bracket, so an end that already
sits on the root closes the bracket at the next shot.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import BracketShortfallError

_MAXITER = 80  # most shots after the first in ``illinois_vector``
_FLOOR = 1e-12  # narrowest bracket of ``resolve_cells``, relative to max(1, |x|)


def sign_change(fa, fb):
    """Whether each cell with the end values ``fa`` and ``fb`` brackets a
    sign change: a zero of f exactly on a node ends the cell to its left."""
    return (fa != 0.0) & ((fb == 0.0) | ((fa < 0.0) != (fb < 0.0)))


def resolve_cells(fvec, grid, size, need=None, ends=(None, None)):
    """(brackets, count): the sign-change brackets, ascending, of the roots
    that an exact count locates on the ascending grid of ``size`` points
    ``grid(k)`` (an index array in, its points out), and the rise of the
    count across the grid.  ``fvec(xs, True)`` returns the values and the
    counts of the roots at or below each point.

    The two ends are shot first, in one call, but for those of ``ends``
    that the caller holds (None or a (values, counts) pair of one point
    each).  With ``need``, only the lowest ``need`` roots are wanted, and
    a grid that counts fewer is not halved: the caller raises.  Then, one
    ``fvec`` call per level, every range of grid indices between
    neighbouring shot points whose count rises, or whose value changes
    sign, is split at its middle index until it is one grid cell; a range
    that does neither holds no root of an exact count.  An eigenvalue
    window is a grid of one cell.

    Only when every range is settled are the cells halved on their values
    (the on-node rule below compares the neighbouring cells of one level),
    again one call per level for every pending cell.  A zero of f exactly
    on a node ends the bracket of the cell to its left, where the count
    puts it.  A cell whose count rises by two or more, or by one with no
    sign change (a count that is not an exact index), hides roots: it is
    halved until each root shows its own sign change, down to a width of
    ``_FLOOR`` max(1, |xa|, |xb|), or after 2 log2(1 / ``_FLOOR``) + 7 =
    86 halvings: enough for a cell up to 128 / ``_FLOOR`` times wider
    than max(1, |x|) to close down onto the floor at x.  A rise of one
    without a sign change next to a sign change without a rise is a root
    on their common node, which rounding puts on one side by its sign and
    on the other by its count: the sign-change cell brackets it, and
    neither is halved.  A cell whose lower count reaches the lowest count
    plus ``need`` is neither halved nor bracketed, except the sign-change
    cell of a wanted root on its left node.  The counts are never clamped,
    so a wanted cell that holds more roots than it needs is still halved.
    Raises ``BracketShortfallError`` when the brackets fall short of the
    wanted rise of the count (roots closer than the floor).
    """
    k = np.array([0, size - 1])
    shots = list(ends)
    todo = [i for i, shot in enumerate(shots) if shot is None]
    if todo:
        vals, counts = fvec(grid(k[todo]), True)
        for j, i in enumerate(todo):
            shots[i] = vals[j:j + 1], counts[j:j + 1]
    f, c = (np.concatenate(part) for part in zip(*shots))
    count = int(c[-1] - c[0])
    if need is not None and count < need:
        return [], count
    top = c[-1] if need is None else min(c[-1], c[0] + need)
    while True:  # index bisection, the shot points kept in order
        active = (c[1:] > c[:-1]) | sign_change(f[:-1], f[1:])
        split = np.flatnonzero(active & (np.diff(k) > 1))
        if not split.size:
            break
        km = (k[split] + k[split + 1]) // 2
        fm, cm = fvec(grid(km), True)
        k, f, c = (np.insert(v, split + 1, m) for v, m in ((k, km), (f, fm), (c, cm)))
    x = grid(k)
    xa, fa, ca = x[:-1][active], f[:-1][active], c[:-1][active]
    xb, fb, cb = x[1:][active], f[1:][active], c[1:][active]
    cap = int(2.0 * math.log2(1.0 / _FLOOR)) + 7
    lo, hi = [], []
    for depth in range(cap + 1):  # value halving
        sign = sign_change(fa, fb)
        rise = cb - ca
        wanted = ca < top
        uncounted = sign & (rise == 0)
        on_node = np.isin(xb, xa[uncounted]) | np.isin(xa, xb[uncounted])
        unsigned = (rise == 1) & ~sign
        split = (wanted & ((rise >= 2) | (unsigned & ~on_node))
                 & (xb - xa > _FLOOR * np.maximum(1.0, np.maximum(np.abs(xa), np.abs(xb))))
                 & (depth < cap))
        done = sign & ~split & (wanted | (uncounted & np.isin(xa, xb[wanted & unsigned])))
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
    counted = int(top - c[0])
    if lo.size < counted:
        raise BracketShortfallError(
            counted, lo.size,
            f"the index counts {counted} roots in ({x[0]:.10g}, {x[-1]:.10g}], but only "
            f"{lo.size} show a sign change at the halving floor")
    order = np.argsort(lo)
    return list(zip(lo[order].tolist(), hi[order].tolist()))[:need], count


def illinois_vector(
    fvec: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    xtol: float = 1e-13,
    rtol: float = 1e-14,
    owners=None,
) -> np.ndarray:
    """Safeguarded regula falsi (Illinois weighting) on many brackets at once.

    Returns the midpoint of each final bracket, whose width is at most
    ``tol = xtol + rtol max(|lo|, |hi|)`` unless ``_MAXITER`` shots after
    the first leave it wider.  Both ends of every bracket are
    shot in one ``fvec`` call; after that each call carries only the open
    brackets, those still wider than ``tol``, so a converged bracket is
    never shot again and each root depends on its own bracket alone
    (bitwise for an ``fvec`` whose members do not depend on the family, to
    rounding for one that pads the problems it stacks).  With ``owners``,
    the problem of each bracket (an array), each call is ``fvec(x,
    owners=...)`` with the owner of each point: one call per round serves
    every problem with an open bracket.
    The secant point is kept ``tol / 2`` inside its bracket, Brent's
    minimum step: once an end sits on the root, the next point lands
    across it and closes the bracket, where regula falsi would creep.
    A non-finite secant falls back to the midpoint.  A bracket end where
    f is 0 is its root.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()

    def shoot(x, which):  # the brackets ``which`` at the points x
        return np.asarray(fvec(x) if owners is None else fvec(x, owners=owners[which]), float)

    f = shoot(np.concatenate((lo, hi)), np.tile(np.arange(lo.size), 2))
    flo, fhi = f[:lo.size].copy(), f[lo.size:].copy()
    bad = (flo != 0.0) & (fhi != 0.0) & ((flo < 0.0) == (fhi < 0.0))
    if np.any(bad):
        raise ValueError(f"bracket {np.nonzero(bad)[0][0]} does not straddle a sign change")
    hi = np.where(flo == 0.0, lo, hi)  # collapse onto an end where f is 0
    lo = np.where(fhi == 0.0, hi, lo)
    side = np.zeros(lo.shape, dtype=int)  # -1: last replaced lo, +1: last replaced hi
    for _ in range(_MAXITER):
        tol = xtol + rtol * np.maximum(np.abs(lo), np.abs(hi))
        live = np.nonzero(np.abs(hi - lo) > tol)[0]
        if not live.size:
            break
        a, b, fa, fb, half = lo[live], hi[live], flo[live], fhi[live], 0.5 * tol[live]
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            x = (a * fb - b * fa) / (fb - fa)
        x = np.where(np.isfinite(x), x, 0.5 * (a + b))
        x = np.clip(x, np.minimum(a, b) + half, np.maximum(a, b) - half)
        fx = shoot(x, live)
        replace_hi = (fx < 0.0) != (fa < 0.0)
        # Illinois: halve the retained endpoint's value on a repeated side
        s = side[live]
        fa = np.where(replace_hi & (s == 1), 0.5 * fa, fa)
        fb = np.where(~replace_hi & (s == -1), 0.5 * fb, fb)
        exact = fx == 0.0
        lo[live] = np.where(replace_hi & ~exact, a, x)
        hi[live] = np.where(replace_hi | exact, x, b)
        flo[live] = np.where(replace_hi, fa, fx)
        fhi[live] = np.where(replace_hi, fx, fb)
        side[live] = np.where(replace_hi, 1, -1)
    return 0.5 * (lo + hi)


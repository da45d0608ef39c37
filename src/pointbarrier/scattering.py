"""Plane-wave scattering through the squeezed barrier at zero background.

An incident wave e^{ikx} hits the barrier alpha eps^-2 profile(x/eps); the
reflection and transmission amplitudes follow from matching plane-wave data
across the barrier's fundamental matrix, in one closed form that uses its
unit determinant, so a strong barrier costs T no digits.  The propagation
runs in the rescaled variable xi = x/eps, where the coefficient
alpha*profile(xi) - (eps k)^2 stays bounded as eps -> 0, so accuracy is
uniform in the squeezing parameter.

Off the resonance set the transmission probability decays like eps^2; at a
resonant coupling it approaches the positive limit 4 theta^2 / (1 +
theta^2)^2 fixed by the coupling ratio theta, independently of the
wavenumber.  The barrier matrix is carried across every profile
segment: one exact constant-coefficient step over a constant segment, a
Magnus mesh over any other.

A sweep over ``(eps, k)`` at one alpha is one family propagation
(``scatter_sweep``), so a sweep pays per alpha, not per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericsError
from .ivp import FamilySegment, SolverConfig, propagate_family
from .profiles import Profile, Segment

__all__ = ["ScatteringResult", "scatter_sweep", "SCATTER_CONFIG"]

# scattering meshes the barrier at a tighter relative tolerance than the
# generic default, so that R and T agree with independent integrations to
# 1e-9; the flux defect is |T|^2 (det M - 1), at rounding level on the
# unimodular Magnus steps
SCATTER_CONFIG = SolverConfig(rel_tol=1e-12)


@dataclass(frozen=True)
class ScatteringResult:
    """Amplitudes of y = e^{ikx} + R e^{-ikx} (x < -eps), T e^{ikx} (x > eps).

    Flux conservation |R|^2 + |T|^2 = 1 holds up to integration error for
    any real barrier.
    """

    k: float
    eps: float
    alpha: float
    R: complex
    T: complex

    @property
    def transmission_probability(self) -> float:
        return abs(self.T) ** 2


def scatter_sweep(p: Profile, alpha: float, points: Sequence[tuple[float, float]],
                  cfg: SolverConfig | None = None) -> list[ScatteringResult]:
    """Reflection/transmission amplitudes at every ``(eps, k)`` of ``points``.

    The barrier matrices of all points come from one family ``alpha *
    profile - m`` with two members ``m = (eps k)^2`` per point.  A constant
    segment takes one exact step; any other is carried across a Magnus
    mesh that depends on the profile and ``alpha`` only.  A member's bits do
    not depend on the family that carries it, and the matching is
    elementwise, so each result equals its one-point sweep.

    Each column of a point's x-variable barrier matrix M carries its own log
    scale; with L the larger of the two, M = e^L Mh.  Let g_j be the
    Wronskian W(u, v) = u0 v1 - u1 v0 of (1, ik) with column j of Mh.
    Matching e^{ikx} + R e^{-ikx} at x = -eps to T e^{ikx} at x = eps then
    gives

        R = -e^{-2ik eps} (g0 + ik g1) / (g0 - ik g1),
        T = -2ik e^{-2ik eps} e^{-L} / (g0 - ik g1),

    where T uses det M = 1, exact for the true barrier, so it loses no
    digits to a strong barrier and underflows to 0 past a double's range.
    Amplitudes that are not finite raise ``NumericsError``.
    """
    eps, k = np.asarray(points, dtype=float).reshape(-1, 2).T
    if (k <= 0).any():
        raise ValueError("wavenumber k must be positive")
    if (eps <= 0).any():
        raise ValueError("eps must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        m = (eps * k) ** 2
    bad = ~np.isfinite(m)
    if bad.any():
        e, kk = points[int(np.argmax(bad))]
        raise ValueError(f"(eps k)^2 overflows at eps = {e!r}, k = {kk!r}")
    cfg = cfg or SCATTER_CONFIG
    segs = [
        FamilySegment(s.a, s.b, alpha * s.coeffs[0] if s.is_constant
                      else Segment(s.a, s.b, tuple(alpha * c for c in s.coeffs)), -1.0)
        for s in p.segments
    ]
    # members 2j and 2j + 1 carry the columns of point j's fundamental matrix
    res = propagate_family(segs, np.repeat(m, 2), np.tile(np.eye(2), m.size), cfg,
                           rescale=True)
    l0, l1 = res.logs[0::2], res.logs[1::2]
    L = np.maximum(l0, l1)
    # an overflow or a vanishing denominator surfaces as a non-finite amplitude
    with np.errstate(all="ignore"):
        a, c = res.states[:, 0::2] * np.exp(l0 - L)
        b, d = res.states[:, 1::2] * np.exp(l1 - L)
        ik = 1j * k
        g0, g1 = c / eps - ik * a, d - ik * eps * b
        phase = np.exp(-2.0 * ik * eps) / (g0 - ik * g1)
        R = -phase * (g0 + ik * g1)
        T = -2.0 * ik * phase * np.exp(-L)
        bad = ~(np.isfinite(R) & np.isfinite(T))
    if bad.any():
        e, kk = points[int(np.argmax(bad))]
        raise NumericsError(f"plane-wave matching is not finite at alpha = {alpha!r}, "
                            f"eps = {e!r}, k = {kk!r}")
    return [ScatteringResult(k=kk, eps=e, alpha=alpha, R=complex(r), T=complex(t))
            for (e, kk), r, t in zip(points, R, T)]

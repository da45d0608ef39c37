"""Plane-wave scattering through the squeezed barrier at zero background.

An incident wave e^{ikx} hits the barrier alpha eps^-2 profile(x/eps); the
reflection and transmission amplitudes follow from matching plane-wave data
across the barrier's fundamental matrix.  The computation runs in the
rescaled variable xi = x/eps, where the coefficient alpha*profile(xi) -
(eps k)^2 stays bounded as eps -> 0, so accuracy is uniform in the
squeezing parameter.

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

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericsError
from .ivp import FamilySegment, SolverConfig, propagate_family, unit_wronskian
from .profiles import Profile, Segment

__all__ = ["ScatteringResult", "scatter_sweep", "SCATTER_CONFIG"]

# scattering meshes the barrier at a tighter relative tolerance than the
# generic default, so that R and T agree with independent integrations to
# 1e-9 (unit_wronskian keeps the flux defect at rounding level)
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
    def reflection_probability(self) -> float:
        return abs(self.R) ** 2

    @property
    def transmission_probability(self) -> float:
        return abs(self.T) ** 2


def _match_plane_waves(M: np.ndarray, eps: float, k: float, alpha: float) -> ScatteringResult:
    """Solve the 2x2 system matching plane waves through the barrier matrix.

    ``M`` carries (y, y') from x = -eps to x = +eps.
    """
    phase_m = cmath.exp(-1j * k * eps)
    phase_p = cmath.exp(1j * k * eps)
    ik = 1j * k
    incident = M @ np.array([phase_m, ik * phase_m])
    reflected = M @ np.array([phase_p, -ik * phase_p])
    outgoing = np.array([phase_p, ik * phase_p])
    # incident + R * reflected = T * outgoing
    A = np.array([[reflected[0], -outgoing[0]], [reflected[1], -outgoing[1]]])
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    scale = max(abs(reflected[0]) + abs(outgoing[0]), abs(reflected[1]) + abs(outgoing[1]))
    if abs(det) <= 1e-14 * scale * scale:
        raise NumericsError("degenerate plane-wave matching system")
    rhs = -incident
    R = (rhs[0] * A[1, 1] - A[0, 1] * rhs[1]) / det
    T = (A[0, 0] * rhs[1] - rhs[0] * A[1, 0]) / det
    return ScatteringResult(k=k, eps=eps, alpha=alpha, R=complex(R), T=complex(T))


def _barrier_matrix_x(M_xi: np.ndarray, eps: float) -> np.ndarray:
    """Convert the rescaled-variable fundamental matrix to the x variable.

    With w(xi) = y(eps xi) one has w' = eps y', so (w, w') = S (y, y') with
    S = diag(1, eps) and the x-variable matrix is S^-1 M_xi S.
    """
    return np.array(
        [
            [M_xi[0, 0], M_xi[0, 1] * eps],
            [M_xi[1, 0] / eps, M_xi[1, 1]],
        ]
    )


def scatter_sweep(p: Profile, alpha: float, points: Sequence[tuple[float, float]],
                  cfg: SolverConfig | None = None) -> list[ScatteringResult]:
    """Reflection/transmission amplitudes at every ``(eps, k)`` of ``points``.

    The barrier matrices of all points come from one family ``alpha *
    profile - m`` with two members ``m = (eps k)^2`` per point.  A constant
    segment takes one exact step; any other is carried across a Magnus
    mesh that depends on the profile and ``alpha`` only.  A member's bits do
    not depend on the family that carries it, so each result equals its
    one-point sweep.  A barrier matrix that is not finite, or whose
    determinant is not positive, raises ``NumericsError``.
    """
    ms = []
    for eps, k in points:
        if k <= 0:
            raise ValueError("wavenumber k must be positive")
        if eps <= 0:
            raise ValueError("eps must be positive")
        try:
            m = (eps * k) ** 2
        except OverflowError:
            m = math.inf
        if not math.isfinite(m):
            raise ValueError(f"(eps k)^2 overflows at eps = {eps!r}, k = {k!r}")
        ms.append(m)
    cfg = cfg or SCATTER_CONFIG
    segs = [
        FamilySegment(s.a, s.b, alpha * s.coeffs[0] if s.is_constant
                      else Segment(s.a, s.b, tuple(alpha * c for c in s.coeffs)), -1.0)
        for s in p.segments
    ]
    results = []
    # an overflow surfaces as a non-finite matrix or a degenerate match, both rejected
    with np.errstate(over="ignore", invalid="ignore"):
        # members 2j and 2j + 1 carry the columns of point j's fundamental matrix
        res = propagate_family(segs, np.repeat(ms, 2), np.tile(np.eye(2), len(ms)), cfg)
        for j, (eps, k) in enumerate(points):
            # the true barrier matrix is unimodular; projecting out the tiny
            # integration drift makes flux conservation structurally exact
            M = _barrier_matrix_x(unit_wronskian(res.states[:, 2 * j:2 * j + 2]), eps)
            if not np.isfinite(M).all():
                raise NumericsError(f"barrier matrix overflows at alpha = {alpha!r}, "
                                    f"eps = {eps!r}, k = {k!r}")
            results.append(_match_plane_waves(M, eps, k, alpha))
    return results


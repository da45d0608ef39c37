"""Shared fixtures: profiles, potentials, and independent oracle values.

The transcendental constants (resonant couplings of the step profile) are
recomputed here by plain bisection on tanh(k) - tan(k), independently of
the library's scan machinery, and frozen for the whole session.  Family
propagations are checked against scipy's DOP853 integrator, and eigenvalues
against a tridiagonal finite-difference diagonalization.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal

from pointbarrier import profiles
from pointbarrier.ivp import SolverConfig
from pointbarrier.spectra import polynomial_potential


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


@pytest.fixture(scope="session")
def step():
    return profiles.builtin("step", {})


@pytest.fixture(scope="session")
def odd_cubic():
    return profiles.builtin("odd_cubic", {})


@pytest.fixture(scope="session")
def bump():
    return profiles.builtin("asymmetric_bump", {})


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

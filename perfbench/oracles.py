"""Independent reference values for the benchmark's correctness checks.

Nothing here imports ``pointbarrier``: every closed form is written out
again from the mathematics, so a defect in the library cannot hide behind
an oracle that shares its code.
"""

from __future__ import annotations

import math

import numpy as np

# Profiles as piecewise polynomials on [-1, 1]: (a, b, ascending coefficients).
STEP_SEGMENTS = ((-1.0, 0.0, (1.0,)), (0.0, 1.0, (-1.0,)))
BUMP_SEGMENTS = (
    (-1.0, 0.0, (0.0, -8.0, -8.0)),  # -8 xi (1 + xi)
    (0.0, 0.5, (0.0, -32.0, 64.0)),  # -64 xi (1/2 - xi)
    (0.5, 1.0, (0.0,)),
)


def bisect(f, a: float, b: float, iters: int = 200) -> float:
    """Plain bisection on a sign-change bracket."""
    fa = f(a)
    if (fa < 0.0) == (f(b) < 0.0):
        raise ValueError("bracket does not straddle a sign change")
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = f(m)
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def step_kappas(alpha_max: float) -> list[float]:
    """Positive roots kappa of tanh(k) = tan(k) with kappa^2 <= alpha_max.

    The n-th root lies in (n pi, n pi + pi/2), where tan k - tanh k runs
    from below zero to a pole; the step profile resonates at +-kappa^2.
    """
    g = lambda k: math.tanh(k) - math.tan(k)
    out = []
    n = 1
    while (n * math.pi) ** 2 <= alpha_max:
        k = bisect(g, n * math.pi + 0.2, n * math.pi + 0.5 * math.pi - 0.2)
        if k * k <= alpha_max:
            out.append(k)
        n += 1
    return out


def step_theta(alpha: float) -> float:
    """Coupling ratio w(1)/w(-1) of the step profile at a resonance."""
    if alpha == 0.0:
        return 1.0
    s = math.sqrt(abs(alpha))
    if alpha > 0.0:
        return math.cosh(s) / math.cos(s)
    return math.cos(s) / math.cosh(s)


def hermite_functions(x: np.ndarray, count: int) -> np.ndarray:
    """L2-normalized eigenfunctions of -v'' + x^2 v (eigenvalues 2k + 1),
    by the stable three-term recurrence."""
    out = np.empty((count, x.size))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if count > 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(1, count - 1):
        out[k + 1] = math.sqrt(2.0 / (k + 1)) * x * out[k] - math.sqrt(k / (k + 1)) * out[k - 1]
    return out


def l2_distance_unsigned(x: np.ndarray, f: np.ndarray, g: np.ndarray) -> float:
    """L2 distance between f and +-g, whichever sign is closer."""
    if float(np.trapezoid(f * g, x)) < 0.0:
        g = -g
    return math.sqrt(float(np.trapezoid((f - g) ** 2, x)))


def _constant_matrix(c: float, length: float) -> np.ndarray:
    """Transfer matrix of w'' = c w over ``length``."""
    if c > 0.0:
        s = math.sqrt(c)
        return np.array([[math.cosh(s * length), math.sinh(s * length) / s],
                         [s * math.sinh(s * length), math.cosh(s * length)]])
    if c < 0.0:
        s = math.sqrt(-c)
        return np.array([[math.cos(s * length), math.sin(s * length) / s],
                         [-s * math.sin(s * length), math.cos(s * length)]])
    return np.array([[1.0, length], [0.0, 1.0]])


def _numeric_matrix(segments, alpha: float, tau2: float) -> np.ndarray:
    """Transfer matrix of w'' = (alpha p(xi) - tau2) w over [-1, 1] by DOP853."""
    from scipy.integrate import solve_ivp  # kept out of the benchmark's peak memory

    M = np.eye(2)
    for a, b, coeffs in segments:
        if len(coeffs) == 1:
            M = _constant_matrix(alpha * coeffs[0] - tau2, b - a) @ M
            continue
        poly = np.polynomial.Polynomial(coeffs)

        def rhs(xi, y, _poly=poly):
            q = alpha * _poly(xi) - tau2
            return [y[1], q * y[0], y[3], q * y[2]]

        sol = solve_ivp(rhs, (a, b), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                        rtol=1e-13, atol=1e-15)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        y = sol.y[:, -1]
        M = np.array([[y[0], y[2]], [y[1], y[3]]]) @ M
    return M


def scatter_amplitudes(segments, alpha: float, eps: float, k: float) -> tuple[complex, complex]:
    """(R, T) of y = e^{ikx} + R e^{-ikx} left of the barrier, T e^{ikx} right
    of it, for the potential (alpha / eps^2) p(x / eps) on [-eps, eps]."""
    tau2 = (eps * k) ** 2
    M_xi = _numeric_matrix(segments, alpha, tau2)
    # (w, w') in xi = x / eps relates to (y, y') by w' = eps y'
    M = np.array([[M_xi[0, 0], eps * M_xi[0, 1]], [M_xi[1, 0] / eps, M_xi[1, 1]]])
    em, ep = np.exp(-1j * k * eps), np.exp(1j * k * eps)
    # M (em + R ep, ik (em - R ep)) = T (ep, ik ep)
    A = np.array([[M[0, 0] * ep - M[0, 1] * 1j * k * ep, -ep],
                  [M[1, 0] * ep - M[1, 1] * 1j * k * ep, -1j * k * ep]])
    rhs = -np.array([M[0, 0] * em + M[0, 1] * 1j * k * em,
                     M[1, 0] * em + M[1, 1] * 1j * k * em])
    R, T = np.linalg.solve(A, rhs)
    return complex(R), complex(T)

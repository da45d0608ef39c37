"""Desk-scale studies: eigenvalue convergence, diving levels, and the
coupling-ratio magnitude scan.

These drive the solver modules across squeezing ladders and parameter
windows and summarize the outcomes in plain report records that the CLI
serializes to JSON/CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, PreconditionError
from .ivp import DEFAULT_CONFIG, SolverConfig
from .parallel import pmap
from .profiles import Profile, Segment, is_dipole_normalized
from .resonance import (
    DEFAULT_RESIDUAL_TOL,
    ResonancePoint,
    resonance_scan,
    scaled_residual,
    shoot,
)
from .spectra import (
    DEFAULT_EIG_TOL,
    ConfiningPotential,
    DirichletSplit,
    ThetaCoupled,
    diving_count,
    eigen_limit,
    eigen_perturbed,
    interval_negative_levels,
)

__all__ = [
    "ConvergenceReport",
    "ConvergenceRow",
    "DivingReport",
    "HypothesisReport",
    "HypothesisRow",
    "convergence_study",
    "diving_study",
    "hypothesis_scan",
    "probability_ratio",
    "even_counterexample_profile",
]


# -- convergence of the bounded spectrum ----------------------------------------

@dataclass
class ConvergenceRow:
    """Ladder data for one bounded level aligned with a limit level."""

    k: int
    lam_limit: float
    lam_eps: list[float]
    errors: list[float]
    l2_distances: list[float]
    fitted_order: float
    fitted_constant: float
    exact: bool

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "lam_limit": self.lam_limit,
            "lam_eps": list(self.lam_eps),
            "errors": list(self.errors),
            "l2_distances": list(self.l2_distances),
            "fitted_order": self.fitted_order,
            "fitted_constant": self.fitted_constant,
            "exact": self.exact,
        }


@dataclass
class ConvergenceReport:
    """Outcome of one squeezing-ladder study.

    ``diving_counts`` lists the number of diving levels the Sturm index
    counts at each ladder entry; the count must be non-decreasing as eps
    shrinks and stable at the bottom of the ladder for the index alignment
    to make sense.
    """

    alpha: float
    resonant: bool
    theta: float | None
    eps_ladder: list[float]
    diving_counts: list[int]
    rows: list[ConvergenceRow] = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "resonant": self.resonant,
            "theta": self.theta,
            "eps_ladder": list(self.eps_ladder),
            "diving_counts": list(self.diving_counts),
            "rows": [r.to_dict() for r in self.rows],
            "verdicts": dict(self.verdicts),
        }


def _l2_distance(x: np.ndarray, f: np.ndarray, g: np.ndarray) -> float:
    """L2 distance after sign alignment (eigenfunctions carry no sign)."""
    if float(np.trapezoid(f * g, x)) < 0.0:
        g = -g
    return math.sqrt(float(np.trapezoid((f - g) ** 2, x)))


def convergence_study(
    U: ConfiningPotential,
    p: Profile,
    alpha: float,
    eps_ladder,
    k_count: int,
    cfg: SolverConfig | None = None,
    *,
    eig_tol: float = DEFAULT_EIG_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    order_threshold: float = 0.8,
    samples_per_unit: int = 2001,
) -> ConvergenceReport:
    """Track the lowest ``k_count`` bounded levels down a squeezing ladder.

    The limit operator is chosen by resonance membership of ``alpha``
    (coupled interface at a resonance, decoupled Dirichlet halves
    otherwise).  For every ladder entry the Sturm index counts the
    perturbed levels below the bounded window (``diving_count``); only the
    ``k_count`` levels above them are located, with their eigenfunctions,
    and matched in order against the limit levels inside a trust window of
    half the local limit gap.  The per-level convergence order is fitted by
    least squares on the smallest four ladder entries.
    """
    cfg = cfg or DEFAULT_CONFIG
    eps_ladder = [float(e) for e in eps_ladder]
    if len(eps_ladder) < 4:
        raise PreconditionError("the squeezing ladder needs at least 4 entries")
    if any(b >= a for a, b in zip(eps_ladder, eps_ladder[1:])):
        raise PreconditionError("the squeezing ladder must be strictly descending")

    # hypothesis of the order-eps convergence: the half-line spectra are
    # disjoint, otherwise the limit has double levels and the alignment is
    # ill-posed
    probe = eigen_limit(U, DirichletSplit(), k_count + 2, cfg, eig_tol, eigenfunctions=False)
    gaps = np.diff(probe.eigenvalues)
    if np.any(gaps <= 10.0 * eig_tol):
        worst = float(np.min(gaps))
        raise PreconditionError(
            "half-line spectra are not disjoint at the resolved scale "
            f"(minimal gap {worst:.3e}); the order-eps alignment is ill-posed"
        )

    w1, dw1 = shoot(p, alpha, cfg)
    resonant = alpha == 0.0 or scaled_residual(p, alpha, w1, dw1) <= residual_tol
    theta = (1.0 if alpha == 0.0 else w1) if resonant else None
    bc = ThetaCoupled(theta) if resonant else DirichletSplit()
    limit = eigen_limit(
        U, bc, k_count, cfg, eig_tol, eigenfunctions=True, samples_per_unit=samples_per_unit
    )
    limit_gap = float(np.min(np.diff(limit.eigenvalues))) if k_count > 1 else 2.0

    def ladder_entry(eps: float):
        n_dive = diving_count(U, p, alpha, eps, cfg)
        spec = eigen_perturbed(
            U, p, alpha, eps, (n_dive + 1, n_dive + k_count), cfg, eig_tol,
            eigenfunctions=True, samples_per_unit=samples_per_unit,
        )
        if not np.array_equal(spec.x, limit.x):
            raise AlignmentError("perturbed and limit eigenfunction grids differ")
        lam_row = []
        dist_row = []
        for k in range(k_count):
            lam = float(spec.eigenvalues[k])
            ref = float(limit.eigenvalues[k])
            if abs(lam - ref) > 0.45 * limit_gap + 2.0 * eps * max(1.0, abs(ref)):
                raise AlignmentError(
                    f"perturbed level {lam:.6g} at eps={eps} has no limit level "
                    f"within the trust window of {ref:.6g}"
                )
            lam_row.append(lam)
            dist_row.append(
                _l2_distance(spec.x, spec.eigenfunctions[k], limit.eigenfunctions[k])
            )
        return n_dive, lam_row, dist_row

    entries = pmap(ladder_entry, eps_ladder)
    diving_counts = [e[0] for e in entries]
    lam_table = [e[1] for e in entries]
    dist_table = [e[2] for e in entries]

    if any(b < a for a, b in zip(diving_counts, diving_counts[1:])):
        raise AlignmentError(f"diving count decreased along the ladder: {diving_counts}")
    if len(diving_counts) >= 2 and diving_counts[-1] != diving_counts[-2]:
        raise AlignmentError(
            f"diving count did not stabilize before the smallest eps: {diving_counts}"
        )

    report = ConvergenceReport(
        alpha=alpha,
        resonant=resonant,
        theta=theta,
        eps_ladder=eps_ladder,
        diving_counts=diving_counts,
    )
    orders_ok = True
    monotone_ok = True
    for k in range(k_count):
        lam_eps = [row[k] for row in lam_table]
        dists = [row[k] for row in dist_table]
        errors = [abs(lam - limit.eigenvalues[k]) for lam in lam_eps]
        exact = all(e <= 10.0 * eig_tol for e in errors)
        if exact:
            order, const = math.nan, math.nan
        else:
            xs = np.log(eps_ladder[-4:])
            ys = np.log([max(e, 1e-300) for e in errors[-4:]])
            order, logc = np.polyfit(xs, ys, 1)
            const = math.exp(logc)
            orders_ok &= order >= order_threshold
        if any(d2 > d1 for d1, d2 in zip(dists, dists[1:])):
            monotone_ok = False
        report.rows.append(
            ConvergenceRow(
                k=k + 1,
                lam_limit=float(limit.eigenvalues[k]),
                lam_eps=lam_eps,
                errors=errors,
                l2_distances=dists,
                fitted_order=float(order),
                fitted_constant=float(const),
                exact=exact,
            )
        )
    report.verdicts = {
        "all_exact": all(r.exact for r in report.rows),
        "orders_ok": bool(orders_ok),
        "l2_monotone": bool(monotone_ok),
        "order_threshold": order_threshold,
    }
    return report


# -- diving levels ----------------------------------------------------------------

@dataclass
class DivingReport:
    """eps^-2 blow-up of the lowest level against the unsqueezed ground level."""

    alpha: float
    mu_oracle: float
    rows: list[tuple[float, float, float]]  # (eps, lam1, eps^2 lam1)

    @property
    def final_relative_error(self) -> float:
        return abs(self.rows[-1][2] - self.mu_oracle) / abs(self.mu_oracle)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "mu_oracle": self.mu_oracle,
            "rows": [list(r) for r in self.rows],
            "final_relative_error": self.final_relative_error,
        }


def diving_study(
    p: Profile,
    alpha: float,
    eps_ladder,
    cfg: SolverConfig | None = None,
    *,
    domain: tuple[float, float] = (-2.0, 2.0),
    oracle_halfwidth: float = 30.0,
    moment_tol: float = 1e-10,
) -> DivingReport:
    """Follow the lowest level of the squeezed barrier down a ladder.

    Requires a unit-dipole profile (zero mean, first moment -1) and a
    nonzero coupling; the lowest level then dives like eps^-2 and
    eps^2 lam_1 approaches the ground level of the unsqueezed operator on
    a wide interval (the oracle).
    """
    if alpha == 0.0:
        raise PreconditionError("the diving study needs a nonzero coupling")
    if not is_dipole_normalized(p, moment_tol):
        raise PreconditionError(
            f"profile {p.label!r} is not in the unit-dipole class (m0=0, m1=-1)"
        )
    cfg = cfg or DEFAULT_CONFIG
    S = oracle_halfwidth
    oracle = interval_negative_levels(-S, S, p, alpha, 1.0, cfg)
    if oracle.size == 0:
        raise PreconditionError(
            "no negative level found for the unsqueezed profile operator; "
            "the diving study does not apply"
        )
    mu = float(oracle[0])
    a, b = domain
    rows = []
    for eps in eps_ladder:
        negs = interval_negative_levels(a, b, p, alpha, float(eps), cfg)
        if negs.size == 0:
            raise PreconditionError(f"no diving level found at eps={eps}")
        lam1 = float(negs[0])
        rows.append((float(eps), lam1, eps * eps * lam1))
    return DivingReport(alpha=alpha, mu_oracle=mu, rows=rows)


# -- coupling-ratio magnitude scan --------------------------------------------------

@dataclass
class HypothesisRow:
    alpha: float
    theta: float
    abs_theta: float
    side: str  # '+', '-', or '0'
    satisfies: bool

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "theta": self.theta,
            "abs_theta": self.abs_theta,
            "side": self.side,
            "satisfies": self.satisfies,
        }


@dataclass
class HypothesisReport:
    """Magnitude pattern of the coupling ratio over the resonance set.

    For unit-dipole profiles the conjectured pattern is |theta| > 1 on the
    positive side and |theta| < 1 on the negative side; an even profile is
    the counterexample class with |theta| = 1 at every resonance, recorded
    under ``even_check``.
    """

    window: tuple[float, float]
    per_profile: dict[str, list[HypothesisRow]]
    trends: dict[str, dict]
    even_check: dict

    def to_dict(self) -> dict:
        return {
            "window": list(self.window),
            "per_profile": {
                lbl: [r.to_dict() for r in rows] for lbl, rows in self.per_profile.items()
            },
            "trends": self.trends,
            "even_check": self.even_check,
        }


def even_counterexample_profile() -> Profile:
    """Sign-changing even profile (both moments vanish but it is not a
    dipole profile): 1 - 3 xi^2 on [-1, 1]."""
    return Profile((Segment(-1.0, 1.0, (1.0, 0.0, -3.0)),), label="even_quadratic")


def hypothesis_scan(
    profile_list: list[Profile],
    alpha_window: tuple[float, float],
    cfg: SolverConfig | None = None,
    *,
    scan_step: float = 0.1,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    moment_tol: float = 1e-10,
    even_window: tuple[float, float] = (-30.0, 30.0),
    even_scan_step: float = 0.2,
) -> HypothesisReport:
    """Scan the resonance sets of unit-dipole profiles and record whether
    |theta| sits above 1 on the positive side and below 1 on the negative
    side; violations are data, not errors.  One even profile is scanned as
    the counterexample where |theta| = 1 identically."""
    for p in profile_list:
        if not is_dipole_normalized(p, moment_tol):
            raise PreconditionError(
                f"profile {p.label!r} is not in the unit-dipole class (m0=0, m1=-1)"
            )
    cfg = cfg or DEFAULT_CONFIG
    lo, hi = alpha_window
    per_profile: dict[str, list[HypothesisRow]] = {}
    trends: dict[str, dict] = {}
    scans = pmap(
        lambda p: [pt for pt in resonance_scan(p, lo, hi, scan_step, cfg, residual_tol)
                   if not pt.flagged],
        profile_list,
    )
    for p, pts in zip(profile_list, scans):
        rows = [_hypothesis_row(pt) for pt in pts]
        per_profile[p.label] = rows
        pos = [r.abs_theta for r in rows if r.side == "+"]
        neg = [r.abs_theta for r in rows if r.side == "-"]
        trends[p.label] = {
            "n_positive": len(pos),
            "n_negative": len(neg),
            "min_abs_theta_positive": min(pos) if pos else None,
            "max_abs_theta_negative": max(neg) if neg else None,
            "positive_increasing": bool(all(a < b for a, b in zip(pos, pos[1:]))),
            "negative_decreasing": bool(all(a < b for a, b in zip(neg, neg[1:]))),
            "all_satisfied": bool(all(r.satisfies for r in rows)),
        }

    even = even_counterexample_profile()
    ev_lo, ev_hi = even_window
    even_pts = [
        pt
        for pt in resonance_scan(even, ev_lo, ev_hi, even_scan_step, cfg, residual_tol)
        if not pt.flagged
    ]
    even_rows = [_hypothesis_row(pt) for pt in even_pts]
    even_dev = max((abs(r.abs_theta - 1.0) for r in even_rows), default=0.0)
    return HypothesisReport(
        window=(lo, hi),
        per_profile=per_profile,
        trends=trends,
        even_check={
            "label": even.label,
            "rows": [r.to_dict() for r in even_rows],
            "max_abs_theta_deviation_from_1": even_dev,
        },
    )


def _hypothesis_row(pt: ResonancePoint) -> HypothesisRow:
    a = pt.alpha
    side = "0" if a == 0.0 else ("+" if a > 0 else "-")
    if side == "+":
        ok = abs(pt.theta) > 1.0
    elif side == "-":
        ok = abs(pt.theta) < 1.0
    else:
        ok = abs(pt.theta - 1.0) <= 1e-8
    return HypothesisRow(
        alpha=a, theta=pt.theta, abs_theta=abs(pt.theta), side=side, satisfies=ok
    )


def probability_ratio(x: np.ndarray, v: np.ndarray, r: float) -> float:
    """Ratio of the probability masses of v^2 on (0, r) and (-r, 0).

    At a resonant coupling this tends to theta^2 as r -> 0 (the marginal
    density drop across the interface).  The eigenfunction jumps at 0, so
    the sample sitting on the interface is ignored and each side's
    boundary value is reconstructed from its own interior samples.
    """
    tiny = 1e-12
    mr = (x > tiny) & (x <= r)
    ml = (x >= -r) & (x < -tiny)
    xr, vr = x[mr], v[mr]
    xl, vl = x[ml], v[ml]
    if len(xr) < 2 or len(xl) < 2:
        raise ValueError("need at least two samples strictly inside each side")
    v0r = vr[0] - (vr[1] - vr[0]) / (xr[1] - xr[0]) * xr[0]
    v0l = vl[-1] - (vl[-2] - vl[-1]) / (xl[-2] - xl[-1]) * xl[-1]
    num = float(np.trapezoid(np.r_[v0r, vr] ** 2, np.r_[0.0, xr]))
    den = float(np.trapezoid(np.r_[vl, v0l] ** 2, np.r_[xl, 0.0]))
    if den == 0.0:
        raise ValueError("no probability mass on the left of the interface")
    return num / den

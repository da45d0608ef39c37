"""Command-line front end: parse a run configuration, dispatch to the
solver modules, and write CSV/JSON outputs plus a manifest.

Every run writes ``manifest.json`` recording the argument vector, the
subcommand, the full parameter set, the tool version and the wall time;
``rerun`` replays the argument vector of a manifest.  CSV payloads write
floats as ``%.17e`` (18 significant digits) and contain nothing
run-dependent, so identical configurations produce byte-identical files.
A numpy kernel gives the bytes of ``'%.17e' % x`` for a float column
(``_float_field``); ``%`` formats only what it leaves out and the floats
of mixed columns.  Rows are laid out and written as byte blocks.

Exit status: 0 on success, 2 for configuration errors, 3 for numerical
failures, 4 for violated preconditions (e.g. a profile outside the
unit-dipole class where one is required).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericsError, PointBarrierError, PreconditionError, ProfileFormatError
from .ivp import DEFAULT_CONFIG, SolverConfig
from .parallel import pmap
from .profiles import DEFAULT_MOMENT_TOL, Profile, builtin, classify, load as load_profile
from .resonance import (
    DEFAULT_RESIDUAL_TOL,
    DEFAULT_SCAN_STEP,
    _point,
    coupling_theta,
    eigenfunction,
    resonance_scan,
)
from .scattering import SCATTER_CONFIG, scatter_sweep
from .spectra import (
    DEFAULT_EIG_TOL,
    SAMPLES_PER_UNIT,
    ConnectedMatrix,
    ConfiningPotential,
    DirichletSplit,
    Separated,
    ThetaCoupled,
    eigen_limit,
    eigen_perturbed,
    interval_limit_frequencies,
    interval_spectrum,
    polynomial_potential,
    split_limit_frequencies,
)
from .experiments import (
    convergence_study,
    diving_study,
    even_counterexample_profile,
    hypothesis_scan,
)

SCHEMA_VERSION = 2  # the manifest records the ``argv`` that ``rerun`` replays

_TOLERANCES = {  # each tolerance option and the library default it mirrors
    "--rel-tol": DEFAULT_CONFIG.rel_tol,
    "--residual-tol": DEFAULT_RESIDUAL_TOL,
    "--eig-tol": DEFAULT_EIG_TOL,
    "--moment-tol": DEFAULT_MOMENT_TOL,
}


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument errors become ``ConfigError`` (exit 2, one line) instead of
    a usage dump, and every negative float (``-1e-05`` too) or comma list
    of floats that starts with one (``-3,1``) reads as a value, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        number = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"
        self._negative_number_matcher = re.compile(rf"^-{number}(,[-+]?{number})*$")

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


# -- CSV payloads ---------------------------------------------------------------

_FLOAT = "%.17e"
_FLOATS = (float, np.floating)
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter of a 53-bit significand
_E_LO, _E_HI = -291, 291  # decimal exponents of the kernel's |x| in [1e-290, 1e290]
_TABLES = {}  # per decimal exponent, built on first use by _tables
_ROWS = 4096  # rows per numpy pass: its temporaries stay small and in cache


def _tables() -> dict:
    """Per decimal exponent E = _E_LO.._E_HI, from Python ints: 10**(17 -
    E) = hi + lo as a double-double (int true division rounds correctly),
    the Veltkamp halves of hi, and the exponent as ``%.17e`` writes it."""
    if not _TABLES:
        rows, exps = [], [b"%+03d" % E for E in range(_E_LO, _E_HI + 1)]
        for E in range(_E_LO, _E_HI + 1):
            P, Q = (10**(17 - E), 1) if E <= 17 else (1, 10**(E - 17))
            num, den = (P / Q).as_integer_ratio()
            rows.append((P / Q, (P * den - num * Q) / (Q * den)))
        hi, lo = np.array(rows).T
        m, e = np.frexp(hi)  # split the significand: hi * _SPLIT may overflow
        head = np.ldexp(m * _SPLIT - (m * _SPLIT - m), e)
        _TABLES.update(hi=hi, lo=lo, head=head, tail=hi - head,
                       exp=np.array(exps, "S4").view(np.uint8).reshape(-1, 4))
    return _TABLES


def _scaled(a, E):
    """(D, step, unsure): D = a 10**(17 - E) rounded half to even; step = +-1
    where E must move for a 10**(17 - E) to lie in [10**17, 10**18); unsure
    where 10**(17 - E) is no double, so that the product errs (by < 1e-12),
    and it lies within 1e-9 of a half.  Else the product is exact (Dekker,
    Numer. Math. 18 (1971) 224-242), ties too."""
    t, i = _tables(), E - _E_LO
    hi, lo, hi_head, hi_tail = t["hi"][i], t["lo"][i], t["head"][i], t["tail"][i]
    c = a * _SPLIT
    head = c - (c - a)
    tail = a - head
    p = a * hi
    s = ((((head * hi_head - p) + head * hi_tail) + tail * hi_head) + tail * hi_tail) + a * lo
    below = np.floor(s)
    frac = s - below
    base = np.minimum(p, 2e18).astype(np.int64) + below.astype(np.int64)
    D = base + ((frac > 0.5) | ((frac == 0.5) & (base % 2 == 1)))
    step = (base >= 10**18).astype(np.int64) - (base < 10**17)
    return D, step, (lo != 0.0) & (np.abs(frac - 0.5) < 1e-9)


def _float_field(values):
    """The field (cells, start, stop) of the bytes of ``'%.17e' % x`` for
    each x of ``values``, formatted ``_ROWS`` at a time by ``_format``."""
    x = np.asarray(values, dtype=np.float64)
    cells = np.empty((25, x.size), np.uint8)
    start, stop = np.empty(x.size, np.uint8), np.empty(x.size, np.uint8)
    for lo in range(0, x.size, _ROWS):
        rows = slice(lo, lo + _ROWS)
        _format(x[rows], cells[:, rows], start[rows], stop[rows])
    return cells.T, start, stop


def _format(x, cells, start, stop) -> None:
    """Write ``'%.17e' % x`` for each x by position into ``cells`` (sign,
    digit, '.', 17 digits, 'e' and the exponent), from ``start`` to
    ``stop``.  ``%`` formats only the cells outside |x| in [1e-290, 1e290]
    but zeros (subnormal, huge or not finite: the split of x or the table
    would overflow) and the unsure ones."""
    a = np.abs(x)
    kernel, zero = (a >= 1e-290) & (a <= 1e290), a == 0.0
    a = np.where(kernel, a, 1.0)  # a zero reads as 1.0 until its digits are zeroed
    E = np.floor(np.log10(a)).astype(np.int64)
    D, step, unsure = _scaled(a, E)
    moved = np.flatnonzero(step)  # floor(log10) may be one off
    E[moved] += step[moved]
    D[moved], step[moved], unsure[moved] = _scaled(a[moved], E[moved])
    up = D == 10**18  # rounded up to the next power of ten
    D[up], E[up], D[zero] = 10**17, E[up] + 1, 0
    for pos in range(19, 2, -1):  # one int64 division by a scalar per digit
        q = D // 10
        cells[pos] = D - 10 * q + ord("0")
        D = q
    cells[1] = D + ord("0")
    cells[[0, 2, 20]] = np.frombuffer(b"-.e", np.uint8)[:, None]
    cells[21:] = _tables()["exp"][E - _E_LO].T
    start[:], stop[:] = ~np.signbit(x), 24 + (np.abs(E) >= 100)
    for i in np.flatnonzero(~(kernel | zero) | unsure | (step != 0)):
        text = (_FLOAT % x[i]).encode()
        cells[:len(text), i] = np.frombuffer(text, np.uint8)
        start[i], stop[i] = 0, len(text)


def _text(cell) -> str:
    """One cell of a column that is not all floats: a float as ``%.17e``,
    anything else as ``str`` quoted as csv.QUOTE_MINIMAL does (a comma, a
    quote, CR or LF: a flag such as left,degenerate, or a profile label)."""
    if isinstance(cell, _FLOATS):
        return _FLOAT % cell
    text = str(cell)
    if any(ch in text for ch in ',"\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _text_field(cells):
    """The field of a column that is not all floats, cell by cell."""
    encoded = [_text(cell).encode() for cell in cells]
    stop = np.array([len(b) for b in encoded], dtype=np.int64)
    width = max(int(stop.max(initial=0)), 1)
    return (np.array(encoded, f"S{width}").view(np.uint8).reshape(-1, width),
            np.zeros_like(stop), stop)


def _write_fields(path: Path, header: list[str], fields) -> None:
    """Write one (cells, start, stop) field per ``header`` name, ``_ROWS``
    rows at a time: row i holds ``cells[i, start[i]:stop[i]]`` of each,
    joined by ',', the padding dropped by position."""
    width = sum(cells.shape[1] + 1 for cells, _, _ in fields)
    with open(path, "w") as fh:  # text mode: every write is a str
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(fields[0][1]) if fields else 0, _ROWS):
            part = [(cells[lo:lo + _ROWS], start[lo:lo + _ROWS], stop[lo:lo + _ROWS])
                    for cells, start, stop in fields]
            block = np.empty((len(part[0][1]), width), np.uint8)
            keep = np.ones(block.shape, bool)
            at = 0
            for cells, start, stop in part:
                block[:, at:at + cells.shape[1]], block[:, at + cells.shape[1]] = cells, ord(",")
                # padding lies only before the latest start and from the earliest stop
                for j in [*range(start.max()), *range(stop.min(), cells.shape[1])]:
                    keep[:, at + j] = (start <= j) & (j < stop)
                at += cells.shape[1] + 1
            block[:, -1] = ord("\n")
            fh.write(str(block[keep].data, "utf-8"))


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write ``columns``, one sequence of cells per ``header`` name, all of
    one length; a table of no rows may give no columns.  Its columns of
    floats are formatted together, by one ``_float_field``."""
    columns = list(columns)
    floats = [j for j, col in enumerate(columns) if (
        col.dtype.kind == "f" if isinstance(col, np.ndarray)
        else all(isinstance(cell, _FLOATS) for cell in col))]
    fields = [None if j in floats else _text_field(col) for j, col in enumerate(columns)]
    if floats:
        n = len(columns[floats[0]])
        cells, start, stop = _float_field(np.concatenate(
            [np.asarray(columns[j], dtype=np.float64) for j in floats]))
        for k, j in enumerate(floats):
            fields[j] = cells[k * n:(k + 1) * n], start[k * n:(k + 1) * n], stop[k * n:(k + 1) * n]
    _write_fields(path, header, fields)


def _curve_csvs(outdir: Path, prefix: str, header: list[str], curves) -> list[str]:
    """Write each sampled (grid, values) curve to ``{prefix}_{i:03d}.csv``.
    A grid equal to the one before it is not formatted again, so curves on
    one shared grid format it once."""
    names, grid, grid_field = [], None, None
    for i, (x, v) in enumerate(curves):
        if grid is None or not np.array_equal(x, grid):
            grid, grid_field = x, _float_field(x)
        name = f"{prefix}_{i:03d}.csv"
        _write_fields(outdir / name, header, [grid_field, _float_field(v)])
        names.append(name)
    return names


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n")


def _parse_profile(spec: str) -> Profile:
    if spec in ("step", "odd_cubic", "asymmetric_bump"):
        return builtin(spec)
    if spec == "even_quadratic":
        return even_counterexample_profile()
    path = Path(spec)
    if path.exists():
        try:
            return load_profile(path)
        except (ProfileFormatError, OSError) as exc:
            raise ConfigError(f"unreadable profile {spec!r}: {exc}") from None
    raise ConfigError(
        f"unknown profile {spec!r}: use step, odd_cubic, asymmetric_bump, "
        "even_quadratic, or a path to a profile JSON document"
    )


_NAMED_POTENTIALS = {"harmonic": [0.0, 0.0, 1.0], "tilted_harmonic": [0.0, 1.0, 1.0]}


def _potential_coeffs(spec: str) -> list[float]:
    if spec in _NAMED_POTENTIALS:
        return _NAMED_POTENTIALS[spec]
    if spec.startswith("poly:"):
        return _finite_list(spec[5:])
    raise ConfigError(f"unknown potential {spec!r}: use harmonic, tilted_harmonic or poly:c0,c1,...")


def _parse_potential(spec: str, radius: float) -> ConfiningPotential:
    label = spec if spec in _NAMED_POTENTIALS else None
    return polynomial_potential(_potential_coeffs(spec), radius, label)


def _parse_bc(spec: str):
    if spec == "dirichlet-split":
        return DirichletSplit()
    if spec.startswith("theta:"):
        return ThetaCoupled(_finite(spec[6:]))
    if spec.startswith("matrix:"):
        vals = _finite_list(spec[7:])
        if len(vals) == 4:
            return ConnectedMatrix(*vals)
        if len(vals) == 5:
            return ConnectedMatrix(vals[0], vals[1], vals[2], vals[3], phi=vals[4])
        raise ConfigError("matrix coupling needs c11,c12,c21,c22[,phi]")
    if spec.startswith("separated:"):
        vals = _finite_list(spec[10:])
        if len(vals) != 4:
            raise ConfigError("separated coupling needs h1m,h2m,h1p,h2p")
        return Separated(*vals)
    raise ConfigError(f"unknown boundary coupling {spec!r}")


def _checked_spec(parse):
    """An argparse type that rejects what ``parse`` rejects, before any
    output is written, and keeps the spec string for the manifest."""

    def check(spec: str) -> str:
        try:
            parse(spec)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return spec

    return check


def _finite(spec: str) -> float:
    try:
        value = float(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {spec!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {spec!r}")
    return value


def _finite_list(spec: str) -> list[float]:
    return [_finite(x) for x in spec.split(",")]


def _positive(spec: str) -> float:
    value = _finite(spec)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {spec!r}")
    return value


def _positive_int(spec: str) -> int:
    try:
        value = int(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {spec!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_ladder(spec: str) -> list[float]:
    ladder = _finite_list(spec)
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise argparse.ArgumentTypeError("ladder must be strictly descending")
    if any(e <= 0 for e in ladder):
        raise argparse.ArgumentTypeError("ladder entries must be positive")
    return ladder


def _solver_config(ns) -> SolverConfig:
    return SolverConfig(rel_tol=ns.rel_tol)


# -- subcommand implementations --------------------------------------------------

def _cmd_classify(ns, outdir: Path) -> list[str]:
    p = _parse_profile(ns.profile)
    cls = classify(p, ns.moment_tol)
    doc = {
        "label": p.label,
        "class": cls.kind.value,
        "m0": cls.m0,
        "m1": cls.m1,
        "c": cls.c,
    }
    _write_json(outdir / "classify.json", doc)
    return ["classify.json"]


def _cmd_resonances(ns, outdir: Path) -> list[str]:
    p = _parse_profile(ns.profile)
    cfg = _solver_config(ns)
    pts = resonance_scan(
        p, ns.window[0], ns.window[1], ns.scan_step, cfg, ns.residual_tol
    )
    confirmed = [pt for pt in pts if not pt.flagged]
    _write_csv(
        outdir / "resonances.csv",
        ["alpha", "theta", "residual"],
        zip(*[(pt.alpha, pt.theta, pt.residual) for pt in confirmed]),
    )
    names = ["resonances.csv"]
    if ns.eigenfunctions:
        names += _curve_csvs(outdir, "resonance_eigenfunction", ["xi", "w"],
                             (eigenfunction(p, pt.alpha, cfg) for pt in confirmed))
    if any(pt.flagged for pt in pts):
        _write_csv(
            outdir / "resonance_candidates.csv",
            ["alpha", "theta", "residual"],
            zip(*[(pt.alpha, pt.theta, pt.residual) for pt in pts if pt.flagged]),
        )
        names.append("resonance_candidates.csv")
    return names


def _cmd_theta(ns, outdir: Path) -> list[str]:
    p = _parse_profile(ns.profile)
    cfg = _solver_config(ns)
    alpha = ns.alpha
    refined_from = best = None
    if ns.refine and alpha != 0.0:
        pts = resonance_scan(
            p,
            alpha - ns.search_width,
            alpha + ns.search_width,
            ns.search_width / 20.0,
            cfg,
            ns.residual_tol,
        )
        confirmed = [pt for pt in pts if not pt.flagged]
        if confirmed:
            best = min(confirmed, key=lambda pt: abs(pt.alpha - alpha))
            refined_from = alpha
    if best is None:  # else the scan's point already holds the shot at the root
        best = coupling_theta(p, alpha, cfg, ns.residual_tol)
    doc = {
        "alpha": best.alpha,
        "refined_from": refined_from,
        "theta": best.theta,
        "residual": best.residual,
    }
    _write_json(outdir / "theta.json", doc)
    return ["theta.json"]


def _cmd_spectrum(ns, outdir: Path) -> list[str]:
    cfg = _solver_config(ns)
    U = _parse_potential(ns.potential, ns.radius)
    unread = ((("--k-lo", ns.k_lo), ("--alpha", ns.alpha), ("--eps", ns.eps))
              if ns.mode == "limit" else (("--bc", ns.bc),))
    given = [flag for flag, value in unread if value is not None]
    if given:
        raise ConfigError(f"{ns.mode} mode takes no {', '.join(given)}")
    first = 1 if ns.k_lo is None else ns.k_lo  # global index of the first level
    if ns.mode == "limit":
        if ns.profile is not None:  # accepted, and unread, but it must be readable
            _parse_profile(ns.profile)
        bc = _parse_bc("theta:1.0" if ns.bc is None else ns.bc)
        spec = eigen_limit(
            U, bc, ns.levels, cfg, ns.eig_tol, eigenfunctions=ns.eigenfunctions
        )
    else:
        if ns.alpha is None or ns.eps is None or ns.profile is None:
            raise ConfigError("perturbed mode needs --profile, --alpha and --eps")
        p = _parse_profile(ns.profile)
        spec = eigen_perturbed(
            U, p, ns.alpha, ns.eps, (first, first + ns.levels - 1), cfg, ns.eig_tol,
            eigenfunctions=ns.eigenfunctions,
        )
    _write_csv(
        outdir / "spectrum.csv",
        ["index", "eigenvalue", "residual", "flag"],
        [range(first, first + len(spec.flags)), spec.eigenvalues.tolist(),
         spec.residuals.tolist(), spec.flags],
    )
    names = ["spectrum.csv"]
    if spec.eigenfunctions is not None:
        names += _curve_csvs(outdir, "eigenfunction", ["x", "v"],
                             ((spec.x, v) for v in spec.eigenfunctions))
    return names


def _cmd_scatter(ns, outdir: Path) -> list[str]:
    p = _parse_profile(ns.profile)
    cfg = SolverConfig(rel_tol=min(ns.rel_tol, SCATTER_CONFIG.rel_tol))
    pts = [(e, k) for e in ns.eps_ladder for k in ns.ks]
    sweeps = pmap(lambda a: scatter_sweep(p, a, pts, cfg), ns.alphas)  # one family per alpha
    _write_csv(
        outdir / "scatter.csv",
        ["alpha", "eps", "k", "re_r", "im_r", "re_t", "im_t", "t2"],
        zip(*[
            (r.alpha, r.eps, r.k, r.R.real, r.R.imag, r.T.real, r.T.imag,
             r.transmission_probability)
            for sweep in sweeps for r in sweep
        ]),
    )
    return ["scatter.csv"]


def _cmd_interval(ns, outdir: Path) -> list[str]:
    p = _parse_profile(ns.profile)
    cfg = _solver_config(ns)
    spec = interval_spectrum(ns.a, ns.b, p, ns.alpha, ns.eps, ns.count, cfg, ns.eig_tol)
    omegas = np.sqrt(spec.eigenvalues)
    pt = _point(p, ns.alpha, cfg, ns.residual_tol)
    if pt.flagged:
        limits = split_limit_frequencies(ns.a, ns.b, ns.count)
    else:
        limits = interval_limit_frequencies(ns.a, ns.b, pt.theta, ns.count)
    _write_csv(
        outdir / "interval.csv",
        ["index", "omega", "lambda", "omega_limit", "abs_diff", "rel_diff"],
        zip(*[
            (i + 1, om, lam, wl, abs(om - wl), abs(om - wl) / wl)
            for i, (om, lam, wl) in enumerate(zip(omegas, spec.eigenvalues, limits))
        ]),
    )
    _write_json(
        outdir / "interval.json",
        {
            "a": ns.a,
            "b": ns.b,
            "alpha": ns.alpha,
            "eps": ns.eps,
            "resonant": not pt.flagged,
            "theta": None if pt.flagged else pt.theta,
            "omegas": [float(w) for w in omegas],
            "omega_limits": [float(w) for w in limits],
        },
    )
    return ["interval.csv", "interval.json"]


def _cmd_converge(ns, outdir: Path) -> list[str]:
    p = _parse_profile(ns.profile)
    cfg = _solver_config(ns)
    U = _parse_potential(ns.potential, ns.radius)
    rep = convergence_study(
        U, p, ns.alpha, ns.eps_ladder, ns.levels, cfg,
        eig_tol=ns.eig_tol, residual_tol=ns.residual_tol,
        samples_per_unit=ns.samples_per_unit,
    )
    _write_json(outdir / "converge.json", rep.to_dict())
    rows = []
    for r in rep.rows:
        for eps, lam, err, dist in zip(rep.eps_ladder, r.lam_eps, r.errors, r.l2_distances):
            rows.append((r.k, eps, lam, r.lam_limit, err, dist, r.fitted_order))
    _write_csv(
        outdir / "converge.csv",
        ["k", "eps", "lambda_eps", "lambda_limit", "error", "l2_distance", "fitted_order"],
        zip(*rows),
    )
    return ["converge.json", "converge.csv"]


def _cmd_dive(ns, outdir: Path) -> list[str]:
    p = _parse_profile(ns.profile)
    cfg = _solver_config(ns)
    rep = diving_study(p, ns.alpha, ns.eps_ladder, cfg, moment_tol=ns.moment_tol)
    _write_json(outdir / "dive.json", rep.to_dict())
    _write_csv(
        outdir / "dive.csv",
        ["eps", "lambda1", "eps2_lambda1", "mu_oracle"],
        zip(*[(eps, lam, mu_eps, rep.mu_oracle) for eps, lam, mu_eps in rep.rows]),
    )
    return ["dive.json", "dive.csv"]


def _cmd_hypothesis(ns, outdir: Path) -> list[str]:
    profs = [_parse_profile(s.strip()) for s in ns.profiles.split(",")]
    cfg = _solver_config(ns)
    rep = hypothesis_scan(
        profs, (ns.window[0], ns.window[1]), cfg,
        scan_step=ns.scan_step, residual_tol=ns.residual_tol, moment_tol=ns.moment_tol,
    )
    _write_json(outdir / "hypothesis.json", rep.to_dict())
    rows = []
    for label, hrows in rep.per_profile.items():
        for r in hrows:
            rows.append((label, r.alpha, r.theta, r.abs_theta, r.side, r.satisfies))
    for r in rep.even_check["rows"]:
        rows.append((rep.even_check["label"], r["alpha"], r["theta"], r["abs_theta"],
                     r["side"], r["satisfies"]))
    _write_csv(
        outdir / "hypothesis.csv",
        ["profile", "alpha", "theta", "abs_theta", "side", "satisfies"],
        zip(*rows),
    )
    return ["hypothesis.json", "hypothesis.csv"]


_COMMANDS = {
    "classify": _cmd_classify,
    "resonances": _cmd_resonances,
    "theta": _cmd_theta,
    "spectrum": _cmd_spectrum,
    "scatter": _cmd_scatter,
    "interval": _cmd_interval,
    "converge": _cmd_converge,
    "dive": _cmd_dive,
    "hypothesis": _cmd_hypothesis,
}


@functools.cache  # built once per process: a parse leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="pointbarrier",
        description="Spectra, resonances and scattering of squeezed dipole-like barriers",
    )
    top.add_argument("--version", action="version", version=f"pointbarrier {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def tolerance(sp, flag, **kwargs):
        sp.add_argument(flag, type=_positive, default=_TOLERANCES[flag], **kwargs)

    def common(sp, *tolerances, profile=True):
        """--out, the tolerances the subcommand reads, and --profile."""
        sp.add_argument("--out", default="pb_out", help="output directory")
        for flag in tolerances:
            tolerance(sp, flag)
        if profile:
            sp.add_argument("--profile", required=True,
                            help="step | odd_cubic | asymmetric_bump | even_quadratic | path.json")

    sp = sub.add_parser("classify", help="moment classification of a profile")
    common(sp, "--moment-tol")

    sp = sub.add_parser("resonances", help="scan the resonance set of a profile")
    common(sp, "--rel-tol", "--residual-tol")
    sp.add_argument("--window", nargs=2, type=_finite, required=True, metavar=("LO", "HI"))
    sp.add_argument("--scan-step", type=_positive, default=DEFAULT_SCAN_STEP)
    sp.add_argument("--eigenfunctions", action="store_true")

    sp = sub.add_parser("theta", help="coupling ratio at a resonant coupling")
    common(sp, "--rel-tol", "--residual-tol")
    sp.add_argument("--alpha", type=_finite, required=True)
    sp.add_argument("--refine", action=argparse.BooleanOptionalAction, default=True,
                    help="refine to the nearest resonance before evaluating")
    sp.add_argument("--search-width", type=_positive, default=0.5)

    sp = sub.add_parser("spectrum", help="eigenvalues of the limit or squeezed operator")
    common(sp, "--rel-tol", "--eig-tol", profile=False)
    sp.add_argument("--profile", help="barrier profile (read in perturbed mode only)")
    sp.add_argument("--mode", choices=["limit", "perturbed"], required=True)
    sp.add_argument("--potential", type=_checked_spec(_potential_coeffs), required=True,
                    help="harmonic | tilted_harmonic | poly:c0,c1,...")
    sp.add_argument("--radius", type=_positive, required=True, help="truncation radius")
    # None tells an option given from one left at its default: each mode
    # rejects the options of the other
    sp.add_argument("--bc", type=_checked_spec(_parse_bc),
                    help="limit mode: dirichlet-split | theta:V (default theta:1.0) | "
                         "matrix:c11,c12,c21,c22[,phi] | separated:...")
    sp.add_argument("--alpha", type=_finite, help="perturbed mode")
    sp.add_argument("--eps", type=_finite, help="perturbed mode")
    sp.add_argument("--levels", type=_positive_int, default=5)
    sp.add_argument("--k-lo", type=_positive_int, help="perturbed mode (default 1)")
    sp.add_argument("--eigenfunctions", action="store_true")

    sp = sub.add_parser("scatter", help="reflection/transmission amplitudes")
    common(sp)
    tolerance(sp, "--rel-tol", help=f"propagator tolerance, capped at {SCATTER_CONFIG.rel_tol:g}")
    # two spellings of each comma-separated list, "--alphas -2,4" or "--alphas=-2,4"
    sp.add_argument("--alphas", "--alpha", type=_finite_list, required=True)
    sp.add_argument("--eps-ladder", "--eps", type=_finite_list, required=True)
    sp.add_argument("--ks", "--k", type=_finite_list, required=True)

    sp = sub.add_parser("interval", help="squeezed barrier on a bounded interval")
    common(sp, "--rel-tol", "--residual-tol", "--eig-tol")
    sp.add_argument("--a", type=_finite, required=True)
    sp.add_argument("--b", type=_finite, required=True)
    sp.add_argument("--alpha", type=_finite, required=True)
    sp.add_argument("--eps", type=_finite, required=True)
    sp.add_argument("--count", type=_positive_int, default=6)

    sp = sub.add_parser("converge", help="eigenvalue convergence down a squeezing ladder")
    common(sp, "--rel-tol", "--residual-tol", "--eig-tol")
    sp.add_argument("--potential", type=_checked_spec(_potential_coeffs), required=True)
    sp.add_argument("--radius", type=_positive, required=True)
    sp.add_argument("--alpha", type=_finite, required=True)
    sp.add_argument("--eps-ladder", type=_parse_ladder, required=True,
                    help="comma-separated descending list")
    sp.add_argument("--levels", type=_positive_int, default=3)
    sp.add_argument("--samples-per-unit", type=_positive_int, default=SAMPLES_PER_UNIT)

    sp = sub.add_parser("dive", help="eps^-2 blow-up of the lowest level")
    common(sp, "--rel-tol", "--moment-tol")
    sp.add_argument("--alpha", type=_finite, required=True)
    sp.add_argument("--eps-ladder", type=_parse_ladder, required=True)

    sp = sub.add_parser("hypothesis", help="coupling-ratio magnitude scan")
    common(sp, "--rel-tol", "--residual-tol", "--moment-tol", profile=False)
    sp.add_argument("--profiles", required=True, help="comma-separated profile names/paths")
    sp.add_argument("--window", nargs=2, type=_finite, required=True, metavar=("LO", "HI"))
    sp.add_argument("--scan-step", type=_positive, default=DEFAULT_SCAN_STEP)

    sp = sub.add_parser("rerun", help="replay the argument vector of a manifest")
    sp.add_argument("manifest", help="path to a manifest.json")
    sp.add_argument("--out", default=None, help="output directory (defaults to the recorded one)")

    return top


def _namespace_params(ns) -> dict:
    params = {}
    for key, value in sorted(vars(ns).items()):
        if key in ("command", "out"):
            continue
        params[key] = value
    return params


def run(argv) -> int:
    """Parse arguments, execute one subcommand, write outputs + manifest."""
    argv = list(argv)
    ns = _build_parser().parse_args(argv)

    if ns.command == "rerun":
        try:
            doc = json.loads(Path(ns.manifest).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"unreadable manifest {ns.manifest!r}: {exc}") from None
        replay = doc.get("argv") if isinstance(doc, dict) else None
        if not (isinstance(replay, list) and replay and all(isinstance(a, str) for a in replay)
                and replay[0] in _COMMANDS):
            raise ConfigError(f"malformed manifest {ns.manifest!r}: need an object whose 'argv' "
                              "is a list of strings that starts with a subcommand name")
        return run(replay if ns.out is None else replay + ["--out", ns.out])

    outdir = Path(ns.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {ns.out!r}: {exc}") from None
    t0 = time.perf_counter()
    outputs = _COMMANDS[ns.command](ns, outdir)
    wall = time.perf_counter() - t0
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "pointbarrier", "version": __version__},
        "argv": argv,
        "command": ns.command,
        "params": _namespace_params(ns),
        "out": str(ns.out),
        "outputs": outputs,
        "wall_time_s": wall,
    }
    _write_json(outdir / "manifest.json", manifest)
    return 0


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 4
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except PointBarrierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a library entry point rejected its arguments
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a grid under its cap can still outgrow the memory
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

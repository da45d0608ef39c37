"""Command-line front end: parse a run configuration, dispatch to the
solver modules, and write CSV/JSON outputs plus a manifest.

Every run writes ``manifest.json`` recording the subcommand, the full
parameter set, the tool version and the wall time; ``rerun`` replays a
manifest.  CSV payloads are written with 17 significant digits and contain
nothing run-dependent, so identical configurations produce byte-identical
files.

Exit status: 0 on success, 2 for configuration errors, 3 for numerical
failures, 4 for violated preconditions (e.g. a profile outside the
unit-dipole class where one is required).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericsError, PointBarrierError, PreconditionError
from .ivp import SolverConfig
from .parallel import pmap
from .profiles import Profile, builtin, classify, load as load_profile
from .resonance import coupling_theta, resonance_scan, scaled_residual, shoot
from .scattering import SCATTER_CONFIG, scatter
from .spectra import (
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

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument errors become ``ConfigError`` (exit 2, one line) instead of
    a usage dump, and every negative float (``-1e-05`` too, not only
    ``-digits[.digits]``) reads as a value rather than as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


# -- small format helpers -----------------------------------------------------

def _fmt(x: float) -> str:
    return f"{float(x):.17e}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(_fmt(cell))
            elif isinstance(cell, (np.floating,)):
                cells.append(_fmt(float(cell)))
            else:
                text = str(cell)
                if "," in text or '"' in text:  # a flag such as left,degenerate
                    text = '"' + text.replace('"', '""') + '"'  # as csv.QUOTE_MINIMAL
                cells.append(text)
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n")


def _parse_profile(spec: str) -> Profile:
    if spec in ("step", "odd_cubic", "asymmetric_bump"):
        return builtin(spec, {})
    if spec == "even_quadratic":
        return even_counterexample_profile()
    path = Path(spec)
    if path.exists():
        return load_profile(path)
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


def _eigenfunction_csvs(outdir: Path, spec, prefix: str) -> list[str]:
    names = []
    if spec.eigenfunctions is None:
        return names
    for i, v in enumerate(spec.eigenfunctions):
        name = f"{prefix}_{i:03d}.csv"
        _write_csv(outdir / name, ["x", "v"], zip(spec.x, v))
        names.append(name)
    return names


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
        [(pt.alpha, pt.theta, pt.residual) for pt in confirmed],
    )
    names = ["resonances.csv"]
    if ns.eigenfunctions:
        for i, pt in enumerate(confirmed):
            name = f"resonance_eigenfunction_{i:03d}.csv"
            _write_csv(outdir / name, ["xi", "w"], zip(pt.xi, pt.w))
            names.append(name)
    if any(pt.flagged for pt in pts):
        _write_csv(
            outdir / "resonance_candidates.csv",
            ["alpha", "theta", "residual"],
            [(pt.alpha, pt.theta, pt.residual) for pt in pts if pt.flagged],
        )
        names.append("resonance_candidates.csv")
    return names


def _cmd_theta(ns, outdir: Path) -> list[str]:
    p = _parse_profile(ns.profile)
    cfg = _solver_config(ns)
    alpha = ns.alpha
    refined_from = None
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
            refined_from, alpha = alpha, best.alpha
    theta = coupling_theta(p, alpha, cfg, ns.residual_tol)
    w1, dw1 = shoot(p, alpha, cfg)
    doc = {
        "alpha": alpha,
        "refined_from": refined_from,
        "theta": theta,
        "residual": scaled_residual(p, alpha, w1, dw1),
    }
    _write_json(outdir / "theta.json", doc)
    return ["theta.json"]


def _cmd_spectrum(ns, outdir: Path) -> list[str]:
    cfg = _solver_config(ns)
    U = _parse_potential(ns.potential, ns.radius)
    if ns.mode == "limit":
        bc = _parse_bc(ns.bc)
        spec = eigen_limit(
            U, bc, ns.levels, cfg, ns.eig_tol, eigenfunctions=ns.eigenfunctions
        )
    else:
        if ns.alpha is None or ns.eps is None or ns.profile is None:
            raise ConfigError("perturbed mode needs --profile, --alpha and --eps")
        p = _parse_profile(ns.profile)
        spec = eigen_perturbed(
            U, p, ns.alpha, ns.eps, (ns.k_lo, ns.k_lo + ns.levels - 1), cfg, ns.eig_tol,
            eigenfunctions=ns.eigenfunctions,
        )
    first = ns.k_lo if ns.mode == "perturbed" else 1  # global index of the first level
    _write_csv(
        outdir / "spectrum.csv",
        ["index", "eigenvalue", "residual", "flag"],
        [
            (first + i, lam, res, flag)
            for i, (lam, res, flag) in enumerate(
                zip(spec.eigenvalues, spec.residuals, spec.flags)
            )
        ],
    )
    names = ["spectrum.csv"]
    names += _eigenfunction_csvs(outdir, spec, "eigenfunction")
    return names


def _cmd_scatter(ns, outdir: Path) -> list[str]:
    p = _parse_profile(ns.profile)
    cfg = SolverConfig(rel_tol=min(ns.rel_tol, SCATTER_CONFIG.rel_tol))
    alphas = ns.alphas if ns.alphas is not None else [ns.alpha]
    epses = ns.eps_ladder if ns.eps_ladder is not None else [ns.eps]
    ks = ns.ks if ns.ks is not None else [ns.k]
    if any(v is None for v in (alphas[0], epses[0], ks[0])):
        raise ConfigError("scatter needs --alpha/--alphas, --eps/--eps-ladder and --k/--ks")
    grid = [(a, e, k) for a in alphas for e in epses for k in ks]
    results = pmap(lambda t: scatter(p, t[0], t[1], t[2], cfg), grid)
    _write_csv(
        outdir / "scatter.csv",
        ["alpha", "eps", "k", "re_r", "im_r", "re_t", "im_t", "t2"],
        [
            (r.alpha, r.eps, r.k, r.R.real, r.R.imag, r.T.real, r.T.imag,
             r.transmission_probability)
            for r in results
        ],
    )
    return ["scatter.csv"]


def _cmd_interval(ns, outdir: Path) -> list[str]:
    p = _parse_profile(ns.profile)
    cfg = _solver_config(ns)
    spec = interval_spectrum(ns.a, ns.b, p, ns.alpha, ns.eps, ns.count, cfg, ns.eig_tol)
    omegas = np.sqrt(spec.eigenvalues)
    w1, dw1 = shoot(p, ns.alpha, cfg)
    resonant = ns.alpha == 0.0 or scaled_residual(p, ns.alpha, w1, dw1) <= ns.residual_tol
    if resonant:
        theta = 1.0 if ns.alpha == 0.0 else w1
        limits = interval_limit_frequencies(ns.a, ns.b, theta, ns.count)
    else:
        theta = None
        limits = split_limit_frequencies(ns.a, ns.b, ns.count)
    _write_csv(
        outdir / "interval.csv",
        ["index", "omega", "lambda", "omega_limit", "abs_diff", "rel_diff"],
        [
            (i + 1, om, lam, wl, abs(om - wl), abs(om - wl) / wl)
            for i, (om, lam, wl) in enumerate(zip(omegas, spec.eigenvalues, limits))
        ],
    )
    _write_json(
        outdir / "interval.json",
        {
            "a": ns.a,
            "b": ns.b,
            "alpha": ns.alpha,
            "eps": ns.eps,
            "resonant": resonant,
            "theta": theta,
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
        rows,
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
        [(eps, lam, mu_eps, rep.mu_oracle) for eps, lam, mu_eps in rep.rows],
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
        rows,
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


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="pointbarrier",
        description="Spectra, resonances and scattering of squeezed dipole-like barriers",
    )
    top.add_argument("--version", action="version", version=f"pointbarrier {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp, profile=True):
        sp.add_argument("--out", default="pb_out", help="output directory")
        sp.add_argument("--rel-tol", type=_positive, default=1e-10)
        sp.add_argument("--residual-tol", type=_positive, default=1e-9)
        sp.add_argument("--eig-tol", type=_positive, default=1e-8)
        sp.add_argument("--moment-tol", type=_positive, default=1e-10)
        if profile:
            sp.add_argument("--profile", required=True,
                            help="step | odd_cubic | asymmetric_bump | even_quadratic | path.json")

    sp = sub.add_parser("classify", help="moment classification of a profile")
    common(sp)

    sp = sub.add_parser("resonances", help="scan the resonance set of a profile")
    common(sp)
    sp.add_argument("--window", nargs=2, type=_finite, required=True, metavar=("LO", "HI"))
    sp.add_argument("--scan-step", type=_positive, default=0.1)
    sp.add_argument("--eigenfunctions", action="store_true")

    sp = sub.add_parser("theta", help="coupling ratio at a resonant coupling")
    common(sp)
    sp.add_argument("--alpha", type=_finite, required=True)
    sp.add_argument("--refine", action=argparse.BooleanOptionalAction, default=True,
                    help="refine to the nearest resonance before evaluating")
    sp.add_argument("--search-width", type=_positive, default=0.5)

    sp = sub.add_parser("spectrum", help="eigenvalues of the limit or squeezed operator")
    common(sp, profile=False)
    sp.add_argument("--profile", help="barrier profile (perturbed mode only)")
    sp.add_argument("--mode", choices=["limit", "perturbed"], required=True)
    sp.add_argument("--potential", type=_checked_spec(_potential_coeffs), required=True,
                    help="harmonic | tilted_harmonic | poly:c0,c1,...")
    sp.add_argument("--radius", type=_positive, required=True, help="truncation radius")
    sp.add_argument("--bc", type=_checked_spec(_parse_bc), default="theta:1.0",
                    help="dirichlet-split | theta:V | matrix:c11,c12,c21,c22[,phi] | separated:...")
    sp.add_argument("--alpha", type=_finite)
    sp.add_argument("--eps", type=_finite)
    sp.add_argument("--levels", type=_positive_int, default=5)
    sp.add_argument("--k-lo", type=_positive_int, default=1)
    sp.add_argument("--eigenfunctions", action="store_true")

    sp = sub.add_parser("scatter", help="reflection/transmission amplitudes")
    common(sp)
    sp.add_argument("--alpha", type=_finite)
    sp.add_argument("--alphas", type=_finite_list)
    sp.add_argument("--eps", type=_finite)
    sp.add_argument("--eps-ladder", type=_finite_list)
    sp.add_argument("--k", type=_finite)
    sp.add_argument("--ks", type=_finite_list)

    sp = sub.add_parser("interval", help="squeezed barrier on a bounded interval")
    common(sp)
    sp.add_argument("--a", type=_finite, required=True)
    sp.add_argument("--b", type=_finite, required=True)
    sp.add_argument("--alpha", type=_finite, required=True)
    sp.add_argument("--eps", type=_finite, required=True)
    sp.add_argument("--count", type=_positive_int, default=6)

    sp = sub.add_parser("converge", help="eigenvalue convergence down a squeezing ladder")
    common(sp)
    sp.add_argument("--potential", type=_checked_spec(_potential_coeffs), required=True)
    sp.add_argument("--radius", type=_positive, required=True)
    sp.add_argument("--alpha", type=_finite, required=True)
    sp.add_argument("--eps-ladder", type=_parse_ladder, required=True,
                    help="comma-separated descending list")
    sp.add_argument("--levels", type=_positive_int, default=3)
    sp.add_argument("--samples-per-unit", type=_positive_int, default=2001)

    sp = sub.add_parser("dive", help="eps^-2 blow-up of the lowest level")
    common(sp)
    sp.add_argument("--alpha", type=_finite, required=True)
    sp.add_argument("--eps-ladder", type=_parse_ladder, required=True)

    sp = sub.add_parser("hypothesis", help="coupling-ratio magnitude scan")
    common(sp, profile=False)
    sp.add_argument("--profiles", required=True, help="comma-separated profile names/paths")
    sp.add_argument("--window", nargs=2, type=_finite, required=True, metavar=("LO", "HI"))
    sp.add_argument("--scan-step", type=_positive, default=0.1)

    sp = sub.add_parser("rerun", help="replay a run from its manifest")
    sp.add_argument("manifest", help="path to a manifest.json")
    sp.add_argument("--out", default=None, help="output directory (defaults to the manifest's)")

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
    parser = _build_parser()
    ns = parser.parse_args(argv)

    if ns.command == "rerun":
        try:
            doc = json.loads(Path(ns.manifest).read_text())
            replay, params = [doc["command"]], doc["params"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"unreadable manifest {ns.manifest!r}: {exc}") from None
        negatable = {"refine"}
        for key, value in params.items():
            if value is None:
                continue
            flag = "--" + key.replace("_", "-")
            if value is False:
                if key in negatable:
                    replay.append("--no-" + key.replace("_", "-"))
                continue
            # "--flag=value" keeps values that start with "-" from reading as options
            if value is True:
                replay.append(flag)
            elif isinstance(value, list):
                if key in ("eps_ladder", "alphas", "ks"):
                    replay.append(f"{flag}={','.join(repr(v) for v in value)}")
                else:  # nargs=2 takes no "=": the parser reads "-1e-05" as a number
                    replay.append(flag)
                    replay.extend(repr(v) for v in value)
            else:
                replay.append(f"{flag}={value}")
        out = ns.out if ns.out is not None else doc["out"]
        replay.extend(["--out", str(out)])
        return run(replay)

    outdir = Path(ns.out)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    outputs = _COMMANDS[ns.command](ns, outdir)
    wall = time.perf_counter() - t0
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "pointbarrier", "version": __version__},
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


if __name__ == "__main__":
    sys.exit(main())

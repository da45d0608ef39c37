"""Spans around the public functions of each ``pointbarrier`` module,
installed from outside the library for a traced benchmark run.

The library imports its collaborators by name (``from .ivp import
propagate_family``), so patching a defining module alone would miss every
call.  ``Tracer`` instead patches each *alias*: every function that one
``pointbarrier`` module imported from another.  ``ivp.propagate_family``
itself is never patched, because its member-by-member path for families of
2 to 6 recurses through that module global and would be counted twice.
``profiles`` is not wrapped: its evaluations are too fine-grained to time
from outside.

A span's self time is its duration minus the durations of its direct
child spans.  The callbacks handed to a root finder are wrapped as child
spans of it, so ``rootfind`` self time excludes the function evaluations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

import numpy as np

PACKAGE = "pointbarrier"
LAYERS = ("ivp", "rootfind", "resonance", "spectra", "scattering", "experiments", "parallel", "cli")
ROOTFINDERS = {"illinois_vector": "illinois", "bisect_vector": "bisect", "brent": "brent"}
SOLVES = {"eigen_limit", "eigen_perturbed", "interval_spectrum", "interval_negative_levels"}


class Span:
    __slots__ = ("layer", "name", "parent", "start", "end", "child", "attrs")

    def __init__(self, layer, name, parent):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.child = 0.0
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child

    def under(self, pred) -> bool:
        """True if a strict ancestor satisfies ``pred``."""
        s = self.parent
        while s is not None:
            if pred(s):
                return True
            s = s.parent
        return False


class Tracer:
    """Context manager that patches the aliases and records spans in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, fn, layer: str, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, name, self._stack[-1] if self._stack else None)
            args, kwargs = self._before(span, args, kwargs)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    span.parent.child += span.end - span.start
                self.spans.append(span)
            self._after(span, result)
            return result

        return traced

    def _before(self, span: Span, args, kwargs):
        a = span.attrs
        if span.name == "propagate_family":
            m = args[1] if len(args) > 1 else kwargs["m"]
            a["n"] = int(np.size(m))
            samples = kwargs.get("samples")
            a["samples"] = None if samples is None else int(np.size(samples))
        elif span.name in ROOTFINDERS:
            fn = args[0]
            counted = self.wrap(fn, _layer_of(fn) or "rootfind", "fvec")
            args = (counted,) + tuple(args[1:])
        elif span.name == "pmap":
            items = list(args[1])
            a["items"] = len(items)
            args = (args[0], items) + tuple(args[2:])
        return args, kwargs

    @staticmethod
    def _after(span: Span, result) -> None:
        a = span.attrs
        if span.name in ROOTFINDERS:
            a["roots"] = 1 if span.name == "brent" else int(np.size(result))
        elif span.name == "resonance_scan":
            a["flagged"] = sum(1 for pt in result if pt.flagged)
            a["roots"] = len(result) - a["flagged"]
        elif span.name in SOLVES:
            lams = result if isinstance(result, np.ndarray) else result.eigenvalues
            a["levels"] = int(np.size(lams))
        elif span.name == "scatter":
            a["flux_defect"] = abs(abs(result.R) ** 2 + abs(result.T) ** 2 - 1.0)

    # -- patching -----------------------------------------------------------

    def __enter__(self):
        for short in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in list(vars(mod).items()):
                layer = _layer_of(obj)
                if not inspect.isfunction(obj) or layer is None or layer == short:
                    continue
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, self.wrap(obj, layer, obj.__name__))
        return self

    def __exit__(self, *exc):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()
        return False

    def run_cli(self, main, argv) -> int:
        """Call ``cli.main`` inside a ``cli`` span."""
        return self.wrap(main, "cli", "main")(argv)


def _layer_of(fn) -> str | None:
    mod = getattr(fn, "__module__", None) or ""
    head, _, short = mod.rpartition(".")
    return short if head == PACKAGE and short in LAYERS else None


# -- per-layer metrics ----------------------------------------------------------

IVP_CLASSES = ("single", "tiny", "mid", "wide", "sampled")


def _ivp_class(span: Span) -> str:
    if span.attrs["samples"] is not None:
        return "sampled"
    n = span.attrs["n"]
    if n == 1:
        return "single"
    return "tiny" if n <= 6 else ("mid" if n <= 64 else "wide")


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced unit (times in seconds)."""
    out: dict[str, float] = {}
    ivp = [s for s in spans if s.name == "propagate_family"]
    out["ivp.calls"] = len(ivp)
    out["ivp.members"] = sum(s.attrs["n"] for s in ivp)
    out["ivp.s"] = sum(s.self_time for s in ivp)
    out["ivp.members_per_s"] = _ratio(out["ivp.members"], out["ivp.s"])
    for cls in IVP_CLASSES:
        group = [s for s in ivp if _ivp_class(s) == cls]
        out[f"ivp.{cls}.calls"] = len(group)
        out[f"ivp.{cls}.members"] = sum(s.attrs["n"] for s in group)
        out[f"ivp.{cls}.s"] = sum(s.self_time for s in group)
    out["ivp.sample_points"] = sum(s.attrs["samples"] or 0 for s in ivp)

    finders = [s for s in spans if s.name in ROOTFINDERS]
    evals = {id(s): 0 for s in finders}
    for s in spans:
        if s.name == "fvec" and s.parent is not None and id(s.parent) in evals:
            evals[id(s.parent)] += 1
    for fname, short in ROOTFINDERS.items():
        group = [s for s in finders if s.name == fname]
        out[f"rootfind.{short}.calls"] = len(group)
        out[f"rootfind.{short}.evals"] = sum(evals[id(s)] for s in group)
        out[f"rootfind.{short}.s"] = sum(s.self_time for s in group)
    out["rootfind.evals_per_root"] = _ratio(
        sum(evals.values()), sum(s.attrs["roots"] for s in finders)
    )

    is_scan = lambda s: s.name == "resonance_scan"
    scans = [s for s in spans if is_scan(s)]
    out["resonance.scan.calls"] = len(scans)
    out["resonance.scan.s"] = sum(
        s.self_time for s in spans if s.layer == "resonance" and (is_scan(s) or s.under(is_scan))
    )
    out["resonance.roots"] = sum(s.attrs["roots"] for s in scans)
    out["resonance.flagged"] = sum(s.attrs["flagged"] for s in scans)
    out["resonance.members_per_root"] = _ratio(
        sum(s.attrs["n"] for s in ivp if s.under(is_scan)), out["resonance.roots"]
    )

    is_solve = lambda s: s.name in SOLVES
    is_finder = lambda s: s.name in ROOTFINDERS
    solves = [s for s in spans if is_solve(s)]
    out["spectra.solve.calls"] = len(solves)
    out["spectra.solve.s"] = sum(
        s.self_time for s in spans if s.layer == "spectra" and (is_solve(s) or s.under(is_solve))
    )
    out["spectra.levels"] = sum(s.attrs["levels"] for s in solves)
    solve_ivp = [s for s in ivp if s.under(is_solve)]
    out["spectra.scan.s"] = sum(
        s.duration for s in solve_ivp if s.attrs["samples"] is None and not s.under(is_finder)
    )
    out["spectra.refine.s"] = sum(s.duration for s in finders if s.under(is_solve))
    out["spectra.eigfn.s"] = sum(s.duration for s in solve_ivp if s.attrs["samples"] is not None)
    out["spectra.members_per_level"] = _ratio(
        sum(s.attrs["n"] for s in solve_ivp), out["spectra.levels"]
    )

    points = [s for s in spans if s.name == "scatter"]
    point_ms = [1e3 * s.duration for s in points]
    out["scattering.calls"] = len(points)
    out["scattering.s"] = sum(s.self_time for s in points)
    out["scattering.point_p50_ms"] = _percentile(point_ms, 50)
    out["scattering.point_p97_ms"] = _percentile(point_ms, 97)
    out["scattering.flux_defect_max"] = max((s.attrs["flux_defect"] for s in points), default=0.0)

    out["experiments.s"] = sum(s.self_time for s in spans if s.layer == "experiments")
    pmaps = [s for s in spans if s.name == "pmap"]
    out["parallel.pmap.calls"] = len(pmaps)
    out["parallel.pmap.items"] = sum(s.attrs["items"] for s in pmaps)
    out["cli.self_s"] = sum(s.self_time for s in spans if s.layer == "cli")
    return out


# metrics that must repeat exactly between two traced runs of one seed
COUNT_KEYS = tuple(
    ["ivp.calls", "ivp.members", "ivp.sample_points"]
    + [f"ivp.{c}.{k}" for c in IVP_CLASSES for k in ("calls", "members")]
    + [f"rootfind.{r}.{k}" for r in ROOTFINDERS.values() for k in ("calls", "evals")]
    + ["resonance.scan.calls", "resonance.roots", "resonance.flagged",
       "spectra.solve.calls", "spectra.levels", "scattering.calls",
       "parallel.pmap.calls", "parallel.pmap.items"]
)


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name == "cli.bytes_written":
        return "bytes"
    if name == "src.lines":
        return "lines"
    if "_per_" in name or name.endswith(("_frac", "_ratio", "_max")):
        return "ratio"
    return "count"


def median_metrics(per_unit: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first unit (they repeat exactly), medians of the rest."""
    return {
        k: v if k in COUNT_KEYS else statistics.median(m[k] for m in per_unit)
        for k, v in per_unit[0].items()
    }

"""Piecewise-polynomial barrier profiles supported on [-1, 1].

A profile is the fixed shape of the squeezed potential
``alpha * eps**-2 * profile(x / eps)``, which vanishes outside [-1, 1].
Profiles are represented as an ordered list of polynomial segments whose
intervals partition [-1, 1] exactly, each evaluated on its own.  The
piecewise polynomial representation keeps moments exact (no quadrature)
and lets the propagator take one exact step over each constant segment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Sequence

from .errors import ProfileFormatError

_PARTITION_TOL = 1e-12
DEFAULT_MOMENT_TOL = 1e-10
_MAX_ABS_SAMPLES = 257  # samples per non-constant segment in ``Profile.max_abs``


@dataclass(frozen=True)
class Segment:
    """One polynomial piece: coefficients in ascending degree on [a, b],
    evaluated by Horner's rule (also on arrays)."""

    a: float
    b: float
    coeffs: tuple[float, ...]

    def __call__(self, xi: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * xi + c
        return acc

    @property
    def is_constant(self) -> bool:
        return all(c == 0.0 for c in self.coeffs[1:])


@dataclass(frozen=True)
class Profile:
    """Compactly supported piecewise-polynomial function on [-1, 1].

    Invariants (validated on construction):

    * segment intervals are a gapless, overlap-free partition of [-1, 1];
    * every segment interval has positive length;
    * every breakpoint and coefficient is finite.
    """

    segments: tuple[Segment, ...]
    label: str = "custom"

    def __post_init__(self):
        if not self.segments:
            raise ProfileFormatError("profile needs at least one segment")
        if abs(self.segments[0].a + 1.0) > _PARTITION_TOL:
            raise ProfileFormatError(f"first segment must start at -1, got {self.segments[0].a}")
        if abs(self.segments[-1].b - 1.0) > _PARTITION_TOL:
            raise ProfileFormatError(f"last segment must end at +1, got {self.segments[-1].b}")
        for seg in self.segments:
            if not all(math.isfinite(v) for v in (seg.a, seg.b, *seg.coeffs)):
                raise ProfileFormatError(
                    f"segment ({seg.a}, {seg.b}) has a non-finite end or coefficient")
            if not seg.b > seg.a:
                raise ProfileFormatError(f"segment ({seg.a}, {seg.b}) has non-positive length")
            if len(seg.coeffs) == 0:
                raise ProfileFormatError("segment needs at least one coefficient")
        for left, right in zip(self.segments, self.segments[1:]):
            if abs(left.b - right.a) > _PARTITION_TOL:
                raise ProfileFormatError(
                    f"segments ({left.a},{left.b}) and ({right.a},{right.b}) do not meet"
                )

    @cached_property
    def max_abs(self) -> float:
        """Upper estimate of max |profile| (exact for constant segments),
        sampled once per profile.

        Sizes search windows in ``spectra``, and sets the derivative scale
        of ``resonance.scaled_residual``: it enters the resonance residual
        gate and every reported ``residual``.
        """
        worst = 0.0
        for seg in self.segments:
            if seg.is_constant:
                worst = max(worst, abs(seg.coeffs[0]))
                continue
            n = _MAX_ABS_SAMPLES
            for i in range(n + 1):
                xi = seg.a + (seg.b - seg.a) * i / n
                worst = max(worst, abs(seg(xi)))
        return worst


class ProfileKind(Enum):
    DELTA_PRIME_LIKE = "delta_prime_like"
    ZERO_MEAN_ONLY = "zero_mean_only"
    GENERAL = "general"


@dataclass(frozen=True)
class ProfileClass:
    """Moment classification of a profile.

    ``DELTA_PRIME_LIKE`` means the squeezed family converges to a multiple
    of the dipole distribution: zeroth moment vanishes, first moment does
    not, and the dipole strength is ``c = -m1``.
    """

    kind: ProfileKind
    m0: float
    m1: float
    c: float | None = field(default=None)


def moment(p: Profile, k: int) -> float:
    """Exact integral of ``xi**k * profile(xi)`` over [-1, 1].

    The integrand is polynomial on each segment, so the antiderivative is
    summed termwise; the only error is float rounding.
    """
    if k < 0 or int(k) != k:
        raise ValueError("moment order must be a nonnegative integer")
    total = 0.0
    for seg in p.segments:
        for j, c in enumerate(seg.coeffs):
            if c == 0.0:
                continue
            n = k + j + 1
            total += c * (seg.b**n - seg.a**n) / n
    return total


def classify(p: Profile, moment_tol: float = DEFAULT_MOMENT_TOL) -> ProfileClass:
    """Moment classification with tolerance ``moment_tol`` (> 0).

    ``DELTA_PRIME_LIKE(c=-m1)`` iff |m0| <= tol < |m1|; ``ZERO_MEAN_ONLY``
    iff both moments vanish within tol; ``GENERAL`` otherwise.
    """
    if moment_tol <= 0:
        raise ValueError("moment_tol must be positive")
    m0 = moment(p, 0)
    m1 = moment(p, 1)
    if abs(m0) <= moment_tol and abs(m1) > moment_tol:
        return ProfileClass(ProfileKind.DELTA_PRIME_LIKE, m0=m0, m1=m1, c=-m1)
    if abs(m0) <= moment_tol:
        return ProfileClass(ProfileKind.ZERO_MEAN_ONLY, m0=m0, m1=m1)
    return ProfileClass(ProfileKind.GENERAL, m0=m0, m1=m1)


def is_dipole_normalized(p: Profile, moment_tol: float = DEFAULT_MOMENT_TOL) -> bool:
    """True when m0 = 0 and m1 = -1 within tolerance (unit dipole class)."""
    cls = classify(p, moment_tol)
    return cls.kind is ProfileKind.DELTA_PRIME_LIKE and abs(cls.m1 + 1.0) <= moment_tol


# -- builtin profiles -------------------------------------------------------

_BUILTIN_NAMES = ("step", "odd_cubic", "asymmetric_bump")


def builtin(name: str) -> Profile:
    """Construct a named profile.

    * ``step``: +1 on (-1, 0), -1 on (0, 1).  Moments (0, -1).
    * ``odd_cubic``: (15/4)(xi^3 - xi), an odd polynomial with m1 = -1
      exactly, vanishing at the support endpoints.
    * ``asymmetric_bump``: parabolic lobes of unequal width, m0 = 0 and
      m1 = -1 but not odd; the negative lobe occupies (0, 1/2) only.

    Other shapes come from a JSON document (``load``, ``from_json_dict``).
    """
    if name == "step":
        return Profile(
            (Segment(-1.0, 0.0, (1.0,)), Segment(0.0, 1.0, (-1.0,))),
            label="step",
        )
    if name == "odd_cubic":
        # odd, so m0 = 0; coefficients solve (2/3) c1 + (2/5) c3 = -1
        # with c3 = -c1, giving c1 = -15/4.
        return Profile(
            (Segment(-1.0, 1.0, (0.0, -15.0 / 4.0, 0.0, 15.0 / 4.0)),),
            label="odd_cubic",
        )
    if name == "asymmetric_bump":
        # left lobe -8 xi (1 + xi) on (-1, 0), right lobe -64 xi (1/2 - xi)
        # on (0, 1/2), zero on (1/2, 1): m0 = 4/3 - 4/3 = 0,
        # m1 = -2/3 - 1/3 = -1.
        return Profile(
            (
                Segment(-1.0, 0.0, (0.0, -8.0, -8.0)),
                Segment(0.0, 0.5, (0.0, -32.0, 64.0)),
                Segment(0.5, 1.0, (0.0,)),
            ),
            label="asymmetric_bump",
        )
    raise ValueError(f"unknown builtin profile {name!r}; expected one of {_BUILTIN_NAMES}")


def _profile_from_spec(raw_segments: Sequence[dict], label: str) -> Profile:
    segs = []
    try:
        for raw in raw_segments:
            interval, coeffs = raw["interval"], raw["coeffs"]
            if not isinstance(interval, list) or not isinstance(coeffs, list):
                raise TypeError("'interval' and 'coeffs' must be JSON arrays")
            a, b = interval
            segs.append(Segment(float(a), float(b), tuple(float(c) for c in coeffs)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProfileFormatError(f"malformed profile segments: {exc}") from exc
    return Profile(tuple(segs), label=str(label))


# -- JSON document format ---------------------------------------------------

def from_json_dict(doc: dict) -> Profile:
    if not isinstance(doc, dict) or "segments" not in doc:
        raise ProfileFormatError("profile document must be an object with a 'segments' key")
    return _profile_from_spec(doc["segments"], doc.get("label", "custom"))


def load(path: str | Path) -> Profile:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ProfileFormatError(f"invalid profile JSON in {path}: {exc}") from exc
    return from_json_dict(doc)

import json

import numpy as np
import pytest

from pointbarrier import profiles
from pointbarrier.errors import ProfileFormatError
from pointbarrier.profiles import (
    Profile,
    ProfileKind,
    Segment,
    builtin,
    classify,
    from_json_dict,
    is_dipole_normalized,
    moment,
)

from conftest import evaluate, gauss_legendre_moment, reflect


def test_step_evaluation(step):
    assert evaluate(step, -0.5) == 1.0
    assert evaluate(step, 0.5) == -1.0
    assert evaluate(step, 2.0) == 0.0
    assert evaluate(step, -2.0) == 0.0
    # right-continuous tie-break at the internal breakpoint
    assert evaluate(step, 0.0) == -1.0
    assert evaluate(step, -1.0) == 1.0
    assert evaluate(step, 1.0) == -1.0


def test_step_moments(step):
    assert moment(step, 0) == 0.0
    assert moment(step, 1) == -1.0


def test_constant_profile_moment():
    ones = Profile((Segment(-1.0, 1.0, (1.0,)),), label="one")
    assert moment(ones, 0) == pytest.approx(2.0, abs=1e-15)


def test_builtin_normalizations(odd_cubic, bump):
    assert moment(odd_cubic, 0) == pytest.approx(0.0, abs=1e-15)
    assert moment(odd_cubic, 1) == pytest.approx(-1.0, abs=1e-14)
    assert moment(bump, 0) == pytest.approx(0.0, abs=1e-14)
    assert moment(bump, 1) == pytest.approx(-1.0, abs=1e-14)
    assert is_dipole_normalized(odd_cubic)
    assert is_dipole_normalized(bump)


def test_moment_quadrature_oracle(step, odd_cubic, bump):
    rng = np.random.default_rng(7)
    cases = [step, odd_cubic, bump]
    for _ in range(5):
        breaks = np.sort(rng.uniform(-0.9, 0.9, size=2))
        nodes = [-1.0, *breaks, 1.0]
        segs = tuple(
            Segment(a, b, tuple(rng.uniform(-2, 2, size=rng.integers(1, 5))))
            for a, b in zip(nodes, nodes[1:])
        )
        cases.append(Profile(segs, label="random"))
    for p in cases:
        for k in (0, 1, 2, 3):
            assert moment(p, k) == pytest.approx(
                gauss_legendre_moment(p, k), abs=1e-12
            )


def test_classify_step(step):
    cls = classify(step)
    assert cls.kind is ProfileKind.DELTA_PRIME_LIKE
    assert cls.c == pytest.approx(1.0, abs=1e-14)
    assert cls.m0 == 0.0 and cls.m1 == -1.0


def test_classify_even_truncated_parabola():
    # 1 - xi^2 on [-1, 1]: m0 = 4/3 > 0
    p = Profile((Segment(-1.0, 1.0, (1.0, 0.0, -1.0)),), label="parabola")
    cls = classify(p)
    assert cls.kind is ProfileKind.GENERAL
    assert cls.m0 == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert cls.c is None


def test_classify_odd_with_vanishing_dipole():
    # 3 xi - 5 xi^3 is odd (m0 = 0) and its first moment cancels:
    # (2/3)*3 + (2/5)*(-5) = 0
    p = Profile((Segment(-1.0, 1.0, (0.0, 3.0, 0.0, -5.0)),), label="odd_null")
    assert moment(p, 0) == pytest.approx(0.0, abs=1e-15)
    assert moment(p, 1) == pytest.approx(0.0, abs=1e-15)
    assert classify(p).kind is ProfileKind.ZERO_MEAN_ONLY


def test_classify_scale_consistency(odd_cubic):
    base = classify(odd_cubic)
    for c in (-3.0, 0.5, 7.25):
        scaled = Profile(
            tuple(
                Segment(s.a, s.b, tuple(c * x for x in s.coeffs))
                for s in odd_cubic.segments
            ),
            label="scaled",
        )
        cls = classify(scaled)
        assert cls.m0 == pytest.approx(c * base.m0, abs=1e-12)
        assert cls.m1 == pytest.approx(c * base.m1, rel=1e-12)


def test_odd_symmetry(odd_cubic):
    rng = np.random.default_rng(3)
    for xi in rng.uniform(-1, 1, size=50):
        assert evaluate(odd_cubic, xi) == pytest.approx(-evaluate(odd_cubic, -xi), abs=1e-14)


def test_builtin_errors():
    # builtin builds the named shapes only; custom shapes come from JSON
    for name in ("gaussian", "custom"):
        with pytest.raises(ValueError):
            builtin(name)
    with pytest.raises(ProfileFormatError):
        from_json_dict({"segments": [{"interval": [0.0, 1.0], "coeffs": [1.0]}]})
    with pytest.raises(ProfileFormatError):
        from_json_dict({"segments": "not-a-list"})
    with pytest.raises(ProfileFormatError):
        from_json_dict({})


def test_partition_validation():
    with pytest.raises(ProfileFormatError):
        Profile((Segment(-1.0, 0.2, (1.0,)), Segment(0.3, 1.0, (1.0,))))  # gap
    with pytest.raises(ProfileFormatError):
        Profile((Segment(-1.0, 0.5, (1.0,)), Segment(0.4, 1.0, (1.0,))))  # overlap
    with pytest.raises(ProfileFormatError):
        Profile((Segment(-0.5, 1.0, (1.0,)),))  # wrong left end
    with pytest.raises(ProfileFormatError):
        Profile((Segment(-1.0, -1.0, (1.0,)), Segment(-1.0, 1.0, (1.0,))))  # empty
    for coeffs in ((float("inf"),), (0.0, float("nan")), (1e308, float("-inf"))):
        with pytest.raises(ProfileFormatError, match="non-finite"):
            Profile((Segment(-1.0, 1.0, coeffs),))
    with pytest.raises(ProfileFormatError, match="non-finite"):
        Profile((Segment(-1.0, float("nan"), (1.0,)), Segment(float("nan"), 1.0, (1.0,))))
    with pytest.raises(ProfileFormatError, match="non-finite"):
        from_json_dict({"segments": [{"interval": [-1.0, 1.0], "coeffs": [1e999]}]})


def test_json_round_trip(bump, tmp_path):
    doc = {
        "label": bump.label,
        "segments": [{"interval": [seg.a, seg.b], "coeffs": list(seg.coeffs)}
                     for seg in bump.segments],
    }
    again = from_json_dict(doc)
    assert again == bump
    path = tmp_path / "bump.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    loaded = profiles.load(path)
    assert loaded == bump
    with pytest.raises(ProfileFormatError):
        from_json_dict({"label": "x"})


@pytest.mark.parametrize("segment", [
    {"interval": [-1, 1], "coeffs": "12"},  # once read as 1 + 2 xi
    {"interval": "-1", "coeffs": [1.0]},
    {"interval": [-1, 1], "coeffs": 1.0},
    {"interval": {"a": -1, "b": 1}, "coeffs": [1.0]},
], ids=["coeffs-string", "interval-string", "coeffs-number", "interval-object"])
def test_segment_fields_must_be_arrays(segment):
    with pytest.raises(ProfileFormatError, match="JSON arrays"):
        from_json_dict({"segments": [segment]})


def test_reflect(step, bump):
    mirrored = reflect(step)
    for xi in (-0.7, -0.2, 0.3, 0.9):
        assert evaluate(mirrored, xi) == pytest.approx(evaluate(step, -xi), abs=1e-14)
    assert moment(reflect(bump), 0) == pytest.approx(0.0, abs=1e-13)
    assert moment(reflect(bump), 1) == pytest.approx(1.0, abs=1e-13)


def test_max_abs_samples_a_profile_once(monkeypatch):
    p = builtin("asymmetric_bump")
    first = p.max_abs

    def unsampled(self, xi):
        raise AssertionError("max_abs sampled the profile again")

    monkeypatch.setattr(Segment, "__call__", unsampled)
    assert p.max_abs == first > 0.0

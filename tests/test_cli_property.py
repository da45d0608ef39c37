"""Property test of the CLI exit-code contract on generated argument vectors.

For the cheap subcommands (``classify``, ``theta``, ``resonances`` on narrow
windows and single-point ``scatter``) and for small ``spectrum``,
``interval`` and ``dive`` configurations, every argument vector must end in
exit 0, 2, 3 or 4 without a traceback, and a successful run must replay
from its manifest to the same bytes.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pointbarrier.cli import main  # noqa: E402

PROFILES = st.sampled_from(["step", "odd_cubic", "asymmetric_bump", "even_quadratic"] * 2 + ["nope"])
ODD_TOKENS = st.sampled_from(["nan", "inf", "-inf", "1e400", "0", "-0", "-1", "abc", "", "1,2", "--"])
STYLES = st.integers(0, 2)


def _spelled(value: float, style: int) -> str:
    return (repr(value), f"{value:.3e}", f"{value:.4f}")[style]


def _plain(lo: float, hi: float):
    """A number in [lo, hi] spelled as repr, exponent or fixed point."""
    return st.builds(_spelled, st.floats(lo, hi), STYLES)


def _number(lo: float, hi: float):
    """A ``_plain`` number or (once in eight draws) an odd token."""
    return st.one_of(*[_plain(lo, hi)] * 7, ODD_TOKENS)


@st.composite
def _argv(draw) -> list[str]:
    command = draw(st.sampled_from(["classify", "theta", "resonances", "scatter"]))
    argv = [command, "--profile", draw(PROFILES)]
    if command == "classify":
        argv += ["--moment-tol", draw(_number(0.0, 1.0))]
    elif command == "theta":
        argv += ["--alpha", draw(_number(-60.0, 60.0)),
                 draw(st.sampled_from(["--refine", "--no-refine"]))]
    elif command == "resonances":  # narrow windows, sometimes empty or reversed
        lo, width = draw(st.floats(-60.0, 60.0)), draw(st.floats(-0.5, 2.0))
        argv += ["--window", _spelled(lo, draw(STYLES)), _spelled(lo + width, draw(STYLES))]
    else:
        argv += ["--alpha", draw(_number(-60.0, 60.0)), "--eps", draw(_number(1e-3, 1.0)),
                 "--k", draw(_number(0.05, 5.0))]
    return argv


@st.composite
def _solver_argv(draw) -> list[str]:
    """Small solver runs; only the coupling may be an odd token, so that
    most draws run the solver."""
    command = draw(st.sampled_from(["dive", "interval", "spectrum"]))
    if command == "spectrum":
        mode = draw(st.sampled_from(["limit", "perturbed"]))
        potential = draw(st.sampled_from(["harmonic", "tilted_harmonic", "poly:0,0.5,1.5"]))
        argv = [command, "--mode", mode, "--potential", potential,
                "--radius", draw(_plain(6.0, 9.0)), "--levels", str(draw(st.integers(1, 3)))]
        if mode == "limit":
            theta = "theta:" + draw(_plain(-3.0, 3.0))
            return argv + ["--bc", draw(st.sampled_from(
                ["dirichlet-split", "separated:1,0,1,0", "matrix:1,0.5,0,1",
                 "matrix:1,0,-5,1", theta, theta]))]
        return argv + ["--profile", draw(PROFILES), "--alpha", draw(_number(-6.0, 6.0)),
                       "--eps", draw(_plain(0.05, 0.5))]
    argv = [command, "--profile", draw(PROFILES)]
    if command == "interval":
        return argv + ["--alpha", draw(_number(-20.0, 20.0)), "--a", draw(_plain(-2.0, -0.6)),
                       "--b", draw(_plain(0.6, 2.5)), "--eps", draw(_plain(0.01, 0.5)),
                       "--count", str(draw(st.integers(1, 3)))]
    hi = draw(st.floats(0.1, 0.4))
    ladder = [_spelled(hi, draw(STYLES)), _spelled(hi / draw(st.floats(1.2, 3.0)), draw(STYLES))]
    return argv + ["--alpha", draw(_number(1.0, 10.0)), "--eps-ladder=" + ",".join(ladder)]


def _main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_exit_codes_and_replay(argv):
    _check_exit_code_and_replay(argv)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_solver_argv())
@example(["spectrum", "--mode", "limit", "--potential", "harmonic", "--radius", "7",
          "--levels", "3", "--bc", "matrix:1,0,-5,1"])  # attractive delta coupling
@example(["spectrum", "--mode", "limit", "--potential", "harmonic", "--radius", "7",
          "--levels", "3", "--bc", "dirichlet-split"])
@example(["spectrum", "--mode", "limit", "--potential", "harmonic", "--radius", "7",
          "--levels", "3", "--bc", "separated:1,0,1,0"])
def test_solver_exit_codes_and_replay(argv):
    _check_exit_code_and_replay(argv)


def _check_exit_code_and_replay(argv):
    with tempfile.TemporaryDirectory() as tmp:
        first, again = Path(tmp) / "first", Path(tmp) / "again"
        code, err = _main(argv + ["--out", str(first)])
        assert code in (0, 2, 3, 4), err
        assert "Traceback" not in err
        if code != 0:
            return
        code, err = _main(["rerun", str(first / "manifest.json"), "--out", str(again)])
        assert code == 0, err
        written = sorted(p.name for p in first.iterdir() if p.name != "manifest.json")
        assert written == sorted(p.name for p in again.iterdir() if p.name != "manifest.json")
        for name in written:
            assert (again / name).read_bytes() == (first / name).read_bytes(), name

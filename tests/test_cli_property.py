"""Property test of the CLI exit-code contract on generated argument vectors.

For the cheap subcommands (``classify``, ``theta``, ``resonances`` on narrow
windows and single-point ``scatter``) every argument vector must end in exit
0, 2, 3 or 4 without a traceback, and a successful run must replay from its
manifest to the same bytes.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pointbarrier.cli import main  # noqa: E402

PROFILES = st.sampled_from(["step", "odd_cubic", "asymmetric_bump", "even_quadratic"] * 2 + ["nope"])
ODD_TOKENS = st.sampled_from(["nan", "inf", "-inf", "1e400", "0", "-0", "-1", "abc", "", "1,2", "--"])
STYLES = st.integers(0, 2)


def _spelled(value: float, style: int) -> str:
    return (repr(value), f"{value:.3e}", f"{value:.4f}")[style]


def _number(lo: float, hi: float):
    """A number in [lo, hi] spelled as repr, exponent or fixed point, or
    (once in eight draws) an odd token."""
    spelled = st.builds(_spelled, st.floats(lo, hi), STYLES)
    return st.one_of(*[spelled] * 7, ODD_TOKENS)


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


def _main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_exit_codes_and_replay(argv):
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

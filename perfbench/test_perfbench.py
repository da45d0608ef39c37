"""Tests of the benchmark itself (about two minutes):

    python3 -m pytest perfbench/test_perfbench.py

They check that a corrupted output counts as a failure, that the tracer
patches every by-name alias and restores it, that two traced units of
one seed give identical per-layer counts and byte-identical payloads, and
that the speed sampler times its bursts apart from the unit.
"""

from __future__ import annotations

import json
import shutil
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

cli = bench.import_cli()

SEED = 7


def _traced_unit(name: str, outdir: Path) -> bench.Unit:
    with tracing.Tracer() as tr:
        u = bench.run_unit(cli, workloads.WORKLOADS[name], SEED, outdir, tr)
    u.layers = tracing.layer_metrics(tr.spans)
    return u


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced units per workload, converge excepted (one untraced)."""
    base = tmp_path_factory.mktemp("units")
    out = {"converge": [bench.run_unit(cli, workloads.WORKLOADS["converge"], SEED,
                                       base / "converge0")]}
    for name in ("hypothesis", "scatter", "spectrum"):
        out[name] = [_traced_unit(name, base / f"{name}{i}") for i in range(2)]
    return out


def _check(name: str, units: list[bench.Unit]) -> list[bench.Unit]:
    bench.check_units(workloads.WORKLOADS[name], SEED, units)
    return units


def _copy(unit: bench.Unit, dest: Path) -> bench.Unit:
    outs = []
    for out in unit.outs:
        shutil.copytree(out, dest / out.name)
        outs.append(dest / out.name)
    return bench.Unit(outs, unit.wall, unit.cpu, list(unit.codes))


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _edit_csv_cell(path: Path, row: int, col: int, delta: float) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _bump_first_level(doc):
    doc["rows"][0]["lam_eps"][-1] += 1e-7


def _bump_step_root(doc):
    doc["per_profile"]["step"][1]["alpha"] += 1e-6


CORRUPTIONS = {
    "converge": lambda outs: _edit_json(outs[0] / "converge.json", _bump_first_level),
    "hypothesis": lambda outs: _edit_json(outs[0] / "hypothesis.json", _bump_step_root),
    "scatter": lambda outs: _edit_csv_cell(outs[0] / "scatter.csv", 5, 3, 1e-7),
    "spectrum": lambda outs: _edit_csv_cell(outs[0] / "spectrum.csv", 2, 1, 1e-6),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_outputs_pass_and_corruption_fails(name, traced, tmp_path):
    units = _check(name, traced[name])
    assert all(not u.failures for u in units), units[0].failures
    assert 0.0 <= units[0].worst_ratio <= 1.0

    bad = _copy(units[0], tmp_path)
    CORRUPTIONS[name](bad.outs)
    [checked] = _check(name, [bad])
    assert checked.failures


def test_exit_code_and_payload_mismatch_fail(traced, tmp_path):
    good = traced["spectrum"][0]
    crashed = bench.Unit(good.outs, good.wall, good.cpu, [3])
    drifted = _copy(good, tmp_path)
    _edit_csv_cell(drifted.outs[0] / "eigenfunction_004.csv", 100, 1, 1e-15)
    fresh = bench.Unit(good.outs, good.wall, good.cpu, [0])
    units = _check("spectrum", [fresh, crashed, drifted])
    assert not units[0].failures
    assert any("exit code 3" in f for f in units[1].failures)
    assert any("payload differs" in f for f in units[2].failures)


@pytest.mark.parametrize("name", ["hypothesis", "scatter", "spectrum"])
def test_traced_counts_and_payloads_repeat(name, traced):
    a, b = traced[name]
    for key in tracing.COUNT_KEYS:
        assert a.layers[key] == b.layers[key], key
    assert bench.payload_digest(a.outs) == bench.payload_digest(b.outs)
    assert a.layers["ivp.calls"] > 0
    if name == "scatter":
        assert a.layers["scattering.calls"] == 720
        assert a.layers["spectra.solve.calls"] == 0
    if name == "hypothesis":
        assert a.layers["resonance.roots"] > 0 and a.layers["rootfind.bisect.evals"] > 0
    if name == "spectrum":
        assert a.layers["spectra.levels"] == 5 and a.layers["ivp.sampled.calls"] > 0


def test_tracer_patches_every_alias_and_restores():
    from pointbarrier import ivp, resonance, scattering, spectra

    originals = {
        (resonance, "propagate_family"), (spectra, "propagate_family"),
        (scattering, "propagate_family"), (spectra, "illinois_vector"),
        (spectra, "brent"), (resonance, "bisect_vector"),
        (cli, "hypothesis_scan"), (cli, "pmap"), (cli, "scatter"),
    }
    before = {(m, a): getattr(m, a) for m, a in originals}
    with tracing.Tracer():
        for m, a in originals:
            assert getattr(m, a) is not before[(m, a)], f"{m.__name__}.{a}"
        assert ivp.propagate_family is before[(spectra, "propagate_family")]
    for m, a in originals:
        assert getattr(m, a) is before[(m, a)]


def test_speed_sampler_bursts_are_taken_out_of_the_unit(tmp_path):
    handler = signal.getsignal(signal.SIGALRM)
    u = bench.run_unit(cli, workloads.WORKLOADS["spectrum"], SEED, tmp_path, sample_speed=True)
    assert u.codes == [0] and 0.0 < u.speed < 10.0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    with speed.Sampler() as sp:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 20 * speed.INTERVAL_S:
            pass
    assert len(sp.walls) >= 10 and sp.spent_wall == pytest.approx(sum(sp.walls))
    assert sp.spent_cpu > 0.0
    assert speed.relative_speed([speed.REF_BURST_S, 2 * speed.REF_BURST_S]) == 0.75
    assert speed.reference_seconds(3.0, 1.0) == 3.0
    assert speed.reference_seconds(3.0, 0.5) < 3.0

#!/usr/bin/env python3
"""Benchmark of the ``pointbarrier`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout, never from an installed copy.  Each unit of the workload
(see ``workloads.py``) runs the CLI in this process, one call at a time,
with ``PB_THREADS`` unset.  Units repeat until the run is as near to
``--seconds`` as a unit boundary allows.

``--trace 0`` reports the end-to-end metrics with tracing off; a unit's
wall and CPU time are given in seconds at a reference machine speed
(``speed.py``).
``--trace 1`` runs one untraced unit, then traced units (``tracing.py``),
and reports the per-layer metrics.  Every unit's outputs are checked
against independent oracles after the timed region; a unit fails on a
nonzero exit code, a failed check, or a payload that differs from the
first unit's.  The last line of standard output is the result object;
the line before it is the run record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

SETUP_REPEATS = 5
HARD_LIMIT_S = 150.0  # stop starting units past this, to exit well within 180 s
THREAD_VARS = (
    "PB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from pointbarrier import cli; cli.main(['--version'])"
)


@dataclass
class Unit:
    outs: list[Path]
    wall: float
    cpu: float
    codes: list[int]
    speed: float = 1.0  # relative machine speed while the unit ran
    failures: list[str] = field(default_factory=list)
    worst_ratio: float = 0.0
    layers: dict | None = None


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_cli():
    if not (SRC / "pointbarrier" / "cli.py").is_file():
        _fail(f"no pointbarrier sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from pointbarrier import cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        _fail(f"imported pointbarrier from {cli.__file__}, not from {SRC}")
    return cli


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "pointbarrier").rglob("*.py"))


def setup_seconds(env: dict) -> list[float]:
    """Fresh interpreter to ``pointbarrier.cli`` imported and the parser
    built, in plain seconds.  Its speed does not follow the bursts of
    ``speed.py``: it is mostly module loading, which slowed by a quarter
    where the bursts slowed by half."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL)
        # a blocking wait: ``wait(timeout=...)`` polls every 50 ms, which
        # would round each sample up to the next poll
        timer = threading.Timer(60.0, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            _fail(f"set-up interpreter exited with code {code}")
    return times


def run_unit(cli, workload, seed: int, outdir: Path, tracer=None,
             sample_speed: bool = False) -> Unit:
    """One unit; with ``sample_speed`` its wall and CPU time exclude the
    speed bursts, and ``speed`` is the machine speed they measured."""
    calls = workload.calls(seed)
    outs = [outdir / f"call{j}" for j in range(len(calls))]
    codes = []
    sampler = speed.Sampler()
    with sampler if sample_speed else contextlib.nullcontext():
        t0 = time.perf_counter()
        c0 = time.process_time()
        for argv, out in zip(calls, outs):
            argv = [*argv, "--out", str(out)]
            try:
                codes.append(tracer.run_cli(cli.main, argv) if tracer else cli.main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
            except Exception:  # an escaped traceback is exit 1 for a CLI user
                traceback.print_exc()
                codes.append(1)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    if not sample_speed:
        return Unit(outs, wall, cpu, codes)
    return Unit(outs, wall - sampler.spent_wall, cpu - sampler.spent_cpu, codes,
                speed=sampler.speed())


def payload_digest(outs: list[Path]) -> str:
    """Digest of every output file except the run-dependent manifest."""
    h = hashlib.sha256()
    for out in outs:
        for p in sorted(out.rglob("*")):
            if p.is_file() and p.name != "manifest.json":
                h.update(str(p.relative_to(out.parent)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def check_units(workload, seed: int, units: list[Unit]) -> None:
    """Fill each unit's failures; identical payloads share one oracle check."""
    first = None
    verdict = None
    for i, u in enumerate(units):
        for out, code in zip(u.outs, u.codes):
            if code != 0:
                u.failures.append(f"{out.name}: exit code {code}")
        if u.failures:
            continue
        digest = payload_digest(u.outs)
        if first is None:
            first = digest
            ck = workloads.Checks()
            try:
                workload.check(seed, u.outs, ck)
            except Exception as exc:  # missing or malformed output
                ck.failures.append(f"checker raised {exc!r}")
            verdict = (ck.failures, ck.worst_ratio)
        elif digest != first:
            u.failures.append(f"unit {i}: payload differs from the first unit's")
            continue
        u.failures.extend(verdict[0])
        u.worst_ratio = verdict[1]


def run_record(args, env_before: dict) -> dict:
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        git_env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=git_env,
                              capture_output=True, text=True, timeout=30)
        git_head = head.stdout.strip() if head.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_head = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_head": git_head,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: env_before.get(k) for k in THREAD_VARS},
        "src_lines": src_lines(),
    }


def repeat_units(seconds: float, first: int, run) -> list[Unit]:
    """Run ``first`` units, then more while one more unit, as long as the
    last, would end nearer to ``seconds`` than stopping now."""
    start = time.perf_counter()
    units = []
    while True:
        units.append(run(len(units)))
        elapsed = time.perf_counter() - start
        if len(units) >= first and (elapsed + units[-1].wall / 2 >= seconds
                                    or elapsed + units[-1].wall > HARD_LIMIT_S):
            return units


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    env_before = dict(os.environ)
    os.environ.pop("PB_THREADS", None)
    cli = import_cli()
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    record = run_record(args, env_before)
    record["calls"] = workload.calls(args.seed)

    shutil.rmtree(OUT, ignore_errors=True)
    if args.trace == 0:
        setup = setup_seconds(dict(os.environ))
        units = repeat_units(args.seconds, 1, lambda i: run_unit(
            cli, workload, args.seed, OUT / f"unit{i}", sample_speed=True))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_units(workload, args.seed, units)
        record["setup_samples_s"] = setup
        record["unit_speed"] = [u.speed for u in units]
    else:
        def run(i):
            if i == 0:
                return run_unit(cli, workload, args.seed, OUT / "unit0")
            with tracing.Tracer() as tr:
                u = run_unit(cli, workload, args.seed, OUT / f"unit{i}", tr)
            u.layers = tracing.layer_metrics(tr.spans)
            return u

        units = repeat_units(args.seconds, 2, run)
        check_units(workload, args.seed, units)
        traced = units[1:]
        for u in traced[1:]:
            diff = [k for k in tracing.COUNT_KEYS if u.layers[k] != traced[0].layers[k]]
            if diff:
                u.failures.append(f"per-layer counts differ between traced units: {diff}")

    failed = sum(1 for u in units if u.failures)
    record["unit_wall_s"] = [u.wall for u in units]
    record["unit_cpu_s"] = [u.cpu for u in units]
    record["failures"] = [f for u in units for f in u.failures][:20]
    for msg in record["failures"]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)

    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(speed.reference_seconds(u.wall, u.speed)
                                         for u in units), "s"),
            "cpu_s": (statistics.median(speed.reference_seconds(u.cpu, u.speed)
                                        for u in units), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "pass_frac": ((len(units) - failed) / len(units), "frac"),
        }
    else:
        layers = tracing.median_metrics([u.layers for u in traced])
        files = [p for out in traced[0].outs for p in out.rglob("*") if p.is_file()]
        layers["cli.bytes_written"] = sum(p.stat().st_size for p in files)
        layers["cli.files_written"] = len(files)
        layers["src.lines"] = record["src_lines"]
        layers["acc.worst_ratio"] = max(u.worst_ratio for u in units)
        layers["trace.overhead_frac"] = (
            statistics.median(u.wall for u in traced) / units[0].wall - 1.0
        )
        metrics = {k: (v, tracing.metric_unit(k)) for k, v in layers.items()}
    shutil.rmtree(OUT, ignore_errors=True)

    print("run record: " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

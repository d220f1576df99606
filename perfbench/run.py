"""Outside-in benchmark of the TPC reproduction: host time and simulated tails.

Run from the repository root::

    python3 perfbench/run.py --workload fig4-sweep --seed 1 --seconds 10 --trace 0

One invocation measures one workload in this fresh process, one cell
at a time (``workers=1``, no process pool, no result cache):

1. set-up: the cold build of the canonical workload
   (``default_workload_spec()`` through ``memoised_workload``), each
   build against a fresh, empty ``REPRO_CACHE_DIR`` so the npz pool
   cache never serves it;
2. timed phase: the workload's cells through ``repro.exec.run_sweep``
   or ``repro.resilience.run_scenario``, as many whole passes as fit
   in ``--seconds`` (at least one).

``--trace 0`` reports the end-to-end metrics with no layer wrapped; its
host times are rescaled to the reference host's speed (see ``_Clock``).
``--trace 1`` builds once with the layer wrappers of ``spans.py``
installed, runs one untraced and one traced pass, reports the
per-layer metrics and writes every span to
``perfbench/out/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when an output check fails (the failed checks are named on
standard error) and 2 when the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Cold builds per untraced run; ``setup_s`` is their median.
SETUP_BUILDS = 2

#: Machine-speed probe: loop length, sampling period, and the probe's
#: median time on the reference host (a 2-core x86 VM).  That host
#: changes speed by up to 40 % within a second (shared cores, clock
#: boost), so host times are rescaled to its median speed.
PROBE_LOOPS = 1_500
PROBE_EVERY_S = 0.005
PROBE_REF_S = 1.4e-4

WORKLOAD_NAMES = ("fig4-sweep", "fig8-cluster", "resilience-straggler")


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _import_repro() -> None:
    """Import the checkout's own ``repro`` (never an installed copy)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _log(f"perfbench: no repro sources under {SRC}; run from a full checkout")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        _log(f"perfbench: imported repro from {repro.__file__}, expected {SRC}")
        sys.exit(2)


def _probe() -> float:
    """Seconds a fixed pure-Python loop takes right now (about 0.1 ms)."""
    started = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - started


class _Clock:
    """Host time of a code region, raw and rescaled to reference speed.

    While running, a ``SIGALRM`` every ``PROBE_EVERY_S`` interrupts the
    measured code between two bytecodes and runs the probe.  Each
    interval between probes counts ``PROBE_REF_S / probe`` times its
    length towards ``ref_s``.  Probe time itself is excluded from both
    ``raw_s`` and ``ref_s``.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.ref_s = 0.0
        self._probing = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._probing:  # an alarm that fired inside the probe
            return
        now = time.perf_counter()
        self._probing = True
        took = _probe()
        self._probing = False
        self.raw_s += now - self._mark
        self.ref_s += (now - self._mark) * PROBE_REF_S / took
        self._mark = time.perf_counter()

    def __enter__(self) -> "_Clock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()


def _cold_build(spec, scratch: Path, timer) -> None:
    """Build ``spec`` under ``timer`` with an empty pool cache and no memo."""
    from repro.exec import forget_workload, memoised_workload

    cache_dir = Path(tempfile.mkdtemp(prefix="pool-", dir=scratch))
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    forget_workload(spec)
    gc.collect()
    with timer:
        memoised_workload(spec)
    shutil.rmtree(cache_dir)


def _timed_pass(run, spec, seed: int) -> tuple[Any, _Clock]:
    """One untraced pass over the workload's cells."""
    gc.collect()
    with _Clock() as clock:
        result = run(spec, seed, None)
    return result, clock


def _untraced(run, spec, args, scratch: Path) -> tuple[dict, list]:
    builds = []
    for _ in range(SETUP_BUILDS):
        clock = _Clock()
        _cold_build(spec, scratch, clock)
        builds.append(clock.ref_s)
        _log(f"set-up build: {clock.raw_s:.3f}s host, {clock.ref_s:.3f}s at reference speed")

    passes, walls = [], []
    started = time.perf_counter()
    while True:
        result, clock = _timed_pass(run, spec, args.seed)
        passes.append(result)
        walls.append(clock.ref_s)
        _log(f"pass {len(passes)}: {clock.raw_s:.3f}s host, {clock.ref_s:.3f}s at reference speed")
        spent = time.perf_counter() - started
        if spent * (1 + 1 / len(passes)) > args.seconds:
            break

    first = passes[0]
    for extra in passes[1:]:
        if extra.simulated != first.simulated:
            first.fail("pass", "deterministic_repeat")
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    metrics = {
        "setup_s": (statistics.median(builds), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "cell_pass_rate": (1.0 - failed / attempted, "fraction"),
        "tpc_p50_ms": (first.simulated["tpc_p50_ms"], "ms"),
        "tpc_p99_ms": (first.simulated["tpc_p99_ms"], "ms"),
        "tpc_p99_vs_best_prior": (first.simulated["tpc_p99_vs_best_prior"], "ratio"),
    }
    return metrics, passes


def _traced(run, spec, args, scratch: Path) -> tuple[dict, list]:
    from layers import layer_metrics
    from spans import Tracer

    from repro.exec import memoised_workload

    tracer = Tracer()
    tracer.install()
    try:
        _cold_build(spec, scratch, tracer.phase("bench.setup"))
    finally:
        tracer.uninstall()

    plain, clock = _timed_pass(run, spec, args.seed)
    plain_wall = clock.raw_s
    gc.collect()
    tracer.install()
    try:
        with tracer.phase("bench.timed"):
            started = time.perf_counter()
            traced = run(spec, args.seed, tracer.cell_done)
            traced_wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    _log(f"untraced pass {plain_wall:.3f}s, traced pass {traced_wall:.3f}s")

    if (traced.simulated, traced.layer) != (plain.simulated, plain.layer):
        traced.fail("traced", "trace.simulated_metrics_match")
    metrics = layer_metrics(
        tracer,
        traced,
        predictor=memoised_workload(spec).predictor_report,
        plain_wall=plain_wall,
        traced_wall=traced_wall,
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        **tracer.export(),
    }, indent=1))
    _log(f"trace written to {path}")
    return metrics, [traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="cell seed")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole passes for up to this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_repro()
    from workloads import WORKLOADS

    from repro.experiments import default_workload_spec

    run = WORKLOADS[args.workload]
    spec = default_workload_spec()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        measure = _traced if args.trace else _untraced
        metrics, passes = measure(run, spec, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = [(label, check) for p in passes for label, check in p.failures.items()]
    for label, check in failures:
        _log(f"CHECK FAILED: {check} ({label})")
    for name, (value, unit) in metrics.items():
        _log(f"  {name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

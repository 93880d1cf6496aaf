"""Layered benchmark of tmprover: one workload per process, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of
the same checkout and called in-process, one item at a time, with no
threads.  Every item's output is checked against a reference.

``--trace 0`` measures the end-to-end metrics: it sets up several times
and reports the median set-up time, then runs items for ``--seconds``.
``--trace 1`` runs the first round of the same schedule once untraced and
once with the package's public functions wrapped, and reports the
per-layer metrics and the tracing overhead.  End-to-end metrics come from
untraced runs only.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(machine, code version, item counts, spans) goes to ``bench/out/``.
"""

from __future__ import annotations

import sys
import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import MODULES, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = SRC / "tmprover" / "fixtures"
OUT = ROOT / "bench" / "out"

# Nothing imported from here on (the package and the standard modules it
# pulls in) reads or writes bytecode: writing is off, and the cache prefix
# names a directory that is never created.  Every set-up thus compiles the
# package from source, whatever an earlier run or a test run left in
# ``src/``.
sys.dont_write_bytecode = True
sys.pycache_prefix = str(OUT / "no-bytecode")

# Set-ups per untraced run, before and after the timed loop; set-up time
# is their median.  One set-up lasts tens of milliseconds, so a single one
# is at the mercy of a shared machine's slow spells; splitting them keeps
# one spell from covering all of them.
SETUP_BEFORE, SETUP_AFTER = 5, 4

# Tail percentile: the highest of these with at least ten items beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# The seed of recorded figures; bench/README.md names the held-out one.
BASELINE_SEED = 1


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def import_package() -> dict:
    """Fresh import of the package from this checkout's ``src/``.  Modules
    imported before are dropped first, so every import starts with empty
    caches, as in a fresh process."""
    if not (SRC / "tmprover" / "__init__.py").is_file():
        raise SetupError(f"no package at {SRC / 'tmprover'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "tmprover" or m.startswith("tmprover.")]:
        del sys.modules[name]
    pkg = {short: importlib.import_module(f"tmprover.{short}")
           for short in MODULES}
    origin = Path(pkg["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"imported {origin}, not the checkout's package")
    return pkg


def set_up(workload, seed: int, work: Path, tracer=None):
    """One complete set-up: import, fixture reads, input generation and
    the workload's own preparation.  Returns (pkg, state, seconds)."""
    start = time.perf_counter()
    pkg = import_package()
    if tracer:
        tracer.install(pkg)
    state = workload.setup(pkg, FIXTURES, work, seed)
    return pkg, state, time.perf_counter() - start


def run_items(workload, pkg, state, items, tracer=None, deadline=None):
    """Closed loop: each item starts when the previous one has finished.
    Returns per-item latencies (s) and success flags, failure messages and
    the loop's seconds."""
    latencies, failures, ok = [], [], []
    clock = time.perf_counter
    start = clock()
    for index, item in enumerate(items):
        if deadline is not None and clock() >= deadline:
            break
        if tracer:
            tracer.item = index
        t0 = clock()
        try:
            workload.run(pkg, state, item)
            ok.append(True)
        except (Exception, SystemExit) as exc:  # every failure is counted
            failures.append(f"item {index} ({item!r:.60}): "
                            f"{type(exc).__name__}: {exc}")
            ok.append(False)
        latencies.append(clock() - t0)
    return latencies, ok, failures, clock() - start


def round_rates(latencies, ok, size):
    """Completed items per second of each complete round.  Every round
    holds the same multiset of items, so the rates are comparable and
    their median shrugs off the slow spells of a shared machine."""
    return [sum(ok[i:i + size]) / sum(latencies[i:i + size])
            for i in range(0, len(latencies) - size + 1, size)]


def tail(latencies):
    """(percentile, value) for the highest ladder percentile that has at
    least TAIL_BEYOND items beyond it; the median if none has."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return 50.0, ordered[math.ceil(n / 2) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _git(*args):
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], timeout=20,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_and_code() -> dict:
    """Where and on what code the figures were taken."""
    sha = dirty = None
    top = _git("rev-parse", "--show-toplevel")
    if top and Path(top).resolve() == ROOT.resolve():
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    digest = hashlib.sha256()
    for path in sorted((SRC / "tmprover").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha or "unknown (not a git checkout)",
            "git_dirty": dirty, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu}


def measure(workload, seed: int, seconds: float, work: Path) -> dict:
    setup_times = []
    for _ in range(SETUP_BEFORE):
        pkg, state, took = set_up(workload, seed, work)
        setup_times.append(took)
    first_item_at = time.perf_counter() - PROCESS_START
    gc.collect()
    start = time.perf_counter()
    latencies, ok, failures, elapsed = run_items(
        workload, pkg, state, itertools.cycle(state["schedule"]),
        deadline=start + seconds)
    peak_mb = peak_rss_mb()
    for _ in range(SETUP_AFTER):
        setup_times.append(set_up(workload, seed, work)[2])
    attempted = len(latencies)
    rates = round_rates(latencies, ok, workload.round_size)
    if not rates:
        raise SetupError(f"--seconds {seconds} is too short for one round")
    percentile, tail_s = tail(latencies)
    metrics = {
        "items_per_s": statistics.median(rates),
        "item_ms.p50": statistics.median(latencies) * 1000,
        "item_ms.tail": tail_s * 1000,
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.median(setup_times),
    }
    return {
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "metrics": metrics,
        "error_rate": len(failures) / attempted,
        "tail_percentile": percentile,
        "tail_beyond": attempted - math.ceil(percentile / 100 * attempted),
        "loop_seconds": elapsed,
        "rounds": len(rates), "round_size": workload.round_size,
        "items_per_s_whole_loop": sum(ok) / elapsed,
        "setup_times_s": setup_times,
        "process_start_to_first_item_s": first_item_at,
    }


def measure_traced(workload, seed: int, work: Path) -> dict:
    """The first round untraced, then again traced.  Each starts from a
    fresh import, so both see cold package caches and the traced counters
    match those of a fresh process.  A discarded first pass warms what a
    fresh import keeps (the standard library's caches and the modules it
    loads on first use), so the two measured passes start alike."""
    pkg, state, _ = set_up(workload, seed, work)
    items = state["schedule"][:workload.round_size]
    _, _, warm_failures, _ = run_items(workload, pkg, state, items)
    pkg, state, _ = set_up(workload, seed, work)
    gc.collect()
    _, _, plain_failures, plain_s = run_items(workload, pkg, state, items)
    tracer = Tracer()
    pkg, state, _ = set_up(workload, seed, work, tracer)
    gc.collect()
    _, _, failures, traced_s = run_items(workload, pkg, state, items, tracer)
    tracer.uninstall()
    metrics = layer_metrics(tracer.spans)
    traced_rate = (len(items) - len(failures)) / traced_s
    plain_rate = (len(items) - len(plain_failures)) / plain_s
    metrics["trace.items_per_s_traced"] = traced_rate
    metrics["trace.items_per_s_untraced"] = plain_rate
    metrics["trace.overhead_items_per_s"] = traced_rate - plain_rate
    tracer.write(work / "spans.jsonl")
    return {
        "attempted": 3 * len(items),
        "failed": len(warm_failures) + len(plain_failures) + len(failures),
        "failures": warm_failures + plain_failures + failures,
        "metrics": metrics,
        "spans": len(tracer.spans),
        "spans_file": str((work / "spans.jsonl").relative_to(ROOT)),
    }


def declared_metrics(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    work = OUT / f"{workload.name}-s{args.seed}"
    try:
        units = declared_metrics(args.trace)
        work.mkdir(parents=True, exist_ok=True)
        if args.trace:
            result = measure_traced(workload, args.seed, work)
        else:
            result = measure(workload, args.seed, args.seconds, work)
    except (SetupError, ImportError, OSError, ValueError) as exc:
        print(f"error: set-up failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2

    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, **machine_and_code(), **result}
    record_path = work / f"result-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for message in result["failures"][:10]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"git={record['git_sha'][:12]} dirty={record['git_dirty']} "
          f"python={record['python']} nproc={record['nproc']} "
          f"cpu={record['cpu_model']!r}")
    if args.trace:
        print(f"traced {result['attempted'] // 3} items, {result['spans']} "
              f"spans -> {result['spans_file']}; end-to-end metrics come "
              f"from untraced runs only")
    else:
        print(f"{'error_rate':40s} {result['error_rate']:.6g} ratio "
              f"({result['failed']}/{result['attempted']})")
        print(f"tail percentile p{result['tail_percentile']:g} of "
              f"{result['attempted']} items, {result['tail_beyond']} beyond; "
              f"set-up median of {len(result['setup_times_s'])}")
    metrics = result["metrics"]
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units.get(name, '')}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

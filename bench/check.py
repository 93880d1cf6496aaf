"""Checks of the benchmark itself, run from the repository root.

    python3 bench/check.py spread --workload NAME --seeds 1-10 [--seconds S]
    python3 bench/check.py determinism [--workload NAME] [--seed N]

``spread`` runs the untraced benchmark once per seed, one run at a time,
and reports for each end-to-end metric its median and the distance between
the first and third quartile as a share of the median, next to the
metric's bound from BENCHMARK.json.

``determinism`` makes two traced runs with the same seed for each workload
and requires every work counter (calls, state counts, positions, digit
steps, dimensions) to be identical.  Times are not compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output "
                           f"({result['failed']}/{result['attempted']})")
    return result


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def spread(args) -> int:
    values: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        result = run_once(args.workload, seed, args.seconds, 0)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: attempted={result['attempted']} " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)
    ok = True
    print(f"{'metric':16s} {'median':>12s} {'iqr/median':>11s} {'bound':>6s}")
    for metric in SPEC["end_to_end"]:
        vals = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / median
        flag = ""
        if share > metric["bound"]:
            flag, ok = "  OVER BOUND", False
        elif share > metric["bound"] / 3:
            flag = "  over a third of the bound"
        print(f"{metric['name']:16s} {median:12.6g} {share:11.4f} "
              f"{metric['bound']:6.3f}{flag}")
    return 0 if ok else 1


def determinism(args) -> int:
    workloads = [args.workload] if args.workload else [
        w["name"] for w in SPEC["workloads"]]
    # Every per-layer metric that is not a time or a rate is a work count.
    counters = [m["name"] for m in SPEC["per_layer"]
                if m["unit"] not in ("s", "1/s")]
    ok = True
    for workload in workloads:
        first, second = (run_once(workload, args.seed, 1, 1)["metrics"]
                         for _ in range(2))
        differ = [n for n in counters
                  if first[n]["value"] != second[n]["value"]]
        ok = ok and not differ
        print(f"{workload}: {len(counters)} counters, "
              f"{'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.set_defaults(func=spread)
    p = sub.add_parser("determinism")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=determinism)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
